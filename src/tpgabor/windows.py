"""Totally positive window families with certified decay envelopes.

Every window evaluates pointwise on the real line, is real-valued, and
carries a :class:`DecayProfile` that dominates it.  The envelope is what
all series truncations in the rest of the package are certified against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class WindowError(ValueError):
    """Invalid window parameters."""


@dataclass(frozen=True)
class DecayProfile:
    """Pointwise envelope C*exp(-rate*|t|)."""

    C: float
    rate: float

    def __post_init__(self):
        # every window kind and dilation builds one: a nan or infinite
        # parameter ends here as bad input, not later as a numeric crash.
        # A rate with exp(-rate) == 1 (below about 1.1e-16) has no
        # geometric tail sum in floating point.
        if not (0 < self.C < math.inf and 0 < self.rate < math.inf):
            raise WindowError("envelope constants must be finite and positive")
        if math.exp(-self.rate) == 1.0:
            raise WindowError(f"envelope rate {self.rate!r} is too small")

    def envelope(self, t):
        t = np.abs(np.asarray(t, dtype=float))
        return self.C * np.exp(-self.rate * t)

    def tail_radius(self, tol: float) -> int:
        """Smallest certified R with sum_{|k|>R} sup_{x in [0,1]} env(x-k) < tol."""
        if tol <= 0:
            raise WindowError("tol must be positive")
        lam = self.rate
        # sum_{k>R} C e^{-lam(k-1)} + sum_{k<-R} C e^{-lam k} <= 2C e^{-lam R}/(1-e^{-lam})
        r = math.log(2.0 * self.C / ((1.0 - math.exp(-lam)) * tol)) / lam
        return max(1, math.ceil(r))

    def tail_sum(self, R: int) -> float:
        """Certified upper bound for the tail sum beyond radius R."""
        lam = self.rate
        return 2.0 * self.C * math.exp(-lam * R) / (1.0 - math.exp(-lam))


class TPWindow:
    """Base class: a real-valued totally positive window."""

    decay: DecayProfile

    @property
    def even(self) -> bool:
        """True when g(-t) = g(t) is known from the parameters.

        Derived, never set: an even window's Zak transform satisfies
        Z_p g(-y, xi) = conj Z_p g(y, xi), which halves the x grid of the
        frame-bound window.  False means "not known to be even".
        """
        return False

    def __call__(self, t):
        raise NotImplementedError

    def config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Gaussian(TPWindow):
    """g(t) = exp(-gamma t^2), gamma > 0."""

    gamma: float = math.pi
    decay: DecayProfile = field(init=False)

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise WindowError("Gaussian needs a finite gamma > 0")
        # sup_t exp(lam|t| - gamma t^2) = exp(lam^2/(4 gamma)) for any rate
        # lam: lam = 2 gamma gives C = exp(gamma) up to gamma = 100, and the
        # cap lam <= 200 keeps C below e^100 beyond
        lam = min(2.0 * self.gamma, 200.0)
        C = (math.exp(self.gamma) if lam == 2.0 * self.gamma
             else math.exp(lam * lam / (4.0 * self.gamma)))
        object.__setattr__(self, "decay", DecayProfile(C=C, rate=lam))

    @property
    def even(self) -> bool:
        return True

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-self.gamma * t * t)

    def config(self):
        return {"kind": "gaussian", "gamma": self.gamma}


@dataclass(frozen=True)
class OneSidedExp(TPWindow):
    """g(t) = exp(-gamma t) on {gamma t >= 0}, zero elsewhere; gamma != 0."""

    gamma: float = 1.0
    decay: DecayProfile = field(init=False)

    def __post_init__(self):
        if self.gamma == 0:
            raise WindowError("OneSidedExp needs gamma != 0")
        object.__setattr__(self, "decay", DecayProfile(C=1.0, rate=abs(self.gamma)))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        u = self.gamma * t
        return np.where(u >= 0.0, np.exp(-np.abs(u)), 0.0)

    def config(self):
        return {"kind": "one_sided_exp", "gamma": self.gamma}


@dataclass(frozen=True)
class HyperbolicSecant(TPWindow):
    """g(t) = 1 / (exp(a t) + exp(-a t)), a > 0."""

    a: float = 1.0
    decay: DecayProfile = field(init=False)

    def __post_init__(self):
        if self.a <= 0:
            raise WindowError("HyperbolicSecant needs a > 0")
        object.__setattr__(self, "decay", DecayProfile(C=1.0, rate=self.a))

    @property
    def even(self) -> bool:
        return True

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        u = np.exp(-self.a * np.abs(t))
        return u / (1.0 + u * u)

    def config(self):
        return {"kind": "sech", "a": self.a}


@dataclass(frozen=True)
class FiniteProduct(TPWindow):
    """Window whose Fourier transform is the finite factorization

        ghat(xi) = c * exp(-gamma xi^2) * exp(2 pi i nu xi)
                     * prod_j (1 + 2 pi i nu_j xi)^{-1} exp(-2 pi i nu_j xi).

    With gamma = 0 and pairwise-distinct nu_j the time-domain window is an
    exact combination of one-sided exponentials (partial fractions); with a
    Gaussian factor or repeated nu_j it is evaluated by oscillatory-weight
    inverse Fourier quadrature.
    """

    gamma: float = 0.0
    nus: Sequence[float] = ()
    nu: float = 0.0
    c: float = 1.0
    decay: DecayProfile = field(init=False)
    _pf: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nus = tuple(float(v) for v in self.nus)
        object.__setattr__(self, "nus", nus)
        if self.gamma < 0:
            raise WindowError("FiniteProduct needs gamma >= 0")
        if self.c <= 0:
            raise WindowError("FiniteProduct needs c > 0")
        if len(nus) == 0:
            raise WindowError("FiniteProduct needs at least one factor "
                              "(use Gaussian for a pure Gaussian window)")
        if self.gamma + sum(v * v for v in nus) <= 0:
            raise WindowError("FiniteProduct needs gamma + sum(nu_j^2) > 0")
        if not all(v != 0.0 and math.isfinite(v) for v in nus):
            raise WindowError("FiniteProduct factors need finite nu_j != 0")
        object.__setattr__(self, "_pf", self._partial_fractions())
        try:
            object.__setattr__(self, "decay", self._build_decay())
        except OverflowError:  # an exp() factor of C, e.g. e^{lam tau}
            raise WindowError("FiniteProduct envelope constant overflows") \
                from None

    # time shift carried by the phase factors of ghat
    @property
    def _shift(self) -> float:
        return sum(self.nus) - self.nu

    @property
    def even(self) -> bool:
        # nu = 0 and nus = -nus pair each factor with its mirror, so ghat
        # is real and even: c exp(-gamma xi^2) prod 1/(1 + 4 pi^2 nu_j^2 xi^2)
        return self.nu == 0.0 and sorted(self.nus) == sorted(-v for v in self.nus)

    @property
    def has_closed_form(self) -> bool:
        return self.gamma == 0.0 and self._pf is not None

    def _partial_fractions(self):
        """Residues A_j of prod 1/(1+nu_j s) for simple poles, else None."""
        nus = self.nus
        for i in range(len(nus)):
            for j in range(i + 1, len(nus)):
                if abs(nus[i] - nus[j]) <= 1e-12 * max(abs(nus[i]), abs(nus[j])):
                    return None
        coeffs = []
        for j, vj in enumerate(nus):
            a = 1.0
            for k, vk in enumerate(nus):
                if k != j:
                    a *= vj / (vj - vk)
            coeffs.append(a)
        return tuple(coeffs)

    def _build_decay(self) -> DecayProfile:
        rates = [1.0 / abs(v) for v in self.nus]
        tau = abs(self._shift)
        if self.has_closed_form:
            lam = min(rates)
            C = self.c * sum(abs(a) / abs(v) for a, v in zip(self._pf, self.nus))
            return DecayProfile(C=C * math.exp(lam * tau), rate=lam)
        # convolution bound: each extra exponential factor costs 2/(lam_i - lam)
        lam = 0.9 * min(rates)
        C = self.c / abs(self.nus[0])
        for r, v in zip(rates[1:], self.nus[1:]):
            C *= (1.0 / abs(v)) * 2.0 / (r - lam)
        if self.gamma > 0:
            # Gaussian factor: amplitude sqrt(pi/gamma), mass of env * e^{lam|s|}
            a = math.pi ** 2 / self.gamma
            C *= math.sqrt(math.pi / self.gamma) \
                * 2.0 * math.exp(lam * lam / (4.0 * a)) * math.sqrt(math.pi / a)
        return DecayProfile(C=C * math.exp(lam * tau), rate=lam)

    def fourier_transform(self, xi):
        xi = np.asarray(xi, dtype=complex)
        out = self.c * np.exp(-self.gamma * xi * xi) * np.exp(2j * math.pi * self.nu * xi)
        for v in self.nus:
            out = out / (1.0 + 2j * math.pi * v * xi) * np.exp(-2j * math.pi * v * xi)
        return out

    def _eval_closed(self, t):
        t = np.asarray(t, dtype=float)
        u = t - self._shift
        out = np.zeros_like(u)
        # u = 0 belongs to exactly one side, else the kink point double-counts
        zero_side = 1.0 if any(v > 0 for v in self.nus) else -1.0
        for a, v in zip(self._pf, self.nus):
            on = (u / v > 0.0) | ((u == 0.0) & (v * zero_side > 0))
            out = out + np.where(on, (a / abs(v)) * np.exp(-np.abs(u) / abs(v)), 0.0)
        return self.c * out

    def _eval_quad_scalar(self, t: float) -> float:
        """g(t) as the inverse Fourier integral of the closed-form transform.

        The only window path that needs SciPy: ``quad`` is imported here,
        not at module level, so that importing the package loads no SciPy
        module, and only a Gaussian-factor product (or a caller of
        :meth:`evaluate_by_quadrature`) pays for that import.
        """
        from scipy.integrate import quad

        def re_part(xi):
            return self.fourier_transform(xi).real

        def im_part(xi):
            return self.fourier_transform(xi).imag

        if self.gamma > 0:
            # integrand damped by exp(-gamma xi^2); finite cutoff suffices
            X = math.sqrt(math.log(max(self.c, 1.0) / 1e-18) / self.gamma) + 2.0
            w = 2.0 * math.pi * t
            rc, _ = quad(lambda x: re_part(x) * math.cos(w * x), 0.0, X,
                         epsabs=1e-13, epsrel=1e-13, limit=800)
            rs, _ = quad(lambda x: im_part(x) * math.sin(w * x), 0.0, X,
                         epsabs=1e-13, epsrel=1e-13, limit=800)
            return 2.0 * (rc - rs)
        if abs(t) < 1e-9:
            rc, _ = quad(re_part, 0.0, np.inf, epsabs=1e-13, limit=800)
            return 2.0 * rc
        w = 2.0 * math.pi * abs(t)
        rc, _ = quad(re_part, 0.0, np.inf, weight="cos", wvar=w,
                     epsabs=1e-12, limlst=400, limit=800)
        rs, _ = quad(im_part, 0.0, np.inf, weight="sin", wvar=w,
                     epsabs=1e-12, limlst=400, limit=800)
        return 2.0 * (rc - math.copysign(1.0, t) * rs)

    def evaluate_by_quadrature(self, t):
        t = np.asarray(t, dtype=float)
        flat = [self._eval_quad_scalar(float(v)) for v in np.atleast_1d(t).ravel()]
        out = np.array(flat).reshape(np.atleast_1d(t).shape)
        return out if t.ndim else float(out[()] if out.shape == () else out[0])

    def __call__(self, t):
        if self.has_closed_form:
            return self._eval_closed(t)
        return self.evaluate_by_quadrature(t)

    def config(self):
        return {"kind": "finite_product", "gamma": self.gamma,
                "nus": list(self.nus), "nu": self.nu, "c": self.c}


@dataclass(frozen=True)
class Dilated(TPWindow):
    """L^2-normalized dilation b^{-1/2} g(t/b); totally positive with g."""

    base: TPWindow
    b: float
    decay: DecayProfile = field(init=False)

    def __post_init__(self):
        if self.b <= 0:
            raise WindowError("dilation factor must be positive")
        d = self.base.decay
        object.__setattr__(self, "decay", DecayProfile(C=d.C / math.sqrt(self.b),
                                                       rate=d.rate / self.b))

    @property
    def even(self) -> bool:
        return self.base.even

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.base(t / self.b) / math.sqrt(self.b)

    def config(self):
        return {"kind": "dilated", "b": self.b, "base": self.base.config()}


def two_sided_exponential(rate: float = 1.0) -> FiniteProduct:
    """The window exp(-rate*|t|) realized as a two-factor product."""
    if rate <= 0:
        raise WindowError("rate must be positive")
    return FiniteProduct(gamma=0.0, nus=(1.0 / rate, -1.0 / rate), c=2.0 / rate)


_KINDS = {"gaussian", "one_sided_exp", "sech", "finite_product",
          "two_sided_exp", "dilated"}


def window_from_config(cfg: dict) -> TPWindow:
    """Build a window from its JSON-style description.

    Schemas:
        {"kind": "gaussian", "gamma": 3.14159}
        {"kind": "one_sided_exp", "gamma": 1.0}
        {"kind": "sech", "a": 1.0}
        {"kind": "two_sided_exp", "rate": 1.0}
        {"kind": "finite_product", "gamma": 0.0, "nus": [1.0, -1.0],
         "nu": 0.0, "c": 1.0}
    """
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise WindowError("window config must be a dict with a 'kind' key")
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise WindowError(f"unknown window kind {kind!r}")
    if kind == "gaussian":
        return Gaussian(gamma=_number(cfg.get("gamma", math.pi), "gamma"))
    if kind == "one_sided_exp":
        return OneSidedExp(gamma=_number(cfg.get("gamma", 1.0), "gamma"))
    if kind == "sech":
        return HyperbolicSecant(a=_number(cfg.get("a", 1.0), "a"))
    if kind == "two_sided_exp":
        return two_sided_exponential(rate=_number(cfg.get("rate", 1.0), "rate"))
    if kind == "dilated":
        return Dilated(base=window_from_config(cfg.get("base")),
                       b=_number(cfg.get("b"), "b"))
    nus = cfg.get("nus", ())
    if not isinstance(nus, (list, tuple)):
        raise WindowError(f"window config field 'nus' is not a list: {nus!r}")
    return FiniteProduct(gamma=_number(cfg.get("gamma", 0.0), "gamma"),
                         nus=tuple(_number(v, "nus") for v in nus),
                         nu=_number(cfg.get("nu", 0.0), "nu"),
                         c=_number(cfg.get("c", 1.0), "c"))


def _number(value, key: str) -> float:
    """A window config field as a finite float; a missing field arrives as
    None, and a JSON true or false is not a number."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if isinstance(value, bool) or not math.isfinite(x):
        raise WindowError(f"window config field {key!r} is missing or not "
                          f"a finite number: {value!r}")
    return x


# certified truncation tail of every certificate's series (the Zak-zero
# anchor sums its Zak values at 1e-12 instead)
TAIL_TOL = 1e-10


def truncation_radius(w: TPWindow, tol: float) -> int:
    """Radius R with sum_{|k|>R} envelope(x-k) < tol for every x in [0,1]."""
    return w.decay.tail_radius(tol)


def frame_at_critical_density(w: TPWindow) -> bool:
    """True for a one-sided exponential up to shift, scale and reflection:
    OneSidedExp or a one-factor FiniteProduct with gamma = 0, under any
    dilations.  Its Gabor family is a frame at alpha*beta = 1 (Janssen 1996).
    """
    while isinstance(w, Dilated):
        w = w.base
    return isinstance(w, OneSidedExp) or (
        isinstance(w, FiniteProduct) and w.gamma == 0.0 and len(w.nus) == 1)
