"""Reference checks and windows that only the tests use.

``fourier_factorization_check`` is the oracle of acceptance criterion 8
(the Fourier factorization of G through A(xi)), and
``inverse_decay_profile`` the one of criterion 10 (off-diagonal decay of
the inverse of a G section).  ``transfer_window_full_grid`` and
``injectivity_scan_one`` are the references of the transfer window's
sparse eigenvalue step and of the shared injectivity round loop: the
straightforward forms, ``eigvalsh`` at every xi node and one cover per
perturbation, that the package must match bitwise.  ``Hermite1`` and ``Shifted`` are windows
outside the theorem, the negative controls of the certificates.  All of
them read the package; none is read by it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from tpgabor.lattice import PerturbationSeq, RationalLattice
from tpgabor.tpmatrix import G_entries, MatrixSection, TPMatrixError
from tpgabor.windows import (TAIL_TOL, DecayProfile, TPWindow,
                             truncation_radius)
from tpgabor.zak import _zak_samples
from tpgabor.zibulski import (INJECTIVITY_XI_GRID_N, SIGMA_TOL,
                              TRANSFER_XI_GRID_N, InjectivityCertificate,
                              ZibulskiError, _A_points, _A_stack,
                              _TRANSFER_CHUNK, _transfer_stack, a_landscape)


@dataclass(frozen=True)
class FactorizationReport:
    max_dev: float
    tol: float
    passed: bool
    xi_grid_n: int


def fourier_factorization_check(w: TPWindow, lat: RationalLattice,
                                pert: PerturbationSeq, c: np.ndarray,
                                c_offset: int = 0, xi_grid_n: int = 64,
                                tol: float = 1e-10) -> FactorizationReport:
    """Verify A(xi) x(xi) = y(xi) against the direct time-side computation.

    c is a finitely supported sequence (c_offset is the index of c[0]).
    d = Gc is computed directly; the residue-class Fourier series of d is
    compared with A(xi) applied to the residue-class series of c on a xi
    grid.  Deviation above 100*tol raises (structural bug).
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ZibulskiError("c must be a nonempty 1-D sequence")
    p = lat.p
    l_idx = np.arange(c_offset, c_offset + len(c))
    c_l1 = float(np.sum(np.abs(c)))
    R = truncation_radius(w, tol / max(c_l1, 1.0))
    ks = np.arange(l_idx[0] - R - pert.p - 2, l_idx[-1] + R + pert.p + 3)
    d = G_entries(w, pert, ks, l_idx) @ c

    xis = np.linspace(0.0, 1.0 / p, xi_grid_n + 1)
    A = _A_stack(w, lat, pert, xis, tol)  # (nxi, p, p)

    x_vec = _residue_series(l_idx, c, p, xis)
    y_vec = _residue_series(ks, d, p, xis)
    y_from_A = np.einsum("nrs,ns->nr", A, x_vec)
    max_dev = float(np.max(np.abs(y_from_A - y_vec)))
    passed = max_dev < 100.0 * tol
    if not passed:
        raise ZibulskiError(
            f"factorization identity violated: max deviation {max_dev:.3g} "
            f">= {100 * tol:g}")
    return FactorizationReport(max_dev=max_dev, tol=tol, passed=passed,
                               xi_grid_n=xi_grid_n)


def _residue_series(idx: np.ndarray, vals: np.ndarray, p: int,
                    xis: np.ndarray) -> np.ndarray:
    """Per residue r, the sum of vals[m] e^{-2 pi i p n xi} over the
    entries m with idx[m] = r + p n; shape (nxi, p).

    The e^{-2 pi i} convention matches the Zak kernel orientation:
    sum_j g(x + p j) e^{-2 pi i p j xi} = Z_p g(x, xi).
    """
    out = np.empty((len(xis), p), dtype=complex)
    for r in range(p):
        sel = idx % p == r
        ns = (idx[sel] - r) // p
        out[:, r] = np.exp(-2j * math.pi * p * np.outer(xis, ns)) @ vals[sel]
    return out


def transfer_window_full_grid(w: TPWindow, lat: RationalLattice, xs,
                              xi_grid_n: int = TRANSFER_XI_GRID_N) -> tuple:
    """:func:`tpgabor.zibulski.transfer_window` with ``eigvalsh`` at every node.

    One stacked ``eigvalsh`` of the Gram matrices of every (x, xi) pair of
    a chunk; the extremes are read off the whole grid.
    """
    p, q = lat.p, lat.q
    xs = np.asarray(xs, dtype=float)
    xis = np.linspace(0.0, 1.0 / p, xi_grid_n + 1)[:xi_grid_n // 2 + 1]
    step = max(1, _TRANSFER_CHUNK // (q * p * len(xis)))
    lo, hi, xi_lo = np.zeros(len(xs)), np.empty(len(xs)), np.empty(len(xs))
    for i in range(0, len(xs), step):
        B = _transfer_stack(w, lat, xs[i:i + step], xis, TAIL_TOL)
        Bh = np.conj(np.swapaxes(B, -1, -2))
        ev = np.linalg.eigvalsh(Bh @ B if q >= p else B @ Bh)  # ascending
        hi[i:i + step] = np.max(ev[..., -1], axis=1)
        xi_lo[i:i + step] = xis[np.argmin(ev[..., 0], axis=1)]
        if q >= p:
            lo[i:i + step] = np.maximum(np.min(ev[..., 0], axis=1), 0.0)
    return lo, hi, xi_lo


def injectivity_scan_one(w: TPWindow, lat: RationalLattice,
                         pert: PerturbationSeq) -> InjectivityCertificate:
    """The bisection cover of :func:`tpgabor.zibulski.injectivity_scan` for
    one perturbation, with its own round loop and one SVD call per round."""
    p, n = lat.p, INJECTIVITY_XI_GRID_N
    nodes = np.linspace(0.0, 1.0 / p, 2 * n + 1)[:n + 1]
    k, gmat = samples = _zak_samples(w, p, _A_points(lat, pert), TAIL_TOL)
    absg = np.abs(gmat)
    L = 2.0 * math.pi * p * float(np.linalg.norm(absg @ np.abs(k)))
    eps = np.finfo(float).eps
    err = (p * TAIL_TOL * (1.0 + k.size * eps)
           + (k.size + p) * eps * float(np.linalg.norm(absg.sum(axis=1))))

    sig = np.full(n + 1, np.nan)
    i, j, new = np.array([0]), np.array([n]), np.array([0, n])
    sigma_cert = math.inf
    while i.size:
        sig[new] = a_landscape(w, lat, pert, nodes[new], TAIL_TOL, samples)[0]
        bound = (sig[i] + sig[j] - L * (nodes[j] - nodes[i])) / 2.0 - err
        done = (bound >= np.minimum(sig[i], sig[j]) / 2.0) | (j - i == 1)
        if done.any():
            sigma_cert = min(sigma_cert, max(float(np.min(bound[done])), 0.0))
        i, j = i[~done], j[~done]
        new = (i + j) // 2
        i, j = np.ravel([i, new], "F"), np.ravel([new, j], "F")

    return InjectivityCertificate(min_sigma=float(np.nanmin(sig)),
                                  sigma_cert=sigma_cert,
                                  invertible=sigma_cert > SIGMA_TOL)


@dataclass(frozen=True)
class InverseDecayFit:
    C: float
    sigma: float
    cond: float
    distances: np.ndarray
    profile: np.ndarray


def inverse_decay_profile(section: MatrixSection, decay: DecayProfile,
                          tail_tol: float = 1e-10) -> InverseDecayFit:
    """Invert the section and fit |G^{-1}_{kl}| <= C (1+|k-l|)^{-sigma}.

    Only interior rows/columns (at least one truncation radius of the
    window's ``decay`` profile from the section edge) enter the fit; the
    profile is the per-distance maximum of |G^{-1}| up to distance 12,
    regressed log-log against 1 + distance.
    A section with condition number above 1e12 raises.
    """
    A = section.entries
    if A.shape[0] != A.shape[1]:
        raise TPMatrixError("inverse decay needs a square section")
    cond = float(np.linalg.cond(A))
    if not np.isfinite(cond) or cond > 1e12:
        raise TPMatrixError(f"section too ill-conditioned: cond = {cond:.3g}")
    inv = np.linalg.inv(A)
    n = A.shape[0]
    R = decay.tail_radius(tail_tol)
    trim = min(R, (n - 1) // 3)
    core = inv[trim:n - trim, trim:n - trim]
    m = core.shape[0]
    idx = np.arange(m)
    dist = np.abs(idx[:, None] - idx[None, :])
    d_hi = min(12, m - 1)
    ds, prof = [], []
    for d in range(1, d_hi + 1):
        vals = np.abs(core[dist == d])
        v = float(np.max(vals))
        if v > 1e-300:
            ds.append(d)
            prof.append(v)
    if len(ds) < 3:
        raise TPMatrixError("not enough off-diagonal distances for a decay fit")
    ds = np.array(ds, dtype=float)
    prof = np.array(prof)
    X = np.log1p(ds)
    Y = np.log(prof)
    slope, intercept = np.polyfit(X, Y, 1)
    return InverseDecayFit(C=float(np.exp(intercept)), sigma=float(-slope),
                           cond=cond, distances=ds, profile=prof)


@dataclass(frozen=True)
class Hermite1(TPWindow):
    """h1(t) = t exp(-pi t^2), odd and so not totally positive.

    Its Gabor family is no frame at alpha*beta = (n-1)/n (Lyubarskii &
    Nes, Appl. Comput. Harmon. Anal. 34, 2013) and is one at
    alpha*beta < 1/2 (Groechenig & Lyubarskii, C. R. Acad. Sci. Paris 344,
    2007).  |t| exp(-pi t^2) <= 25 exp(-2 pi |t|), the maximum of the
    ratio being about 24.8 at |t| = 1.14.
    """

    decay: DecayProfile = DecayProfile(C=25.0, rate=2.0 * math.pi)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return t * np.exp(-math.pi * t * t)


@dataclass(frozen=True)
class Shifted(TPWindow):
    """The translate g(t - s); |g(t - s)| <= C e^{rate |s|} e^{-rate |t|}."""

    base: TPWindow
    s: float
    decay: DecayProfile = field(init=False)

    def __post_init__(self):
        d = self.base.decay
        object.__setattr__(self, "decay", DecayProfile(
            C=d.C * math.exp(d.rate * abs(self.s)), rate=d.rate))

    def __call__(self, t):
        return self.base(np.asarray(t, dtype=float) - self.s)
