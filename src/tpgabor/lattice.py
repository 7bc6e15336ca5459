"""Rational lattices, the beta = 1 reduction, and perturbation sequences.

A lattice (alpha, beta) is reduced to (alpha*beta, 1) by the dilation
g_beta(x) = beta^{-1/2} g(x/beta); the reduced alpha = p/q is kept as an
exact fraction.  The perturbation selector picks, per residue class mod p,
a point of x + alpha*Z inside the admissible interval around the Zak zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence


class LatticeError(ValueError):
    """Invalid lattice parameters or perturbation preconditions."""


def as_fraction(value, max_denominator: int = 10 ** 6) -> Fraction:
    """Parse 'p/q' strings, ints, floats, or Fractions into a Fraction.

    Floats are rationalized with denominator <= max_denominator; callers
    should warn, since the theory covers rational alpha*beta only.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        s = value.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(s).limit_denominator(max_denominator)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(max_denominator)
    raise LatticeError(f"cannot interpret {value!r} as a rational number")


@dataclass(frozen=True)
class RationalLattice:
    """Reduced lattice: alpha = p/q in lowest terms, beta = 1.

    ``beta_original`` records the dilation factor needed to rescale the
    window when the caller started from a beta != 1 lattice.
    """

    p: int
    q: int
    beta_original: Fraction = Fraction(1)

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise LatticeError("p and q must be positive")
        if math.gcd(self.p, self.q) != 1:
            raise LatticeError("p and q must be coprime")

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def alpha_float(self) -> float:
        return self.p / self.q

    def require_frame_candidate(self):
        """Density theorem guard: frame candidacy needs alpha < 1."""
        if self.p >= self.q:
            raise LatticeError(
                f"alpha = {self.p}/{self.q} >= 1: excluded by the density theorem")


def reduce(alpha, beta=1) -> RationalLattice:
    """Reduce (alpha, beta) to the equivalent (alpha*beta, 1) lattice."""
    a = as_fraction(alpha)
    b = as_fraction(beta)
    if a <= 0 or b <= 0:
        raise LatticeError("alpha and beta must be positive")
    ab = a * b
    return RationalLattice(p=ab.numerator, q=ab.denominator, beta_original=b)


def choose_M(x0: float) -> int:
    """M placing the admissible interval [x0+M-1+eps, x0+M-eps] closest to 0.

    Minimizes |x0 + M - 1/2| (the interval center), ties toward smaller M,
    which is always M = 0: for x0 in [0, 1), |x0 - 1/2| <= 1/2 <= |x0 + 1/2|
    with equality only at x0 = 0, where the tie goes to M = 0 < 1, and
    |x0 - 3/2| > 1/2.
    """
    if not 0.0 <= x0 < 1.0:
        raise LatticeError("x0 must lie in [0, 1)")
    return 0


@dataclass(frozen=True)
class PerturbationSeq:
    """One period of the p-periodic perturbation delta_k.

    delta_k lies in [x0+M-1+eps, x0+M-eps] and k + delta_k is a point of
    x + alpha*Z.  ``js`` records the selected lattice indices j_l with
    x + alpha*j_l = l + delta_l.
    """

    deltas: Sequence[float]
    M: int
    eps: float
    x: float
    x0: float
    js: Sequence[int] = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        if self.js is not None:
            object.__setattr__(self, "js", tuple(int(j) for j in self.js))
        if not self.deltas:
            raise LatticeError("need at least one delta per period")

    @property
    def p(self) -> int:
        return len(self.deltas)

    def delta(self, k: int) -> float:
        """p-periodic extension delta_{k + n p} = delta_k."""
        return self.deltas[k % self.p]

    def interval(self):
        lo = self.x0 + self.M - 1 + self.eps
        return (lo, self.x0 + self.M - self.eps)


def select_perturbation(lat: RationalLattice, x: float, x0: float,
                        eps: float = None, M: int = 0) -> PerturbationSeq:
    """Select the p-periodic perturbation by admissible-interval membership.

    For each residue l = 0..p-1 takes the j with x + (p/q) j nearest the
    centre of [l + x0 + M - 1 + eps, l + x0 + M - eps] and sets
    delta_l = x + (p/q) j - l.
    eps defaults to (1-alpha)/4, M to 0, the :func:`choose_M` of every x0
    in [0, 1), which centres the interval nearest 0.
    """
    lat.require_frame_candidate()
    alpha = lat.alpha_float
    if eps is None:
        eps = (1.0 - alpha) / 4.0
    if not 0.0 < eps < (1.0 - alpha) / 2.0:
        raise LatticeError(
            f"eps = {eps:g} outside (0, (1-alpha)/2) = (0, {(1 - alpha) / 2:g})")
    p, q = lat.p, lat.q
    # the point of x + alpha*Z nearest the interval centre l + x0 + M - 1/2
    # is admissible (the half-width 1/2 - eps exceeds alpha/2).  With
    # x - x0 - M + 1/2 = N/D exactly, j rounds q (l D - N) / (p D) in integers,
    # ties to the smaller j, not to whichever side floating point favours
    offset = Fraction(float(x)) - Fraction(float(x0)) - M + Fraction(1, 2)
    N, D = offset.numerator, offset.denominator
    deltas, js = [], []
    for l in range(p):
        j = -((p * D - 2 * q * (l * D - N)) // (2 * p * D))
        point = x + float(Fraction(p * j, q))
        if not l + x0 + M - 1 + eps - 1e-12 <= point <= l + x0 + M - eps + 1e-12:
            raise LatticeError("selected point escaped the admissible interval")
        deltas.append(point - l)
        js.append(j)
    if any(js[i + 1] <= js[i] for i in range(p - 1)) or (p > 1 and js[-1] - js[0] >= q):
        raise LatticeError("selected indices j_l not strictly increasing within "
                           "one q-window (implementation bug)")
    return PerturbationSeq(deltas=deltas, M=M, eps=eps, x=x, x0=x0, js=js)
