"""The truncated Zak kernel, with certified tails, and zero location.

Z_p g(x, xi) = sum_k g(x - p k) e^{2 pi i p k xi}, truncated at a radius
derived from the window's decay envelope so the reported truncation error
is a certified bound.  :func:`zak_bank` is the one place the sum is
written; the point values here, the Zak-zero scan and the A(xi) and
B(x, xi) matrices of :mod:`tpgabor.zibulski` are all evaluated through it.
The zero's x is refined by :func:`_brentq`, Brent's method ported from
SciPy, so that importing the package loads no SciPy module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .windows import TPWindow, truncation_radius


class ZakError(RuntimeError):
    """Zak transform evaluation or zero location failed."""


class ZakZeroNotFound(ZakError):
    """No zero of |Zg| below tolerance exists in the fundamental domain."""

    def __init__(self, msg, min_abs, argmin):
        super().__init__(msg)
        self.min_abs = min_abs
        self.argmin = argmin


@dataclass(frozen=True)
class ZakZero:
    x0: float
    xi0: float
    residual: float


def _zak_samples(w: TPWindow, p: float, points: np.ndarray,
                 tol: float) -> tuple:
    """The shifts k and the window samples g(point - p k) of the Zak sum.

    Returns (k, gmat), gmat of shape (npts, 2K + 1).  Samples below
    tol * eps in modulus are flushed to zero, which moves each value by at
    most (2K + 1) tol eps for the 2K + 1 terms kept, far inside the
    certified tail tol.  Without the flush the far tails of a fast-decaying
    window (the Gaussian at large p) feed subnormal numbers into every
    product formed from the bank, which slows the matrix kernels down
    several times over.
    """
    R = truncation_radius(w, tol)
    # every omitted term has |point - p k| > R, so the tail stays below tol
    K = int(math.ceil((R + float(np.max(np.abs(points), initial=0.0))) / p)) + 2
    k = np.arange(-K, K + 1)
    gmat = w(points[:, None] - p * k[None, :])
    gmat[np.abs(gmat) < tol * np.finfo(float).eps] = 0.0
    return k, gmat


def zak_bank(w: TPWindow, p: float, points: np.ndarray, xis, tol: float,
             samples: tuple | None = None) -> np.ndarray:
    """Z_p g(point, xi) for every (point, xi) pair; shape (npts, nxi).

    ``samples`` is the (k, gmat) pair of :func:`_zak_samples` for these
    points, for a caller that sums the same samples at several xi sets.
    """
    k, gmat = _zak_samples(w, p, points, tol) if samples is None else samples
    phases = np.exp(2j * math.pi * p * np.outer(k, xis))
    return gmat @ phases


def zak_values(w: TPWindow, p: float, xs, xi: float, tol: float = 1e-12):
    """Vectorized truncated Z_p g(x, xi) over an array of x values."""
    if p <= 0:
        raise ZakError("period p must be positive")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return zak_bank(w, p, xs, [xi], tol)[:, 0]


def zak_on_half_line(w: TPWindow, x, tol: float = 1e-12):
    """Zg(x, 1/2) = sum_k (-1)^k g(x-k), a float, or an array for an array x.

    Raises if the truncated sum acquires an imaginary part above tol,
    which would signal an evaluation bug (the exact value is real).
    """
    z = zak_values(w, 1.0, x, 0.5, tol)
    im = float(np.max(np.abs(z.imag)))
    if im > tol:
        raise ZakError(f"Zg(x, 1/2) should be real; got imaginary part {im:g}")
    return float(z[0].real) if np.ndim(x) == 0 else z.real


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """A root of f in the sign-changing bracket [xa, xb], by Brent's method.

    A line-for-line port of SciPy's ``scipy/optimize/Zeros/brentq.c``
    (Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy
    Developers, BSD-3-Clause; Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4, with SciPy's extrapolation formula).  It
    performs the same double operations in the same order, so it returns
    the float ``scipy.optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol)``
    returns, and it raises as that does: ValueError for a NaN value of f
    or for ends of the same sign, RuntimeError after maxiter iterations.
    """
    def fx(x):
        v = float(f(x))
        if math.isnan(v):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return v

    def negative(v):  # C's signbit
        return math.copysign(1.0, v) < 0.0

    def div(a, b):  # C's a / b: +-inf or nan where Python raises
        if b != 0:
            return a / b
        if a != 0 and a == a:
            return math.copysign(math.inf, a) * math.copysign(1.0, b)
        return math.nan

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = div(fpre - fcur, xpre - xcur)
                dblk = div(fblk - fcur, xblk - xcur)
                stry = div(-fcur * (fblk * dblk - fpre * dpre),
                           dblk * dpre * (fblk - fpre))
            lim = 3 * abs(sbis) - delta  # MIN(a, b) is a < b ? a : b
            if 2 * abs(stry) < (abs(spre) if abs(spre) < lim else lim):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def locate_zero(w: TPWindow, grid_n: int = 256, zero_tol: float = 1e-10,
                tol: float = 1e-12) -> ZakZero:
    """Locate the unique zero of Zg in [0,1)^2.

    Scans |Zg| on the grid x = i/n, xi = j/n (n = grid_n) for
    0 <= j <= n/2 only: g is real, so Zg(x, 1 - xi) = conj Zg(x, xi), and
    the half grid holds every value of |Zg| on the full one.  Then refines
    x by Brent's method (:func:`_brentq`) on the real-valued section
    x -> Zg(x, 1/2).  Raises :class:`ZakZeroNotFound` if no zero exists
    (window outside the unique-zero hypothesis) and :class:`ZakError` if a
    second candidate cell shows up.
    """
    if grid_n < 64:
        raise ZakError("grid_n must be at least 64")
    grid = np.arange(grid_n) / grid_n
    A = np.abs(zak_bank(w, 1.0, grid, grid[:grid_n // 2 + 1], tol))  # [x, xi]
    i0, j0 = np.unravel_index(np.argmin(A), A.shape)
    xi_cell = j0 / grid_n

    # the zero must sit on the line xi = 1/2
    if 0.5 - xi_cell > 1.5 / grid_n:
        raise ZakZeroNotFound(
            f"grid minimum |Zg| = {A[i0, j0]:.3g} is not on the xi = 1/2 line",
            min_abs=float(A[i0, j0]), argmin=(i0 / grid_n, xi_cell))

    f = lambda x: zak_on_half_line(w, x, tol)
    h = 1.0 / grid_n
    xc, width = i0 / grid_n, h
    while f(xc - width) * f(xc + width) > 0:
        width += h
        if width > 4 * h:
            raise ZakZeroNotFound(
                f"no sign change of Zg(., 1/2) near grid minimum "
                f"|Zg| = {A[i0, j0]:.3g}",
                min_abs=float(A[i0, j0]), argmin=(xc, xi_cell))
    x0 = _brentq(f, xc - width, xc + width, xtol=1e-14, rtol=8.9e-16) % 1.0
    residual = abs(zak_values(w, 1.0, [x0], 0.5, tol)[0])
    if residual >= zero_tol:
        raise ZakZeroNotFound(
            f"refined residual {residual:.3g} exceeds zero_tol {zero_tol:g}",
            min_abs=residual, argmin=(x0, 0.5))

    # uniqueness on the grid: any other near-zero cell is a hard error
    ii, jj = np.nonzero(A < 10.0 * zero_tol)
    dx = np.abs(ii / grid_n - x0)
    dx = np.minimum(dx, 1.0 - dx)
    if np.any(np.maximum(dx, 0.5 - jj / grid_n) > 1.5 / grid_n):
        raise ZakError("multiple Zak-zero candidates on the grid; "
                       "numeric failure (theory forbids a second zero)")
    return ZakZero(x0=float(x0), xi0=0.5, residual=float(residual))
