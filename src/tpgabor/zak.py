"""The truncated Zak kernel, with certified tails, and zero location.

Z_p g(x, xi) = sum_k g(x - p k) e^{2 pi i p k xi}, truncated at a radius
derived from the window's decay envelope so the reported truncation error
is a certified bound.  :func:`zak_bank` is the one place the sum is
written; the point values here, the Zak-zero scan and the A(xi) and
B(x, xi) matrices of :mod:`tpgabor.zibulski` are all evaluated through it.
The zero's x is refined by the Illinois modified regula falsi (Dowell and
Jarratt, BIT 11, 1971) on the real section x -> Zg(x, 1/2).
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


def locate_zero(w: TPWindow, grid_n: int = 256, zero_tol: float = 1e-10,
                tol: float = 1e-12) -> ZakZero:
    """Locate the unique zero of Zg in [0,1)^2.

    Scans |Zg| on the grid x = i/n, xi = j/n (n = grid_n) for
    0 <= j <= n/2 only: g is real, so Zg(x, 1 - xi) = conj Zg(x, xi), and
    the half grid holds every value of |Zg| on the full one.  Then refines
    x by the Illinois regula falsi on the real-valued section
    x -> Zg(x, 1/2), from a sign change next to the grid minimum, until the
    bracket is 1e-14 wide or the step falls below an ulp (at most 100
    steps), and returns its latest iterate.  Raises
    :class:`ZakZeroNotFound` if no zero exists (window outside the
    unique-zero hypothesis) or the refined residual is not below
    ``zero_tol``, and :class:`ZakError` if a second candidate cell shows up
    away from the zero: a grid value below tol + 64 eps Zg(x, 0), the sum's
    truncation tail plus its rounding floor.  A totally positive g is
    nonnegative, so Zg(x, 0) = sum_k |g(x - k)| is the scan's xi = 0
    column.
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
    while (fa := f(xc - width)) * (fb := f(xc + width)) > 0:
        width += h
        if width > 4 * h:
            raise ZakZeroNotFound(
                f"no sign change of Zg(., 1/2) near grid minimum "
                f"|Zg| = {A[i0, j0]:.3g}",
                min_abs=float(A[i0, j0]), argmin=(xc, xi_cell))
    # Illinois: the secant point of the bracket ends a and b replaces b;
    # when it falls on b's side, a stays and its value is halved, which
    # pulls the next secant point toward a, so a does not stay put while b
    # creeps up on the zero
    a, b = xc - width, xc + width
    for _ in range(100):
        if abs(b - a) <= 1e-14 or fb == 0:
            break
        c = b - fb * (b - a) / (fb - fa)
        if c == b:  # the step is below an ulp of b: f(b) is the noise floor
            break
        fc = f(c)
        if fc * fb < 0:
            a, fa = b, fb
        else:
            fa /= 2
        b, fb = c, fc
    x0 = b % 1.0
    residual = abs(zak_values(w, 1.0, [x0], 0.5, tol)[0])
    if residual >= zero_tol:
        raise ZakZeroNotFound(
            f"refined residual {residual:.3g} exceeds zero_tol {zero_tol:g}",
            min_abs=residual, argmin=(x0, 0.5))

    # uniqueness on the grid: any other near-zero cell is a hard error
    ii, jj = np.nonzero(A < tol + 64 * np.finfo(float).eps * A[:, :1])
    dx = np.abs(ii / grid_n - x0)
    dx = np.minimum(dx, 1.0 - dx)
    if np.any(np.maximum(dx, 0.5 - jj / grid_n) > 1.5 / grid_n):
        raise ZakError("multiple Zak-zero candidates on the grid; "
                       "numeric failure (theory forbids a second zero)")
    return ZakZero(x0=float(x0), xi0=0.5, residual=float(residual))
