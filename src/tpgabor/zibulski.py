"""Zibulski-Zeevi matrices A(xi) and B(x, xi), built on the Zak kernel.

A_{rs}(xi) = Z_p g(r + delta_r - s, xi) on xi in [0, 1/p] is the p x p
certificate for injectivity of the perturbed matrix G: pointwise
invertibility of A certifies that G is one-to-one; the scan records both
min |det A| (diagnostic) and min sigma_min (the certified quantity).
B(x, xi)_{ab} = Z_p g(x + alpha a - b, xi) is the q x p transfer matrix
whose spectral window gives the pre-Gramian frame-bound estimates.  Both
are banks of :func:`tpgabor.zak.zak_bank` values.  The injectivity scan
takes singular values of A(xi) by SVD, as its sigma_tol sits near the
sqrt(eps) floor that a Gram matrix would impose; the transfer window takes
the extreme eigenvalues of the Gram matrix of B(x, xi), since the frame
bounds are squared singular values anyway.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import PerturbationSeq, RationalLattice
from .tpmatrix import G_entries
from .windows import TPWindow, truncation_radius
from .zak import zak_bank


class ZibulskiError(RuntimeError):
    """Certificate construction or consistency check failed."""


TRANSFER_XI_GRID_N = 128
_TRANSFER_CHUNK = 1 << 20  # complex entries per Zak bank, 16 MB


@dataclass(frozen=True)
class ZZMatrix:
    xi: float
    entries: np.ndarray


@dataclass(frozen=True)
class InjectivityCertificate:
    min_abs_det: float
    argmin_xi: float
    min_sigma: float
    xi_grid_n: int
    verdict: str  # "Invertible" | "Degenerate"
    min_sigma_coarse: float = float("nan")

    @property
    def invertible(self) -> bool:
        return self.verdict == "Invertible"


@dataclass(frozen=True)
class FactorizationReport:
    max_dev: float
    tol: float
    passed: bool
    xi_grid_n: int


def zz_matrix(w: TPWindow, lat: RationalLattice, pert: PerturbationSeq,
              xi: float, tol: float = 1e-10) -> ZZMatrix:
    """The p x p matrix A(xi) with entries Z_p g(r + delta_r - s, xi)."""
    if pert.p != lat.p:
        raise ZibulskiError("perturbation period does not match lattice p")
    if not -1e-12 <= xi <= 1.0 / lat.p + 1e-12:
        raise ZibulskiError("xi must lie in [0, 1/p]")
    return ZZMatrix(xi=float(xi),
                    entries=_A_stack(w, lat, pert, np.array([xi]), tol)[0])


def _A_stack(w: TPWindow, lat: RationalLattice, pert: PerturbationSeq,
             xis: np.ndarray, tol: float) -> np.ndarray:
    p = lat.p
    rs = np.arange(p)
    pts = np.array([[r + pert.delta(r) - s for s in rs] for r in rs], dtype=float)
    bank = zak_bank(w, p, pts.ravel(), xis, tol)  # (p*p, nxi)
    return np.moveaxis(bank.reshape(p, p, len(xis)), 2, 0)  # (nxi, p, p)


def a_landscape(w: TPWindow, lat: RationalLattice, pert: PerturbationSeq,
                xis: np.ndarray, tol: float) -> tuple:
    """The arrays (sigma_min(A(xi)), |det A(xi)|) over xis.

    |det A| is the product of the singular values, so one SVD gives both.
    """
    s = np.linalg.svd(_A_stack(w, lat, pert, xis, tol), compute_uv=False)
    return s[:, -1], np.prod(s, axis=1)


def _scan_min(w, lat, pert, xis, tol):
    smin, dets = a_landscape(w, lat, pert, xis, tol)
    i = int(np.argmin(smin))
    return float(smin[i]), float(np.min(dets)), float(xis[i]), smin


def injectivity_scan(w: TPWindow, lat: RationalLattice, pert: PerturbationSeq,
                     xi_grid_n: int = 128, sigma_tol: float = 1e-8,
                     tol: float = 1e-10) -> InjectivityCertificate:
    """Scan sigma_min(A(xi)) and |det A(xi)| over [0, 1/p].

    Verdict "Invertible" requires min sigma above sigma_tol on the doubled
    grid with the coarse/fine minima agreeing within 10%; the coarse grid
    is the even points of the doubled one.  The minimum is then refined
    locally by two rounds of grid doubling, which may cross 1/(2p).

    g is real, so A(1/p - xi) = conj A(xi) has the same singular values and
    determinant modulus, and only the doubled-grid points with xi <= 1/(2p)
    are evaluated.  The mirror of point i is 2 xi_grid_n - i, of the same
    parity, so both the coarse and the fine minimum are those of the whole
    grid.
    """
    if xi_grid_n < 128:
        raise ZibulskiError("xi_grid_n must be at least 128")
    p = lat.p
    hi = 1.0 / p
    xis_f = np.linspace(0.0, hi, 2 * xi_grid_n + 1)[:xi_grid_n + 1]
    smin_f, dmin, arg, smins = _scan_min(w, lat, pert, xis_f, tol)
    smin_c = float(np.min(smins[::2]))

    # local refinement around the argmin, two rounds of doubling
    h = hi / (2 * xi_grid_n)
    lo, up = max(0.0, arg - h), min(hi, arg + h)
    for _ in range(2):
        loc = np.linspace(lo, up, 33)
        smin_l, dmin_l, arg, _ = _scan_min(w, lat, pert, loc, tol)
        smin_f = min(smin_f, smin_l)
        dmin = min(dmin, dmin_l)
        h = (up - lo) / 32
        lo, up = max(0.0, arg - h), min(hi, arg + h)

    stable = smin_f > sigma_tol and abs(smin_c - smin_f) <= 0.1 * max(smin_f, 1e-300)
    return InjectivityCertificate(
        min_abs_det=dmin, argmin_xi=arg, min_sigma=smin_f,
        xi_grid_n=xi_grid_n,
        verdict="Invertible" if stable else "Degenerate",
        min_sigma_coarse=smin_c)


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

    x_vec = np.empty((len(xis), p), dtype=complex)
    y_vec = np.empty((len(xis), p), dtype=complex)
    for r in range(p):
        sel = (l_idx % p) == r
        ns = (l_idx[sel] - r) // p
        # e^{-2 pi i} series convention matches the Zak kernel orientation:
        # sum_j g(x + p j) e^{-2 pi i p j xi} = Z_p g(x, xi)
        x_vec[:, r] = np.exp(-2j * math.pi * p * np.outer(xis, ns)) @ c[sel]
        selk = (ks - r) % p == 0
        ms = (ks[selk] - r) // p
        y_vec[:, r] = np.exp(-2j * math.pi * p * np.outer(xis, ms)) @ d[selk]
    y_from_A = np.einsum("nrs,ns->nr", A, x_vec)
    max_dev = float(np.max(np.abs(y_from_A - y_vec)))
    passed = max_dev < 100.0 * tol
    if not passed:
        raise ZibulskiError(
            f"factorization identity violated: max deviation {max_dev:.3g} "
            f">= {100 * tol:g}")
    return FactorizationReport(max_dev=max_dev, tol=tol, passed=passed,
                               xi_grid_n=xi_grid_n)


def _transfer_stack(w: TPWindow, lat: RationalLattice, xs: np.ndarray,
                    xis: np.ndarray, tol: float) -> np.ndarray:
    """B(x, xi)_{ab} = Z_p g(x + alpha a - b, xi); shape (nx, nxi, q, p)."""
    p, q = lat.p, lat.q
    offsets = lat.alpha_float * np.arange(q)[:, None] - np.arange(p)[None, :]
    bank = zak_bank(w, p, (xs[:, None, None] + offsets).ravel(), xis, tol)
    return np.moveaxis(bank.reshape(len(xs), q, p, len(xis)), 3, 1)


def transfer_window(w: TPWindow, lat: RationalLattice, xs,
                    xi_grid_n: int = TRANSFER_XI_GRID_N,
                    tol: float = 1e-10) -> tuple:
    """Exact spectral window of the pre-Gramian at every x in xs.

    B(x, xi)_{ab} = Z_p g(x + alpha a - b, xi), a = 0..q-1, b = 0..p-1.
    Returns the arrays (min_xi sigma_min^2, max_xi sigma_max^2, argmin xi)
    over xs, truncation-free up to tol, on xi_grid_n cells of [0, 1/p].
    For q < p, B has rank at most q < p, so the lower end is 0.

    g is real, so B(x, 1/p - xi) = conj B(x, xi) has the same singular
    values and only the grid points with xi <= 1/(2p) are evaluated.  The
    x points share one Zak bank per chunk of at most _TRANSFER_CHUNK matrix
    entries, which bounds the memory for large q p.

    The squared singular values are the eigenvalues of the Hermitian Gram
    matrix of the smaller side, B^H B (p x p) when q >= p and B B^H
    otherwise, taken by one stacked ``eigvalsh`` per chunk: no singular
    vectors are formed.  The absolute rounding is about
    min(p, q) eps sigma_max^2.
    """
    p, q = lat.p, lat.q
    xs = np.asarray(xs, dtype=float)
    xis = np.linspace(0.0, 1.0 / p, xi_grid_n + 1)[:xi_grid_n // 2 + 1]
    step = max(1, _TRANSFER_CHUNK // (q * p * len(xis)))
    lo, hi, xi_lo = np.zeros(len(xs)), np.empty(len(xs)), np.empty(len(xs))
    for i in range(0, len(xs), step):
        B = _transfer_stack(w, lat, xs[i:i + step], xis, tol)
        Bh = np.conj(np.swapaxes(B, -1, -2))
        ev = np.linalg.eigvalsh(Bh @ B if q >= p else B @ Bh)  # ascending
        hi[i:i + step] = np.max(ev[..., -1], axis=1)
        xi_lo[i:i + step] = xis[np.argmin(ev[..., 0], axis=1)]
        if q >= p:
            lo[i:i + step] = np.maximum(np.min(ev[..., 0], axis=1), 0.0)
    return lo, hi, xi_lo


def worst_vector_x(w: TPWindow, lat: RationalLattice, x: float, xi: float,
                   tol: float = 1e-10) -> float:
    """The x' in x + Z/q that centres the least-stretched vector of P(x).

    With u the right singular vector of sigma_min(B(x, xi)), the vector
    c_{b + p m} = u_b exp(2 pi i p m xi) has (P(x) c)_{a + q n} =
    exp(2 pi i p n xi) (B u)_a, so |c| is p-periodic with its peak at
    b = argmax_b |u_b|.  P(x) around column b and the row a nearest it is
    P(x') around (0, 0), x' = x + alpha a - b, with the same spectrum.
    """
    B = _transfer_stack(w, lat, np.array([x]), np.array([xi]), tol)[0, 0]
    b = int(np.argmax(np.abs(np.linalg.svd(B)[2][-1])))
    a = round((b - x) / lat.alpha_float)
    return x + lat.alpha_float * a - b


def transfer_frame_bound(w: TPWindow, lat: RationalLattice, x: float,
                         xi_grid_n: int = TRANSFER_XI_GRID_N,
                         tol: float = 1e-10) -> tuple:
    """(min_xi sigma_min^2, max_xi sigma_max^2) of the transfer window at x."""
    lo, hi, _ = transfer_window(w, lat, [x], xi_grid_n, tol)
    return float(lo[0]), float(hi[0])
