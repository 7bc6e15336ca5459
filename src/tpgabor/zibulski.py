"""p x p matrix certificates A(xi) for injectivity of the perturbed matrix G.

A_{rs}(xi) = Z_p g(r + delta_r - s, xi) on xi in [0, 1/p].  Pointwise
invertibility of A certifies that G is one-to-one; the scan records both
min |det A| (diagnostic) and min sigma_min (the certified quantity).
The module also carries the q x p transfer matrix whose spectral window
gives the pre-Gramian frame-bound estimates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import PerturbationSeq, RationalLattice
from .windows import TPWindow, truncation_radius


class ZibulskiError(RuntimeError):
    """Certificate construction or consistency check failed."""


TRANSFER_XI_GRID_N = 128
_TRANSFER_CHUNK = 1 << 20  # complex entries per Zak bank, 16 MB


@dataclass(frozen=True)
class ZZMatrix:
    xi: float
    entries: np.ndarray
    trunc_err: float


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


def _zak_bank(w: TPWindow, p: int, points: np.ndarray, xis: np.ndarray,
              tol: float) -> np.ndarray:
    """Z_p g(point, xi) for every (point, xi) pair; shape (npts, nxi)."""
    R = truncation_radius(w, tol)
    # every omitted term has |point - p k| > R, so the tail stays below tol
    K = int(math.ceil((R + float(np.max(np.abs(points)))) / p)) + 2
    k = np.arange(-K, K + 1)
    gmat = w(points[:, None] - p * k[None, :])
    phases = np.exp(2j * math.pi * p * np.outer(k, xis))
    return gmat @ phases


def zz_matrix(w: TPWindow, lat: RationalLattice, pert: PerturbationSeq,
              xi: float, tol: float = 1e-10) -> ZZMatrix:
    """The p x p matrix A(xi) with entries Z_p g(r + delta_r - s, xi)."""
    p = lat.p
    if pert.p != p:
        raise ZibulskiError("perturbation period does not match lattice p")
    if not -1e-12 <= xi <= 1.0 / p + 1e-12:
        raise ZibulskiError("xi must lie in [0, 1/p]")
    rs = np.arange(p)
    pts = np.array([[r + pert.delta(r) - s for s in rs] for r in rs], dtype=float)
    vals = _zak_bank(w, p, pts.ravel(), np.array([xi]), tol)[:, 0]
    return ZZMatrix(xi=float(xi), entries=vals.reshape(p, p),
                    trunc_err=p * p * tol)


def _A_stack(w: TPWindow, lat: RationalLattice, pert: PerturbationSeq,
             xis: np.ndarray, tol: float) -> np.ndarray:
    p = lat.p
    rs = np.arange(p)
    pts = np.array([[r + pert.delta(r) - s for s in rs] for r in rs], dtype=float)
    bank = _zak_bank(w, p, pts.ravel(), xis, tol)  # (p*p, nxi)
    return np.moveaxis(bank.reshape(p, p, len(xis)), 2, 0)  # (nxi, p, p)


def _scan_min(w, lat, pert, xis, tol):
    A = _A_stack(w, lat, pert, xis, tol)
    sigmas = np.linalg.svd(A, compute_uv=False)
    smin = sigmas[:, -1]
    dets = np.abs(np.linalg.det(A))
    i = int(np.argmin(smin))
    return float(smin[i]), float(dets[np.argmin(dets)]), float(xis[i]), smin, dets


def injectivity_scan(w: TPWindow, lat: RationalLattice, pert: PerturbationSeq,
                     xi_grid_n: int = 128, sigma_tol: float = 1e-8,
                     tol: float = 1e-10) -> InjectivityCertificate:
    """Scan sigma_min(A(xi)) and |det A(xi)| over [0, 1/p].

    Verdict "Invertible" requires min sigma above sigma_tol on the doubled
    grid with the coarse/fine minima agreeing within 10%; the minimum is
    then refined locally by two rounds of grid doubling.
    """
    if xi_grid_n < 128:
        raise ZibulskiError("xi_grid_n must be at least 128")
    p = lat.p
    hi = 1.0 / p
    xis_c = np.linspace(0.0, hi, xi_grid_n + 1)
    smin_c, _, _, _, _ = _scan_min(w, lat, pert, xis_c, tol)
    xis_f = np.linspace(0.0, hi, 2 * xi_grid_n + 1)
    smin_f, dmin, arg, _, _ = _scan_min(w, lat, pert, xis_f, tol)

    # local refinement around the argmin, two rounds of doubling
    h = hi / (2 * xi_grid_n)
    lo, up = max(0.0, arg - h), min(hi, arg + h)
    for _ in range(2):
        loc = np.linspace(lo, up, 33)
        smin_l, dmin_l, arg, _, _ = _scan_min(w, lat, pert, loc, tol)
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
    kmin = int(l_idx[0] - R - pert.p - 2)
    kmax = int(l_idx[-1] + R + pert.p + 2)
    ks = np.arange(kmin, kmax + 1)
    deltas = np.array([pert.delta(int(k)) for k in ks])
    G = w((ks + deltas)[:, None] - l_idx[None, :].astype(float))
    d = G @ c

    xis = np.linspace(0.0, 1.0 / p, xi_grid_n + 1)
    A = _A_stack(w, lat, pert, xis, tol)  # (nxi, p, p)

    max_dev = 0.0
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
    bank = _zak_bank(w, p, (xs[:, None, None] + offsets).ravel(), xis, tol)
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
    x points share one Zak bank and one stacked SVD per chunk of at most
    _TRANSFER_CHUNK matrix entries, which bounds the memory for large q p.
    """
    p, q = lat.p, lat.q
    xs = np.asarray(xs, dtype=float)
    xis = np.linspace(0.0, 1.0 / p, xi_grid_n + 1)[:xi_grid_n // 2 + 1]
    step = max(1, _TRANSFER_CHUNK // (q * p * len(xis)))
    lo, hi, xi_lo = np.zeros(len(xs)), np.empty(len(xs)), np.empty(len(xs))
    for i in range(0, len(xs), step):
        sig = np.linalg.svd(_transfer_stack(w, lat, xs[i:i + step], xis, tol),
                            compute_uv=False)
        hi[i:i + step] = np.max(sig[..., 0], axis=1) ** 2
        xi_lo[i:i + step] = xis[np.argmin(sig[..., -1], axis=1)]
        if q >= p:
            lo[i:i + step] = np.min(sig[..., -1], axis=1) ** 2
    return lo, hi, xi_lo


def worst_column(w: TPWindow, lat: RationalLattice, x: float, xi: float,
                 tol: float = 1e-10) -> int:
    """Column of P(x), mod p, where its least-stretched Bloch vector peaks.

    With u the right singular vector of sigma_min(B(x, xi)), the vector
    c_{b + p m} = u_b exp(2 pi i p m xi) has (P(x) c)_{a + q n} =
    exp(2 pi i p n xi) (B u)_a, so |c| is p-periodic with its peak at
    argmax_b |u_b|.
    """
    B = _transfer_stack(w, lat, np.array([x]), np.array([xi]), tol)[0, 0]
    return int(np.argmax(np.abs(np.linalg.svd(B)[2][-1])))


def transfer_frame_bound(w: TPWindow, lat: RationalLattice, x: float,
                         xi_grid_n: int = TRANSFER_XI_GRID_N,
                         tol: float = 1e-10) -> tuple:
    """(min_xi sigma_min^2, max_xi sigma_max^2) of the transfer window at x."""
    lo, hi, _ = transfer_window(w, lat, [x], xi_grid_n, tol)
    return float(lo[0]), float(hi[0])
