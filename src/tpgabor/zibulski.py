"""Zibulski-Zeevi matrices A(xi) and B(x, xi), built on the Zak kernel.

A_{rs}(xi) = Z_p g(r + delta_r - s, xi) on xi in [0, 1/p] is the p x p
certificate for injectivity of the perturbed matrix G: invertibility of A
at every xi certifies that G is one-to-one.  The injectivity scan covers
xi by bisected cells and certifies a lower bound sigma_cert on
sigma_min(A(xi)) from a Lipschitz bound read off the window samples; it
also records min sigma_min over the nodes it evaluated (a diagnostic).
B(x, xi)_{ab} = Z_p g(x + alpha a - b, xi) is the q x p transfer matrix
whose spectral window gives the pre-Gramian frame-bound estimates.  Both
are banks of :func:`tpgabor.zak.zak_bank` values.  The injectivity scan
takes singular values of A(xi) by SVD, as SIGMA_TOL sits near the
sqrt(eps) floor that a Gram matrix would impose; the transfer window takes
the extreme eigenvalues of the Gram matrix of B(x, xi), since the frame
bounds are squared singular values anyway.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import PerturbationSeq, RationalLattice
from .windows import TAIL_TOL, TPWindow
from .zak import _zak_samples, zak_bank


class ZibulskiError(RuntimeError):
    """Certificate construction or consistency check failed."""


TRANSFER_XI_GRID_N = 128
INJECTIVITY_XI_GRID_N = 128  # node budget of the injectivity scan's cover
SIGMA_TOL = 1e-8  # sigma_cert above it certifies A(xi) invertible
_TRANSFER_CHUNK = 1 << 20  # complex entries per Zak bank, 16 MB


@dataclass(frozen=True)
class InjectivityCertificate:
    """What :func:`injectivity_scan` certifies about A(xi) at one x.

    ``sigma_cert`` is a certified lower bound on sigma_min(A(xi)) over all
    xi (0 is the trivial one), ``invertible`` is sigma_cert > SIGMA_TOL, and
    ``min_sigma`` is the least sigma_min(A(xi)) at the evaluated nodes.
    """

    min_sigma: float
    sigma_cert: float
    invertible: bool


def _A_points(lat: RationalLattice, pert: PerturbationSeq) -> np.ndarray:
    """The p*p Zak arguments r + delta_r - s of A(xi), row-major in (r, s)."""
    if pert.p != lat.p:
        raise ZibulskiError("perturbation period does not match lattice p")
    rs = np.arange(lat.p)
    rows = rs + np.array([pert.delta(r) for r in rs], dtype=float)
    return (rows[:, None] - rs[None, :]).ravel()


def _A_stack(w: TPWindow, lat: RationalLattice, pert: PerturbationSeq,
             xis: np.ndarray, tol: float, samples: tuple | None = None
             ) -> np.ndarray:
    """A(xi)_{rs} = Z_p g(r + delta_r - s, xi) at every xi; shape (nxi, p, p)."""
    p = lat.p
    bank = zak_bank(w, p, _A_points(lat, pert), xis, tol, samples)  # (p*p, nxi)
    return bank.reshape(p, p, len(xis)).transpose(2, 0, 1)  # (nxi, p, p)


def a_landscape(w: TPWindow, lat: RationalLattice, pert: PerturbationSeq,
                xis: np.ndarray, tol: float, samples: tuple | None = None
                ) -> tuple:
    """The arrays (sigma_min(A(xi)), |det A(xi)|) over xis.

    |det A| is the product of the singular values, so one SVD gives both.
    ``samples`` is the (k, gmat) pair of :func:`tpgabor.zak._zak_samples`
    at the points of A, for a caller that evaluates several xi sets, as
    :func:`injectivity_scan` does: its node values come from here.
    """
    s = np.linalg.svd(_A_stack(w, lat, pert, xis, tol, samples),
                      compute_uv=False)
    return s[:, -1], np.prod(s, axis=1)


def injectivity_scan(w: TPWindow, lat: RationalLattice, pert: PerturbationSeq
                     ) -> InjectivityCertificate:
    """Certify sigma_min(A(xi)) > SIGMA_TOL for all xi, by cells of [0, 1/(2p)].

    g is real, so A(1/p - xi) = conj A(xi) has the same singular values, and
    A is 1/p-periodic: a cover of [0, 1/(2p)] covers every xi.
    A(xi)_{rs} = sum_k g(r + delta_r - s - p k) e^{2 pi i p k xi} is a
    trigonometric polynomial in xi, so ||A'(xi)|| <= L = 2 pi p ||D||_F with
    D_rs = sum_k |k| |g(...)|, taken from the same window samples (drawn
    once per call).  sigma_min is then L-Lipschitz, and on a cell [a, b] it
    is at least (sigma_a + sigma_b - L (b - a)) / 2 - err, where err bounds
    the truncation tail p TAIL_TOL (1 + (2K + 1) eps) and the rounding of the
    phase sum and the SVD, (2K + 1 + p) eps ||S||_F with S_rs = sum_k |g(...)|
    (so ||A(xi)|| <= ||S||_F).

    The cell ends are nodes of linspace(0, 1/p, 2 n + 1) with
    n = ``INJECTIVITY_XI_GRID_N``, the half of [0, 1/p] up to 1/(2p), and
    the first cell is the whole half.  A cell is accepted once its bound is
    at least half its smaller end value; otherwise it is bisected at its
    middle node, and each round's midpoints share one SVD call.  A one-step
    cell that still fails contributes max(bound, 0).  So every node is
    evaluated at most once, at most n + 1 in all, in at most
    ceil(log2(n)) + 1 rounds.

    ``sigma_cert`` is the minimum of the cell bounds, a lower bound on
    sigma_min(A(xi)) over all xi, and ``invertible`` is
    sigma_cert > SIGMA_TOL.  ``min_sigma`` is taken over the evaluated nodes.
    """
    p, n = lat.p, INJECTIVITY_XI_GRID_N
    nodes = np.linspace(0.0, 1.0 / p, 2 * n + 1)[:n + 1]
    k, gmat = samples = _zak_samples(w, p, _A_points(lat, pert), TAIL_TOL)
    absg = np.abs(gmat)
    L = 2.0 * math.pi * p * float(np.linalg.norm(absg @ np.abs(k)))
    eps = np.finfo(float).eps
    err = (p * TAIL_TOL * (1.0 + k.size * eps)
           + (k.size + p) * eps * float(np.linalg.norm(absg.sum(axis=1))))

    sig = np.full(n + 1, np.nan)
    # cells are node index pairs (i, j), i < j, handled a round at a time;
    # ``new`` holds the nodes the round evaluates, in one a_landscape call.
    # A midpoint lies inside its cell, so no node is evaluated twice.
    i, j, new = np.array([0]), np.array([n]), np.array([0, n])
    sigma_cert = math.inf
    while i.size:
        sig[new] = a_landscape(w, lat, pert, nodes[new], TAIL_TOL, samples)[0]
        bound = (sig[i] + sig[j] - L * (nodes[j] - nodes[i])) / 2.0 - err
        done = (bound >= np.minimum(sig[i], sig[j]) / 2.0) | (j - i == 1)
        if done.any():
            sigma_cert = min(sigma_cert, max(float(np.min(bound[done])), 0.0))
        i, j = i[~done], j[~done]
        new = (i + j) // 2  # children (i, new) and (new, j), in xi order
        i, j = np.ravel([i, new], "F"), np.ravel([new, j], "F")

    return InjectivityCertificate(min_sigma=float(np.nanmin(sig)),
                                  sigma_cert=sigma_cert,
                                  invertible=sigma_cert > SIGMA_TOL)


def _transfer_stack(w: TPWindow, lat: RationalLattice, xs: np.ndarray,
                    xis: np.ndarray, tol: float) -> np.ndarray:
    """B(x, xi)_{ab} = Z_p g(x + alpha a - b, xi); shape (nx, nxi, q, p)."""
    p, q = lat.p, lat.q
    offsets = lat.alpha_float * np.arange(q)[:, None] - np.arange(p)[None, :]
    bank = zak_bank(w, p, (xs[:, None, None] + offsets).ravel(), xis, tol)
    return np.moveaxis(bank.reshape(len(xs), q, p, len(xis)), 3, 1)


def transfer_window(w: TPWindow, lat: RationalLattice, xs,
                    xi_grid_n: int = TRANSFER_XI_GRID_N) -> tuple:
    """Exact spectral window of the pre-Gramian at every x in xs.

    B(x, xi)_{ab} = Z_p g(x + alpha a - b, xi), a = 0..q-1, b = 0..p-1.
    Returns the arrays (min_xi sigma_min^2, max_xi sigma_max^2, argmin xi)
    over xs, truncation-free up to TAIL_TOL, on xi_grid_n cells of [0, 1/p].
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
        B = _transfer_stack(w, lat, xs[i:i + step], xis, TAIL_TOL)
        Bh = np.conj(np.swapaxes(B, -1, -2))
        ev = np.linalg.eigvalsh(Bh @ B if q >= p else B @ Bh)  # ascending
        hi[i:i + step] = np.max(ev[..., -1], axis=1)
        xi_lo[i:i + step] = xis[np.argmin(ev[..., 0], axis=1)]
        if q >= p:
            lo[i:i + step] = np.maximum(np.min(ev[..., 0], axis=1), 0.0)
    return lo, hi, xi_lo


def worst_vector_x(w: TPWindow, lat: RationalLattice, x: float,
                   xi: float) -> float:
    """The x' in x + Z/q that centres the least-stretched vector of P(x).

    With u the right singular vector of sigma_min(B(x, xi)), the vector
    c_{b + p m} = u_b exp(2 pi i p m xi) has (P(x) c)_{a + q n} =
    exp(2 pi i p n xi) (B u)_a, so |c| is p-periodic with its peak at
    b = argmax_b |u_b|.  P(x) around column b and the row a nearest it is
    P(x') around (0, 0), x' = x + alpha a - b, with the same spectrum.
    """
    B = _transfer_stack(w, lat, np.array([x]), np.array([xi]), TAIL_TOL)[0, 0]
    b = int(np.argmax(np.abs(np.linalg.svd(B)[2][-1])))
    a = round((b - x) / lat.alpha_float)
    return x + lat.alpha_float * a - b
