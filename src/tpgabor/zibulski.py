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
# largest Gram size that gets the node test: at n = 15 its two passes took
# 48 ms against 76 ms of eigvalsh on the 3968 nodes of Gaussian 15/16; at
# n = 31 they took 75 ms against about 65 ms on 1008 nodes, all cleared
_NODE_TEST_MAX_N = 16


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
    at the points of A, for a caller that evaluates several xi sets.
    """
    s = np.linalg.svd(_A_stack(w, lat, pert, xis, tol, samples),
                      compute_uv=False)
    return s[:, -1], np.prod(s, axis=1)


def injectivity_scan(w: TPWindow, lat: RationalLattice,
                     perts: list[PerturbationSeq]
                     ) -> list[InjectivityCertificate]:
    """Certify sigma_min(A(xi)) > SIGMA_TOL for all xi, by cells of [0, 1/(2p)].

    Returns one :class:`InjectivityCertificate` per perturbation of
    ``perts``, in order.  g is real, so A(1/p - xi) = conj A(xi) has the
    same singular values, and A is 1/p-periodic: a cover of [0, 1/(2p)]
    covers every xi.
    A(xi)_{rs} = sum_k g(r + delta_r - s - p k) e^{2 pi i p k xi} is a
    trigonometric polynomial in xi, so ||A'(xi)|| <= L = 2 pi p ||D||_F with
    D_rs = sum_k |k| |g(...)|, taken from the same window samples (drawn
    once per perturbation).  sigma_min is then L-Lipschitz, and on a cell
    [a, b] it is at least (sigma_a + sigma_b - L (b - a)) / 2 - err, where
    err bounds the truncation tail p TAIL_TOL (1 + (2K + 1) eps) and the
    rounding of the phase sum and the SVD, (2K + 1 + p) eps ||S||_F with
    S_rs = sum_k |g(...)| (so ||A(xi)|| <= ||S||_F).

    The cell ends are nodes of linspace(0, 1/p, 2 n + 1) with
    n = ``INJECTIVITY_XI_GRID_N``, the half of [0, 1/p] up to 1/(2p), and
    the first cell of each perturbation is the whole half.  A cell is
    accepted once its bound is at least half its smaller end value;
    otherwise it is bisected at its middle node.  The covers of all
    perturbations run in one round loop: each round evaluates every
    perturbation's new nodes by its own Zak bank, and the matrices of all
    of them share one SVD call.  A one-step cell that still fails
    contributes max(bound, 0).  So every node is evaluated at most once, at
    most n + 1 per perturbation, in at most ceil(log2(n)) + 1 rounds.

    ``sigma_cert`` is the minimum of a perturbation's cell bounds, a lower
    bound on sigma_min(A(xi)) over all xi, and ``invertible`` is
    sigma_cert > SIGMA_TOL.  ``min_sigma`` is taken over its evaluated
    nodes.
    """
    p, n, m = lat.p, INJECTIVITY_XI_GRID_N, len(perts)
    nodes = np.linspace(0.0, 1.0 / p, 2 * n + 1)[:n + 1]
    eps = np.finfo(float).eps
    samples, L, err = [], np.empty(m), np.empty(m)
    for a, pert in enumerate(perts):
        k, gmat = _zak_samples(w, p, _A_points(lat, pert), TAIL_TOL)
        absg = np.abs(gmat)
        samples.append((k, gmat))
        L[a] = 2.0 * math.pi * p * float(np.linalg.norm(absg @ np.abs(k)))
        err[a] = (p * TAIL_TOL * (1.0 + k.size * eps) + (k.size + p) * eps
                  * float(np.linalg.norm(absg.sum(axis=1))))

    sig = np.full((m, n + 1), np.nan)
    # cells are (perturbation, node index) triples (c, i, j), i < j, grouped
    # by c and in xi order within a group, handled a round at a time;
    # (nc, new) are the nodes the round evaluates.  A midpoint lies inside
    # its cell, so no node is evaluated twice.
    c, i, j = np.arange(m), np.zeros(m, dtype=int), np.full(m, n)
    nc, new = np.repeat(c, 2), np.tile([0, n], m)
    cert = np.full(m, math.inf)
    while c.size:
        cuts = np.searchsorted(nc, np.arange(1, m))
        sig[nc, new] = np.linalg.svd(np.concatenate(
            [_A_stack(w, lat, perts[a], nodes[part], TAIL_TOL, samples[a])
             for a, part in enumerate(np.split(new, cuts)) if part.size]),
            compute_uv=False)[:, -1]
        si, sj = sig[c, i], sig[c, j]
        bound = (si + sj - L[c] * (nodes[j] - nodes[i])) / 2.0 - err[c]
        done = (bound >= np.minimum(si, sj) / 2.0) | (j - i == 1)
        np.minimum.at(cert, c[done], np.maximum(bound[done], 0.0))
        c, i, j = c[~done], i[~done], j[~done]
        nc, new = c, (i + j) // 2  # children (i, new) and (new, j), in xi order
        c = np.repeat(c, 2)
        i, j = np.ravel([i, new], "F"), np.ravel([new, j], "F")

    return [InjectivityCertificate(min_sigma=float(np.nanmin(sig[a])),
                                   sigma_cert=float(cert[a]),
                                   invertible=bool(cert[a] > SIGMA_TOL))
            for a in range(m)]


def _transfer_stack(w: TPWindow, lat: RationalLattice, xs: np.ndarray,
                    xis: np.ndarray, tol: float) -> np.ndarray:
    """B(x, xi)_{ab} = Z_p g(x + alpha a - b, xi); shape (nx, nxi, q, p)."""
    p, q = lat.p, lat.q
    offsets = lat.alpha_float * np.arange(q)[:, None] - np.arange(p)[None, :]
    bank = zak_bank(w, p, (xs[:, None, None] + offsets).ravel(), xis, tol)
    return np.moveaxis(bank.reshape(len(xs), q, p, len(xis)), 3, 1)


def cholesky_completes(M: np.ndarray) -> np.ndarray:
    """Whether the Cholesky factorization of each matrix of a stack completes.

    M (..., n, n) is a stack of Hermitian matrices, read from the lower
    triangle and the real part of the diagonal, as ``np.linalg.eigvalsh``
    reads them.  Returns a bool array of shape M.shape[:-2], True where
    every pivot of the outer-product factorization is positive in floating
    point.  The computed factor R then satisfies R^H R = M + E with
    |E| <= gamma |R^H| |R|, gamma = 2 (n + 1) u for complex arithmetic
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3,
    which holds for any order of the inner products; Demmel 1989), so
    ||E||_2 <= gamma / (1 - gamma) tr M, and R^H R is positive definite:
    lambda_min(M) > -||E||_2.  This is the test "lambda_min >= s" of Rump
    (BIT 46, 2006) for M = S - s I.  The factorization runs on all matrices
    at once, with the stack as the contiguous last axis; a matrix whose
    pivot fails gets an infinite one, so it adds nothing to later steps.
    """
    n = M.shape[-1]
    A = np.moveaxis(M.reshape(-1, n, n), 0, -1).copy()  # (n, n, stack)
    ok = np.ones(A.shape[-1], dtype=bool)
    for j in range(n):
        d = A[j, j].real
        ok &= d > 0.0
        col = A[j + 1:, j] / np.sqrt(np.where(ok, d, np.inf))
        A[j + 1:, j + 1:] -= col[:, None] * np.conj(col)[None]
    return ok.reshape(M.shape[:-2])


def _gram_extremes(S: np.ndarray) -> tuple:
    """lambda_min and lambda_max of the Gram matrices S (nx, nxi, n, n), by rows.

    Each row x is evaluated by ``eigvalsh`` at its two end nodes, giving
    lo_end and hi_end, its extremes there, and T, its largest tr S over
    all nodes.  With delta = 3 (n + 1)^2 eps T, an interior node is
    cleared, and left out, when both S - (lo_end + delta) I and
    (hi_end - delta) I - S pass :func:`cholesky_completes`.  delta covers
    the backward error of the completed factorization, at most about
    (n + 1)^2 eps T since tr of either matrix is at most (n + 1) T, the
    rounding of the shifted diagonal, and the error of ``eigvalsh`` at the
    node, taken as at most (n + 1)^2 eps ||S||_2 <= (n + 1)^2 eps T.  So
    the value that ``eigvalsh`` would give at a cleared node lies strictly
    inside (lo_end, hi_end): it can neither hold nor tie the row's extremes.
    Every other node is evaluated by ``eigvalsh``; so are all nodes of a
    row whose two end values of lambda_min agree within delta (a row flat
    in xi, where no node would clear), of 1 x 1 matrices and of matrices
    larger than _NODE_TEST_MAX_N, where the test costs more than
    ``eigvalsh``.  Cleared
    nodes read inf and -inf, so the row minima, their first argmin and the
    row maxima are those of ``eigvalsh`` at every node.
    """
    n = S.shape[-1]
    ends = np.linalg.eigvalsh(S[:, [0, -1]])  # (nx, 2, n), ascending
    delta = (3.0 * (n + 1) ** 2 * np.finfo(float).eps
             * np.max(np.einsum("xjii->xj", S).real, axis=1))
    mid = S[:, 1:-1]
    todo = np.ones(mid.shape[:2], dtype=bool)
    sloped = np.abs(ends[:, 0, 0] - ends[:, 1, 0]) > delta
    rows = np.nonzero(sloped & (1 < n <= _NODE_TEST_MAX_N))[0]
    if rows.size:
        lo = np.min(ends[rows, :, 0], axis=1) + delta[rows]
        hi = np.max(ends[rows, :, -1], axis=1) - delta[rows]
        eye = np.eye(n)
        clear = cholesky_completes(mid[rows] - lo[:, None, None, None] * eye)
        r, c = np.nonzero(clear)
        clear[r, c] = cholesky_completes(hi[r, None, None] * eye
                                         - mid[rows[r], c])
        todo[rows] = ~clear
    # a gather would copy the whole stack of a chunk with no node cleared
    ev = np.linalg.eigvalsh(mid if todo.all() else mid[todo]).reshape(-1, n)
    ev_lo, ev_hi = np.full(todo.shape, np.inf), np.full(todo.shape, -np.inf)
    ev_lo[todo], ev_hi[todo] = ev[:, 0], ev[:, -1]
    return (np.concatenate([ends[:, :1, 0], ev_lo, ends[:, 1:, 0]], axis=1),
            np.concatenate([ends[:, :1, -1], ev_hi, ends[:, 1:, -1]], axis=1))


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
    otherwise: no singular vectors are formed.  ``eigvalsh`` runs at the
    two xi ends of each x and at the interior nodes that the Cholesky node
    test :func:`cholesky_completes` cannot clear (see
    :func:`_gram_extremes`); the result is bitwise that of ``eigvalsh`` at
    every node.  The absolute rounding is about min(p, q) eps sigma_max^2.
    """
    p, q = lat.p, lat.q
    xs = np.asarray(xs, dtype=float)
    xis = np.linspace(0.0, 1.0 / p, xi_grid_n + 1)[:xi_grid_n // 2 + 1]
    step = max(1, _TRANSFER_CHUNK // (q * p * len(xis)))
    lo, hi, xi_lo = np.zeros(len(xs)), np.empty(len(xs)), np.empty(len(xs))
    for i in range(0, len(xs), step):
        B = _transfer_stack(w, lat, xs[i:i + step], xis, TAIL_TOL)
        Bh = np.conj(np.swapaxes(B, -1, -2))
        ev_lo, ev_hi = _gram_extremes(Bh @ B if q >= p else B @ Bh)
        hi[i:i + step] = np.max(ev_hi, axis=1)
        xi_lo[i:i + step] = xis[np.argmin(ev_lo, axis=1)]
        if q >= p:
            lo[i:i + step] = np.maximum(np.min(ev_lo, axis=1), 0.0)
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
