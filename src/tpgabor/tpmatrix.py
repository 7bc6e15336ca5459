"""Finite sections of the perturbed pre-Gramian sub-matrix G and its checks.

G_{kl} = g(k + delta_k - l) with a p-periodic perturbation delta, so an
entry depends only on (k mod p, k - l): every block is gathered from one
window sample per residue class.  The operations here verify, at
truncation scale, two properties the theory asserts for the infinite
matrix: total positivity of minors and the uniformly alternating image
vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import PerturbationSeq
from .windows import TAIL_TOL, TPWindow, truncation_radius
from .zak import zak_on_half_line


class TPMatrixError(RuntimeError):
    """A finite-section property check failed."""


@dataclass(frozen=True)
class MatrixSection:
    """Dense finite section of an infinite matrix."""

    entries: np.ndarray

    @property
    def shape(self):
        return self.entries.shape


@dataclass(frozen=True)
class AlternatingWitness:
    """Finite section of u = Gc for c_l = (-1)^l."""

    u: np.ndarray
    nu: float
    ks: np.ndarray


@dataclass(frozen=True)
class MinorAuditReport:
    trials: int
    n_max: int
    min_det: float
    min_scaled_det: float
    passed: bool


def G_entries(w: TPWindow, pert: PerturbationSeq, ks: np.ndarray,
              ls: np.ndarray) -> np.ndarray:
    """The block G_{kl} = g(k + delta_k - l), k in ks, l in ls.

    ks and ls must be consecutive increasing integers (an ``np.arange``);
    any other input raises :class:`TPMatrixError`.  An entry depends only
    on (k mod p, k - l), so the window is called once, on the p x
    (ks.size + ls.size - 1) arguments m + delta_r, r = 0..p-1, with m the
    exact differences from ks[-1] - ls[0] down to ks[0] - ls[-1]: each
    argument is the double (k - l) + delta_k, so G_{k+p,l+p} = G_{kl}
    bitwise.  The rows of one residue class are a strided view of that
    class's sample row, rows -p apart and columns 1 apart (each row of G
    is a contiguous run of the sample), copied once into the result.
    """
    if not all(idx.ndim == 1 and idx.size and idx.dtype.kind == "i"
               and np.all(np.diff(idx) == 1) for idx in (ks, ls)):
        raise TPMatrixError("ks and ls must be consecutive increasing integers")
    p, nk, nl = pert.p, ks.size, ls.size
    m = np.arange(ks[-1] - ls[0], ks[0] - ls[-1] - 1, -1, dtype=float)
    vals = w(m + np.asarray(pert.deltas)[:, None])
    step = vals.strides[1]
    out = np.empty((nk, nl))
    for i in range(min(p, nk)):
        out[i::p] = np.lib.stride_tricks.as_strided(
            vals[(ks[0] + i) % p, nk - 1 - i:], shape=(len(range(i, nk, p)), nl),
            strides=(-p * step, step), writeable=False)
    return out


def build_G(w: TPWindow, pert: PerturbationSeq, K: int) -> MatrixSection:
    """(2K+1) x (2K+1) section of G, k,l in [-K,K], from :func:`G_entries`."""
    if K < pert.p:
        raise TPMatrixError("section must cover at least one period: K >= p")
    ks = np.arange(-K, K + 1)
    return MatrixSection(entries=G_entries(w, pert, ks, ks))


def alternating_witness(w: TPWindow, pert: PerturbationSeq,
                        K: int) -> AlternatingWitness:
    """Compute u_k = sum_l (-1)^l g(k + delta_k - l) for k in [-K, K].

    The columns of :func:`G_entries` run one truncation radius past [-K, K]
    so every u_k is interior.  Verifies u_k = (-1)^k Zg(delta_k, 1/2) to
    10 TAIL_TOL, taking the p Zak values in one bank call, and that u
    alternates with min |u_k| at least 1000 TAIL_TOL.
    """
    R = truncation_radius(w, TAIL_TOL)
    ks = np.arange(-K, K + 1)
    ls = np.arange(-K - R - 1, K + R + 2)
    u = G_entries(w, pert, ks, ls) @ ((-1.0) ** ls)

    zvals = zak_on_half_line(w, np.asarray(pert.deltas), TAIL_TOL)
    expected = ((-1.0) ** ks) * zvals[ks % pert.p]
    dev = np.max(np.abs(u - expected))
    if dev >= 10.0 * TAIL_TOL:
        raise TPMatrixError(
            f"witness identity u_k = (-1)^k Zg(delta_k, 1/2) violated "
            f"by {dev:.3g} (>= {10 * TAIL_TOL:g})")

    nu = float(np.min(np.abs(u)))
    sign_ok = bool(np.all(u[:-1] * u[1:] < 0.0))
    if not sign_ok or nu < 1000.0 * TAIL_TOL:
        raise TPMatrixError(
            f"witness degenerate: nu = {nu:.3g}, alternating = {sign_ok}; "
            "delta too close to the Zak zero or window hypothesis failure")
    return AlternatingWitness(u=u, nu=nu, ks=ks)


# random keys per chunk of the minor audit: memory stays flat in ``trials``
# and in the section's size
_AUDIT_KEYS = 1 << 20
# largest minor the audit evaluates
MINOR_N_MAX = 8


def _subsets(rng, cnt: int, m: int, k: int) -> np.ndarray:
    """``cnt`` independent uniform sorted k-subsets of range(m), one per row:
    the indices of the k smallest of m uniform keys."""
    keys = rng.random((cnt, m))
    return np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k], axis=1)


def _minor_draws(m: int, n: int, n_max: int, trials: int, rng):
    """The audit's (rows, cols) index stacks, one per chunk and minor size.

    Per chunk of ``_AUDIT_KEYS // max(m, n)`` trials (at least one) the
    sizes k are uniform on 1..n_max; the trials of one size get
    independent, uniform, sorted row and column subsets, both of size
    min(k, m, n), so every minor is square.
    """
    chunk = max(1, _AUDIT_KEYS // max(m, n))
    for start in range(0, trials, chunk):
        sizes = rng.integers(1, n_max + 1, size=min(chunk, trials - start))
        for k in range(1, n_max + 1):
            cnt = int(np.count_nonzero(sizes == k))
            if cnt:
                kk = min(k, m, n)
                yield _subsets(rng, cnt, m, kk), _subsets(rng, cnt, n, kk)


def tp_minor_audit(section: MatrixSection, n_max: int = 6,
                   trials: int = 10000, seed: int = 0,
                   tol: float = 1e-10) -> MinorAuditReport:
    """Randomized minor test: sampled minors must be >= -tol * scale^n.

    Samples ``trials`` increasing row/column subsets of size <= n_max (see
    :func:`_minor_draws`) and evaluates the determinants of each chunk's
    minors of one size with one stacked ``det``; the pass criterion
    normalizes by the largest entry magnitude of each submatrix, and a
    minor whose scale^n is at most 1e-280 counts as 0.  Beyond the section,
    memory is flat in ``trials`` and in the section's size.  Needs
    trials >= 1 and 1 <= n_max <= MINOR_N_MAX.
    """
    if n_max > MINOR_N_MAX:
        raise TPMatrixError(f"minor audit is capped at n_max <= {MINOR_N_MAX}")
    if n_max < 1 or trials < 1:
        raise TPMatrixError("minor audit needs n_max >= 1 and trials >= 1")
    A = section.entries
    rng = np.random.default_rng(seed)
    min_det = math.inf
    min_scaled = math.inf
    for rows, cols in _minor_draws(*A.shape, n_max, trials, rng):
        sub = A[rows[:, :, None], cols[:, None, :]]
        with np.errstate(divide="ignore"):  # an exactly singular minor is 0
            d = np.linalg.det(sub)
        # scale^n by Python's pow, as a scalar loop takes it: numpy's
        # vectorized power can differ from it in the last bit
        k = rows.shape[1]
        denom = np.array([s ** k for s in np.max(np.abs(sub), axis=(1, 2)).tolist()])
        scaled = np.divide(d, denom, out=np.zeros_like(d), where=denom > 1e-280)
        min_det = min(min_det, float(np.min(d)))
        min_scaled = min(min_scaled, float(np.min(scaled)))
    return MinorAuditReport(trials=trials, n_max=n_max, min_det=min_det,
                            min_scaled_det=min_scaled,
                            passed=bool(min_scaled >= -tol))
