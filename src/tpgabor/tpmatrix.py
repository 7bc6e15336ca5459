"""Finite sections of the perturbed pre-Gramian sub-matrix G and its checks.

G_{kl} = g(k + delta_k - l) with a p-periodic perturbation delta.  The
operations here verify, at truncation scale, the properties the theory
asserts for the infinite matrix: total positivity of minors, the
uniformly alternating image vector, shift commutation, and off-diagonal
decay of the inverse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import PerturbationSeq
from .windows import DecayProfile, TPWindow, truncation_radius
from .zak import zak_on_half_line


class TPMatrixError(RuntimeError):
    """A finite-section property check failed."""


@dataclass(frozen=True)
class MatrixSection:
    """Dense finite section of an infinite matrix with index offsets.

    Row k of ``entries`` corresponds to infinite-matrix row k + row_offset;
    same for columns.  ``row_points``/``col_points`` give the real sample
    points behind each index so entries can be re-derived.
    """

    entries: np.ndarray
    row_offset: int
    col_offset: int
    row_points: np.ndarray
    col_points: np.ndarray
    decay_cert: DecayProfile
    description: str = ""

    @property
    def shape(self):
        return self.entries.shape


@dataclass(frozen=True)
class AlternatingWitness:
    """Finite section of u = Gc for c_l = (-1)^l."""

    u: np.ndarray
    nu: float
    sign_pattern_ok: bool
    ks: np.ndarray = field(default=None)


@dataclass(frozen=True)
class MinorAuditReport:
    trials: int
    n_max: int
    min_det: float
    min_scaled_det: float
    passed: bool


@dataclass(frozen=True)
class InverseDecayFit:
    C: float
    sigma: float
    cond: float
    distances: np.ndarray
    profile: np.ndarray


def G_entries(w: TPWindow, pert: PerturbationSeq, ks: np.ndarray,
              ls: np.ndarray) -> np.ndarray:
    """The block G_{kl} = g(k + delta_k - l), k in ks, l in ls (integers).

    The argument is the exact difference k - l plus delta_k (added in place:
    a second block-sized temporary costs more), so G_{k+p,l+p} = G_{kl} bitwise.
    """
    arg = ks.astype(float)[:, None] - ls.astype(float)
    arg += np.asarray(pert.deltas)[ks % pert.p][:, None]
    return w(arg)


def build_G(w: TPWindow, pert: PerturbationSeq, K: int) -> MatrixSection:
    """(2K+1) x (2K+1) section of G, k,l in [-K,K], from :func:`G_entries`."""
    if K < pert.p:
        raise TPMatrixError("section must cover at least one period: K >= p")
    ks = np.arange(-K, K + 1)
    return MatrixSection(entries=G_entries(w, pert, ks, ks),
                         row_offset=-K, col_offset=-K,
                         row_points=ks + np.asarray(pert.deltas)[ks % pert.p],
                         col_points=ks.astype(float),
                         decay_cert=w.decay,
                         description="G_{kl} = g(k + delta_k - l)")


def alternating_witness(w: TPWindow, pert: PerturbationSeq, K: int,
                        tail_tol: float = 1e-10) -> AlternatingWitness:
    """Compute u_k = sum_l (-1)^l g(k + delta_k - l) for k in [-K, K].

    The columns of :func:`G_entries` run one truncation radius past [-K, K]
    so every u_k is interior.  Verifies u_k = (-1)^k Zg(delta_k, 1/2) to
    10*tail_tol, taking the p Zak values in one bank call, and that u
    alternates with min |u_k| at least 1000*tail_tol.
    """
    R = truncation_radius(w, tail_tol)
    ks = np.arange(-K, K + 1)
    ls = np.arange(-K - R - 1, K + R + 2)
    u = G_entries(w, pert, ks, ls) @ ((-1.0) ** ls)

    zvals = zak_on_half_line(w, np.asarray(pert.deltas), tail_tol)
    expected = ((-1.0) ** ks) * zvals[ks % pert.p]
    dev = np.max(np.abs(u - expected))
    if dev >= 10.0 * tail_tol:
        raise TPMatrixError(
            f"witness identity u_k = (-1)^k Zg(delta_k, 1/2) violated "
            f"by {dev:.3g} (>= {10 * tail_tol:g})")

    nu = float(np.min(np.abs(u)))
    sign_ok = bool(np.all(u[:-1] * u[1:] < 0.0))
    if not sign_ok or nu < 1000.0 * tail_tol:
        raise TPMatrixError(
            f"witness degenerate: nu = {nu:.3g}, alternating = {sign_ok}; "
            "delta too close to the Zak zero or window hypothesis failure")
    return AlternatingWitness(u=u, nu=nu, sign_pattern_ok=sign_ok, ks=ks)


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
    independent, uniform, sorted row and column subsets of sizes
    min(k, m) and min(k, n).
    """
    chunk = max(1, _AUDIT_KEYS // max(m, n))
    for start in range(0, trials, chunk):
        sizes = rng.integers(1, n_max + 1, size=min(chunk, trials - start))
        for k in range(1, n_max + 1):
            cnt = int(np.count_nonzero(sizes == k))
            if cnt:
                yield (_subsets(rng, cnt, m, min(k, m)),
                       _subsets(rng, cnt, n, min(k, n)))


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


def inverse_decay_profile(section: MatrixSection,
                          tail_tol: float = 1e-10) -> InverseDecayFit:
    """Invert the section and fit |G^{-1}_{kl}| <= C (1+|k-l|)^{-sigma}.

    Only interior rows/columns (at least one truncation radius from the
    section edge) enter the fit; the profile is the per-distance maximum
    of |G^{-1}| up to distance 12, regressed log-log against 1 + distance.
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
    R = section.decay_cert.tail_radius(tail_tol)
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
