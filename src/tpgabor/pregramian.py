"""Truncated pre-Gramian sections and frame-bound estimation.

P(x)_{jk} = g(x + alpha j - k).  The frame bounds come from the exact q x p
transfer window of P(x) (Zibulski-Zeevi) over one x-period [0, 1/q), or
over its half [0, 1/(2q)] for an even window, whose spectrum at x equals
the one at 1/q - x.  The verdict also requires the smallest singular value
of interior-column restrictions of truncated sections, centred on the worst
vector, to be stable across a ladder of truncation sizes, since
infinite-matrix stability is only observable as truncation-stable behavior.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .lattice import RationalLattice
from .tpmatrix import MatrixSection
from .windows import (TAIL_TOL, TPWindow, frame_at_critical_density,
                      truncation_radius)
from .zibulski import TRANSFER_XI_GRID_N, transfer_window, worst_vector_x


class PregramianError(RuntimeError):
    """Frame-bound estimation failed."""


VERDICT_FRAME = "Frame"
VERDICT_NOT_FRAME = "NotFrame"
VERDICT_INCONCLUSIVE = "Inconclusive"

# base sizes J of the ladder's truncated sections, scaled up in frame_bounds
J_LADDER = (16, 32, 64)
# points j/(X_GRID_N q) of one x-period at which the transfer window is taken
X_GRID_N = 64


@dataclass(frozen=True)
class FrameDiagnosis:
    verdict: str
    lower_bound_est: float
    upper_bound_est: float
    worst_x: float
    evidence: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _lattice_grid_section(w: TPWindow, lat: RationalLattice, x: float,
                          J: int, K: int) -> np.ndarray:
    """Entries g(x + alpha j - k) of P(x) for |j| <= J, |k| <= K.

    Each is g(x + n/q), n = p j - q k, gathered from one sample of w on that
    grid: an argument on a jump (the one-sided exponential's at 0) is exact.
    The gather is a strided view of the sample, rows p apart and columns
    -q apart from the entry of (j, k) = (-J, -K), copied once.
    """
    if J < 1:
        raise PregramianError("J must be at least 1")
    p, q = lat.p, lat.q
    n0 = p * J + q * K
    vals = w(x + np.arange(-n0, n0 + 1) / q)
    step = vals.strides[0]
    return np.lib.stride_tricks.as_strided(
        vals[n0 - p * J + q * K:], shape=(2 * J + 1, 2 * K + 1),
        strides=(p * step, -q * step), writeable=False).copy()


def pregramian_section(w: TPWindow, lat: RationalLattice, x: float,
                       J: int) -> MatrixSection:
    """Rows j in [-J, J], columns k in [-K, K], K = ceil(alpha J) + radius.

    The entries come from the lattice-grid gather the ladder rungs use.
    """
    R = truncation_radius(w, TAIL_TOL)
    K = -(-lat.p * J // lat.q) + R  # ceil(alpha J), exact
    return MatrixSection(entries=_lattice_grid_section(w, lat, x, J, K))


def lower_bound_at_x(w: TPWindow, lat: RationalLattice, x: float,
                     J: int) -> float:
    """sigma_min^2 of the interior-column restriction of the section at x.

    The restriction drops one truncation radius of boundary columns so
    edge effects do not spuriously deflate the smallest singular value.
    Only the kept columns are gathered, from the lattice-grid sample that
    :func:`pregramian_section` uses, so they equal its columns bitwise.
    sigma_min^2 is the least eigenvalue of the Gram matrix M^T M of the
    real, tall restriction M: fewer flops than its SVD, with absolute
    rounding error about n eps sigma_max^2 for n columns, far inside the
    ladder's 10% rule.
    """
    R = truncation_radius(w, TAIL_TOL)
    # a column k has full row support within |j| <= J only for |k| <= alpha*J - R
    K_inner = max(lat.p * J // lat.q - R, 0)
    M = _lattice_grid_section(w, lat, x, J, K_inner)
    return max(float(np.linalg.eigvalsh(M.T @ M)[0]), 0.0)


def upper_bound_cert(w: TPWindow, alpha: float = 1.0) -> float:
    """Schur-test upper bound (sum_k sup_x |g(x+k)|)^2 / alpha, on 257 x.

    Row sums of P(x) are bounded by S = sum_k sup |g(.+k)|; column sums by
    S/alpha because the rows sample on the finer grid x + alpha*Z.
    """
    R = truncation_radius(w, TAIL_TOL)
    xs = np.linspace(0.0, 1.0, 257)
    ks = np.arange(-R - 1, R + 2)
    vals = np.abs(w(xs[:, None] + ks[None, :].astype(float)))
    S = float(np.sum(np.max(vals, axis=0)) + TAIL_TOL)
    return S * S / alpha


def frame_bounds(w: TPWindow, lat: RationalLattice) -> FrameDiagnosis:
    """Frame bounds from the transfer window, cross-checked by a ladder.

    A and B are the min of sigma_min^2 and the max of sigma_max^2 of the
    q x p transfer window over the X_GRID_N points j/(X_GRID_N q) of one
    x-period [0, 1/q) (the spectrum of P(x) is 1/q-periodic, as
    alpha*Z + Z = Z/q).

    An even window (``w.even``) needs only j <= X_GRID_N/2, one point per
    mirror pair j <-> X_GRID_N - j, so its worst_x lies in [0, 1/(2q)].
    Z_p g(-y, xi) = conj Z_p g(y, xi) for even real g, so B(-x, xi)_{a'b'}
    with a' = (q - a) mod q, b' = (p - b) mod p is conj B(x, xi)_{ab} up to
    unimodular phases: alpha a' - b' = -(alpha a - b), up to +-p when
    exactly one of a, b is 0, and that shift is a row phase times a column
    phase, as Z_p g(y + p, xi) = exp(2 pi i p xi) Z_p g(y, xi).  So the
    spectrum at -x, that is at 1/q - x, is the one at x.

    At an x equivalent to the worst x, with the section centred on the
    worst vector, the interior-restricted section bound runs over the
    truncation ladder; Frame needs the ladder's last step to change by
    under 10% of max(last rung, floor), floor as below, and the last rung
    above the floor, else the verdict is Inconclusive.  The rungs are
    J = ceil(J0 max(1, (R + 4)/(16 alpha))) for J0 in ``J_LADDER``, R the
    truncation radius of w at ``TAIL_TOL``, so that even the smallest keeps
    a few fully supported columns.

    Frame also needs A above 64 min(p, q) eps B, a floor 64 times the
    absolute rounding of :func:`transfer_window`: an A at or below it is
    noise, not a bound, and gets Inconclusive with a ``precision`` record
    holding A and the floor.

    NotFrame comes from the density theorem alone: alpha*beta >= 1
    short-circuits to it (Balian-Low at equality for smooth windows), but
    a one-sided exponential at alpha*beta = 1 is a frame (Janssen 1996)
    and gets the full estimate with an Inconclusive verdict.
    """
    alpha = lat.alpha

    if alpha > 1 or (alpha == 1 and not frame_at_critical_density(w)):
        return FrameDiagnosis(
            verdict=VERDICT_NOT_FRAME, lower_bound_est=0.0,
            upper_bound_est=upper_bound_cert(w, alpha=lat.alpha_float),
            worst_x=0.0,
            evidence=[{"kind": "density",
                       "detail": f"alpha*beta = {alpha} >= 1 admits no frame "
                                 "for this window class (no numerics run)"}])

    R = truncation_radius(w, TAIL_TOL)
    scale = max(1.0, (R + 4.0) / (lat.alpha_float * J_LADDER[0]))
    rungs = [int(math.ceil(J * scale)) for J in J_LADDER]

    xs = np.arange(X_GRID_N // 2 + 1 if w.even else X_GRID_N) / (X_GRID_N * lat.q)
    lo, hi, xi_lo = transfer_window(w, lat, xs, TRANSFER_XI_GRID_N)
    worst = int(np.argmin(lo))
    A_est, B_est, worst_x = float(lo[worst]), float(np.max(hi)), float(xs[worst])

    # the ladder is centred where the worst vector peaks: at worst_x, a
    # section with fewer than p interior columns can miss it (Gaussian 55/56)
    x_lad = worst_vector_x(w, lat, worst_x, float(xi_lo[worst]))
    ladder = [lower_bound_at_x(w, lat, x_lad, J) for J in rungs]
    floor = 64 * min(lat.p, lat.q) * np.finfo(float).eps * B_est
    rel = abs(ladder[-1] - ladder[-2]) / max(ladder[-1], floor)
    evidence = [{"kind": "sigma_ladder",
                 "x": x_lad,
                 "J_ladder": rungs,
                 "A_trace": ladder,
                 "relative_change_last": rel},
                {"kind": "transfer_window",
                 "x_grid_n": X_GRID_N,
                 "xi_grid_n": TRANSFER_XI_GRID_N,
                 "A": A_est,
                 "B": B_est}]

    if alpha == 1:
        # only the one-sided exponential gets here: report, stay Inconclusive
        verdict = VERDICT_INCONCLUSIVE
        evidence.append({"kind": "critical_density_exception",
                         "detail": "one-sided exponential at alpha*beta = 1; "
                                   "sigma trace bounded away from zero"})
    elif A_est <= floor:
        verdict = VERDICT_INCONCLUSIVE
        evidence.append({"kind": "precision", "A_est": A_est, "floor": floor})
    elif rel < 0.10 and ladder[-1] > floor:
        verdict = VERDICT_FRAME
    else:
        verdict = VERDICT_INCONCLUSIVE
    return FrameDiagnosis(verdict=verdict, lower_bound_est=A_est,
                          upper_bound_est=B_est, worst_x=worst_x,
                          evidence=evidence)
