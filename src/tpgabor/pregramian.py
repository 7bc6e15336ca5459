"""Truncated pre-Gramian sections and frame-bound estimation.

P(x)_{jk} = g(x + alpha j - k).  The frame bounds come from the exact q x p
transfer window of P(x) (Zibulski-Zeevi) over one x-period [0, 1/q).  The
verdict also requires the smallest singular value of interior-column
restrictions of truncated sections, centred on the worst vector, to be
stable across a ladder of truncation sizes, since infinite-matrix
stability is only observable as truncation-stable behavior.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .lattice import RationalLattice
from .tpmatrix import MatrixSection
from .windows import Dilated, OneSidedExp, TPWindow, truncation_radius
from .zibulski import TRANSFER_XI_GRID_N, transfer_window, worst_column


class PregramianError(RuntimeError):
    """Frame-bound estimation failed."""


VERDICT_FRAME = "Frame"
VERDICT_NOT_FRAME = "NotFrame"
VERDICT_INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class FrameDiagnosis:
    verdict: str
    lower_bound_est: float
    upper_bound_est: float
    worst_x: float
    evidence: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"verdict": self.verdict,
                "lower_bound_est": self.lower_bound_est,
                "upper_bound_est": self.upper_bound_est,
                "worst_x": self.worst_x,
                "evidence": self.evidence}


def pregramian_section(w: TPWindow, lat: RationalLattice, x: float, J: int,
                       tail_tol: float = 1e-10) -> MatrixSection:
    """Rows j in [-J, J], columns k in [-K, K], K = ceil(alpha J) + radius."""
    if J < 1:
        raise PregramianError("J must be at least 1")
    alpha = lat.alpha_float
    R = truncation_radius(w, tail_tol)
    K = int(math.ceil(alpha * J)) + R
    js = np.arange(-J, J + 1)
    ks = np.arange(-K, K + 1)
    rows = x + alpha * js
    entries = w(rows[:, None] - ks[None, :].astype(float))
    return MatrixSection(entries=entries, row_offset=-J, col_offset=-K,
                         row_points=rows, col_points=ks.astype(float),
                         decay_cert=w.decay,
                         description="P(x)_{jk} = g(x + alpha j - k)")


def lower_bound_at_x(w: TPWindow, lat: RationalLattice, x: float, J: int,
                     tail_tol: float = 1e-10) -> float:
    """sigma_min^2 of the interior-column restriction of the section at x.

    The restriction drops one truncation radius of boundary columns so
    edge effects do not spuriously deflate the smallest singular value.
    """
    sec = pregramian_section(w, lat, x, J, tail_tol)
    R = truncation_radius(w, tail_tol)
    K = (sec.entries.shape[1] - 1) // 2
    # a column k has full row support within |j| <= J only for |k| <= alpha*J - R
    K_inner = max(int(math.floor(lat.alpha_float * J)) - R, 0)
    sig = np.linalg.svd(sec.entries[:, K - K_inner:K + K_inner + 1],
                        compute_uv=False)
    return float(sig[-1]) ** 2


def upper_bound_cert(w: TPWindow, alpha: float = 1.0, grid_n: int = 256,
                     tail_tol: float = 1e-10) -> float:
    """Schur-test upper bound (sum_k sup_x |g(x+k)|)^2 / alpha on a grid.

    Row sums of P(x) are bounded by S = sum_k sup |g(.+k)|; column sums by
    S/alpha because the rows sample on the finer grid x + alpha*Z.
    """
    R = truncation_radius(w, tail_tol)
    xs = np.linspace(0.0, 1.0, grid_n + 1)
    ks = np.arange(-R - 1, R + 2)
    vals = np.abs(w(xs[:, None] + ks[None, :].astype(float)))
    S = float(np.sum(np.max(vals, axis=0)) + tail_tol)
    return S * S / alpha


def frame_bounds(w: TPWindow, lat: RationalLattice, x_grid_n: int = 64,
                 J_ladder: Sequence[int] = (16, 32, 64),
                 tail_tol: float = 1e-10) -> FrameDiagnosis:
    """Frame bounds from the transfer window, cross-checked by a ladder.

    A and B are the min of sigma_min^2 and the max of sigma_max^2 of the
    q x p transfer window over x_grid_n points of one x-period [0, 1/q)
    (the spectrum of P(x) is 1/q-periodic, as alpha*Z + Z = Z/q).  At an x
    equivalent to the worst x, with the section centred on the worst
    vector, the interior-restricted section bound runs over the truncation
    ladder; Frame needs its last step to change by under 10%.

    alpha*beta >= 1 short-circuits to NotFrame by the density theorem
    (Balian-Low at equality for smooth windows); the one-sided exponential
    at alpha*beta = 1 is the exception and gets the full estimate with an
    Inconclusive verdict carrying the bounded sigma trace.
    """
    if x_grid_n < 16:
        raise PregramianError("x_grid_n must be at least 16")
    J_ladder = tuple(sorted(J_ladder))
    if len(J_ladder) < 3:
        raise PregramianError("J_ladder needs at least 3 entries")
    alpha = lat.alpha

    base = w.base if isinstance(w, Dilated) else w
    one_sided = isinstance(base, OneSidedExp)
    if alpha >= 1 and not (one_sided and alpha == 1):
        return FrameDiagnosis(
            verdict=VERDICT_NOT_FRAME, lower_bound_est=0.0,
            upper_bound_est=upper_bound_cert(w, alpha=lat.alpha_float,
                                             tail_tol=tail_tol),
            worst_x=0.0,
            evidence=[{"kind": "density",
                       "detail": f"alpha*beta = {alpha} >= 1 admits no frame "
                                 "for this window class (no numerics run)"}])

    # scale rungs so even the smallest keeps a few fully supported columns
    R = truncation_radius(w, tail_tol)
    scale = max(1.0, (R + 4.0) / (lat.alpha_float * J_ladder[0]))
    J_ladder = tuple(int(math.ceil(J * scale)) for J in J_ladder)

    xs = np.arange(x_grid_n) / (x_grid_n * lat.q)
    lo, hi, xi_lo = transfer_window(w, lat, xs, TRANSFER_XI_GRID_N, tail_tol)
    worst = int(np.argmin(lo))
    A_est, B_est, worst_x = float(lo[worst]), float(np.max(hi)), float(xs[worst])

    # P(worst_x) around row a, column b is the section of P(x_lad) around
    # (0, 0), x_lad = worst_x + alpha a - b, with the same spectrum.  Its
    # worst vector can be localized within a period of p columns, so the
    # ladder is centred where it peaks: at worst_x itself, a section with
    # fewer than p interior columns can miss it (Gaussian 55/56: NotFrame).
    b = worst_column(w, lat, worst_x, float(xi_lo[worst]), tail_tol)
    a = round((b - worst_x) / lat.alpha_float)
    x_lad = worst_x + lat.alpha_float * a - b
    ladder = [lower_bound_at_x(w, lat, x_lad, J, tail_tol) for J in J_ladder]
    rel = abs(ladder[-1] - ladder[-2]) / max(ladder[-1], 1e-300)
    decreasing = all(ladder[i + 1] < 0.6 * ladder[i] for i in range(len(ladder) - 1))
    evidence = [{"kind": "sigma_ladder",
                 "x": x_lad,
                 "J_ladder": list(J_ladder),
                 "A_trace": ladder,
                 "relative_change_last": rel},
                {"kind": "transfer_window",
                 "x_grid_n": x_grid_n,
                 "xi_grid_n": TRANSFER_XI_GRID_N,
                 "A": A_est,
                 "B": B_est}]

    if alpha == 1 and one_sided:
        # frame set of the one-sided exponential includes alpha*beta = 1;
        # report the bounded trace but stay Inconclusive at critical density
        verdict = VERDICT_INCONCLUSIVE if not decreasing else VERDICT_NOT_FRAME
        evidence.append({"kind": "critical_density_exception",
                         "detail": "one-sided exponential at alpha*beta = 1; "
                                   "sigma trace bounded away from zero"
                                   if not decreasing else
                                   "sigma trace decays toward zero"})
        return FrameDiagnosis(verdict=verdict, lower_bound_est=A_est,
                              upper_bound_est=B_est, worst_x=worst_x,
                              evidence=evidence)

    if A_est > 0 and rel < 0.10 and not decreasing:
        verdict = VERDICT_FRAME
    elif decreasing:
        verdict = VERDICT_NOT_FRAME
    else:
        verdict = VERDICT_INCONCLUSIVE
    return FrameDiagnosis(verdict=verdict, lower_bound_est=A_est,
                          upper_bound_est=B_est, worst_x=worst_x,
                          evidence=evidence)
