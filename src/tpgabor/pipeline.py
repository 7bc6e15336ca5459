"""End-to-end frame certification: zero location through frame bounds.

Chains the module operations in the order the theory composes them:
Zak-zero location, perturbation selection per x, the alternating
surjectivity witness, the p x p injectivity certificate, and the
pre-Gramian frame-bound estimate.  Produces one machine-readable diagnosis
with every certificate attached.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import RationalLattice, choose_M, select_perturbation
from .pregramian import (FrameDiagnosis, VERDICT_FRAME, VERDICT_INCONCLUSIVE,
                         frame_bounds)
from .tpmatrix import TPMatrixError, alternating_witness
from .windows import Dilated, TPWindow
from .zak import ZakZeroNotFound, locate_zero
from .zibulski import injectivity_scan


@dataclass(frozen=True)
class PipelineOptions:
    x_grid_n: int = 64
    xi_grid_n: int = 128
    J_ladder: Sequence[int] = (16, 32, 64)
    zak_grid_n: int = 256
    cert_x_grid_n: int = 16
    tail_tol: float = 1e-10
    zero_tol: float = 1e-10
    sigma_tol: float = 1e-8
    witness_K: int = 16

    def validate(self):
        if min(self.tail_tol, self.zero_tol, self.sigma_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.x_grid_n < 16:
            raise ValueError("x_grid_n must be >= 16")
        if self.xi_grid_n < 128:
            raise ValueError("xi_grid_n must be >= 128")
        if self.zak_grid_n < 64:
            raise ValueError("zak_grid_n must be >= 64")
        if len(self.J_ladder) < 3:
            raise ValueError("J_ladder needs >= 3 entries")
        if self.cert_x_grid_n < 1:
            raise ValueError("cert_x_grid_n must be >= 1")


def effective_window(w: TPWindow, lat: RationalLattice) -> TPWindow:
    """Apply the beta reduction dilation to the window when beta != 1."""
    b = float(lat.beta_original)
    return w if b == 1.0 else Dilated(base=w, b=b)


def diagnose(w: TPWindow, lat: RationalLattice,
             opts: PipelineOptions = PipelineOptions()) -> FrameDiagnosis:
    """Run the full certification pipeline for one reduced lattice."""
    opts.validate()
    g = effective_window(w, lat)
    alpha = lat.alpha
    evidence = []

    if alpha >= 1:
        diag = frame_bounds(g, lat, x_grid_n=opts.x_grid_n,
                            J_ladder=opts.J_ladder, tail_tol=opts.tail_tol)
        return FrameDiagnosis(verdict=diag.verdict,
                              lower_bound_est=diag.lower_bound_est,
                              upper_bound_est=diag.upper_bound_est,
                              worst_x=diag.worst_x,
                              evidence=evidence + diag.evidence)

    # Zak zero certificate
    x0 = 0.5
    try:
        zz = locate_zero(g, grid_n=opts.zak_grid_n, zero_tol=opts.zero_tol)
        x0 = zz.x0
        evidence.append({"kind": "zak_zero", "x0": zz.x0, "xi0": zz.xi0,
                         "residual": zz.residual})
    except ZakZeroNotFound as e:
        # window outside the unique-zero hypothesis (one-sided exponential):
        # any admissible interval works; anchor it at the |Zg| minimizer
        if e.argmin is not None:
            x0 = float(e.argmin[0]) % 1.0
        evidence.append({"kind": "zak_zero", "x0": None,
                         "min_abs": e.min_abs,
                         "detail": "no Zak zero below tolerance; using the "
                                   "|Zg| minimizer as interval anchor"})

    # surjectivity witness + injectivity certificate over a certificate grid
    M = choose_M(x0 % 1.0)
    xs = np.arange(opts.cert_x_grid_n) / opts.cert_x_grid_n
    min_nu = float("inf")
    min_sigma = float("inf")
    all_invertible = True
    witness_fail = None
    for x in xs:
        pert = select_perturbation(lat, float(x), x0, M=M)
        try:
            wit = alternating_witness(g, pert, K=opts.witness_K,
                                      tail_tol=opts.tail_tol)
            min_nu = min(min_nu, wit.nu)
        except TPMatrixError as e:
            witness_fail = str(e)
        cert = injectivity_scan(g, lat, pert, xi_grid_n=opts.xi_grid_n,
                                sigma_tol=opts.sigma_tol, tol=opts.tail_tol)
        min_sigma = min(min_sigma, cert.min_sigma)
        all_invertible = all_invertible and cert.invertible
    evidence.append({"kind": "alternating_witness", "min_nu": min_nu,
                     "x_grid_n": opts.cert_x_grid_n,
                     "failure": witness_fail})
    evidence.append({"kind": "injectivity", "min_sigma": min_sigma,
                     "all_invertible": all_invertible,
                     "x_grid_n": opts.cert_x_grid_n})

    diag = frame_bounds(g, lat, x_grid_n=opts.x_grid_n,
                        J_ladder=opts.J_ladder, tail_tol=opts.tail_tol)
    verdict = diag.verdict
    if verdict == VERDICT_FRAME and not (all_invertible and witness_fail is None):
        # certificates disagree with the bound estimate: refuse to certify
        verdict = VERDICT_INCONCLUSIVE
        evidence.append({"kind": "disagreement",
                         "detail": "frame-bound ladder stable but a "
                                   "certificate failed"})
    return FrameDiagnosis(verdict=verdict,
                          lower_bound_est=diag.lower_bound_est,
                          upper_bound_est=diag.upper_bound_est,
                          worst_x=diag.worst_x,
                          evidence=evidence + diag.evidence)


def diagnosis_min_sigma(diag: FrameDiagnosis):
    for rec in diag.evidence:
        if rec.get("kind") == "injectivity":
            return rec.get("min_sigma")
    return None
