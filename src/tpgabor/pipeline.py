"""End-to-end frame certification: zero location through frame bounds.

Chains the module operations in the order the theory composes them:
Zak-zero location, perturbation selection per x, the alternating
surjectivity witness, the p x p injectivity certificate, and the
pre-Gramian frame-bound estimate.  Produces one machine-readable diagnosis
with every certificate attached.  It reads no setting: the witness and
the injectivity scan run on the :data:`CERT_X_GRID_N` x points, every
certificate truncates its series at the tail
:data:`tpgabor.windows.TAIL_TOL`, the Zak zero is located at the defaults
of :func:`tpgabor.zak.locate_zero`, and A(xi) counts as invertible above
the constant :data:`tpgabor.zibulski.SIGMA_TOL`.
"""
from __future__ import annotations

import math

import numpy as np

from .lattice import RationalLattice, select_perturbation
from .pregramian import (FrameDiagnosis, VERDICT_FRAME, VERDICT_INCONCLUSIVE,
                         frame_bounds)
from .tpmatrix import TPMatrixError, alternating_witness
from .windows import Dilated, TPWindow
from .zak import ZakZeroNotFound, locate_zero
from .zibulski import SIGMA_TOL, injectivity_scan


# points i/n of [0, 1) at which the witness and the injectivity scan run
CERT_X_GRID_N = 16


def effective_window(w: TPWindow, lat: RationalLattice) -> TPWindow:
    """Apply the beta reduction dilation to the window when beta != 1."""
    b = float(lat.beta_original)
    return w if b == 1.0 else Dilated(base=w, b=b)


def zak_anchor(g: TPWindow) -> tuple:
    """The anchor x0 of the admissible intervals and its ``zak_zero`` record.

    x0 is the located Zak zero; a window outside the unique-zero hypothesis
    (one-sided exponential) admits any interval, so it is anchored where the
    refinement of :func:`locate_zero` stops, mod 1: at the jump of
    Zg(., 1/2) next to the |Zg| grid minimum.  The side of the jump it stops
    on decides the perturbation at every x where two offsets tie.
    """
    try:
        zz = locate_zero(g)
    except ZakZeroNotFound as e:
        return float(e.argmin[0]) % 1.0, {
            "kind": "zak_zero", "x0": None, "min_abs": e.min_abs,
            "detail": "no Zak zero below tolerance; using the "
                      "|Zg| minimizer as interval anchor"}
    return zz.x0, {"kind": "zak_zero", "x0": zz.x0, "xi0": zz.xi0,
                   "residual": zz.residual}


def diagnose(w: TPWindow, lat: RationalLattice) -> FrameDiagnosis:
    """Run the full certification pipeline for one reduced lattice."""
    g = effective_window(w, lat)
    diag = frame_bounds(g, lat)
    if lat.alpha >= 1:
        return diag

    x0, zak_zero = zak_anchor(g)
    evidence = [zak_zero]

    # surjectivity witness + injectivity certificate over a certificate grid.
    # Both depend on x only mod 1/q (the perturbation at x + 1/q is a cyclic
    # relabelling of the one at x), and grid points i/n, j/n share a class
    # iff n/gcd(n, q) divides i - j: one point per class is evaluated.
    # [-K, K] holds every residue mod p, so the witness sees a whole period.
    n = CERT_X_GRID_N
    xs = np.arange(n // math.gcd(n, lat.q)) / n
    K = max(16, lat.p // 2)
    min_nu = float("inf")
    witness_fail = None
    perts = []
    for x in xs:
        pert = select_perturbation(lat, float(x), x0)
        try:
            wit = alternating_witness(g, pert, K=K)
            min_nu = min(min_nu, wit.nu)
        except TPMatrixError as e:
            witness_fail = str(e)
        perts.append(pert)
    certs = injectivity_scan(g, lat, perts)
    min_sigma = min(cert.min_sigma for cert in certs)
    sigma_cert = min(cert.sigma_cert for cert in certs)
    all_invertible = all(cert.invertible for cert in certs)
    evidence.append({"kind": "alternating_witness", "min_nu": min_nu,
                     "x_grid_n": n,
                     "failure": witness_fail})
    evidence.append({"kind": "injectivity", "min_sigma": min_sigma,
                     "sigma_cert": sigma_cert, "sigma_tol": SIGMA_TOL,
                     "all_invertible": all_invertible,
                     "x_grid_n": n})

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
