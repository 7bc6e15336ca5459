import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpgabor import pipeline
from tpgabor.lattice import RationalLattice, reduce, select_perturbation
from tpgabor.pipeline import (diagnose, diagnosis_min_sigma, effective_window,
                              zak_anchor)
from tpgabor.pregramian import FrameDiagnosis
from tpgabor.tpmatrix import alternating_witness
from tpgabor.windows import TAIL_TOL, Dilated, Gaussian, window_from_config
from tpgabor.zak import zak_on_half_line
from tpgabor.zibulski import SIGMA_TOL, InjectivityCertificate, injectivity_scan


def test_effective_window_applies_dilation(gauss):
    lat = reduce("1/4", 2)
    g = effective_window(gauss, lat)
    assert isinstance(g, Dilated)
    assert g.b == 2.0
    assert effective_window(gauss, reduce("1/2", 1)) is gauss


def test_diagnose_attaches_all_certificates(gauss):
    diag = diagnose(gauss, reduce("2/3", 1))
    assert diag.verdict == "Frame"
    kinds = [e["kind"] for e in diag.evidence]
    for kind in ("zak_zero", "alternating_witness", "injectivity",
                 "sigma_ladder"):
        assert kind in kinds
    assert diagnosis_min_sigma(diag) > 0


def test_injectivity_evidence_carries_sigma_cert(sech):
    # sigma_cert is the minimum of the per-x certified bounds and decides
    # all_invertible against the constant SIGMA_TOL
    diag = diagnose(sech, reduce("1/2", 1))
    rec = next(e for e in diag.evidence if e["kind"] == "injectivity")
    assert rec["sigma_tol"] == SIGMA_TOL
    assert SIGMA_TOL < rec["sigma_cert"] <= rec["min_sigma"]
    assert rec["all_invertible"] and diag.verdict == "Frame"


def test_diagnose_one_sided_subcritical_uses_anchor(ose):
    # no Zak zero exists; the pipeline anchors the admissible interval at
    # the |Zg| minimizer and must still certify the frame below density 1
    diag = diagnose(ose, reduce("1/2", 1))
    assert diag.verdict == "Frame"
    zz = next(e for e in diag.evidence if e["kind"] == "zak_zero")
    assert zz["x0"] is None
    assert zz["min_abs"] > 0.1


def test_diagnose_beta_reduction_equivalence(gauss):
    a = diagnose(gauss, reduce("1/2", 1))
    b = diagnose(gauss, reduce("1/4", 2))
    assert a.verdict == b.verdict == "Frame"


def test_diagnose_witness_covers_whole_period(monkeypatch):
    # p = 35 > 33: a witness on [-16, 16] sees 33 of the 35 residues, so
    # min_nu must be the minimum of |Zg(delta_r, 1/2)| over the whole period
    monkeypatch.setattr(pipeline, "CERT_X_GRID_N", 1)
    g, lat = Gaussian(), reduce("35/36", 1)
    diag = diagnose(g, lat)
    min_nu = next(e["min_nu"] for e in diag.evidence
                  if e["kind"] == "alternating_witness")
    x0, _ = zak_anchor(g)
    pert = select_perturbation(lat, 0.0, x0)
    ref = min(abs(zak_on_half_line(g, d, TAIL_TOL)) for d in pert.deltas)
    assert abs(min_nu - ref) <= 10 * TAIL_TOL


@pytest.fixture(scope="module")
def anchored(gauss, sech, tsexp, ose):
    return {name: (w, zak_anchor(w)[0])
            for name, w in (("gauss", gauss), ("sech", sech),
                            ("tsexp", tsexp), ("ose", ose))}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["gauss", "sech", "tsexp", "ose"]),
       q=st.integers(2, 16), p=st.integers(1, 12),
       x=st.floats(0.0, 1.0, exclude_max=True))
def test_certificates_one_over_q_periodic(anchored, name, q, p, x):
    # the perturbation at x + 1/q is a cyclic relabelling of the one at x,
    # which is what lets diagnose run one certificate x per class mod 1/q
    p = min(p, q - 1)
    d = math.gcd(p, q)
    lat = RationalLattice(p=p // d, q=q // d)
    w, x0 = anchored[name]
    perts = [select_perturbation(lat, xx, x0) for xx in (x, x + 1.0 / lat.q)]
    s0, s1 = (cert.min_sigma for cert in injectivity_scan(w, lat, perts))
    assert abs(s0 - s1) <= 1e-12 * s0
    K = max(16, lat.p // 2)
    n0, n1 = (alternating_witness(w, pe, K=K).nu for pe in perts)
    assert abs(n0 - n1) <= 10 * TAIL_TOL


def _count_perturbations(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return select_perturbation(*args, **kwargs)

    monkeypatch.setattr(pipeline, "select_perturbation", counting)
    return calls


@pytest.mark.parametrize("alpha", ["3/8", "2/3"])
def test_diagnose_one_certificate_x_per_class(gauss, monkeypatch, alpha):
    lat = reduce(alpha, 1)
    calls = _count_perturbations(monkeypatch)
    assert diagnose(gauss, lat).verdict == "Frame"
    n = pipeline.CERT_X_GRID_N
    assert len(calls) == n // math.gcd(n, lat.q)


def test_diagnose_one_certificate_x_at_q_128(gauss, monkeypatch):
    # all 16 grid points fall in one class mod 1/128; the injectivity scan
    # and the frame-bound estimate are stubbed, only the x count is taken
    lat = reduce("127/128", 1)
    calls = _count_perturbations(monkeypatch)
    monkeypatch.setattr(pipeline, "frame_bounds", lambda *a, **k: FrameDiagnosis(
        verdict="Frame", lower_bound_est=1.0, upper_bound_est=1.0, worst_x=0.0))
    cert = InjectivityCertificate(min_sigma=1.0, sigma_cert=1.0, invertible=True)
    monkeypatch.setattr(pipeline, "injectivity_scan",
                        lambda w, lat, perts: [cert] * len(perts))
    diagnose(gauss, lat)
    assert calls == [0.0]


# the five windows of the benchmark
FAREY_WINDOWS = {
    "gauss": {"kind": "gaussian"},
    "tsexp": {"kind": "two_sided_exp", "rate": 1.0},
    "sech": {"kind": "sech", "a": 1.0},
    "ose": {"kind": "one_sided_exp", "gamma": 1.0},
    "fp3": {"kind": "finite_product", "gamma": 0.0,
            "nus": [1.0, -0.5, 0.25], "nu": 0.0, "c": 1.0},
}


@pytest.mark.parametrize("name", sorted(FAREY_WINDOWS))
def test_farey_sweep_verdicts(name):
    # the theorem at default options: Frame at every p/q < 1 with q <= 12
    # (45 lattices), NotFrame at every p/q in (1, 2] with q <= 12 (46)
    w = window_from_config(FAREY_WINDOWS[name])
    below = sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q)})
    above = sorted({1 + a for a in below} | {Fraction(2)})
    assert (len(below), len(above)) == (45, 46)
    for alphas, verdict in ((below, "Frame"), (above, "NotFrame")):
        got = {str(a): diagnose(w, reduce(a, 1)).verdict for a in alphas}
        assert got == {str(a): verdict for a in alphas}
