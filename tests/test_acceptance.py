"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (bypassing capture) so a full run
yields a human-readable scorecard next to the pytest verdict.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_pert
from oracles import fourier_factorization_check, inverse_decay_profile
from tpgabor import cli
from tpgabor.lattice import RationalLattice, reduce
from tpgabor.pipeline import diagnose
from tpgabor.pregramian import frame_bounds
from tpgabor.tpmatrix import alternating_witness, build_G, tp_minor_audit
from tpgabor.windows import window_from_config
from tpgabor.zak import locate_zero, zak_on_half_line, zak_values
from tpgabor.zibulski import injectivity_scan

GAUSS = '{"kind": "gaussian", "gamma": 3.141592653589793}'
TSEXP = '{"kind": "two_sided_exp", "rate": 1.0}'
SECH = '{"kind": "sech", "a": 1.0}'
OSE = '{"kind": "one_sided_exp", "gamma": 1.0}'

ALPHAS_8 = ",".join(f"{k}/8" for k in range(1, 13))


def report(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def run_scan(window, tmp_path, name):
    out = tmp_path / name
    code = cli.main(["scan", "--window", window, "--alphas", ALPHAS_8,
                     "--output", str(out)])
    assert code == 0
    rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[2:]]
    return {Fraction(r[0]): r[3] for r in rows}


def boundary_ok(verdicts):
    return all(v == ("Frame" if ab < 1 else "NotFrame")
               for ab, v in verdicts.items())


def test_criterion_1_gaussian_boundary(tmp_path, capsys):
    t0 = time.monotonic()
    verdicts = run_scan(GAUSS, tmp_path, "gauss.csv")
    dt = time.monotonic() - t0
    ok = boundary_ok(verdicts) and dt < 300
    report(capsys, 1,
           f"Gaussian scan flips Frame->NotFrame at alpha*beta=1 ({dt:.1f}s)",
           ok)


def test_criterion_2_exponential_and_sech_boundary(tmp_path, capsys):
    t0 = time.monotonic()
    ok = True
    for window, name in ((TSEXP, "tsexp.csv"), (SECH, "sech.csv")):
        ok = ok and boundary_ok(run_scan(window, tmp_path, name))
    dt = time.monotonic() - t0
    ok = ok and dt < 600
    report(capsys, 2,
           f"two-sided exp + sech scans match the alpha*beta<1 frame set "
           f"({dt:.1f}s)", ok)


def test_criterion_3_one_sided_exception(capsys):
    w = window_from_config(json.loads(OSE))
    diag = diagnose(w, reduce(1, 1))
    trace = next(e for e in diag.evidence if e.get("kind") == "sigma_ladder")
    bounded = min(trace["A_trace"]) > 1e-3
    ok = diag.verdict in ("Frame", "Inconclusive") and bounded
    report(capsys, 3,
           f"one-sided exponential at alpha*beta=1: {diag.verdict} with "
           f"sigma trace >= {min(trace['A_trace']):.3g}", ok)


def test_criterion_4_zak_zeros(gauss, tsexp, sech, capsys):
    ok = True
    for w in (gauss, tsexp, sech):
        a = locate_zero(w, grid_n=256)
        b = locate_zero(w, grid_n=512)
        ok = ok and abs(a.xi0 - 0.5) <= 1.0 / 256
        ok = ok and abs(a.x0 - b.x0) < 1.0 / 256
        ok = ok and a.residual < 1e-10
    gz = locate_zero(gauss)
    ok = ok and abs(gz.x0 - 0.5) <= 1e-6
    report(capsys, 4,
           "unique Zak zero at xi=1/2, grid-doubling stable; Gaussian "
           f"x0={gz.x0:.8f}", ok)


def test_criterion_5_witness_identity(gauss, tsexp, sech, zak_zeros, capsys):
    rng = np.random.default_rng(17)
    windows = [("gauss", gauss), ("tsexp", tsexp), ("sech", sech)]
    worst = 0.0
    runs = 0
    while runs < 100:
        name, w = windows[int(rng.integers(3))]
        q = int(rng.integers(2, 21))
        p = int(rng.integers(1, q))
        if math.gcd(p, q) != 1:
            continue
        lat = RationalLattice(p=p, q=q)
        pert = make_pert(lat, float(rng.uniform(0, 1)), zak_zeros[name].x0)
        wit = alternating_witness(w, pert, K=max(8, p))
        expected = np.array([(-1.0) ** k * zak_on_half_line(w, pert.delta(int(k)))
                             for k in wit.ks])
        worst = max(worst, float(np.max(np.abs(wit.u - expected))))
        runs += 1
    ok = worst < 1e-8
    report(capsys, 5,
           f"witness identity over 100 random runs, max deviation "
           f"{worst:.3g} < 1e-8", ok)


def test_criterion_6_minor_audit(gauss, tsexp, zak_zeros, capsys):
    ok = True
    mins = []
    for name, w in (("gauss", gauss), ("tsexp", tsexp)):
        lat = reduce("2/3", 1)
        pert = make_pert(lat, 0.3, zak_zeros[name].x0)
        sec = build_G(w, pert, K=16)
        rep = tp_minor_audit(sec, n_max=6, trials=10000, seed=0)
        ok = ok and rep.passed
        mins.append(rep.min_scaled_det)
    report(capsys, 6,
           f"10^4 random minors (n<=6) >= -1e-10*scale; worst scaled "
           f"{min(mins):.3g}", ok)


SUITE_ALPHAS = ("1/8", "1/2", "2/3", "3/4", "7/8")


def test_criterion_7_cross_certificate_consistency(
        gauss, tsexp, sech, zak_zeros, capsys):
    ok = True
    for name, w in (("gauss", gauss), ("tsexp", tsexp), ("sech", sech)):
        for alpha in SUITE_ALPHAS:
            lat = reduce(alpha, 1)
            pert = make_pert(lat, 0.1, zak_zeros[name].x0)
            inv = injectivity_scan(w, lat, [pert])[0].invertible
            frame = frame_bounds(w, lat).verdict == "Frame"
            ok = ok and (inv == frame)
    report(capsys, 7,
           "injectivity_scan Invertible <=> frame_bounds Frame on all "
           f"{3 * len(SUITE_ALPHAS)} suite cases", ok)


def test_criterion_8_fourier_factorization(gauss, tsexp, zak_zeros, capsys):
    rng = np.random.default_rng(23)
    worst = 0.0
    runs = 0
    while runs < 50:
        q = int(rng.integers(2, 9))
        p = int(rng.integers(1, q))
        if math.gcd(p, q) != 1:
            continue
        name, w = (("gauss", gauss), ("tsexp", tsexp))[runs % 2]
        lat = RationalLattice(p=p, q=q)
        pert = make_pert(lat, float(rng.uniform(0, 1)), zak_zeros[name].x0)
        c = rng.normal(size=int(rng.integers(1, 9)))
        rep = fourier_factorization_check(w, lat, pert, c,
                                          c_offset=int(rng.integers(-4, 5)))
        worst = max(worst, rep.max_dev)
        runs += 1
    ok = worst < 1e-8
    report(capsys, 8,
           f"factorization identity over 50 random (c, p/q), max deviation "
           f"{worst:.3g} < 100*tail_tol", ok)


def test_criterion_9_commutation_and_periodicity(gauss, tsexp, zak_zeros,
                                                 capsys):
    ok = True
    # exact p-shift commutation of G
    for name, w in (("gauss", gauss), ("tsexp", tsexp)):
        lat = reduce("2/3", 1)
        pert = make_pert(lat, 0.45, zak_zeros[name].x0)
        A = build_G(w, pert, K=10).entries
        p, n = pert.p, A.shape[0]
        ok = ok and np.array_equal(A[p:, p:], A[:n - p, :n - p])
    # Zak quasi-periodicity on 100 random points
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(100):
        w = gauss if rng.integers(2) else tsexp
        p = float(rng.choice([0.5, 1.0, 2.0]))
        x, xi = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        z = zak_values(w, p, [x], xi, tol=1e-10)[0]
        dev_x = abs(zak_values(w, p, [x + p], xi, tol=1e-10)[0]
                    - np.exp(2j * np.pi * p * xi) * z)
        dev_xi = abs(zak_values(w, p, [x], xi + 1.0 / p, tol=1e-10)[0] - z)
        worst = max(worst, dev_x, dev_xi)
    ok = ok and worst < 2e-10
    report(capsys, 9,
           f"G shift-commutation exact; quasi-periodicity residual "
           f"{worst:.3g} < 2*tol", ok)


def test_criterion_10_inverse_decay(gauss, zak_zeros, capsys):
    lat = reduce("2/3", 1)
    pert = make_pert(lat, 0.2, zak_zeros["gauss"].x0)
    sigmas = [inverse_decay_profile(build_G(gauss, pert, K=K), gauss.decay).sigma
              for K in (16, 32)]
    ok = all(s > 1.0 for s in sigmas)
    ok = ok and abs(sigmas[0] - sigmas[1]) <= 0.2 * max(sigmas)
    report(capsys, 10,
           f"inverse decay exponents {sigmas[0]:.2f} (K=16), "
           f"{sigmas[1]:.2f} (K=32): > 1 and within 20%", ok)


def test_criterion_11_determinism(tmp_path, capsys):
    cases = [
        ["diagnose", "--window", GAUSS, "--alpha", "2/3"],
        ["scan", "--window", GAUSS, "--alphas", "1/2,1"],
        ["bounds", "--window", TSEXP, "--alpha", "1/2"],
        ["zak", "--window", SECH, "--grid-n", "32"],
        ["zzdet", "--window", GAUSS, "--alpha", "2/3"],
        ["witness", "--window", GAUSS, "--alpha", "2/3", "--x", "0.1"],
        ["audit", "--window", GAUSS, "--alpha", "1/2", "--trials", "1000"],
    ]
    ok = True
    for i, argv in enumerate(cases):
        outs = []
        for rep in range(2):
            path = tmp_path / f"det_{i}_{rep}"
            cli.main(argv + ["--output", str(path)])
            outs.append(path.read_bytes())
        ok = ok and outs[0] == outs[1]
    report(capsys, 11,
           "repeated runs of every subcommand are byte-identical", ok)
