import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import tpgabor
from tpgabor import zak as zakmod
from tpgabor.pipeline import zak_anchor
from tpgabor.windows import (Dilated, FiniteProduct, Gaussian,
                             HyperbolicSecant, OneSidedExp, truncation_radius,
                             two_sided_exponential)
from tpgabor.zak import (ZakError, ZakZeroNotFound, locate_zero,
                         zak_bank, zak_on_half_line, zak_values)

# theta-type alternating sum: sum_k (-1)^k e^{-pi k^2}, 40-digit reference
THETA_ALT = 0.9135791381561168


def brute_zak(w, p, x, xi, K=200):
    """Direct-summation oracle with a deliberately generous cutoff."""
    terms = [w(x - p * k) * cmath.exp(2j * math.pi * p * k * xi)
             for k in range(-K, K + 1)]
    return sum(terms)


# ------------------------------------------------------------- the kernel

LOCATE_ZERO_GRID = np.arange(64) / 64


@pytest.mark.parametrize("p, pts, xis", [
    *(pytest.param(p, np.linspace(-p - 0.4, p + 0.3, 23),
                   np.linspace(0.0, 1.0 / p, 17), id=str(p)) for p in (1, 7, 15)),
    # the (x, xi) grid that locate_zero scans
    pytest.param(1, LOCATE_ZERO_GRID, LOCATE_ZERO_GRID, id="locate_zero_grid"),
])
def test_zak_bank_matches_direct_sum(gauss, sech, p, pts, xis):
    # the truncated bank against every term with |t - p k| <= 60, where
    # both windows are below 1e-26
    for w in (gauss, sech):
        kmax = math.ceil((60.0 + np.max(np.abs(pts))) / p) + 1
        k = np.arange(-kmax, kmax + 1)
        arg = pts[:, None] - p * k[None, :]
        gv = np.where(np.abs(arg) <= 60.0, w(arg), 0.0)
        ref = gv @ np.exp(2j * math.pi * p * np.outer(k, xis))
        got = zak_bank(w, p, pts, xis, 1e-10)
        assert np.max(np.abs(got - ref)) < 1e-10
        # zak_values is one xi column of the same kernel, p > 1 included
        assert np.max(np.abs(zak_values(w, p, pts, xis[5], 1e-10)
                             - ref[:, 5])) < 1e-10


@pytest.mark.parametrize("p", [1, 8, 32])
def test_zak_bank_flush_within_bound(gauss, sech, p):
    # samples below tol * eps are flushed before the phase sum: each value
    # moves by at most (2K + 1) tol eps against the unflushed sum of the
    # same 2K + 1 terms
    tol = 1e-10
    pts = np.linspace(-p - 0.4, p + 0.3, 29)
    xis = np.linspace(0.0, 1.0 / p, 9)
    flushed = 0
    for w in (gauss, sech):
        R = truncation_radius(w, tol)
        K = math.ceil((R + np.max(np.abs(pts))) / p) + 2
        k = np.arange(-K, K + 1)
        gv = w(pts[:, None] - p * k[None, :])
        flushed += np.count_nonzero((gv != 0.0) & (np.abs(gv) < tol * np.finfo(float).eps))
        ref = gv @ np.exp(2j * math.pi * p * np.outer(k, xis))
        got = zak_bank(w, p, pts, xis, tol)
        assert np.max(np.abs(got - ref)) <= (2 * K + 1) * tol * np.finfo(float).eps
    assert flushed > 0


# ------------------------------------------------------------ point values

def test_gaussian_zak_vanishes_at_half_half(gauss):
    assert abs(zak_values(gauss, 1.0, [0.5], 0.5, tol=1e-12)[0]) < 1e-10


def test_gaussian_center_is_global_grid_minimizer(gauss):
    # brute-force oracle: (1/2, 1/2) minimizes |Zg| on a dense grid
    n = 64
    best = (None, math.inf)
    for i in range(n):
        for j in range(n):
            v = abs(brute_zak(gauss, 1.0, i / n, j / n, K=12))
            if v < best[1]:
                best = ((i / n, j / n), v)
    assert best[0] == (0.5, 0.5)


def test_zak_positive_at_xi_zero(gauss):
    for x in (0.0, 0.3, 0.9):
        z = zak_values(gauss, 1.0, [x], 0.0)[0]
        assert z.imag == pytest.approx(0.0, abs=1e-12)
        assert z.real > 0.0


def test_zak_matches_direct_summation(gauss, tsexp, sech):
    for w in (gauss, tsexp, sech):
        for (x, xi) in ((0.2, 0.7), (0.9, 0.1), (0.5, 0.5)):
            got = zak_values(w, 1.0, [x], xi, tol=1e-12)[0]
            assert abs(got - brute_zak(w, 1.0, x, xi)) < 1e-11


def test_quasi_periodicity_examples(gauss):
    x, xi = 0.3, 0.2
    z = zak_values(gauss, 1.0, [x], xi, tol=1e-12)[0]
    z1 = zak_values(gauss, 1.0, [x + 1.0], xi, tol=1e-12)[0]
    assert abs(z1 - cmath.exp(2j * math.pi * xi) * z) < 2e-12


def test_quasi_periodicity_random(gauss, tsexp):
    rng = np.random.default_rng(11)
    for _ in range(100):
        w = gauss if rng.integers(2) else tsexp
        p = float(rng.choice([0.5, 1.0, 2.0]))
        x = float(rng.uniform(0, 1))
        xi = float(rng.uniform(0, 1))
        z = zak_values(w, p, [x], xi, tol=1e-12)[0]
        zx = zak_values(w, p, [x + p], xi, tol=1e-12)[0]
        zxi = zak_values(w, p, [x], xi + 1.0 / p, tol=1e-12)[0]
        assert abs(zx - cmath.exp(2j * math.pi * p * xi) * z) < 2e-12
        assert abs(zxi - z) < 2e-12


def test_zak_rejects_bad_period(gauss):
    with pytest.raises(ZakError):
        zak_values(gauss, 0.0, [0.1], 0.1)


# ----------------------------------------------------------- the half line

def test_half_line_zero_at_center(gauss):
    assert zak_on_half_line(gauss, 0.5) == pytest.approx(0.0, abs=1e-10)


def test_half_line_theta_sum(gauss):
    got = zak_on_half_line(gauss, 0.0)
    # direct-summation oracle, then the high-precision reference
    direct = math.fsum((-1) ** k * math.exp(-math.pi * k * k)
                       for k in range(-50, 51))
    assert got == pytest.approx(direct, abs=1e-13)
    assert got == pytest.approx(THETA_ALT, abs=1e-12)
    assert got > 0.0


def test_half_line_sign_flip_under_shift(gauss, tsexp):
    for w in (gauss, tsexp):
        for x in (0.1, 0.33, 0.8):
            a = zak_on_half_line(w, x)
            b = zak_on_half_line(w, x + 1.0)
            assert b == pytest.approx(-a, abs=1e-11)


# ------------------------------------------------------------ zero location

def test_locate_zero_gaussian(gauss):
    zz = locate_zero(gauss)
    assert zz.xi0 == 0.5
    assert zz.x0 == pytest.approx(0.5, abs=1e-6)
    assert zz.residual < 1e-10


def test_locate_zero_even_windows(tsexp, sech):
    # even windows put the zero at the symmetric point (1/2, 1/2)
    for w in (tsexp, sech):
        zz = locate_zero(w)
        assert zz.xi0 == 0.5
        assert zz.x0 == pytest.approx(0.5, abs=1e-8)


def test_locate_zero_grid_doubling_stability(gauss, tsexp, sech):
    for w in (gauss, tsexp, sech):
        a = locate_zero(w, grid_n=256)
        b = locate_zero(w, grid_n=512)
        assert abs(a.x0 - b.x0) < 1.0 / 256
        assert a.xi0 == b.xi0


def test_one_sided_exp_has_no_zak_zero(ose):
    # closed form: Z eta(x, xi) = e^{-x} / (1 - e^{-1} e^{-2 pi i xi}) on
    # [0,1)^2, which never vanishes; the locator must refuse, not invent one
    for (x, xi) in ((0.0, 0.5), (0.5, 0.25), (0.99, 0.5)):
        got = zak_values(ose, 1.0, [x], xi, tol=1e-14)[0]
        closed = math.exp(-x) / (1.0 - math.exp(-1) * cmath.exp(-2j * math.pi * xi))
        assert abs(got - closed) < 1e-12
    with pytest.raises(ZakZeroNotFound) as exc:
        locate_zero(ose)
    floor = math.exp(-1.0) / (1.0 + math.exp(-1.0))  # analytic min of |Z eta|
    assert exc.value.min_abs > 0.9 * floor


def test_half_line_bounded_away_from_zero_inside_interval(gauss, zak_zeros):
    # on [x0-1+eps, x0-eps] the section is bounded below by some nu > 0
    x0 = zak_zeros["gauss"].x0
    eps = 0.1
    xs = np.linspace(x0 - 1 + eps, x0 - eps, 400)
    vals = np.array([zak_on_half_line(gauss, float(x)) for x in xs])
    assert np.all(vals < 0.0) or np.all(vals > 0.0)
    assert float(np.min(np.abs(vals))) > 1e-3


def test_half_line_single_sign_change(gauss, zak_zeros):
    x0 = zak_zeros["gauss"].x0
    xs = np.linspace(x0 - 1 + 1e-6, x0 - 1e-6, 1000)
    vals = np.array([zak_on_half_line(gauss, float(x)) for x in xs])
    assert int(np.sum(vals[:-1] * vals[1:] < 0)) == 0  # no change inside
    # and exactly one crossing per unit cell across the zero itself
    xs2 = np.linspace(x0 - 0.5, x0 + 0.5, 1000)
    vals2 = np.array([zak_on_half_line(gauss, float(x)) for x in xs2])
    assert int(np.sum(vals2[:-1] * vals2[1:] < 0)) == 1


def test_zak_values_vectorized_consistency(gauss):
    xs = np.linspace(0, 1, 17)
    zs = zak_values(gauss, 1.0, xs, 0.3, tol=1e-12)
    for x, z in zip(xs, zs):
        one = zak_values(gauss, 1.0, [float(x)], 0.3, tol=1e-12)[0]
        assert abs(z - one) < 1e-14


def test_truncation_error_bound(gauss):
    # widen the cutoff: the reported value moves by less than the stated tol
    tol = 1e-8
    R = truncation_radius(gauss, tol)
    z = zak_values(gauss, 1.0, [0.3], 0.7, tol=tol)[0]
    ref = brute_zak(gauss, 1.0, 0.3, 0.7, K=R + 50)
    assert abs(z - ref) < tol


def test_locate_zero_grid_minimum():
    with pytest.raises(ZakError):
        locate_zero(Gaussian(), grid_n=32)


def test_locate_zero_scans_half_period(gauss, ose, monkeypatch):
    # a real window has |Zg(x, 1 - xi)| = |Zg(x, xi)|, so the scan takes
    # xi = j/n for j <= n/2 only: one bank of 256 x 129 values at n = 256
    grid = np.arange(256) / 256
    for w in (gauss, ose):
        full = np.abs(zak_bank(w, 1.0, grid, grid, 1e-12))
        assert np.allclose(full[:, 1:], full[:, :0:-1], rtol=0, atol=1e-13)
    bank, shapes = zakmod.zak_bank, []

    def spy(*args, **kwargs):
        out = bank(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(zakmod, "zak_bank", spy)
    locate_zero(gauss, grid_n=256)
    assert [s for s in shapes if s[1] > 1] == [(256, 129)]


def test_half_line_array_matches_scalar_calls(gauss, ose):
    # one bank over the array keeps the terms of its largest |x| for every
    # point, so it agrees with the scalar calls within both tail bounds
    xs = np.array([-1.3, 0.0, 0.1, 0.37, 0.5, 2.25])
    tol = 1e-12
    for w in (gauss, ose):
        got = zak_on_half_line(w, xs, tol)
        ref = np.array([zak_on_half_line(w, float(x), tol) for x in xs])
        assert got.shape == xs.shape
        assert np.max(np.abs(got - ref)) <= 2 * tol
    assert isinstance(zak_on_half_line(gauss, 0.1), float)


def test_half_line_rejects_imaginary_part(gauss, monkeypatch):
    bank = zakmod.zak_bank
    monkeypatch.setattr(zakmod, "zak_bank",
                        lambda *args: bank(*args) + 1e-6j)
    with pytest.raises(ZakError):
        zak_on_half_line(gauss, 0.1)
    with pytest.raises(ZakError):
        zak_on_half_line(gauss, np.array([0.1, 0.2]))


@pytest.mark.parametrize("cell, raises", [
    ((0, 0), True), ((100, 56), True),   # xi = 56/256 mirrors 200/256
    ((129, 127), False),    # next to the zero's cell: the same candidate
    ((40, 60), False),      # far, but 2e-9 is above the floor
    ((200, 30), False),     # far, and 5e-10 is above the floor too
])
def test_locate_zero_rejects_second_candidate(gauss, monkeypatch, cell, raises):
    # a second grid cell away from the located zero, below the floor
    # tol + 64 eps Zg(x, 0) of the anchor sum (about 1e-12 here), is a
    # numeric failure; the zero sits at grid cell (128, 128) of the
    # 256 x 129 half grid xi = j/256, j <= 128
    bank = zakmod.zak_bank
    value = {(40, 60): 2e-9, (200, 30): 5e-10}.get(cell, 1e-13)

    def second_zero(*args, **kwargs):
        out = bank(*args, **kwargs)
        if out.shape == (256, 129):
            out[cell] = value
        return out

    monkeypatch.setattr(zakmod, "zak_bank", second_zero)
    if raises:
        with pytest.raises(ZakError, match="multiple Zak-zero candidates"):
            locate_zero(gauss, zero_tol=1e-10)
    else:
        assert abs(locate_zero(gauss, zero_tol=1e-10).x0 - 0.5) < 1e-12


# ------------------------------------------------------------ the package

def test_package_exports_resolve():
    # the package re-exports a small surface, and its name ``zak`` is the
    # kernel's module, not a function of it
    assert tpgabor.zak is zakmod
    assert len(tpgabor.__all__) <= 25
    assert all(hasattr(tpgabor, name) for name in tpgabor.__all__)


def test_import_loads_no_scipy():
    # SciPy serves only the Gaussian-factor quadrature and the test oracles
    code = ("import sys, tpgabor, tpgabor.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    src = os.path.dirname(os.path.dirname(tpgabor.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


# ------------------------------------------------------ the zero's refinement

def _refine_against_brentq(w):
    """locate_zero(w) and SciPy's brentq on the bracket it refined.

    The bracket is the first pair of section values of opposite sign that
    locate_zero asks for; the bracket search evaluates its two ends one
    after the other.  Also returns the rounding floor of the section at the
    zero, 4 eps sum_k |g(x0 - k)| over its slope across the bracket, which
    bounds how closely any two root finders of the computed section can
    agree.
    """
    calls, half_line = [], zakmod.zak_on_half_line

    def spy(w_, x, tol=1e-12):
        calls.append((x, half_line(w_, x, tol)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zakmod, "zak_on_half_line", spy)
        zz = locate_zero(w)
    (a, fa), (b, fb) = next(pair for pair in zip(calls[::2], calls[1::2])
                            if pair[0][1] * pair[1][1] <= 0)
    ref = brentq(lambda x: half_line(w, x), a, b, xtol=1e-14,
                 rtol=8.9e-16) % 1.0
    scale = float(np.sum(np.abs(w(zz.x0 - np.arange(-400, 401)))))
    floor = 4 * np.finfo(float).eps * scale * (b - a) / abs(fb - fa)
    return zz, ref, floor


@settings(max_examples=60, deadline=None)
@given(w=st.one_of(st.floats(0.5, 10.0).map(Gaussian),
                   st.floats(0.3, 5.0).map(HyperbolicSecant),
                   st.floats(0.3, 5.0).map(two_sided_exponential)))
@example(w=FiniteProduct(nus=(1.0, -0.5, 0.25)))
@example(w=Dilated(base=Gaussian(), b=1.5))
@example(w=HyperbolicSecant(0.3))
def test_refined_zero_matches_brentq(w):
    # the regula falsi and Brent's method stop at the same zero, to 1e-14
    # wherever the section's rounding allows it; a wide sech (a < 0.7) is
    # so flat at its zero that the rounding floor is wider
    zz, ref, floor = _refine_against_brentq(w)
    dx = abs(zz.x0 - ref)
    assert min(dx, 1.0 - dx) <= max(1e-14, floor)
    assert zz.residual < 1e-14


@pytest.mark.parametrize("name", ["gauss", "tsexp", "sech", "fp3"])
def test_refinement_evaluation_count(request, name, monkeypatch):
    # bracket search and regula falsi together take at most 12 values of
    # the section Zg(., 1/2) on the benchmark's smooth windows
    w = (FiniteProduct(nus=(1.0, -0.5, 0.25)) if name == "fp3"
         else request.getfixturevalue(name))
    half_line, calls = zakmod.zak_on_half_line, []

    def spy(*args, **kwargs):
        calls.append(args[1])
        return half_line(*args, **kwargs)

    monkeypatch.setattr(zakmod, "zak_on_half_line", spy)
    assert locate_zero(w).residual < 1e-14
    assert 3 <= len(calls) <= 12


@pytest.mark.parametrize("gamma, lo, hi", [(1.0, 1.0 - 1e-13, 1.0),
                                           (-2.0, 0.0, 1e-13)])
def test_one_sided_exp_anchor_left_of_jump(gamma, lo, hi):
    # no zero: the refinement closes in on the jump of Zg(., 1/2) at x = 0
    # (mod 1) and stops on the side where the window's support begins.
    # That side decides select_perturbation at every tie x (at 2/3, the
    # x in Z/8), which the frozen witness references encode
    x0, record = zak_anchor(OneSidedExp(gamma=gamma))
    assert record["x0"] is None
    assert lo < x0 < hi
