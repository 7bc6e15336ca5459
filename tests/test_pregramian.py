import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpgabor import pregramian
from tpgabor.lattice import RationalLattice, reduce
from tpgabor.pipeline import diagnose
from tpgabor.pregramian import (J_LADDER, X_GRID_N, PregramianError,
                                frame_bounds, lower_bound_at_x,
                                pregramian_section, upper_bound_cert)
from tpgabor.windows import (Dilated, FiniteProduct, Gaussian,
                             HyperbolicSecant, OneSidedExp, truncation_radius,
                             two_sided_exponential)
from tpgabor.zibulski import transfer_window

EVEN = {"gauss": Gaussian(gamma=math.pi), "sech": HyperbolicSecant(a=1.0),
        "tsexp": two_sided_exponential(rate=1.0),
        "fp4": FiniteProduct(nus=(1.0, -1.0, 0.5, -0.5), c=1.0),
        "dilated": Dilated(base=Gaussian(gamma=math.pi), b=1.5)}


# ---------------------------------------------------------------- sections

def section_args(lat, x, sec):
    """The arguments x + alpha j - k behind the section's entries."""
    J, K = (n // 2 for n in sec.shape)
    rows = x + lat.alpha_float * np.arange(-J, J + 1)
    return rows[:, None] - np.arange(-K, K + 1.0)


def test_section_shape_and_center(gauss):
    lat = reduce("1/2", 1)
    sec = pregramian_section(gauss, lat, x=0.0, J=2)
    R = truncation_radius(gauss, 1e-10)
    K = math.ceil(0.5 * 2) + R
    assert sec.shape == (5, 2 * K + 1)
    assert sec.entries[2, K] == 1.0  # (j=0, k=0) -> g(0)


def test_section_row_consistency(gauss):
    # row j of P(x) is row 0 of P(x + alpha j): the definition unrolled
    lat = reduce("2/3", 1)
    a = pregramian_section(gauss, lat, x=0.15, J=3)
    for j in range(-3, 4):
        b = pregramian_section(gauss, lat, x=0.15 + lat.alpha_float * j, J=3)
        assert np.allclose(a.entries[j + 3], b.entries[3], atol=1e-14)


def test_section_one_sided_support(ose):
    lat = reduce("1/2", 1)
    sec = pregramian_section(ose, lat, x=0.3, J=4)
    args = section_args(lat, 0.3, sec)
    assert np.all(sec.entries[args < 0] == 0.0)
    assert np.all(sec.entries[args >= 0] > 0.0)


def test_section_envelope_invariant(gauss, tsexp):
    lat = reduce("3/4", 1)
    for w in (gauss, tsexp):
        sec = pregramian_section(w, lat, x=0.27, J=5)
        env = w.decay.envelope(section_args(lat, 0.27, sec))
        assert np.all(np.abs(sec.entries) <= env + 1e-14)


def test_section_validation(gauss):
    with pytest.raises(PregramianError):
        pregramian_section(gauss, reduce("1/2", 1), x=0.0, J=0)


# ------------------------------------------------------------ lower bounds

def test_lower_bound_converges(gauss):
    lat = reduce("1/2", 1)
    a32 = lower_bound_at_x(gauss, lat, x=0.0, J=32)
    a64 = lower_bound_at_x(gauss, lat, x=0.0, J=64)
    assert a32 > 0 and a64 > 0
    assert abs(a64 - a32) <= 0.05 * a64


def test_lower_bound_dies_at_critical_density(gauss):
    # alpha*beta = 1 at the Zak zero: sigma_min collapses with J
    lat = reduce(1, 1)
    vals = [lower_bound_at_x(gauss, lat, x=0.5, J=J) for J in (8, 16, 32)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.05 * vals[0]


def test_lower_bound_tiny_section_by_hand(gauss):
    # J=1, alpha=1/2: the interior restriction keeps only column k=0, so
    # sigma_min^2 is just the squared norm of that column
    lat = reduce("1/2", 1)
    x = 0.2
    got = lower_bound_at_x(gauss, lat, x=x, J=1)
    col = gauss(np.array([x - 0.5, x, x + 0.5]))
    assert got == pytest.approx(float(np.sum(col ** 2)), rel=1e-12)


def _interior_svd_bound(w, lat, x, J):
    """sigma_min^2 of the interior columns of the full section, by SVD."""
    sec = pregramian_section(w, lat, x, J)
    R = truncation_radius(w, 1e-10)
    K = (sec.shape[1] - 1) // 2
    K_inner = max(int(math.floor(lat.alpha_float * J)) - R, 0)
    cols = sec.entries[:, K - K_inner:K + K_inner + 1]
    return float(np.linalg.svd(cols, compute_uv=False)[-1]) ** 2


@pytest.mark.parametrize("alpha", ["1/2", "7/8"])
@pytest.mark.parametrize("J", [16, 64])
def test_lower_bound_gram_matches_svd(gauss, sech, tsexp, ose, alpha, J):
    # the ladder evaluates only the interior columns and takes the least
    # Gram eigenvalue; the SVD of the same columns of the full section agrees
    lat = reduce(alpha, 1)
    for w in (gauss, sech, tsexp, ose):
        ref = _interior_svd_bound(w, lat, 0.3, J)
        assert lower_bound_at_x(w, lat, 0.3, J) == pytest.approx(ref, rel=1e-9)


def test_lower_bound_gram_matches_svd_critical(gauss):
    # decaying case: sigma_min^2 falls to 6e-4 at J = 32
    lat = reduce(1, 1)
    for J in (8, 16, 32):
        ref = _interior_svd_bound(gauss, lat, 0.5, J)
        assert lower_bound_at_x(gauss, lat, 0.5, J) == pytest.approx(ref, rel=1e-9)


def _direct_lower_bound(w, lat, x, J):
    """The interior restriction built entry by entry as w(x + alpha j - k)."""
    R = truncation_radius(w, 1e-10)
    K_inner = max(lat.p * J // lat.q - R, 0)
    rows = x + lat.alpha_float * np.arange(-J, J + 1)
    ks = np.arange(-K_inner, K_inner + 1)
    M = w(rows[:, None] - ks[None, :].astype(float))
    ev = np.linalg.eigvalsh(M.T @ M)
    # the Gram rounding is about n eps sigma_max^2 for n columns
    return max(float(ev[0]), 0.0), len(ks) * np.finfo(float).eps * float(ev[-1])


@pytest.mark.parametrize("alpha", ["1/2", "7/8", "2/3", "5/7", "23/24", "1"])
@pytest.mark.parametrize("J", [16, 64])
def test_lower_bound_lattice_grid_matches_direct(gauss, sech, tsexp, ose,
                                                 alpha, J):
    # the ladder gathers its entries from one sample of the window on the
    # grid x + Z/q; a direct build agrees to 1e-13 relative plus the Gram
    # rounding (sech, with sigma_max^2 / sigma_min^2 near 2000, differs by
    # up to 4e-13 relative).  x = 0.37 keeps every argument off the
    # one-sided exponential's jump at 0, where a rounded argument picks a side
    lat = reduce(alpha, 1)
    for w in (gauss, sech, tsexp, ose, EVEN["dilated"]):
        for x in (0.0, 0.37) if w.even else (0.37,):
            ref, rounding = _direct_lower_bound(w, lat, x, J)
            got = lower_bound_at_x(w, lat, x, J)
            assert abs(got - ref) <= 1e-13 * ref + rounding


def test_lower_bound_one_sided_jump_at_exact_argument(ose):
    # at 7/10 and x = 0.3 the entry (j, k) = (11, 8) sits on the jump at 0,
    # where the window is 1; 0.3 + 0.7 * 11 - 8 rounds below 0 in floating
    # point, but the lattice-grid argument 0.3 - 3/10 is exactly 0
    lat = reduce("7/10", 1)
    J = 64
    R = truncation_radius(ose, 1e-10)
    K_inner = 7 * J // 10 - R
    args = [[Fraction(3, 10) + Fraction(7, 10) * j - k
             for k in range(-K_inner, K_inner + 1)] for j in range(-J, J + 1)]
    M = ose(np.array(args, dtype=float))
    ref = float(np.linalg.eigvalsh(M.T @ M)[0])
    assert lower_bound_at_x(ose, lat, 0.3, J) == pytest.approx(ref, rel=1e-13)


def test_column_counts_are_exact_at_non_dyadic_alpha(gauss):
    # alpha*J in floating point is 62.99999999999999 at 7/10, J = 90, and
    # 27.000000000000004 at 9/14, J = 42; floor and ceil of it are one off
    R = truncation_radius(gauss, 1e-10)
    lat = reduce("7/10", 1)
    ref, _ = _direct_lower_bound(gauss, lat, 0.3, 90)  # K_inner = 63 - R
    assert lower_bound_at_x(gauss, lat, 0.3, 90) == pytest.approx(ref, rel=1e-13)
    sec = pregramian_section(gauss, reduce("9/14", 1), 0.0, 42)
    assert sec.shape == (85, 2 * (27 + R) + 1)


def test_restriction_interlacing(gauss):
    # appending columns can only shrink sigma_min (singular value
    # interlacing), so the interior restriction is the optimistic estimate
    # and the full section the pessimistic one
    lat = reduce("1/2", 1)
    sec = pregramian_section(gauss, lat, x=0.3, J=16)
    R = truncation_radius(gauss, 1e-10)
    K = (sec.shape[1] - 1) // 2
    K_inner = int(math.floor(0.5 * 16)) - R
    prev = math.inf
    for extra in range(0, 4):
        sl = slice(K - K_inner - extra, K + K_inner + extra + 1)
        smin = float(np.linalg.svd(sec.entries[:, sl], compute_uv=False)[-1])
        assert smin <= prev + 1e-12
        prev = smin


# ------------------------------------------------------------ frame bounds

def test_frame_bounds_gaussian_half(gauss):
    diag = frame_bounds(gauss, reduce("1/2", 1))
    assert diag.verdict == "Frame"
    assert 0 < diag.lower_bound_est < diag.upper_bound_est
    trace = diag.evidence[0]
    assert trace["kind"] == "sigma_ladder"
    assert trace["relative_change_last"] < 0.10


@pytest.mark.parametrize("name, alpha", [("gauss", "1/2"), ("gauss", "3/4"),
                                         ("sech", "1/8"), ("ose", "15/16")])
def test_ladder_rungs_follow_rung_rule(request, name, alpha):
    # J = ceil(J0 max(1, (R + 4)/(16 alpha))) for J0 in J_LADDER
    w, lat = request.getfixturevalue(name), reduce(alpha, 1)
    R = truncation_radius(w, 1e-10)
    scale = max(1.0, (R + 4) / (16 * lat.alpha_float))
    rungs = frame_bounds(w, lat).evidence[0]["J_ladder"]
    assert rungs == [math.ceil(J0 * scale) for J0 in J_LADDER]
    assert rungs[0] * lat.alpha_float >= R + 4


def test_frame_bounds_density_short_circuit(gauss):
    for alpha in ("1", "3/2"):
        diag = frame_bounds(gauss, reduce(alpha, 1))
        assert diag.verdict == "NotFrame"
        assert diag.evidence[0]["kind"] == "density"
        assert diag.lower_bound_est == 0.0


def test_frame_bounds_one_sided_critical(ose):
    diag = frame_bounds(ose, reduce(1, 1))
    assert diag.verdict in ("Frame", "Inconclusive")
    trace = next(e for e in diag.evidence if e["kind"] == "sigma_ladder")
    assert min(trace["A_trace"]) > 1e-3  # bounded away from zero
    kinds = [e["kind"] for e in diag.evidence]
    assert "critical_density_exception" in kinds


def test_ladder_decay_never_gives_not_frame(gauss, ose, monkeypatch):
    # below density 1 every totally positive window gives a frame, so a
    # ladder that halves at every rung is inconclusive, not NotFrame, and
    # at density 1 the one-sided exponential keeps its exception record
    calls = []

    def halving(w, lat, x, J):
        calls.append(J)
        return 0.5 ** len(calls)

    monkeypatch.setattr(pregramian, "lower_bound_at_x", halving)
    diag = frame_bounds(gauss, reduce("7/8", 1))
    assert diag.verdict == "Inconclusive"
    diag = frame_bounds(ose, reduce(1, 1))
    assert diag.verdict == "Inconclusive"
    assert diag.evidence[-1] == {
        "kind": "critical_density_exception",
        "detail": "one-sided exponential at alpha*beta = 1; "
                  "sigma trace bounded away from zero"}


def test_collapsed_ladder_is_not_stable(gauss, monkeypatch):
    # a trace that ends in two zeros changes by 0 against max(last rung,
    # floor), but a last rung at or below the floor gives no Frame, even
    # with A_est (0.83 at Gaussian 1/2) far above the floor
    trace = iter([0.5, 0.0, 0.0])
    monkeypatch.setattr(pregramian, "lower_bound_at_x",
                        lambda w, lat, x, J: next(trace))
    diag = frame_bounds(gauss, reduce("1/2", 1))
    assert diag.verdict == "Inconclusive"
    assert diag.lower_bound_est > 0.5
    assert diag.evidence[0]["A_trace"] == [0.5, 0.0, 0.0]
    assert diag.evidence[0]["relative_change_last"] == 0.0
    assert all(e["kind"] != "precision" for e in diag.evidence)


@pytest.mark.parametrize("w,alpha,beta", [
    # dilated once more by the beta reduction
    (Dilated(base=OneSidedExp(gamma=1.0), b=2.0), "1/2", "2"),
    # the one-sided exponential spelled as a one-factor product
    (FiniteProduct(gamma=0.0, nus=(1.0,), nu=1.0), "1", "1"),
])
def test_critical_density_exception_however_spelled(w, alpha, beta):
    diag = diagnose(w, reduce(alpha, beta))
    assert diag.verdict == "Inconclusive"
    assert diag.evidence[-1]["kind"] == "critical_density_exception"


def test_two_sided_exponential_at_critical_density_not_frame(tsexp):
    diag = diagnose(tsexp, reduce(1, 1))
    assert diag.verdict == "NotFrame"
    assert [e["kind"] for e in diag.evidence] == ["density"]


@pytest.mark.parametrize("alpha", ["1/8", "3/8", "1/2", "2/3", "5/7", "7/10",
                                   "7/8", "15/16"])
@pytest.mark.parametrize("name", ["gauss", "tsexp", "sech", "ose"])
def test_ladder_rungs_bounded_below_by_transfer_window(request, name, alpha):
    # each rung restricts P(x_lad) to columns with full row support, so its
    # sigma_min^2 is at least the lower frame bound of P(x_lad)
    w = request.getfixturevalue(name)
    lat = reduce(alpha, 1)
    ladder = frame_bounds(w, lat).evidence[0]
    A_x = transfer_window(w, lat, [ladder["x"]])[0][0]
    assert min(ladder["A_trace"]) >= A_x * (1 - 1e-12)


def test_upper_bound_finiteness(gauss, tsexp, sech, ose):
    lat = reduce("1/2", 1)
    for w in (gauss, tsexp, sech, ose):
        diag = frame_bounds(w, lat)
        assert diag.upper_bound_est <= upper_bound_cert(
            w, alpha=lat.alpha_float) + 1e-12


def test_cross_validation_with_transfer_bound(gauss):
    # A_est is the minimum of the exact q x p spectral window over one
    # x-period; the truncation ladder at the worst x agrees within 10%
    lat = reduce("2/3", 1)
    diag = frame_bounds(gauss, lat)
    xs = np.arange(X_GRID_N) / (X_GRID_N * lat.q)
    lows = [transfer_window(gauss, lat, [x])[0][0] for x in xs]
    assert diag.lower_bound_est == pytest.approx(min(lows), rel=1e-12)
    assert diag.worst_x == pytest.approx(float(xs[int(np.argmin(lows))]))
    ladder, window = diag.evidence[0], diag.evidence[1]
    # the ladder runs at an x with the same spectrum: x - worst_x in Z/q
    shift = (ladder["x"] - diag.worst_x) * lat.q
    assert shift == pytest.approx(round(shift), abs=1e-9)
    assert abs(ladder["A_trace"][-1] - diag.lower_bound_est) \
        <= 0.10 * diag.lower_bound_est
    assert window["kind"] == "transfer_window"
    assert window["A"] == diag.lower_bound_est
    assert window["B"] == diag.upper_bound_est
    assert window["x_grid_n"] == X_GRID_N


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(EVEN)), q=st.integers(2, 16),
       p=st.integers(1, 12), t=st.floats(0.0, 1.0, exclude_max=True))
def test_even_window_mirror_symmetry(name, q, p, t):
    # even g: the spectrum of P(x) at x equals the one at 1/q - x
    p = min(p, q - 1)
    d = math.gcd(p, q)
    lat = RationalLattice(p=p // d, q=q // d)
    w = EVEN[name]
    x = t / lat.q
    (lo0,), (hi0,), _ = transfer_window(w, lat, [x])
    (lo1,), (hi1,), _ = transfer_window(w, lat, [1.0 / lat.q - x])
    assert lo1 == pytest.approx(lo0, rel=1e-9)
    assert hi1 == pytest.approx(hi0, rel=1e-9)


@pytest.mark.parametrize("name,alpha", [("gauss", "2/3"), ("sech", "5/8"),
                                        ("tsexp", "3/4"), ("fp4", "1/2"),
                                        ("dilated", "3/5"), ("ose", "2/3")])
@pytest.mark.parametrize("x_grid_n", [16, 17])
def test_frame_bounds_half_grid_for_even_windows(ose, monkeypatch, name,
                                                 alpha, x_grid_n):
    # an even window evaluates one x per mirror pair j <-> x_grid_n - j and
    # loses nothing against the whole one-period grid, for an even or an
    # odd grid size
    w = ose if name == "ose" else EVEN[name]
    lat = reduce(alpha, 1)
    seen = []

    def counting(w, lat, xs, *args, **kwargs):
        seen.append(len(xs))
        return transfer_window(w, lat, xs, *args, **kwargs)

    monkeypatch.setattr(pregramian, "transfer_window", counting)
    monkeypatch.setattr(pregramian, "X_GRID_N", x_grid_n)
    diag = frame_bounds(w, lat)
    assert seen == [x_grid_n // 2 + 1 if w.even else x_grid_n]
    full = transfer_window(w, lat, np.arange(x_grid_n) / (x_grid_n * lat.q))[0]
    assert diag.lower_bound_est == pytest.approx(float(np.min(full)), rel=1e-9)
    assert diag.evidence[1]["x_grid_n"] == x_grid_n
    if w.even:
        assert diag.worst_x <= 0.5 / lat.q


def test_ladder_centred_on_worst_vector(gauss):
    # at 31/32 the worst vector of P(x) is a bump of ~12 columns in each
    # period of 31; a J=16 section at worst_x itself misses it (0.40 against
    # A = 0.081, and Gaussian 55/56 read NotFrame that way), while the
    # section centred on it is flat from the first rung
    lat = reduce("31/32", 1)
    diag = frame_bounds(gauss, lat)
    trace = diag.evidence[0]["A_trace"]
    assert diag.verdict == "Frame"
    assert trace[0] == pytest.approx(diag.lower_bound_est, rel=0.01)


def _interior_gram_bound(sec, w, lat, J):
    """Least Gram eigenvalue of the section's interior columns."""
    K = (sec.shape[1] - 1) // 2
    K_inner = max(lat.p * J // lat.q - truncation_radius(w, 1e-10), 0)
    M = sec.entries[:, K - K_inner:K + K_inner + 1]
    return max(float(np.linalg.eigvalsh(M.T @ M)[0]), 0.0)


def test_section_one_sided_jump_at_exact_argument(ose):
    # at 7/10 and x = 0.3 the entries (j, k) = (11, 8), (51, 36) and
    # (61, 43) sit on the jump at 0, where the window is 1; a floating-point
    # argument 0.3 + 0.7 j - k lands below 0 there.  Every entry must be the
    # window at the exact argument
    lat = reduce("7/10", 1)
    J = 64
    sec = pregramian_section(ose, lat, 0.3, J)
    K = (sec.shape[1] - 1) // 2
    args = [[Fraction(3, 10) + Fraction(7, 10) * j - k
             for k in range(-K, K + 1)] for j in range(-J, J + 1)]
    ref = ose(np.array(args, dtype=float))
    assert np.max(np.abs(sec.entries - ref)) <= 1e-15
    for j, k in ((11, 8), (51, 36), (61, 43)):
        assert sec.entries[j + J, k + K] == 1.0


@pytest.mark.parametrize("alpha, x", [("7/10", 0.3), ("1/2", 0.3),
                                      ("2/3", 0.1)])
def test_section_interior_gram_equals_ladder(ose, gauss, alpha, x):
    # the section and the ladder gather from the same lattice-grid sample,
    # so the section's interior columns give the ladder's rung exactly
    lat = reduce(alpha, 1)
    for w in (ose, gauss):
        for J in (16, 64):
            sec = pregramian_section(w, lat, x, J)
            assert _interior_gram_bound(sec, w, lat, J) == pytest.approx(
                lower_bound_at_x(w, lat, x, J), rel=1e-13)
