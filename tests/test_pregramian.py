import math

import numpy as np
import pytest

from tpgabor.lattice import reduce
from tpgabor.pregramian import (PregramianError, frame_bounds,
                                lower_bound_at_x, pregramian_section,
                                upper_bound_cert)
from tpgabor.windows import truncation_radius
from tpgabor.zibulski import transfer_frame_bound


# ---------------------------------------------------------------- sections

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
    args = sec.row_points[:, None] - sec.col_points[None, :]
    assert np.all(sec.entries[args < 0] == 0.0)
    assert np.all(sec.entries[args >= 0] > 0.0)


def test_section_envelope_invariant(gauss, tsexp):
    lat = reduce("3/4", 1)
    for w in (gauss, tsexp):
        sec = pregramian_section(w, lat, x=0.27, J=5)
        env = sec.decay_cert.envelope(
            sec.row_points[:, None] - sec.col_points[None, :])
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


def test_upper_bound_finiteness(gauss, tsexp, sech, ose):
    lat = reduce("1/2", 1)
    for w in (gauss, tsexp, sech, ose):
        diag = frame_bounds(w, lat, x_grid_n=16)
        assert diag.upper_bound_est <= upper_bound_cert(
            w, alpha=lat.alpha_float) + 1e-12


def test_cross_validation_with_transfer_bound(gauss):
    # A_est is the minimum of the exact q x p spectral window over one
    # x-period; the truncation ladder at the worst x agrees within 10%
    lat = reduce("2/3", 1)
    diag = frame_bounds(gauss, lat, x_grid_n=16)
    xs = np.arange(16) / (16 * lat.q)
    lows = [transfer_frame_bound(gauss, lat, x=float(x))[0] for x in xs]
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
    assert window["x_grid_n"] == 16


def test_ladder_centred_on_worst_vector(gauss):
    # at 31/32 the worst vector of P(x) is a bump of ~12 columns in each
    # period of 31; a J=16 section at worst_x itself misses it (0.40 against
    # A = 0.081, and Gaussian 55/56 read NotFrame that way), while the
    # section centred on it is flat from the first rung
    lat = reduce("31/32", 1)
    diag = frame_bounds(gauss, lat, x_grid_n=16)
    trace = diag.evidence[0]["A_trace"]
    assert diag.verdict == "Frame"
    assert trace[0] == pytest.approx(diag.lower_bound_est, rel=0.01)


def test_frame_bounds_validation(gauss):
    with pytest.raises(PregramianError):
        frame_bounds(gauss, reduce("1/2", 1), x_grid_n=4)
    with pytest.raises(PregramianError):
        frame_bounds(gauss, reduce("1/2", 1), J_ladder=(16, 32))
