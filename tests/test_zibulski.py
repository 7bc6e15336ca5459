import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pert
from tpgabor import zibulski
from tpgabor.lattice import PerturbationSeq, RationalLattice, reduce
from tpgabor.zak import zak
from tpgabor.zibulski import (ZibulskiError, _zak_bank,
                              fourier_factorization_check, injectivity_scan,
                              transfer_frame_bound, transfer_window, zz_matrix)


def const_pert(delta, x0=0.5, M=0, eps=0.1):
    return PerturbationSeq(deltas=(delta,), M=M, eps=eps, x=0.0, x0=x0)


# -------------------------------------------------------------- Zak bank

@pytest.mark.parametrize("p", [1, 7, 15])
def test_zak_bank_matches_direct_sum(gauss, sech, p):
    # the truncated bank against every term with |t - p k| <= 60, where
    # both windows are below 1e-26
    pts = np.linspace(-p - 0.4, p + 0.3, 23)
    xis = np.linspace(0.0, 1.0 / p, 17)
    for w in (gauss, sech):
        kmax = math.ceil((60.0 + np.max(np.abs(pts))) / p) + 1
        k = np.arange(-kmax, kmax + 1)
        arg = pts[:, None] - p * k[None, :]
        gv = np.where(np.abs(arg) <= 60.0, w(arg), 0.0)
        ref = gv @ np.exp(2j * math.pi * p * np.outer(k, xis))
        got = _zak_bank(w, p, pts, xis, 1e-10)
        assert np.max(np.abs(got - ref)) < 1e-10


# ------------------------------------------------------------------ A(xi)

def test_zz_matrix_p1_collapse(gauss):
    lat = reduce("1/2", 1)
    m = zz_matrix(gauss, lat, const_pert(0.2), xi=0.3)
    assert m.entries.shape == (1, 1)
    ref = zak(gauss, 1.0, 0.2, 0.3, tol=1e-12).value
    assert abs(m.entries[0, 0] - ref) < 1e-11


def test_zz_matrix_entries_p2(gauss, zak_zeros):
    lat = reduce("2/3", 1)
    pert = make_pert(lat, 0.1, zak_zeros["gauss"].x0)
    m = zz_matrix(gauss, lat, pert, xi=0.0)
    assert m.entries.shape == (2, 2)
    for r in range(2):
        for s in range(2):
            ref = zak(gauss, 2.0, r + pert.delta(r) - s, 0.0, tol=1e-12).value
            assert abs(m.entries[r, s] - ref) < 1e-10
    # at xi = 0 every Zak sum of the Gaussian is a sum of positive terms
    assert np.all(m.entries.real > 0)
    assert abs(np.linalg.det(m.entries)) > 0


def test_zz_matrix_xi_periodicity(gauss, zak_zeros):
    lat = reduce("2/3", 1)
    pert = make_pert(lat, 0.1, zak_zeros["gauss"].x0)
    xi = 0.17
    m = zz_matrix(gauss, lat, pert, xi=xi, tol=1e-12)
    for r in range(2):
        for s in range(2):
            shifted = zak(gauss, 2.0, r + pert.delta(r) - s, xi + 0.5,
                          tol=1e-12).value
            assert abs(m.entries[r, s] - shifted) < 2e-12


def test_zz_matrix_validation(gauss):
    lat = reduce("2/3", 1)
    with pytest.raises(ZibulskiError):
        zz_matrix(gauss, lat, const_pert(0.2), xi=0.3)  # period mismatch
    pert = PerturbationSeq(deltas=(0.1, 0.2), M=0, eps=0.05, x=0.0, x0=0.5)
    with pytest.raises(ZibulskiError):
        zz_matrix(gauss, lat, pert, xi=0.9)  # outside [0, 1/p]


# ----------------------------------------------------------- factorization

def test_factorization_impulse(gauss, gauss_pert_23):
    lat, pert = gauss_pert_23
    rep = fourier_factorization_check(gauss, lat, pert, np.array([1.0]))
    assert rep.passed
    assert rep.max_dev < 1e-8


def test_factorization_alternating_c(gauss, gauss_pert_23):
    lat, pert = gauss_pert_23
    c = np.array([(-1.0) ** l for l in range(-6, 7)])
    rep = fourier_factorization_check(gauss, lat, pert, c, c_offset=-6)
    assert rep.passed


def test_factorization_random_c(gauss, zak_zeros):
    lat = reduce("2/3", 1)
    pert = make_pert(lat, 0.4, zak_zeros["gauss"].x0)
    rng = np.random.default_rng(13)
    for _ in range(5):
        c = rng.normal(size=8)
        rep = fourier_factorization_check(gauss, lat, pert, c, c_offset=-3)
        assert rep.max_dev < 1e-8


def test_factorization_rejects_empty_c(gauss, gauss_pert_23):
    lat, pert = gauss_pert_23
    with pytest.raises(ZibulskiError):
        fourier_factorization_check(gauss, lat, pert, np.array([]))


# ------------------------------------------------------------- injectivity

def test_injectivity_gaussian_half(gauss, zak_zeros):
    lat = reduce("1/2", 1)
    pert = make_pert(lat, 0.1, zak_zeros["gauss"].x0)
    cert = injectivity_scan(gauss, lat, pert)
    assert cert.verdict == "Invertible"
    assert cert.min_sigma > 1e-8


def test_injectivity_degenerate_at_zero(gauss):
    # delta_0 = x0 puts Zg(x0, 1/2) = 0 on the scanned line: Degenerate
    lat = reduce("1/2", 1)
    cert = injectivity_scan(gauss, lat, const_pert(0.5))
    assert cert.verdict == "Degenerate"
    assert cert.min_sigma < 1e-6


def test_injectivity_two_sided_exp(tsexp, zak_zeros):
    lat = reduce("3/4", 1)
    pert = make_pert(lat, 0.2, zak_zeros["tsexp"].x0)
    cert = injectivity_scan(tsexp, lat, pert)
    assert cert.verdict == "Invertible"


def test_injectivity_grid_floor(gauss, gauss_pert_23):
    lat, pert = gauss_pert_23
    with pytest.raises(ZibulskiError):
        injectivity_scan(gauss, lat, pert, xi_grid_n=64)


def test_det_sigma_inequalities(gauss, gauss_pert_23):
    from tpgabor.zibulski import _A_stack
    lat, pert = gauss_pert_23
    xis = np.linspace(0.0, 1.0 / lat.p, 65)
    A = _A_stack(gauss, lat, pert, xis, 1e-12)
    sig = np.linalg.svd(A, compute_uv=False)
    dets = np.abs(np.linalg.det(A))
    p = lat.p
    assert np.all(sig[:, -1] ** p <= dets + 1e-12)
    assert np.all(dets <= sig[:, 0] ** (p - 1) * sig[:, -1] + 1e-12)


def test_det_continuity_on_grid(gauss, gauss_pert_23):
    from tpgabor.zibulski import _A_stack
    lat, pert = gauss_pert_23
    xis = np.linspace(0.0, 1.0 / lat.p, 257)
    A = _A_stack(gauss, lat, pert, xis, 1e-12)
    dets = np.abs(np.linalg.det(A))
    ratio = dets[1:] / dets[:-1]
    assert np.all(np.abs(ratio - 1.0) < 0.25)


# ---------------------------------------------------------------- transfer

def test_transfer_frame_bound_positive(gauss):
    lat = reduce("1/2", 1)
    lo, hi = transfer_frame_bound(gauss, lat, x=0.1)
    assert 0 < lo < hi


@pytest.mark.parametrize("alpha", ["2/3", "5/7"])
def test_transfer_frame_bound_matches_direct_sum(sech, ose, alpha):
    # singular values of B(x, xi) from a direct sum over the whole xi grid
    # of [0, 1/p]; the code evaluates only xi <= 1/(2p), by conjugation
    lat = reduce(alpha, 1)
    p, q, x = lat.p, lat.q, 0.1
    xis = np.linspace(0.0, 1.0 / p, 129)
    t = x + lat.alpha_float * np.arange(q)[:, None] - np.arange(p)[None, :]
    k = np.arange(-80, 81)
    for w in (sech, ose):
        arg = t[..., None] - p * k
        gv = np.where(np.abs(arg) <= 60.0, w(arg), 0.0)
        B = np.einsum("abk,kn->nab", gv, np.exp(2j * math.pi * p * np.outer(k, xis)))
        sig = np.linalg.svd(B, compute_uv=False)
        lo, hi = transfer_frame_bound(w, lat, x=x)
        assert lo == pytest.approx(np.min(sig[:, -1]) ** 2, rel=1e-9)
        assert hi == pytest.approx(np.max(sig[:, 0]) ** 2, rel=1e-9)


def test_transfer_window_chunks_agree(gauss, monkeypatch):
    lat = reduce("5/7", 1)
    xs = np.linspace(0.0, 1.0 / 7, 9)
    whole = transfer_window(gauss, lat, xs)
    monkeypatch.setattr(zibulski, "_TRANSFER_CHUNK", 1)  # one x per chunk
    for a, b in zip(whole, transfer_window(gauss, lat, xs)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha", ["9/8", "3/2"])
def test_transfer_frame_bound_rank_deficient(gauss, alpha):
    # q < p: the q x p matrix has rank at most q, so the lower bound is 0
    lat = reduce(alpha, 1)
    lo, hi = transfer_frame_bound(gauss, lat, x=0.1)
    assert lo == 0.0
    assert hi > 0


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 12), p=st.integers(1, 24),
       x=st.floats(0.0, 1.0, exclude_max=True))
def test_transfer_window_one_over_q_periodic(gauss, q, p, x):
    # alpha*Z + Z = Z/q, so the spectrum of P(x) has period 1/q in x
    g = math.gcd(p, q)
    lat = RationalLattice(p=p // g, q=q // g)
    lo, hi = transfer_frame_bound(gauss, lat, x=x)
    lo_s, hi_s = transfer_frame_bound(gauss, lat, x=x + 1.0 / lat.q)
    assert abs(lo - lo_s) <= 1e-12
    assert abs(hi - hi_s) <= 1e-12
