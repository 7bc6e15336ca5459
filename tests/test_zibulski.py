import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_pert
from oracles import (fourier_factorization_check, injectivity_scan_one,
                     transfer_window_full_grid)
from tpgabor import zibulski
from tpgabor.lattice import (PerturbationSeq, RationalLattice, reduce,
                             select_perturbation)
from tpgabor.pipeline import CERT_X_GRID_N, diagnose, zak_anchor
from tpgabor.windows import (Dilated, Gaussian, HyperbolicSecant, OneSidedExp,
                             two_sided_exponential, window_from_config)
from tpgabor.zak import zak_values
from tpgabor.zibulski import (TRANSFER_XI_GRID_N, ZibulskiError, _A_stack,
                              _gram_extremes, _transfer_stack, a_landscape,
                              cholesky_completes, injectivity_scan,
                              transfer_window)

WINDOWS = {"gauss": Gaussian(gamma=math.pi), "sech": HyperbolicSecant(a=1.0),
           "tsexp": two_sided_exponential(rate=1.0),
           "ose": OneSidedExp(gamma=1.0),
           "dilated": Dilated(base=HyperbolicSecant(a=1.0), b=0.7)}
# the five windows of the benchmark and a dilated sech
BITWISE_WINDOWS = {**WINDOWS, "fp3": window_from_config(
    {"kind": "finite_product", "gamma": 0.0, "nus": [1.0, -0.5, 0.25],
     "nu": 0.0, "c": 1.0})}


def const_pert(delta, x0=0.5, M=0, eps=0.1):
    return PerturbationSeq(deltas=(delta,), M=M, eps=eps, x=0.0, x0=x0)


# ------------------------------------------------------------------ A(xi)

def test_zz_matrix_p1_collapse(gauss):
    lat = reduce("1/2", 1)
    m = _A_stack(gauss, lat, const_pert(0.2), np.array([0.3]), 1e-10)[0]
    assert m.shape == (1, 1)
    ref = zak_values(gauss, 1.0, [0.2], 0.3, tol=1e-12)[0]
    assert abs(m[0, 0] - ref) < 1e-11


def test_zz_matrix_entries_p2(gauss, zak_zeros):
    lat = reduce("2/3", 1)
    pert = make_pert(lat, 0.1, zak_zeros["gauss"].x0)
    m = _A_stack(gauss, lat, pert, np.array([0.0]), 1e-10)[0]
    assert m.shape == (2, 2)
    for r in range(2):
        for s in range(2):
            ref = zak_values(gauss, 2.0, [r + pert.delta(r) - s], 0.0,
                             tol=1e-12)[0]
            assert abs(m[r, s] - ref) < 1e-10
    # at xi = 0 every Zak sum of the Gaussian is a sum of positive terms
    assert np.all(m.real > 0)
    assert abs(np.linalg.det(m)) > 0


def test_zz_matrix_xi_periodicity(gauss, zak_zeros):
    lat = reduce("2/3", 1)
    pert = make_pert(lat, 0.1, zak_zeros["gauss"].x0)
    xi = 0.17
    m = _A_stack(gauss, lat, pert, np.array([xi]), 1e-12)[0]
    for r in range(2):
        for s in range(2):
            shifted = zak_values(gauss, 2.0, [r + pert.delta(r) - s], xi + 0.5,
                                 tol=1e-12)[0]
            assert abs(m[r, s] - shifted) < 2e-12


def test_zz_matrix_validation(gauss):
    lat = reduce("2/3", 1)
    with pytest.raises(ZibulskiError):  # period mismatch
        _A_stack(gauss, lat, const_pert(0.2), np.array([0.3]), 1e-10)


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
    cert = injectivity_scan(gauss, lat, [pert])[0]
    assert cert.invertible
    assert cert.min_sigma > 1e-8


def test_injectivity_degenerate_at_zero(gauss):
    # delta_0 = x0 puts Zg(x0, 1/2) = 0 on the scanned line: not invertible
    lat = reduce("1/2", 1)
    cert = injectivity_scan(gauss, lat, [const_pert(0.5)])[0]
    assert not cert.invertible
    assert cert.min_sigma < 1e-6


def test_injectivity_two_sided_exp(tsexp, zak_zeros):
    lat = reduce("3/4", 1)
    pert = make_pert(lat, 0.2, zak_zeros["tsexp"].x0)
    cert = injectivity_scan(tsexp, lat, [pert])[0]
    assert cert.invertible


def test_injectivity_rejects_period_mismatch(gauss, gauss_pert_23):
    _, pert = gauss_pert_23  # p = 2
    with pytest.raises(ZibulskiError):
        injectivity_scan(gauss, reduce("1/2", 1), [pert])
    with pytest.raises(ZibulskiError):
        a_landscape(gauss, reduce("3/4", 1), pert, np.array([0.0]), 1e-10)


def test_det_sigma_inequalities(gauss, gauss_pert_23):
    lat, pert = gauss_pert_23
    xis = np.linspace(0.0, 1.0 / lat.p, 65)
    A = _A_stack(gauss, lat, pert, xis, 1e-12)
    sig = np.linalg.svd(A, compute_uv=False)
    dets = np.abs(np.linalg.det(A))
    p = lat.p
    assert np.all(sig[:, -1] ** p <= dets + 1e-12)
    assert np.all(dets <= sig[:, 0] ** (p - 1) * sig[:, -1] + 1e-12)


def test_det_continuity_on_grid(gauss, gauss_pert_23):
    lat, pert = gauss_pert_23
    xis = np.linspace(0.0, 1.0 / lat.p, 257)
    A = _A_stack(gauss, lat, pert, xis, 1e-12)
    dets = np.abs(np.linalg.det(A))
    ratio = dets[1:] / dets[:-1]
    assert np.all(np.abs(ratio - 1.0) < 0.25)


@pytest.mark.parametrize("name, alpha", [("sech", "5/8"), ("ose", "5/7")])
def test_injectivity_half_grid_loses_nothing(request, name, alpha):
    # A(1/p - xi) = conj A(xi): the cover of xi <= 1/(2p) bounds the minimum
    # over the whole doubled grid of [0, 1/p], whose points include the nodes
    w = request.getfixturevalue(name)
    lat = reduce(alpha, 1)
    pert = select_perturbation(lat, 0.1, zak_anchor(w)[0])
    cert = injectivity_scan(w, lat, [pert])[0]
    xis = np.linspace(0.0, 1.0 / lat.p, 2 * 128 + 1)
    smin, _ = a_landscape(w, lat, pert, xis, 1e-10)
    assert 0 < cert.sigma_cert <= np.min(smin)
    assert np.min(smin) <= cert.min_sigma * (1 + 1e-12)


@pytest.fixture(scope="module")
def anchors():
    return {name: zak_anchor(w)[0] for name, w in BITWISE_WINDOWS.items()}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["gauss", "sech", "tsexp", "ose"]),
       q=st.integers(2, 16), p=st.integers(1, 15),
       x=st.floats(0.0, 1.0, exclude_max=True))
def test_sigma_cert_below_dense_sigma_min(anchors, name, q, p, x):
    # sigma_cert is a lower bound on sigma_min(A(xi)) at every xi of [0, 1/p]
    d = math.gcd(min(p, q - 1), q)
    lat = RationalLattice(p=min(p, q - 1) // d, q=q // d)
    w = WINDOWS[name]
    pert = select_perturbation(lat, x, anchors[name])
    cert = injectivity_scan(w, lat, [pert])[0]
    xis = np.linspace(0.0, 1.0 / lat.p, 2049)
    smin, _ = a_landscape(w, lat, pert, xis, 1e-10)
    assert 0 <= cert.sigma_cert <= np.min(smin)
    assert cert.invertible == (cert.sigma_cert > 1e-8)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["gauss", "sech", "tsexp", "ose"]),
       q=st.integers(2, 16), p=st.integers(1, 15),
       x=st.floats(0.0, 1.0, exclude_max=True), xi=st.floats(0.0, 1.0))
def test_A_rows_are_phased_transfer_rows(anchors, name, q, p, x, xi):
    # r + delta_r = x + alpha j_r and j_r = a_r + q m_r, a_r = j_r mod q, so
    # Z_p g(y + p m, xi) = e^{2 pi i p m xi} Z_p g(y, xi) makes row r of
    # A(xi) row a_r of B(x, xi) times e^{2 pi i p m_r xi}
    d = math.gcd(min(p, q - 1), q)
    lat = RationalLattice(p=min(p, q - 1) // d, q=q // d)
    w = WINDOWS[name]
    pert = select_perturbation(lat, x, anchors[name])
    js = np.array(pert.js)
    a = js % lat.q
    m = (js - a) // lat.q
    assert len(set(a.tolist())) == lat.p
    A = _A_stack(w, lat, pert, np.array([xi]), 1e-12)[0]
    B = _transfer_stack(w, lat, np.array([x]), np.array([xi]), 1e-12)[0, 0]
    phased = np.exp(2j * math.pi * lat.p * m * xi)[:, None] * B[a]
    assert np.max(np.abs(A - phased)) <= 1e-11 * np.max(np.abs(B))


def _count_svd_matrices(monkeypatch):
    counts = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        counts.append(np.asarray(a).shape[0] if np.ndim(a) == 3 else 1)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return counts


@pytest.mark.parametrize("name, alpha, x, n", [
    ("gauss", "1/2", None, 128), ("gauss", "1/2", None, 200),
    ("sech", "1/2", 0.1, 128), ("sech", "7/8", 0.3, 128),
    ("tsexp", "3/4", 0.2, 128), ("ose", "5/7", 0.1, 130)])
def test_injectivity_evaluations_within_grid(request, monkeypatch, name,
                                             alpha, x, n):
    # every node is evaluated at most once, so at most n + 1 SVDs for a
    # node budget n; x = None is the degenerate delta_0 = x0, which splits
    # down to one step
    w = request.getfixturevalue(name)
    lat = reduce(alpha, 1)
    pert = (const_pert(0.5) if x is None else
            select_perturbation(lat, x, zak_anchor(w)[0]))
    monkeypatch.setattr(zibulski, "INJECTIVITY_XI_GRID_N", n)
    counts = _count_svd_matrices(monkeypatch)
    cert = injectivity_scan(w, lat, [pert])[0]
    assert sum(counts) <= n + 1
    assert cert.invertible == (x is not None)


def test_injectivity_bisection_on_sech(sech, monkeypatch):
    # sech at p = 1 has a large L against its Zak minimum, so most cells
    # split down to a few node steps; bisection evaluates 50 of the 129
    # nodes here
    lat = reduce("1/2", 1)
    pert = select_perturbation(lat, 0.1, zak_anchor(sech)[0])
    counts = _count_svd_matrices(monkeypatch)
    cert = injectivity_scan(sech, lat, [pert])[0]
    assert sum(counts) <= 64
    assert cert.invertible


def test_injectivity_verdict_is_sigma_cert_against_tol(gauss, zak_zeros,
                                                      monkeypatch):
    lat = reduce("2/3", 1)
    pert = make_pert(lat, 0.1, zak_zeros["gauss"].x0)
    cert = injectivity_scan(gauss, lat, [pert])[0]
    assert 0 < cert.sigma_cert <= cert.min_sigma
    monkeypatch.setattr(zibulski, "SIGMA_TOL", cert.sigma_cert)
    assert not injectivity_scan(gauss, lat, [pert])[0].invertible
    monkeypatch.setattr(zibulski, "SIGMA_TOL",
                        np.nextafter(cert.sigma_cert, 0.0))
    assert injectivity_scan(gauss, lat, [pert])[0].invertible


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(BITWISE_WINDOWS)), q=st.integers(2, 12),
       p=st.integers(1, 11))
def test_injectivity_scan_bitwise_one_cover_per_x(anchors, name, q, p):
    # the shared round loop over diagnose's certificate x gives each x the
    # certificate of its own cover, bit for bit, with Python float and bool
    d = math.gcd(min(p, q - 1), q)
    lat = RationalLattice(p=min(p, q - 1) // d, q=q // d)
    w = BITWISE_WINDOWS[name]
    n = CERT_X_GRID_N
    perts = [select_perturbation(lat, float(x), anchors[name])
             for x in np.arange(n // math.gcd(n, lat.q)) / n]
    certs = injectivity_scan(w, lat, perts)
    assert certs == [injectivity_scan_one(w, lat, pe) for pe in perts]
    for cert in certs:
        assert type(cert.min_sigma) is float and type(cert.sigma_cert) is float
        assert type(cert.invertible) is bool


def test_injectivity_scan_one_svd_call_per_round(sech, monkeypatch):
    # sech at 1/2 has 8 certificate x; their covers share each round's SVD
    lat = reduce("1/2", 1)
    x0 = zak_anchor(sech)[0]
    perts = [select_perturbation(lat, x, x0) for x in np.arange(8) / 16]
    counts = _count_svd_matrices(monkeypatch)
    certs = injectivity_scan(sech, lat, perts)
    assert len(certs) == 8 and all(c.invertible for c in certs)
    assert len(counts) <= math.ceil(math.log2(zibulski.INJECTIVITY_XI_GRID_N)) + 1
    assert sum(counts) <= 8 * (zibulski.INJECTIVITY_XI_GRID_N + 1)


@pytest.mark.parametrize("name, alpha", [("gauss", "3/8"), ("sech", "5/8"),
                                         ("tsexp", "2/3"), ("ose", "5/7")])
def test_injectivity_below_transfer_lower_bound(request, name, alpha):
    # the rows of A(xi) are rows of B(x, xi) times unimodular phases, so at
    # every certificate x of diagnose min_sigma^2 is at most the transfer A
    w = request.getfixturevalue(name)
    lat = reduce(alpha, 1)
    x0, _ = zak_anchor(w)
    n = CERT_X_GRID_N
    for x in np.arange(n // math.gcd(n, lat.q)) / n:
        pert = select_perturbation(lat, float(x), x0)
        sigma = injectivity_scan(w, lat, [pert])[0].min_sigma
        assert sigma ** 2 <= transfer_window(w, lat, [x])[0][0] * (1 + 1e-12)


# ---------------------------------------------------------------- transfer

def test_transfer_frame_bound_positive(gauss):
    lat = reduce("1/2", 1)
    (lo,), (hi,), _ = transfer_window(gauss, lat, [0.1])
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
        (lo,), (hi,), _ = transfer_window(w, lat, [x])
        assert lo == pytest.approx(np.min(sig[:, -1]) ** 2, rel=1e-9)
        assert hi == pytest.approx(np.max(sig[:, 0]) ** 2, rel=1e-9)


@pytest.mark.parametrize("gamma", [1.0, -1.0])
def test_transfer_window_one_sided_exp_closed_form(gamma):
    # at p = q = 1, B(x, xi) is Zg(x, xi) = e^{-x} / (1 - e^{-1 - 2 pi i xi})
    # for x in [0, 1), so |Zg|^2 runs from e^{-2x} / (1 + e^{-1})^2 at
    # xi = 1/2 to e^{-2x} / (1 - e^{-1})^2 at xi = 0; the reflected window
    # g(-t) has the same values at (-x) mod 1
    xs = np.arange(64) / 64
    lo, hi, _ = transfer_window(OneSidedExp(gamma), reduce(1, 1), xs)
    y = np.exp(-2.0 * (xs if gamma > 0 else (-xs) % 1.0))
    np.testing.assert_allclose(lo, y / (1.0 + math.exp(-1.0)) ** 2,
                               rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(hi, y / (1.0 - math.exp(-1.0)) ** 2,
                               rtol=1e-11, atol=0.0)
    # the exact lower frame bound is the infimum over x, 1 / (e + 1)^2; a
    # grid minimum cannot fall below it
    A = diagnose(OneSidedExp(gamma), reduce(1, 1)).lower_bound_est
    assert A >= 1.0 / (math.e + 1.0) ** 2


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
    (lo,), (hi,), _ = transfer_window(gauss, lat, [0.1])
    assert lo == 0.0
    assert hi > 0


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 12), p=st.integers(1, 24),
       x=st.floats(0.0, 1.0, exclude_max=True))
def test_transfer_window_one_over_q_periodic(gauss, q, p, x):
    # alpha*Z + Z = Z/q, so the spectrum of P(x) has period 1/q in x
    g = math.gcd(p, q)
    lat = RationalLattice(p=p // g, q=q // g)
    (lo,), (hi,), _ = transfer_window(gauss, lat, [x])
    (lo_s,), (hi_s,), _ = transfer_window(gauss, lat, [x + 1.0 / lat.q])
    assert abs(lo - lo_s) <= 1e-12
    assert abs(hi - hi_s) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(WINDOWS)), q=st.integers(1, 16),
       p=st.integers(1, 12), t=st.floats(0.0, 1.0, exclude_max=True))
@example(name="gauss", q=5, p=1, t=0.3)
@example(name="sech", q=3, p=7, t=0.6)
@example(name="ose", q=4, p=12, t=0.0)
def test_transfer_window_matches_svd_reference(name, q, p, t):
    # the Gram eigenvalues against the singular values of the same stack of
    # B(x, xi) over the whole xi grid of [0, 1/p]; for q < p, A is 0
    g = math.gcd(p, q)
    lat = RationalLattice(p=p // g, q=q // g)
    w = WINDOWS[name]
    xs = (t + np.arange(3)) / (3 * lat.q)
    xis = np.linspace(0.0, 1.0 / lat.p, TRANSFER_XI_GRID_N + 1)
    sig = np.linalg.svd(_transfer_stack(w, lat, xs, xis, 1e-10), compute_uv=False)
    hi_ref = np.max(sig[..., 0], axis=1) ** 2
    lo_ref = np.min(sig[..., -1], axis=1) ** 2 if lat.q >= lat.p else np.zeros_like(hi_ref)
    lo, hi, _ = transfer_window(w, lat, xs)
    np.testing.assert_allclose(hi, hi_ref, rtol=0.0, atol=1e-12 * np.max(hi_ref))
    np.testing.assert_allclose(lo, lo_ref, rtol=0.0, atol=1e-12 * np.max(hi_ref))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(BITWISE_WINDOWS)), q=st.integers(1, 12),
       p=st.integers(1, 12), t=st.floats(0.0, 1.0, exclude_max=True))
def test_transfer_window_bitwise_full_grid(name, q, p, t):
    # eigvalsh only at the nodes the Cholesky test cannot clear gives the
    # extremes and the argmin of eigvalsh at every node, bit for bit
    g = math.gcd(p, q)
    lat = RationalLattice(p=p // g, q=q // g)
    w = BITWISE_WINDOWS[name]
    xs = (t + np.arange(5)) / (5 * lat.q)
    for a, b in zip(transfer_window(w, lat, xs),
                    transfer_window_full_grid(w, lat, xs)):
        assert np.array_equal(a, b)


def _gram_stack(w, lat, xs):
    xis = np.linspace(0.0, 1.0 / lat.p, TRANSFER_XI_GRID_N + 1)
    B = _transfer_stack(w, lat, xs, xis[:TRANSFER_XI_GRID_N // 2 + 1], 1e-10)
    return np.conj(np.swapaxes(B, -1, -2)) @ B


def test_transfer_window_ose_11_12_evaluates_near_minimum(ose):
    # the row minima sit at a xi end; its neighbour is too close to clear,
    # so every one of the 64 x rows evaluates an interior node
    lat = reduce("11/12", 1)
    xs = np.arange(64) / (64 * lat.q)
    ev_lo, _ = _gram_extremes(_gram_stack(ose, lat, xs))
    evaluated = np.isfinite(ev_lo[:, 1:-1]).sum(axis=1)
    assert np.all(evaluated >= 1)
    assert np.all(evaluated < TRANSFER_XI_GRID_N // 2 - 1)
    for a, b in zip(transfer_window(ose, lat, xs),
                    transfer_window_full_grid(ose, lat, xs)):
        assert np.array_equal(a, b)


def test_transfer_window_gaussian_23_24_flat_rows(gauss, monkeypatch):
    # lambda_min is flat in xi to about 1e-14 here: its end values agree
    # within delta, so every row goes to eigvalsh without a node test
    def refuse(M):
        raise AssertionError("node test run on a flat row")

    monkeypatch.setattr(zibulski, "cholesky_completes", refuse)
    lat = reduce("23/24", 1)
    xs = np.arange(33) / (64 * lat.q)
    for a, b in zip(transfer_window(gauss, lat, xs),
                    transfer_window_full_grid(gauss, lat, xs)):
        assert np.array_equal(a, b)


def test_transfer_window_rank_deficient_bitwise(sech):
    # q < p: the q x q Gram matrix B B^H; lo is 0, xi_lo its argmin
    lat = reduce("7/5", 1)
    xs = np.arange(9) / (9 * lat.q)
    for a, b in zip(transfer_window(sech, lat, xs),
                    transfer_window_full_grid(sech, lat, xs)):
        assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 2 ** 32 - 1),
       s=st.floats(0.0, 2.0), ks=st.lists(st.integers(-4, 4), min_size=8,
                                          max_size=8))
def test_node_test_never_clears_at_or_below_s(n, seed, s, ks):
    # Hermitian matrices with lambda_min planted k delta from s, k in
    # [-4, 4], delta = 3 (n + 1)^2 eps T as in the transfer window: the
    # node test on S - (s + delta) I never clears a matrix whose eigvalsh
    # lambda_min is at most s, and clears each planted 3 delta above s
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(8, n, n)) + 1j * rng.normal(size=(8, n, n))
    Q = np.linalg.qr(z)[0]
    lam = s + 1.0 + rng.random((8, n))
    T = np.sum(lam, axis=1)
    delta = 3.0 * (n + 1) ** 2 * np.finfo(float).eps * T
    lam[:, 0] = s + np.array(ks) * delta
    S = (Q * lam[:, None, :]) @ np.conj(np.swapaxes(Q, -1, -2))
    clear = cholesky_completes(S - (s + delta)[:, None, None] * np.eye(n))
    lam_min = np.linalg.eigvalsh(S)[:, 0]
    assert not np.any(clear & (lam_min <= s))
    assert np.all(clear[np.array(ks) >= 3])


def test_transfer_stack_has_no_subnormals_gaussian_31_32(gauss):
    # one chunk of the frame_bounds grid at Gaussian 31/32: the Zak bank
    # flushes window samples below tol * eps, so no product formed from it
    # runs on subnormal numbers (26k subnormal parts without the flush)
    lat = reduce("31/32", 1)
    xs = np.arange(16) / (64 * lat.q)
    xis = np.linspace(0.0, 1.0 / lat.p, TRANSFER_XI_GRID_N + 1)[:TRANSFER_XI_GRID_N // 2 + 1]
    B = _transfer_stack(gauss, lat, xs, xis, 1e-10)
    for part in (B.real, B.imag):
        assert not np.any((part != 0.0) & (np.abs(part) < np.finfo(float).tiny))


def test_a_landscape_det_from_singular_values(gauss_pert_23):
    # |det A| is taken as the product of the singular values of A(xi)
    lat, pert = gauss_pert_23
    w = Gaussian(gamma=math.pi)
    xis = np.linspace(0.0, 1.0 / lat.p, 65)
    _, dets = a_landscape(w, lat, pert, xis, 1e-10)
    ref = np.abs(np.linalg.det(zibulski._A_stack(w, lat, pert, xis, 1e-10)))
    assert np.all(np.abs(dets - ref) <= 1e-12 * ref)
