import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import make_pert
from oracles import inverse_decay_profile
from tpgabor import tpmatrix
from tpgabor.lattice import PerturbationSeq, reduce
from tpgabor.tpmatrix import (TPMatrixError, alternating_witness, build_G,
                              tp_minor_audit)
from tpgabor.windows import TAIL_TOL, OneSidedExp, truncation_radius
from tpgabor.zak import zak_on_half_line


def const_pert(delta, x0=0.5, M=0, eps=0.1):
    return PerturbationSeq(deltas=(delta,), M=M, eps=eps, x=0.0, x0=x0)


# ----------------------------------------------------------------- build_G

def test_build_G_entries(gauss):
    sec = build_G(gauss, const_pert(0.5), K=1)
    ks = np.arange(-1, 2)
    expected = gauss((ks + 0.5)[:, None] - ks[None, :].astype(float))
    assert np.array_equal(sec.entries, expected)
    assert sec.shape == (3, 3)


def test_build_G_requires_full_period(gauss):
    pert = PerturbationSeq(deltas=(0.1, 0.2, 0.3), M=0, eps=0.05, x=0.0, x0=0.5)
    with pytest.raises(TPMatrixError):
        build_G(gauss, pert, K=2)


def test_shift_commutation_exact(gauss, tsexp):
    pert = PerturbationSeq(deltas=(0.12, -0.31), M=0, eps=0.05, x=0.0, x0=0.5)
    for w in (gauss, tsexp):
        sec = build_G(w, pert, K=8)
        A = sec.entries
        p = pert.p
        n = A.shape[0]
        # G_{k+p, l+p} = G_{kl} bitwise: same evaluation path both sides
        assert np.array_equal(A[p:, p:], A[:n - p, :n - p])


def test_entries_dominated_by_envelope(gauss):
    pert = const_pert(0.3)
    sec = build_G(gauss, pert, K=6)
    ks = np.arange(-6, 7)
    rows = ks + np.asarray(pert.deltas)[ks % pert.p]
    env = gauss.decay.envelope(rows[:, None] - ks[None, :].astype(float))
    assert np.all(np.abs(sec.entries) <= env + 1e-14)


# ------------------------------------------------------------------ witness

def test_witness_matches_zak_oracle(gauss):
    # delta == 0 with x0 = 0.5: u_k = (-1)^k Zg(0, 1/2), constant magnitude
    wit = alternating_witness(gauss, const_pert(0.0), K=16)
    base = zak_on_half_line(gauss, 0.0)
    expected = ((-1.0) ** wit.ks) * base
    assert np.max(np.abs(wit.u - expected)) < 1e-9
    assert np.all(wit.u[:-1] * wit.u[1:] < 0.0)
    assert wit.nu == pytest.approx(abs(base), abs=1e-9)


def test_witness_rejects_delta_at_zak_zero(gauss):
    # Zg(x0, 1/2) = 0, so the witness degenerates by construction
    with pytest.raises(TPMatrixError):
        alternating_witness(gauss, const_pert(0.5), K=16)


def test_witness_two_sided_exponential_p2(tsexp, zak_zeros):
    x0 = zak_zeros["tsexp"].x0
    lat = reduce("2/3", 1)
    rng = np.random.default_rng(2)
    eps = (1 - 2 / 3) / 4
    lo, hi = x0 - 1 + eps, x0 - eps
    grid = np.linspace(lo, hi, 2000)
    nu_bound = float(np.min(np.abs(
        [zak_on_half_line(tsexp, float(t)) for t in grid])))
    for _ in range(5):
        pert = make_pert(lat, float(rng.uniform(0, 1)), x0)
        wit = alternating_witness(tsexp, pert, K=16)
        assert np.all(wit.u[:-1] * wit.u[1:] < 0.0)
        assert wit.nu >= nu_bound - 1e-9


# -------------------------------------------------------------- minor audit

def test_minor_audit_gaussian(gauss):
    sec = build_G(gauss, const_pert(0.2), K=10)
    rep = tp_minor_audit(sec, n_max=6, trials=2000, seed=1)
    assert rep.passed
    assert rep.min_scaled_det >= -1e-10


def test_minor_audit_one_sided(ose):
    sec = build_G(ose, const_pert(0.2), K=10)
    rep = tp_minor_audit(sec, n_max=6, trials=2000, seed=1)
    assert rep.passed


def test_minor_audit_detects_corruption(gauss):
    sec = build_G(gauss, const_pert(0.2), K=10)
    bad = sec.entries.copy()
    bad[10, 10] = -0.5
    corrupted = dataclasses.replace(sec, entries=bad)
    rep = tp_minor_audit(corrupted, n_max=2, trials=20000, seed=1)
    assert not rep.passed
    assert rep.min_det < 0


def test_minor_audit_determinism(gauss):
    sec = build_G(gauss, const_pert(0.2), K=8)
    a = tp_minor_audit(sec, n_max=5, trials=500, seed=9)
    b = tp_minor_audit(sec, n_max=5, trials=500, seed=9)
    assert a == b


def test_minor_audit_caps_n(gauss):
    sec = build_G(gauss, const_pert(0.2), K=8)
    with pytest.raises(TPMatrixError):
        tp_minor_audit(sec, n_max=9, trials=10)
    for n_max, trials in ((0, 10), (-1, 10), (6, 0), (6, -5)):
        with pytest.raises(TPMatrixError):
            tp_minor_audit(sec, n_max=n_max, trials=trials)


def _scalar_audit(A, n_max, trials, seed):
    """The audit's draws replayed one minor at a time: (min_det, min_scaled)."""
    min_det = min_scaled = math.inf
    rng = np.random.default_rng(seed)
    for rows, cols in tpmatrix._minor_draws(*A.shape, n_max, trials, rng):
        for r, c in zip(rows, cols):
            sub = A[np.ix_(r, c)]
            d = float(np.linalg.det(sub))
            denom = float(np.max(np.abs(sub))) ** len(r)
            min_det = min(min_det, d)
            min_scaled = min(min_scaled, d / denom if denom > 1e-280 else 0.0)
    return min_det, min_scaled


@pytest.mark.parametrize("rows, cols, K, n_max", [
    (slice(None), slice(None), 10, 6),     # square
    (slice(2, 14), slice(0, 21), 10, 6),   # non-square, 12 x 21
    (slice(None), slice(None), 1, 6),      # 3 x 3: m < n_max
    (slice(None), slice(None), 8, 8),
])
def test_minor_audit_matches_scalar_replay(gauss, monkeypatch, rows, cols, K, n_max):
    sec = build_G(gauss, const_pert(0.2), K=K)
    sec = dataclasses.replace(sec, entries=sec.entries[rows, cols])
    # chunks of 7 trials: several full chunks and a partial last one
    monkeypatch.setattr(tpmatrix, "_AUDIT_KEYS", 7 * max(sec.shape))
    trials = 7 * 40 + 3
    rep = tp_minor_audit(sec, n_max=n_max, trials=trials, seed=3)
    assert (rep.min_det, rep.min_scaled_det) == _scalar_audit(
        sec.entries, n_max, trials, 3)
    assert rep.passed and rep.trials == trials


def test_minor_audit_non_square_below_n_max(gauss):
    # a 3 x 9 slice with n_max = 6: sizes 3..6 all draw square 3 x 3 minors
    sec = build_G(gauss, const_pert(0.2), K=16)
    sec = dataclasses.replace(sec, entries=sec.entries[:3, :9])
    rep = tp_minor_audit(sec, n_max=6, trials=500, seed=0)
    assert (rep.min_det, rep.min_scaled_det) == _scalar_audit(
        sec.entries, 6, 500, 0)
    assert rep.passed
    for rows, cols in tpmatrix._minor_draws(3, 9, 6, 500,
                                            np.random.default_rng(0)):
        assert rows.shape == cols.shape and rows.shape[1] <= 3


def test_minor_audit_draws_uniform():
    # 5 x 5 section, sizes 1..3: every size and every sorted row (and
    # column) subset of a size within 5 standard errors of uniform
    trials, n_max, m = 30000, 3, 5

    def within_5_se(count, n, q):
        return abs(count - n * q) <= 5 * math.sqrt(n * q * (1 - q))

    subsets = {k: (Counter(), Counter()) for k in range(1, n_max + 1)}
    for rows, cols in tpmatrix._minor_draws(m, m, n_max, trials,
                                            np.random.default_rng(11)):
        for idx, seen in zip((rows, cols), subsets[rows.shape[1]]):
            assert np.all(np.diff(idx, axis=1) > 0)
            seen.update(map(tuple, idx.tolist()))
    assert sum(sum(r.values()) for r, _ in subsets.values()) == trials
    for k, (row_seen, col_seen) in subsets.items():
        cnt = sum(row_seen.values())
        assert within_5_se(cnt, trials, 1 / n_max)
        for seen in (row_seen, col_seen):
            assert len(seen) == math.comb(m, k)
            assert all(within_5_se(c, cnt, 1 / math.comb(m, k))
                       for c in seen.values())


# ------------------------------------------------------------ inverse decay

def test_inverse_decay_gaussian(gauss):
    sec = build_G(gauss, const_pert(0.2), K=32)
    fit = inverse_decay_profile(sec, gauss.decay)
    assert fit.sigma > 1.0
    assert fit.cond < 1e12


def test_inverse_decay_consistent_across_K(tsexp):
    # banded-Toeplitz-like section: rate consistent from K=16 to K=32
    fits = [inverse_decay_profile(build_G(tsexp, const_pert(0.2), K=K),
                                  tsexp.decay)
            for K in (16, 32)]
    s16, s32 = fits[0].sigma, fits[1].sigma
    assert s16 > 1.0 and s32 > 1.0
    assert abs(s16 - s32) <= 0.2 * max(s16, s32)


def test_inverse_decay_rejects_flat_profile(gauss):
    # an identity section has no off-diagonal profile to fit
    sec = build_G(gauss, const_pert(0.2), K=8)
    eye = dataclasses.replace(sec, entries=np.eye(sec.shape[0]))
    with pytest.raises(TPMatrixError):
        inverse_decay_profile(eye, gauss.decay)


def test_inverse_decay_condition_cutoff(gauss):
    sec = build_G(gauss, const_pert(0.2), K=8)
    sing = dataclasses.replace(sec, entries=np.ones(sec.shape))
    with pytest.raises(TPMatrixError):
        inverse_decay_profile(sing, gauss.decay)


def test_witness_interior_identity_all_windows(gauss, tsexp, sech, zak_zeros):
    for name, w in (("gauss", gauss), ("tsexp", tsexp), ("sech", sech)):
        x0 = zak_zeros[name].x0
        lat = reduce("3/4", 1)
        pert = make_pert(lat, 0.37, x0)
        wit = alternating_witness(w, pert, K=12)
        expected = np.array([(-1.0) ** k * zak_on_half_line(w, pert.delta(int(k)))
                             for k in wit.ks])
        assert np.max(np.abs(wit.u - expected)) < 1e-9


def _G_reference(w, pert, ks, ls):
    """G_{kl} = g(float(k - l) + delta_k), one window call per entry."""
    return np.array([[w(np.array([float(k - l) + pert.delta(int(k))]))[0]
                      for l in ls] for k in ks])


def test_G_entries_match_entrywise_reference(gauss, ose, gauss_pert_23):
    # build_G and the witness take G from G_entries; entry by entry it is
    # g((k - l) + delta_k), with delta_k looked up one index at a time
    _, pert = gauss_pert_23
    K, R = 9, truncation_radius(gauss, 1e-10)
    ks = np.arange(-K, K + 1)
    ls = np.arange(-K - R - 1, K + R + 2)
    for w in (gauss, ose):
        ref = _G_reference(w, pert, ks, ls)
        assert np.array_equal(build_G(w, pert, K).entries,
                              ref[:, R + 1:R + 2 + 2 * K])
        if w is gauss:
            u = alternating_witness(w, pert, K).u
            assert np.max(np.abs(u - ref @ ((-1.0) ** ls))) <= 1e-14


@pytest.mark.parametrize("alpha, x", [("1/2", None), ("2/3", 0.1),
                                      ("3/4", 0.37), ("7/8", 0.6)],
                         ids=["p1-const", "p2", "p3", "p7"])
def test_G_entries_residue_gather_matches_reference(gauss, tsexp, zak_zeros,
                                                    alpha, x):
    # the gather from one sample per residue class gives the entrywise
    # reference bit for bit, at p = 1 (a constant perturbation), 2, 3 and 7,
    # for ks starting below 0, fewer rows than p, and ls longer or shorter
    # than ks; G_{k+p,l+p} = G_{kl} bitwise
    lat = reduce(alpha, 1)
    pert = (const_pert(0.3) if x is None
            else make_pert(lat, x, zak_zeros["gauss"].x0))
    assert pert.p == lat.p
    p = pert.p
    for w in (gauss, tsexp):
        for ks, ls in ((np.arange(-9, 6), np.arange(-14, 12)),
                       (np.arange(-3, 12), np.arange(2, 6)),
                       (np.arange(-5, -5 + max(p - 1, 1)), np.arange(-8, 3)),
                       (np.arange(0, 1), np.arange(-3, 4))):
            G = tpmatrix.G_entries(w, pert, ks, ls)
            assert np.array_equal(G, _G_reference(w, pert, ks, ls))
            if ks.size > p and ls.size > p:
                shifted = tpmatrix.G_entries(w, pert, ks + p, ls + p)
                assert np.array_equal(shifted, G)
    # K = 0 at p = 2: one row, fewer than p
    if p == 2:
        pert = make_pert(lat, 0.25, zak_zeros["tsexp"].x0)
        wit = alternating_witness(tsexp, pert, K=0)
        R = truncation_radius(tsexp, TAIL_TOL)
        ls = np.arange(-R - 1, R + 2)
        ref = _G_reference(tsexp, pert, wit.ks, ls) @ ((-1.0) ** ls)
        assert np.array_equal(wit.u, ref)


@pytest.mark.parametrize("ks, ls", [
    (np.array([0, 1, 3]), np.arange(3)),
    (np.arange(3)[::-1], np.arange(3)),
    (np.arange(3), np.arange(4.0)),
    (np.arange(0), np.arange(3)),
    (np.arange(4).reshape(2, 2), np.arange(3)),
], ids=["gap", "decreasing", "float", "empty", "2d"])
def test_G_entries_rejects_non_consecutive_indices(gauss, ks, ls):
    with pytest.raises(TPMatrixError):
        tpmatrix.G_entries(gauss, const_pert(0.3), ks, ls)
    with pytest.raises(TPMatrixError):
        tpmatrix.G_entries(gauss, const_pert(0.3), ls, ks)


def test_G_entries_calls_window_once_per_residue_sample(tsexp, gauss_pert_23):
    # one window call on p (ks.size + ls.size - 1) points, however large
    # the block
    _, pert = gauss_pert_23
    calls = []

    def counting(t):
        calls.append(np.size(t))
        return tsexp(t)

    ks, ls = np.arange(-40, 41), np.arange(-60, 63)
    G = tpmatrix.G_entries(counting, pert, ks, ls)
    assert calls == [pert.p * (ks.size + ls.size - 1)]
    assert np.array_equal(G, tpmatrix.G_entries(tsexp, pert, ks, ls))


def test_witness_peak_memory_stays_near_its_section(tsexp, zak_zeros):
    # the window runs on one p x (nk + nl - 1) sample, not on the section,
    # so the K = 512 section (1025 x 1078) is the only section-sized array:
    # the traced peak is about 1.01 times it
    K = 512
    pert = make_pert(reduce("2/3", 1), 0.25, zak_zeros["tsexp"].x0)
    R = truncation_radius(tsexp, TAIL_TOL)
    section = (2 * K + 1) * (2 * K + 2 * R + 3) * 8
    tracemalloc.start()
    try:
        alternating_witness(tsexp, pert, K=K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * section
