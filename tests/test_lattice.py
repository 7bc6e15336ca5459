import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpgabor.lattice import (LatticeError, PerturbationSeq, RationalLattice,
                             as_fraction, choose_M, reduce,
                             select_perturbation)


# ----------------------------------------------------------------- parsing

def test_as_fraction_variants():
    assert as_fraction("2/3") == Fraction(2, 3)
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction("0.125") == Fraction(1, 8)
    assert as_fraction(Fraction(7, 9)) == Fraction(7, 9)
    with pytest.raises(LatticeError):
        as_fraction(object())


def test_reduce_examples():
    lat = reduce("1/2", 1)
    assert (lat.p, lat.q) == (1, 2)
    lat = reduce("1/3", 2)
    assert (lat.p, lat.q) == (2, 3)
    assert lat.beta_original == 2
    lat = reduce("3/4", "2/3")
    assert (lat.p, lat.q) == (1, 2)


def test_lattice_validation():
    with pytest.raises(LatticeError):
        RationalLattice(p=2, q=4)
    with pytest.raises(LatticeError):
        RationalLattice(p=0, q=1)
    with pytest.raises(LatticeError):
        reduce(-1, 1)
    RationalLattice(p=3, q=2)  # alpha > 1 is representable ...
    with pytest.raises(LatticeError):
        RationalLattice(p=3, q=2).require_frame_candidate()  # ... not a frame


# ---------------------------------------------------------------- choose_M

def test_choose_M_examples():
    assert choose_M(0.5) == 0
    assert choose_M(0.1) == 0   # center -0.4 beats center 0.6
    assert choose_M(0.9) == 0   # center 0.4 beats center -0.6
    with pytest.raises(LatticeError):
        choose_M(1.5)


def test_choose_M_minimizes_center():
    for x0 in np.linspace(0, 0.999, 67):
        M = choose_M(float(x0))
        others = [abs(x0 + m - 0.5) for m in (-1, 0, 1)]
        assert abs(x0 + M - 0.5) == pytest.approx(min(others))


# ---------------------------------------------------- perturbation selector

def exhaustive_js(lat, x, x0, eps, M):
    """Oracle: enumerate every j and keep those inside the interval, per l."""
    alpha = Fraction(lat.p, lat.q)
    out = []
    for l in range(lat.p):
        lo = l + x0 + M - 1 + eps
        hi = l + x0 + M - eps
        admissible = [j for j in range(-10 * lat.q, 10 * lat.q)
                      if lo - 1e-12 <= x + float(alpha * j) <= hi + 1e-12]
        out.append(admissible)
    return out


def test_select_perturbation_alpha_two_thirds():
    lat = reduce("2/3", 1)
    pert = select_perturbation(lat, 0.0, 0.5, eps=0.1, M=1)
    oracle = exhaustive_js(lat, 0.0, 0.5, 0.1, 1)
    for l, j in enumerate(pert.js):
        assert j in oracle[l]
        lo, hi = l + 0.6, l + 1.4
        assert lo - 1e-12 <= l + pert.deltas[l] <= hi + 1e-12


def test_select_perturbation_alpha_half():
    lat = reduce("1/2", 1)
    pert = select_perturbation(lat, 0.25, 0.5, eps=0.2, M=0)
    # candidates in [-0.3, 0.3] from 0.25 + 0.5 Z are exactly {-0.25, 0.25}
    assert abs(pert.deltas[0]) == pytest.approx(0.25)
    lo, hi = pert.interval()
    assert (lo, hi) == pytest.approx((-0.3, 0.3))


def test_select_perturbation_eps_precondition():
    lat = reduce("99/100", 1)
    with pytest.raises(LatticeError):
        select_perturbation(lat, 0.0, 0.5, eps=0.01)


def test_perturbation_periodicity_and_membership():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        q = int(rng.integers(2, 51))
        p = int(rng.integers(1, q))
        if math.gcd(p, q) != 1:
            continue
        lat = RationalLattice(p=p, q=q)
        x = float(rng.uniform(0, 1))
        x0 = float(rng.uniform(0, 1))
        alpha = p / q
        eps = float(rng.uniform(0.1, 0.9)) * (1 - alpha) / 2
        pert = select_perturbation(lat, x, x0, eps=eps)
        lo, hi = pert.interval()
        assert 1 - 2 * eps > alpha  # interval long enough to hit the lattice
        for k in range(-2 * p, 2 * p):
            d = pert.delta(k)
            assert d == pert.deltas[k % p]          # exact p-periodicity
            assert lo - 1e-12 <= d <= hi + 1e-12    # interval membership
            # k + delta_k is a point of x + alpha Z
            t = (k + d - x) / alpha
            assert abs(t - round(t)) < 1e-9


def test_perturbation_js_increasing_within_window():
    rng = np.random.default_rng(5)
    for _ in range(200):
        q = int(rng.integers(2, 21))
        p = int(rng.integers(1, q))
        if math.gcd(p, q) != 1:
            continue
        lat = RationalLattice(p=p, q=q)
        pert = select_perturbation(lat, float(rng.uniform(0, 1)),
                                   float(rng.uniform(0, 1)))
        js = list(pert.js)
        assert js == sorted(js)
        assert len(set(js)) == len(js)
        assert p == 1 or js[-1] - js[0] < q


def test_select_perturbation_exact_tie_goes_to_smaller_j():
    # residue 1 at 2/3, x = 0: the points 2/3 (j = 1) and 4/3 (j = 2) are
    # both 1/3 from the interval centre 1; in floating point |0.666...6 - 1|
    # rounds above |1.333...3 - 1| and used to pick j = 2
    pert = select_perturbation(reduce("2/3", 1), 0.0, 0.5)
    assert pert.js == (0, 1)
    assert pert.deltas[1] == pytest.approx(-1.0 / 3.0)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 4, 8]), p=st.integers(1, 7),
       k=st.integers(0, 255))
def test_perturbation_one_over_q_is_a_rotation(q, p, k):
    # x + 1/q + alpha Z = x + alpha Z - m with p j0 = 1 + m q, so the
    # perturbation at x + 1/q is the one at x relabelled: delta'_l =
    # delta_{l + m}.  Dyadic x and q keep every value exact, ties included.
    p = min(p, q - 1) | 1
    lat = RationalLattice(p=p, q=q)
    x = k / 256
    m = (p * pow(p, -1, q) - 1) // q
    base = select_perturbation(lat, x, 0.5).deltas
    moved = select_perturbation(lat, x + 1.0 / q, 0.5).deltas
    assert moved == tuple(base[(l + m) % p] for l in range(p))


def test_perturbation_seq_validation():
    with pytest.raises(LatticeError):
        PerturbationSeq(deltas=(), M=0, eps=0.1, x=0.0, x0=0.5)
    pert = PerturbationSeq(deltas=(0.1, -0.2), M=0, eps=0.1, x=0.0, x0=0.5)
    assert pert.p == 2
    assert pert.delta(5) == pert.delta(1)


def _nearest_admissible_j(lat, x, x0, eps, M, l):
    """The admissible j nearest the interval centre, by exhaustive search."""
    a = Fraction(lat.p, lat.q)
    X, X0, E = Fraction(x), Fraction(x0), Fraction(eps)
    lo, hi = l + X0 + M - 1 + E, l + X0 + M - E
    centre = l + X0 + M - Fraction(1, 2)
    cands = [j for j in range(math.floor((lo - X) / a) - 1,
                              math.ceil((hi - X) / a) + 2)
             if lo <= X + a * j <= hi]
    assert cands, "the interval holds no lattice point"
    return min(cands, key=lambda j: (abs(X + a * j - centre), j))


@settings(max_examples=300, deadline=None)
@given(q=st.integers(2, 60), p=st.integers(1, 59),
       x=st.one_of(st.floats(-3.0, 3.0), st.integers(-64, 64).map(lambda k: k / 16),
                   st.integers(-30, 30).map(lambda k: k / 7)),
       x0=st.one_of(st.just(0.5), st.floats(0.0, 0.999999)),
       eps_frac=st.one_of(st.none(), st.floats(0.001, 0.999999),
                          st.just(1.0 - 1e-9)))
def test_selected_j_is_nearest_admissible(q, p, x, x0, eps_frac):
    # the selector's j is the admissible lattice index nearest the interval
    # centre, ties to the smaller j, for dyadic and non-dyadic x and for eps
    # up to its limit (1 - alpha)/2
    p = min(p, q - 1)
    while math.gcd(p, q) != 1:
        p -= 1
    lat = RationalLattice(p=p, q=q)
    eps = None if eps_frac is None else eps_frac * (1.0 - p / q) / 2.0
    pert = select_perturbation(lat, x, x0, eps=eps)
    for l in range(p):
        assert pert.js[l] == _nearest_admissible_j(lat, x, x0, pert.eps,
                                                   pert.M, l)
