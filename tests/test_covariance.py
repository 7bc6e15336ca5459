"""Covariance of the diagnosis under the symmetries of Gabor frames.

The frame bounds of the Gabor family of g over alpha Z x beta Z are those
of ghat over beta Z x alpha Z (Fourier duality), of g(-t) over the same
lattice (reflection), and of the L2-normalized dilation g(t/c)/sqrt(c)
over c alpha Z x (beta/c) Z (dilation).  Each check compares the
estimated bounds and the verdict of the two sides.
"""
import math
from fractions import Fraction

import pytest

from tpgabor.lattice import reduce
from tpgabor.pipeline import diagnose
from tpgabor.windows import (Dilated, Gaussian, HyperbolicSecant, OneSidedExp,
                             two_sided_exponential)


def assert_same_bounds(d1, d2, rtol):
    assert d1.verdict == d2.verdict
    assert d1.lower_bound_est == pytest.approx(d2.lower_bound_est, rel=rtol)
    assert d1.upper_bound_est == pytest.approx(d2.upper_bound_est, rel=rtol)


# g(t) = exp(-pi t^2) and 1/(e^{pi t} + e^{-pi t}) = sech(pi t)/2 are their
# own Fourier transforms
@pytest.mark.parametrize("w", [Gaussian(math.pi), HyperbolicSecant(math.pi)],
                         ids=["gauss", "sech"])
@pytest.mark.parametrize("a, b", [("1/2", "1"), ("2/3", "1"), ("1/3", "3/2"),
                                  ("3/4", "1/2"), ("3/5", "1")])
def test_fourier_duality(w, a, b):
    assert_same_bounds(diagnose(w, reduce(a, b)),
                       diagnose(w, reduce(b, a)), 1e-12)


@pytest.mark.parametrize("alpha", ["1/2", "2/3", "1"])
def test_reflection(alpha):
    lat = reduce(alpha, 1)
    assert_same_bounds(diagnose(OneSidedExp(1.0), lat),
                       diagnose(OneSidedExp(-1.0), lat), 1e-10)


@pytest.mark.parametrize("w", [Gaussian(math.pi), HyperbolicSecant(1.0),
                               two_sided_exponential(1.0), OneSidedExp(1.0)],
                         ids=["gauss", "sech", "tsexp", "ose"])
@pytest.mark.parametrize("a, b", [("1/2", "1"), ("2/3", "1"), ("1/3", "3/2")])
@pytest.mark.parametrize("c", ["2", "1/3", "5/4"])
def test_dilation(w, a, b, c):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    assert_same_bounds(diagnose(w, reduce(a, b)),
                       diagnose(Dilated(w, float(c)), reduce(c * a, b / c)),
                       1e-11)
