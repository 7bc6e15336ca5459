"""Negative controls: windows outside the theorem, where the truth is known.

h1(t) = t exp(-pi t^2) is odd, so not totally positive.  Its Gabor family
is no frame at alpha*beta = (n-1)/n and is one below 1/2, whether or not
it is translated.  The unshifted zeros of its spectrum lie on the x grid
of the frame-bound window, the shifted ones off it: there A_est is far
above the precision floor, and only the ladder refuses ``Frame``.
"""
import numpy as np
import pytest

from oracles import Hermite1, Shifted
from tpgabor.lattice import reduce
from tpgabor.pregramian import frame_bounds
from tpgabor.zibulski import transfer_window

SHIFT = 0.0123


def test_envelopes_dominate_the_windows():
    t = np.linspace(-20.0, 20.0, 200001)
    for w in (Hermite1(), Shifted(Hermite1(), SHIFT),
              Shifted(Hermite1(), -SHIFT)):
        assert np.all(np.abs(w(t)) <= w.decay.envelope(t))


@pytest.mark.parametrize("shift", [0.0, SHIFT])
@pytest.mark.parametrize("alpha", ["1/2", "2/3", "3/4", "4/5"])
def test_hermite1_non_frames_get_no_frame(alpha, shift):
    w = Shifted(Hermite1(), shift) if shift else Hermite1()
    assert frame_bounds(w, reduce(alpha, 1)).verdict != "Frame"


@pytest.mark.parametrize("alpha", ["1/3", "2/5"])
def test_hermite1_frames_get_frame(alpha):
    # A_est agrees with the minimum of a dense transfer window: 2048 x
    # points over one x-period and 1024 xi cells
    w, lat = Hermite1(), reduce(alpha, 1)
    diag = frame_bounds(w, lat)
    assert diag.verdict == "Frame"
    dense = transfer_window(w, lat, np.arange(2048) / (2048 * lat.q), 1024)[0]
    assert diag.lower_bound_est == pytest.approx(float(np.min(dense)),
                                                 rel=0.01)
