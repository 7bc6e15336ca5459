import math

import numpy as np
import pytest

from tpgabor.windows import (DecayProfile, Dilated, FiniteProduct, Gaussian,
                             HyperbolicSecant, OneSidedExp, WindowError,
                             frame_at_critical_density, truncation_radius,
                             two_sided_exponential, window_from_config)

ALL = [Gaussian(gamma=math.pi), OneSidedExp(gamma=1.0),
       HyperbolicSecant(a=1.0), two_sided_exponential(rate=1.0)]


def fft_inverse_oracle(w: FiniteProduct, t: float, dt=1.0 / 256, N=2 ** 18):
    """Independent oracle: dense FFT inversion of the Fourier transform."""
    xi = np.fft.fftfreq(N, d=dt)
    g = np.fft.ifft(w.fourier_transform(xi)) / dt
    idx = int(round(t / dt)) % N
    return float(g[idx].real)


# ------------------------------------------------------------ point values

def test_gaussian_at_zero():
    assert Gaussian(gamma=math.pi)(0.0) == 1.0


def test_one_sided_exp_vanishes_on_wrong_side():
    w = OneSidedExp(gamma=1.0)
    assert w(-0.5) == 0.0
    assert w(0.5) == pytest.approx(math.exp(-0.5), abs=1e-15)
    # gamma < 0 flips the support side
    wneg = OneSidedExp(gamma=-2.0)
    assert wneg(0.5) == 0.0
    assert wneg(-0.5) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_two_sided_exponential_closed_form_vs_fft_oracle():
    w = two_sided_exponential(rate=1.0)
    # closed form: the two-factor product inverts to exactly exp(-|t|)
    assert w(1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert fft_inverse_oracle(w, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-7)
    for t in (0.25, 0.5, 2.0):
        assert abs(w(t) - fft_inverse_oracle(w, t)) < 1e-7


def test_closed_form_vs_quadrature():
    # where both evaluation paths apply they must agree to 1e-9
    w = two_sided_exponential(rate=1.0)
    for t in (-1.5, -0.3, 0.0, 0.7, 2.0):
        assert abs(w._eval_closed(t) - w.evaluate_by_quadrature(t)) < 1e-9
    w2 = FiniteProduct(gamma=0.0, nus=(1.0, -0.5), c=1.0)
    for t in (-1.0, 0.2, 1.3):
        assert abs(w2._eval_closed(t) - w2.evaluate_by_quadrature(t)) < 1e-9


def test_gaussian_factor_quadrature_path():
    # gamma > 0 forces the quadrature path; check against the FFT oracle
    w = FiniteProduct(gamma=0.1, nus=(1.0,), c=1.0)
    assert not w.has_closed_form
    for t in (0.0, 0.5, 1.5):
        assert abs(w(t) - fft_inverse_oracle(w, t)) < 1e-6


def test_gaussian_factor_quadrature_imports_quad_lazily(monkeypatch):
    # quad is imported where it is used, so the package loads no SciPy
    # module until a Gaussian-factor product is evaluated
    import scipy.integrate

    quad, calls = scipy.integrate.quad, []

    def spy(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    w = FiniteProduct(gamma=1.0, nus=(1.0,), c=1.0)
    ref = w(0.5)
    monkeypatch.setattr(scipy.integrate, "quad", spy)
    assert w(0.5) == ref
    assert len(calls) == 2  # the cosine and the sine part


# --------------------------------------------------------- truncation radii

def brute_tail(profile: DecayProfile, R: int) -> float:
    xs = np.linspace(0.0, 1.0, 41)
    ks = np.arange(R + 1, R + 5000)
    left = profile.envelope(xs[:, None] - (-ks)[None, :])
    right = profile.envelope(xs[:, None] - ks[None, :])
    return float(np.max(np.sum(left + right, axis=1)))


def test_truncation_radius_gaussian():
    w = Gaussian(gamma=math.pi)
    R = truncation_radius(w, 1e-12)
    assert R <= 8  # e^{-pi * 9} < 1e-12 already, so the certified R stays small
    assert brute_tail(w.decay, R) < 1e-12


def test_truncation_radius_one_sided_exp():
    w = OneSidedExp(gamma=1.0)
    R = truncation_radius(w, 1e-10)
    assert R >= math.ceil(10 * math.log(10))
    assert brute_tail(w.decay, R) < 1e-10


@pytest.mark.parametrize("w", ALL, ids=lambda w: w.config()["kind"])
def test_tail_sum_certificate(w):
    R = truncation_radius(w, 1e-8)
    assert w.decay.tail_sum(R) < 1e-8


# ------------------------------------------------------------ sample matrix

def test_frame_at_critical_density():
    # the one-sided exponential up to shift, scale and reflection, however
    # it is spelled or dilated
    for w in (OneSidedExp(gamma=1.0), OneSidedExp(gamma=-2.0),
              FiniteProduct(nus=(1.0,), nu=1.0),
              FiniteProduct(nus=(-0.5,), nu=0.3, c=2.0),
              Dilated(base=Dilated(base=OneSidedExp(gamma=1.0), b=2.0), b=3.0),
              Dilated(base=FiniteProduct(nus=(1.0,)), b=0.5)):
        assert frame_at_critical_density(w), w
    for w in (Gaussian(gamma=math.pi), HyperbolicSecant(a=1.0),
              two_sided_exponential(rate=1.0),
              FiniteProduct(gamma=1.0, nus=(1.0,)),
              Dilated(base=Gaussian(gamma=math.pi), b=2.0)):
        assert not frame_at_critical_density(w), w


def test_tp_samples_matrix_trivial():
    w = Gaussian(gamma=math.pi)
    xs = ys = np.array([0.0])
    assert w(xs[:, None] - ys[None, :]).tolist() == [[1.0]]


def test_tp_samples_matrix_2x2():
    w = Gaussian(gamma=math.pi)
    xs = ys = np.array([0.0, 1.0])
    A = w(xs[:, None] - ys[None, :])
    e = math.exp(-math.pi)
    assert np.allclose(A, [[1.0, e], [e, 1.0]], atol=1e-15)
    assert np.linalg.det(A) == pytest.approx(1.0 - e * e, abs=1e-12)


def test_tp_samples_matrix_one_sided_structure():
    w = OneSidedExp(gamma=1.0)
    xs = ys = np.array([0.0, 1.0, 2.0])
    A = w(xs[:, None] - ys[None, :])
    assert np.all(A[np.triu_indices(3, k=1)] == 0.0)  # g(x-y)=0 for x<y
    assert float(np.linalg.det(A)) >= 0.0


@pytest.mark.parametrize("w", ALL, ids=lambda w: w.config()["kind"])
def test_random_minors_nonnegative(w):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        xs = np.sort(rng.uniform(-4, 4, size=n))
        ys = np.sort(rng.uniform(-4, 4, size=n))
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            continue
        A = w(xs[:, None] - ys[None, :])
        scale = max(float(np.max(np.abs(A))), 1e-300)
        assert float(np.linalg.det(A)) >= -1e-10 * scale ** n


# ------------------------------------------------------------------- decay

@pytest.mark.parametrize("w", ALL, ids=lambda w: w.config()["kind"])
def test_envelope_dominates(w):
    R = truncation_radius(w, 1e-10)
    ts = np.linspace(-R, R, 2001)
    assert np.all(np.abs(w(ts)) <= w.decay.envelope(ts) + 1e-14)


def test_envelope_dominates_finite_product_quadrature():
    w = FiniteProduct(gamma=0.1, nus=(1.0,), c=1.0)
    ts = np.linspace(-6, 6, 25)
    assert np.all(np.abs(w(ts)) <= w.decay.envelope(ts) + 1e-9)


def test_dilated_window():
    base = Gaussian(gamma=math.pi)
    w = Dilated(base=base, b=2.0)
    ts = np.linspace(-3, 3, 11)
    assert w(ts) == pytest.approx(base(ts / 2.0) / math.sqrt(2.0))
    assert np.all(np.abs(w(ts)) <= w.decay.envelope(ts) + 1e-14)


def test_even_flags():
    assert Gaussian(gamma=2.0).even and HyperbolicSecant(a=0.5).even
    assert two_sided_exponential(rate=3.0).even
    assert FiniteProduct(nus=(1.0, -1.0, 0.5, -0.5), c=1.0).even
    assert Dilated(base=Gaussian(gamma=math.pi), b=2.0).even
    assert not OneSidedExp(gamma=1.0).even
    assert not FiniteProduct(nus=(1.0, -0.5, 0.25)).even
    assert not FiniteProduct(nus=(1.0, -1.0), nu=0.25).even
    assert not Dilated(base=OneSidedExp(gamma=1.0), b=2.0).even
    # derived from the parameters, never set
    with pytest.raises(AttributeError):
        Gaussian().even = False
    ts = np.linspace(-3, 3, 13)
    for w in (two_sided_exponential(rate=3.0),
              FiniteProduct(nus=(1.0, -1.0, 0.5, -0.5), c=1.0)):
        assert w(-ts) == pytest.approx(w(ts), abs=1e-14)


# ------------------------------------------------------------------ config

def test_window_from_config_roundtrip():
    for w in ALL:
        w2 = window_from_config(w.config())
        ts = np.linspace(-2, 2, 9)
        assert w2(ts) == pytest.approx(w(ts), abs=1e-14)


def test_window_from_config_errors():
    with pytest.raises(WindowError):
        window_from_config({"kind": "haar"})
    with pytest.raises(WindowError):
        window_from_config({"kind": "gaussian", "gamma": -1.0})
    with pytest.raises(WindowError):
        window_from_config({"kind": "one_sided_exp", "gamma": 0.0})
    with pytest.raises(WindowError):
        window_from_config({"kind": "finite_product", "nus": []})
    with pytest.raises(WindowError):
        window_from_config({"not": "a window"})
    # missing or non-numeric fields are domain errors, not KeyError/ValueError
    for cfg in ({"kind": "gaussian", "gamma": "abc"},
                {"kind": "dilated", "base": {"kind": "gaussian"}},
                {"kind": "finite_product", "nus": "ab"},
                {"kind": "finite_product", "nus": [1.0, None]},
                {"kind": ["gaussian"]}):
        with pytest.raises(WindowError):
            window_from_config(cfg)


@pytest.mark.parametrize("cfg", [
    {"kind": "finite_product", "nus": [0.001], "nu": 5},  # C e^{lam tau} = inf
    {"kind": "two_sided_exp", "rate": 1e-320},  # 1/rate = inf
    # rates with exp(-rate) == 1: no geometric tail sum, no radius
    {"kind": "sech", "a": 1e-300},
    {"kind": "gaussian", "gamma": 1e-300},
    {"kind": "one_sided_exp", "gamma": 1e-300},
    {"kind": "two_sided_exp", "rate": 1e-300},
    {"kind": "dilated", "b": 1e300, "base": {"kind": "sech"}},
    {"kind": "finite_product", "nus": [1e300, -1e300]},
], ids=str)
def test_window_from_config_rejects_unusable_envelopes(cfg):
    # each of these built a window whose envelope crashed later, in
    # _build_decay or at the first truncation radius
    with pytest.raises(WindowError):
        window_from_config(cfg)
