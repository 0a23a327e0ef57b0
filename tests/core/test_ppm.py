"""Unit and property tests for the Price-Performance Models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ppm import AmdahlPPM, PowerLawPPM, fit_amdahl, fit_power_law


class TestPowerLawPPM:
    def test_evaluates_equation_3(self):
        ppm = PowerLawPPM(a=-1.0, b=100.0, m=10.0)
        assert ppm.predict(1) == pytest.approx(100.0)
        assert ppm.predict(5) == pytest.approx(20.0)
        assert ppm.predict(20) == pytest.approx(10.0)  # floor

    def test_monotone_constraint_enforced(self):
        with pytest.raises(ValueError, match="monotonicity"):
            PowerLawPPM(a=0.5, b=100.0, m=1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PowerLawPPM(a=-1.0, b=0.0, m=1.0)
        with pytest.raises(ValueError):
            PowerLawPPM(a=-1.0, b=10.0, m=-1.0)

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError):
            PowerLawPPM(a=-1.0, b=10.0, m=0.0).predict(0.5)

    def test_from_parameters_clamps(self):
        ppm = PowerLawPPM.from_parameters(np.array([0.7, -5.0, -2.0]))
        assert ppm.a == 0.0
        assert ppm.b > 0.0
        assert ppm.m == 0.0

    def test_parameters_roundtrip(self):
        ppm = PowerLawPPM(a=-0.5, b=20.0, m=3.0)
        assert np.allclose(ppm.parameters(), [-0.5, 20.0, 3.0])
        assert ppm.PARAM_NAMES == ("a", "b", "m")


class TestAmdahlPPM:
    def test_evaluates_equation_4(self):
        ppm = AmdahlPPM(s=5.0, p=100.0)
        assert ppm.predict(1) == pytest.approx(105.0)
        assert ppm.predict(50) == pytest.approx(7.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AmdahlPPM(s=-1.0, p=1.0)
        with pytest.raises(ValueError):
            AmdahlPPM(s=1.0, p=-1.0)

    def test_from_parameters_clamps(self):
        ppm = AmdahlPPM.from_parameters(np.array([-3.0, -4.0]))
        assert ppm.s == 0.0 and ppm.p == 0.0

    def test_strictly_decreasing_when_parallel_work_exists(self):
        curve = AmdahlPPM(s=1.0, p=50.0).predict_curve(np.arange(1, 49))
        assert np.all(np.diff(curve) < 0)


class TestFitPowerLaw:
    def test_recovers_exact_power_law(self):
        n = np.arange(1, 49, dtype=float)
        truth = PowerLawPPM(a=-0.8, b=300.0, m=20.0)  # saturates at n≈30
        fitted = fit_power_law(n, truth.predict_curve(n))
        assert fitted.m == pytest.approx(20.0, rel=1e-6)
        assert fitted.a == pytest.approx(-0.8, abs=0.05)
        assert fitted.b == pytest.approx(300.0, rel=0.1)

    def test_floor_never_undercuts_observed_minimum(self):
        # the power law never reaches its floor inside the grid: the
        # fitted m is the observed minimum, not the latent asymptote
        n = np.arange(1, 49, dtype=float)
        truth = PowerLawPPM(a=-0.8, b=300.0, m=12.0)  # 300*48^-0.8 > 12
        fitted = fit_power_law(n, truth.predict_curve(n))
        assert fitted.m == pytest.approx(truth.predict(48), rel=1e-6)
        assert fitted.a == pytest.approx(-0.8, abs=0.05)

    def test_flat_curve_degenerates_to_constant(self):
        n = np.array([1.0, 2.0, 4.0])
        fitted = fit_power_law(n, np.full(3, 7.0))
        assert fitted.a == 0.0
        assert fitted.predict(1) == pytest.approx(7.0)
        assert fitted.predict(48) == pytest.approx(7.0)

    def test_fit_only_uses_non_saturating_region(self):
        # power law down to n=10, then exactly flat: the flat tail must
        # not flatten the fitted exponent.
        n = np.arange(1, 49, dtype=float)
        t = np.maximum(200.0 * n**-1.0, 20.0)
        fitted = fit_power_law(n, t)
        assert fitted.a < -0.8

    def test_validation(self):
        with pytest.raises(ValueError, match="two"):
            fit_power_law([1.0], [5.0])
        with pytest.raises(ValueError, match=">= 1"):
            fit_power_law([0.5, 2.0], [5.0, 3.0])
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([1.0, 2.0], [5.0, 0.0])
        with pytest.raises(ValueError, match="equal length"):
            fit_power_law([1.0, 2.0], [5.0])


class TestFitAmdahl:
    def test_recovers_exact_amdahl(self):
        n = np.array([1.0, 3.0, 8.0, 16.0, 32.0, 48.0])
        truth = AmdahlPPM(s=9.0, p=250.0)
        fitted = fit_amdahl(n, truth.predict_curve(n))
        assert fitted.s == pytest.approx(9.0, rel=1e-6)
        assert fitted.p == pytest.approx(250.0, rel=1e-6)

    def test_negative_serial_clamped_with_origin_refit(self):
        # data that a plain regression would fit with s < 0
        n = np.array([1.0, 2.0, 48.0])
        t = np.array([100.0, 50.0, 1.0])
        fitted = fit_amdahl(n, t)
        assert fitted.s >= 0.0
        assert fitted.p > 0.0

    def test_increasing_data_degenerates_to_constant(self):
        n = np.array([1.0, 2.0, 4.0, 8.0])
        t = np.array([1.0, 2.0, 4.0, 8.0])  # pathological: slower with more
        fitted = fit_amdahl(n, t)
        assert fitted.p == 0.0
        assert fitted.s == pytest.approx(t.mean())


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=-2.0, max_value=0.0),
    b=st.floats(min_value=1.0, max_value=1e4),
    m=st.floats(min_value=0.0, max_value=50.0),
)
def test_property_power_law_monotone_non_increasing(a, b, m):
    ppm = PowerLawPPM(a=a, b=b, m=m)
    curve = ppm.predict_curve(np.arange(1, 49))
    assert np.all(np.diff(curve) <= 1e-12)


@settings(max_examples=50, deadline=None)
@given(
    s=st.floats(min_value=0.0, max_value=100.0),
    p=st.floats(min_value=0.0, max_value=1e4),
)
def test_property_amdahl_monotone_and_bounded_below_by_s(s, p):
    ppm = AmdahlPPM(s=s, p=p)
    curve = ppm.predict_curve(np.arange(1, 49))
    assert np.all(np.diff(curve) <= 1e-12)
    assert np.all(curve >= s - 1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_property_fits_are_always_monotone_even_on_noisy_data(seed):
    """Section 3.1: the PPM stays monotone regardless of input wiggles."""
    rng = np.random.default_rng(seed)
    n = np.arange(1, 49, dtype=float)
    base = 100.0 / n + 5.0
    noisy = base * rng.lognormal(0.0, 0.2, n.size)
    for fitted in (fit_power_law(n, noisy), fit_amdahl(n, noisy)):
        curve = fitted.predict_curve(n)
        assert np.all(np.diff(curve) <= 1e-9)
