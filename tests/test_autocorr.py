"""Lag autocorrelations: exact transforms vs cosine-quadrature and brute force."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fpinoise import (
    CoverageError,
    FpiParams,
    SourceParams,
    autocorr_from_spectrum,
    cavity_autocorr,
    cavity_field_spectrum,
    cavity_fluctuation_spectrum,
    commutator_spectrum,
    default_tau_grid,
    dominant_oscillation_frequency,
    mean_photon_number,
    reflected_autocorr,
    transmitted_autocorr,
)
from fpinoise.cavity import reflected_power, transmitted_power
from fpinoise.fluctuations import (
    SpectrumDecomposition,
    cavity_fluct_components,
    reflected_fluct_components,
    transmitted_fluct_components,
)
from fpinoise.source import source_linewidth

TAUS = default_tau_grid()


def _cosine_transform_oracle(spectrum_fn, tau: float) -> float:
    """(1/pi) * integral_0^inf S(w) cos(w tau) dw for an even spectrum S."""
    if tau == 0.0:
        body, _ = quad(spectrum_fn, 0.0, 60.0, limit=400, points=[0.0, 5.0])
        tail, _ = quad(spectrum_fn, 60.0, np.inf, limit=200)
        return (body + tail) / math.pi
    value, _ = quad(
        spectrum_fn, 0.0, np.inf, weight="cos", wvar=tau, limlst=300, limit=200
    )
    return value / math.pi


class TestCavityAutocorr:
    def test_zero_lag_reaches_thermal_variance(self, fpi, sweep_sources):
        for src in sweep_sources:
            n = mean_photon_number(fpi, src)
            ac = cavity_autocorr(fpi, src, TAUS)
            assert ac.values[0] == pytest.approx(n * (n + 1.0), rel=1e-10)
            assert ac.classical[0] == pytest.approx(n * n, rel=1e-10)
            assert ac.quantum[0] == pytest.approx(n, rel=1e-10)

    def test_components_sum_to_values(self, fpi):
        ac = cavity_autocorr(fpi, SourceParams(p_in=5.0), TAUS)
        assert np.allclose(ac.values, ac.classical + ac.quantum, rtol=0, atol=0)
        assert ac.delta_weight == 0.0

    def test_against_cosine_quadrature(self, fpi):
        src = SourceParams(p_in=5.0)
        ac = cavity_autocorr(fpi, src, np.array([0.0, 0.7, 3.1, 8.5]))
        for i, tau in enumerate((0.0, 0.7, 3.1, 8.5)):
            oracle = _cosine_transform_oracle(
                lambda w: sum(cavity_fluct_components(w, fpi, src)), tau
            )
            assert ac.values[i] == pytest.approx(oracle, abs=2e-8)

    def test_against_brute_force_double_integral(self, fpi):
        # direct two-frequency integral of the defining correlation, on
        # tabulated spectra: inner shift integral by trapezoid, outer
        # oscillatory integral by trapezoid against cos(w tau)
        src = SourceParams(p_in=1.5)
        inner_grid = np.linspace(-220.0, 220.0, 60001)
        n_tab = cavity_field_spectrum(inner_grid, fpi, src)
        c_tab = commutator_spectrum(inner_grid, fpi)
        outer_grid = np.linspace(-60.0, 60.0, 8001)

        def inner(w):
            shifted = np.interp(
                inner_grid + w, inner_grid, n_tab, left=0.0, right=0.0
            )
            return np.trapezoid(shifted * (n_tab + c_tab), inner_grid) / (2 * np.pi)

        inner_values = np.array([inner(w) for w in outer_grid])
        ac = cavity_autocorr(fpi, src, np.array([0.4, 1.9, 6.0]))
        scale = cavity_autocorr(fpi, src, np.array([0.0])).values[0]
        for i, tau in enumerate((0.4, 1.9, 6.0)):
            brute = np.trapezoid(
                inner_values * np.cos(outer_grid * tau), outer_grid
            ) / (2 * np.pi)
            # truncating the 1/w^2 quantum tail at the outer grid edge
            # limits the naive oracle to ~1e-4 of the zero-lag scale
            assert abs(ac.values[i] - brute) < 5e-4 * scale

    def test_weak_broad_drive_monotone(self, fpi):
        ac = cavity_autocorr(fpi, SourceParams(p_in=0.1), TAUS)
        assert np.all(np.diff(ac.values) <= 1e-12 * ac.values[0])

    def test_intermediate_drive_goes_negative(self, fpi):
        ac = cavity_autocorr(fpi, SourceParams(p_in=5.0), TAUS)
        assert ac.values.min() < 0.0

    def test_long_lag_decay(self, fpi):
        src = SourceParams(p_in=5.0)
        ac = cavity_autocorr(fpi, src, np.array([0.0, 40.0, 80.0]))
        assert abs(ac.values[1]) < 1e-4 * ac.values[0]
        assert abs(ac.values[2]) < 1e-8 * ac.values[0]


class TestTransmittedAutocorr:
    def test_normalized_starts_at_one(self, fpi, sweep_sources):
        for src in sweep_sources:
            ac = transmitted_autocorr(fpi, src, TAUS, normalized=True)
            assert ac.values[0] == pytest.approx(1.0, rel=1e-12)

    def test_zero_lag_is_squared_delta_weight(self, fpi, sweep_sources):
        # |2 kappa2 g1(0)|^2 = (2 kappa2 n)^2 = p_t^2
        for src in sweep_sources:
            ac = transmitted_autocorr(fpi, src, TAUS)
            assert ac.values[0] == pytest.approx(transmitted_power(fpi, src) ** 2, rel=1e-12)

    def test_delta_weight_is_transmitted_power(self, fpi):
        src = SourceParams(p_in=5.0)
        ac = transmitted_autocorr(fpi, src, TAUS)
        assert ac.delta_weight == pytest.approx(transmitted_power(fpi, src), rel=1e-13)

    def test_against_cosine_quadrature(self, fpi):
        src = SourceParams(p_in=0.1)
        taus = np.array([0.5, 2.0, 5.5])
        ac = transmitted_autocorr(fpi, src, taus)
        for i, tau in enumerate(taus):
            oracle = _cosine_transform_oracle(
                lambda w: transmitted_fluct_components(w, fpi, src)[0], float(tau)
            )
            # the oscillatory quadrature certifies ~1e-10 absolute
            assert ac.values[i] == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_weak_drive_no_sign_change(self, fpi):
        ac = transmitted_autocorr(fpi, SourceParams(p_in=0.1), TAUS)
        assert np.all(ac.values >= 0.0)

    def test_oscillation_at_the_detuning_beat(self, fpi):
        for p in (5.0, 50.0):
            ac = transmitted_autocorr(fpi, SourceParams(p_in=p), TAUS)
            freq = dominant_oscillation_frequency(ac.taus, ac.values)
            assert abs(freq - fpi.delta) / fpi.delta < 0.05


class TestReflectedAutocorr:
    def test_total_reflection_is_exact_exponential(self):
        fpi = FpiParams(kappa1=0.5, kappa2=0.0, kappa0=0.0, delta=5.0)
        src = SourceParams(p_in=5.0)
        ac, fit = reflected_autocorr(fpi, src, TAUS)
        assert fit.rms_deviation == pytest.approx(0.0, abs=1e-12)
        g = source_linewidth(src)
        assert np.allclose(
            ac.values, src.p_in**2 * np.exp(-2 * g * TAUS), rtol=1e-12, atol=0
        )

    def test_exponential_fit_within_five_percent(self, fpi, sweep_sources):
        for src in sweep_sources:
            _, fit = reflected_autocorr(fpi, src, TAUS)
            assert fit.rate == pytest.approx(2.0 * source_linewidth(src), rel=1e-14)
            assert fit.rms_deviation <= 0.05

    def test_zero_lag_matches_colored_variance(self, fpi):
        src = SourceParams(p_in=5.0)
        ac, _ = reflected_autocorr(fpi, src, TAUS)
        variance = _cosine_transform_oracle(
            lambda w: reflected_fluct_components(w, fpi, src)[0], 0.0
        )
        assert ac.values[0] == pytest.approx(variance, rel=1e-4)

    def test_zero_lag_is_squared_delta_weight(self, fpi, sweep_sources):
        # |pr1(0)|^2 = (R p_in)^2 = p_r^2
        for src in sweep_sources:
            ac, _ = reflected_autocorr(fpi, src, TAUS)
            assert ac.values[0] == pytest.approx(reflected_power(fpi, src) ** 2, rel=1e-12)

    def test_delta_weight_is_reflected_power(self, fpi):
        src = SourceParams(p_in=1.5)
        ac, _ = reflected_autocorr(fpi, src, TAUS)
        assert ac.delta_weight == pytest.approx(reflected_power(fpi, src), rel=1e-13)


class TestGridTransform:
    def test_lorentzian_to_exponential(self):
        g = 0.9
        grid = np.linspace(-800.0, 800.0, 320001)
        spec = SpectrumDecomposition(
            omegas=grid,
            classical=2.0 * (2 * g) / (grid**2 + (2 * g) ** 2),
            quantum=np.zeros_like(grid),
            white_floor=0.0,
        )
        taus = np.linspace(0.0, 8.0, 81)
        ac = autocorr_from_spectrum(spec, taus)
        assert np.allclose(ac.values, np.exp(-2 * g * taus), atol=2e-8)

    def test_matches_exact_path_for_cavity_spectrum(self, fpi):
        src = SourceParams(p_in=5.0)
        grid = np.linspace(-400.0, 400.0, 40001)
        spec = cavity_fluctuation_spectrum(grid, fpi, src)
        probe = np.linspace(0.0, 12.0, 25)
        via_grid = autocorr_from_spectrum(spec, probe)
        exact = cavity_autocorr(fpi, src, probe)
        scale = exact.values[0]
        assert np.max(np.abs(via_grid.values - exact.values)) < 1e-4 * scale
        assert np.max(np.abs(via_grid.classical - exact.classical)) < 1e-4 * scale
        assert np.max(np.abs(via_grid.quantum - exact.quantum)) < 1e-4 * scale

    def test_white_floor_becomes_delta_weight(self, fpi):
        src = SourceParams(p_in=1.5)
        grid = np.linspace(-400.0, 400.0, 80001)
        from fpinoise import transmitted_fluct_spectrum

        spec = transmitted_fluct_spectrum(grid, fpi, src)
        ac = autocorr_from_spectrum(spec, np.linspace(0.0, 5.0, 11))
        assert ac.delta_weight == spec.white_floor

    def test_truncated_grid_rejected(self, fpi):
        src = SourceParams(p_in=5.0)
        grid = np.linspace(-2.0, 2.0, 201)
        spec = cavity_fluctuation_spectrum(grid, fpi, src)
        with pytest.raises(CoverageError):
            autocorr_from_spectrum(spec, np.linspace(0.0, 5.0, 11))


class TestRoundTrip:
    def test_forward_transform_recovers_spectrum(self, fpi):
        # cosine-transform the exact lag curve back to frequencies:
        # S(w) = 2 * integral_0^inf v(tau) cos(w tau) dtau
        src = SourceParams(p_in=1.5)

        def lag_curve(tau):
            return float(cavity_autocorr(fpi, src, np.array([tau])).values[0])

        for w in (0.5, 2.0, 5.0, 7.5):
            forward, _ = quad(
                lag_curve, 0.0, np.inf, weight="cos", wvar=w, limlst=200, limit=100
            )
            spectrum = sum(cavity_fluct_components(w, fpi, src))
            assert 2.0 * forward == pytest.approx(spectrum, rel=1e-4)
