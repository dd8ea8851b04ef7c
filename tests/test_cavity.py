"""Cavity filter: mode spectra, energy balance, reflection/transmission."""

from dataclasses import replace

import numpy as np
import pytest

from fpinoise import (
    FpiParams,
    ParameterError,
    SourceParams,
    absorbed_fraction,
    absorbed_spectrum,
    adaptive_integral,
    cavity_field_spectrum,
    commutator_spectrum,
    input_spectrum,
    mean_photon_number,
    reflected_spectrum,
    reflection_coefficient,
    transmission_coefficient,
    transmitted_spectrum,
)
from fpinoise.cavity import (
    reflection_coefficient_hwhm,
    transmission_coefficient_hwhm,
    transmitted_power,
)
from fpinoise.lorentz import TWO_PI


class TestParams:
    def test_total_rate_is_derived(self, fpi):
        assert fpi.kappa_t == pytest.approx(1.1, rel=1e-15)

    def test_input_coupling_required(self):
        with pytest.raises(ParameterError):
            FpiParams(kappa1=0.0)
        with pytest.raises(ParameterError):
            FpiParams(kappa1=-0.3)

    def test_negative_loss_rejected(self):
        with pytest.raises(ParameterError):
            FpiParams(kappa0=-0.1)

    @pytest.mark.parametrize(
        "rates",
        [
            {"kappa1": 1e308},  # 2 kappa1 (kappa2 + kappa0) overflows: R, T and B were nan
            {"kappa1": 1e308, "kappa2": 1e308},
            {"kappa2": 1.7e308, "kappa0": 1.7e308},  # kappa_t overflows
        ],
    )
    def test_overflowing_rates_rejected(self, rates):
        with pytest.raises(ParameterError, match="^rates too large"):
            FpiParams(**rates)
        assert FpiParams(kappa1=1e300).kappa_t == 1e300


class TestCommutatorSpectrum:
    def test_peak_at_detuning(self, fpi):
        assert commutator_spectrum(fpi.delta, fpi) == pytest.approx(2.0 / 1.1, rel=1e-14)

    def test_normalization(self, fpi):
        est = adaptive_integral(lambda w: commutator_spectrum(w, fpi) / TWO_PI)
        assert est.value == pytest.approx(1.0, rel=1e-10)

    def test_value_at_zero(self, fpi):
        # L(5, 1.1) = 2.2 / 26.21
        assert commutator_spectrum(0.0, fpi) == pytest.approx(
            0.08393742846241893, rel=1e-12
        )


class TestCavityFieldSpectrum:
    def test_dark_source_gives_nothing(self, fpi):
        src = SourceParams(p_in=0.0)
        grid = np.linspace(-10, 15, 101)
        assert np.all(cavity_field_spectrum(grid, fpi, src) == 0.0)

    def test_integral_equals_mean_photon_number(self, fpi):
        for p in (0.1, 5.0, 50.0):
            src = SourceParams(p_in=p)
            est = adaptive_integral(lambda w: cavity_field_spectrum(w, fpi, src) / TWO_PI)
            assert est.value == pytest.approx(mean_photon_number(fpi, src), rel=1e-8)

    def test_two_peak_profile_at_strong_drive(self, fpi):
        src = SourceParams(p_in=5.0)
        grid = np.linspace(-10, 15, 5001)
        values = cavity_field_spectrum(grid, fpi, src)
        interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
        peaks = grid[1:-1][interior]
        assert len(peaks) == 2
        assert abs(peaks[0]) < 0.5  # near the drive-line center
        assert abs(peaks[1] - fpi.delta) < 1.0  # near the mode center


class TestMeanPhotonNumber:
    def test_zero_power(self, fpi):
        assert mean_photon_number(fpi, SourceParams(p_in=0.0)) == 0.0

    def test_strong_drive_value(self, fpi):
        assert mean_photon_number(fpi, SourceParams(p_in=50.0)) == pytest.approx(
            1.9995464749171852, rel=1e-12
        )

    def test_far_detuned_mode_empties(self):
        src = SourceParams(p_in=5.0)
        n_values = [
            mean_photon_number(FpiParams(delta=d), src) for d in (50.0, 100.0, 200.0)
        ]
        assert n_values[0] > n_values[1] > n_values[2]
        # 1/delta^2 falloff: quadrupling delta divides by ~16
        assert n_values[2] == pytest.approx(n_values[0] / 16.0, rel=0.05)


class TestPortSpectra:
    def test_closed_output_mirror(self, fpi):
        dark = replace(fpi, kappa2=0.0)
        src = SourceParams(p_in=5.0)
        grid = np.linspace(-10, 15, 101)
        assert np.all(transmitted_spectrum(grid, dark, src) == 0.0)

    def test_transmitted_integral_scaling(self, fpi):
        src = SourceParams(p_in=5.0)
        est = adaptive_integral(lambda w: transmitted_spectrum(w, fpi, src) / TWO_PI)
        assert est.value == pytest.approx(
            2.0 * fpi.kappa2 * mean_photon_number(fpi, src), rel=1e-8
        )

    def test_pointwise_energy_balance(self, fpi, sweep_sources):
        grid = np.linspace(-10, 15, 2001)
        for src in sweep_sources:
            total = (
                reflected_spectrum(grid, fpi, src)
                + transmitted_spectrum(grid, fpi, src)
                + absorbed_spectrum(grid, fpi, src)
            )
            drive = input_spectrum(grid, src)
            assert np.max(np.abs(total / drive - 1.0)) < 1e-12

    def test_lossless_single_mirror_reflects_everything(self):
        fpi = FpiParams(kappa1=0.5, kappa2=0.0, kappa0=0.0, delta=5.0)
        src = SourceParams(p_in=5.0)
        grid = np.linspace(-10, 15, 501)
        assert np.allclose(
            reflected_spectrum(grid, fpi, src), input_spectrum(grid, src), rtol=1e-14
        )

    def test_reflected_structure(self, fpi):
        src = SourceParams(p_in=5.0)
        grid = np.linspace(-10, 15, 5001)
        values = reflected_spectrum(grid, fpi, src)
        assert np.all(values >= 0.0)
        peak = grid[np.argmax(values)]
        assert abs(peak) < 0.1  # maximum at the drive-line center
        near_mode = (grid > fpi.delta - 1.5) & (grid < fpi.delta + 1.5)
        interior = np.where(near_mode)[0][1:-1]
        dips = [
            i
            for i in interior
            if values[i] < values[i - 1] and values[i] < values[i + 1]
        ]
        assert len(dips) == 1  # one gap at the mode center
        assert abs(grid[dips[0]] - fpi.delta) < 0.5


class TestCoefficients:
    def test_no_absorption_means_unitarity(self, rng):
        for _ in range(50):
            fpi = FpiParams(
                kappa1=rng.uniform(0.05, 2.0),
                kappa2=rng.uniform(0.0, 2.0),
                kappa0=0.0,
                delta=rng.uniform(-10, 10),
            )
            g = rng.uniform(0.0, 5.0)
            total = reflection_coefficient_hwhm(fpi, g) + transmission_coefficient_hwhm(fpi, g)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_monochromatic_resonant_limit(self):
        fpi = FpiParams(delta=0.0)
        # 4 k1 k2 / kt^2 and 1 - 4 k1 (k2+k0) / kt^2 at gamma_l -> 0
        assert transmission_coefficient_hwhm(fpi, 1e-6) == pytest.approx(
            0.8264462809917354, rel=1e-3
        )
        assert reflection_coefficient_hwhm(fpi, 1e-6) == pytest.approx(
            0.00826446280991755, rel=1e-3
        )

    def test_finite_linewidth_detuned_values(self, fpi):
        # gamma_l = 1.5 at p_in = 1, delta = 5
        assert reflection_coefficient_hwhm(fpi, 1.5) == pytest.approx(
            0.910693840164873, rel=1e-12
        )
        assert transmission_coefficient_hwhm(fpi, 1.5) == pytest.approx(
            0.0744217998626059, rel=1e-12
        )

    def test_detuning_symmetry(self, fpi, rng):
        src = SourceParams(p_in=1.0)
        for _ in range(20):
            d = rng.uniform(0.0, 12.0)
            plus = replace(fpi, delta=d)
            minus = replace(fpi, delta=-d)
            assert reflection_coefficient(plus, src) == reflection_coefficient(minus, src)
            assert transmission_coefficient(plus, src) == transmission_coefficient(minus, src)

    def test_linewidth_monotonicity_on_resonance(self):
        fpi = FpiParams(delta=0.0)
        widths = np.linspace(0.0, 5.0, 40)
        t_values = [transmission_coefficient_hwhm(fpi, g) for g in widths]
        r_values = [reflection_coefficient_hwhm(fpi, g) for g in widths]
        assert np.all(np.diff(t_values) < 0.0)
        assert np.all(np.diff(r_values) > 0.0)

    def test_bounds(self, rng):
        for _ in range(100):
            fpi = FpiParams(
                kappa1=rng.uniform(0.05, 3.0),
                kappa2=rng.uniform(0.0, 3.0),
                kappa0=rng.uniform(0.0, 3.0),
                delta=rng.uniform(-10, 10),
            )
            g = rng.uniform(0.0, 5.0)
            r = reflection_coefficient_hwhm(fpi, g)
            t = transmission_coefficient_hwhm(fpi, g)
            assert 0.0 <= t <= 1.0
            assert 0.0 <= r <= 1.0

    def test_flux_ratio_matches_coefficient(self, fpi):
        src = SourceParams(p_in=5.0)
        assert transmitted_power(fpi, src) / src.p_in == pytest.approx(
            transmission_coefficient(fpi, src), rel=1e-12
        )

    def test_fractions_sum_to_one(self, fpi, sweep_sources):
        for src in sweep_sources:
            total = (
                reflection_coefficient(fpi, src)
                + transmission_coefficient(fpi, src)
                + absorbed_fraction(fpi, src)
            )
            assert total == pytest.approx(1.0, abs=1e-12)
