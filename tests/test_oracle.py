"""Stochastic time-domain oracle: stationarity, spectra, reproducibility."""

import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import uniform_filter1d

from fpinoise import (
    ConfigError,
    FpiParams,
    ParameterError,
    RunConfig,
    SimConfig,
    SourceParams,
    intensity_fluct_spectrum,
    mean_photon_number,
    simulate,
)
from fpinoise.errors import EstimatorVarianceWarning
from fpinoise.figures import oracle_product
from fpinoise.fluctuations import cavity_fluct_components
from fpinoise.oracle import (
    stationary_input_power,
    stationary_photon_number,
    validate_sim_config,
)
from fpinoise.source import source_linewidth

SRC5 = SourceParams(p_in=5.0)
SMALL = SimConfig(n_steps=16384, n_realizations=8, burn_in=4096)


def _lorentz(w, k):
    return 2.0 * k / (w * w + k * k)


class TestSimulate:
    def test_same_seed_bit_identical(self, fpi):
        a = simulate(fpi, SRC5, SMALL)
        b = simulate(fpi, SRC5, SMALL)
        assert np.array_equal(a.input_amplitude, b.input_amplitude)
        assert np.array_equal(a.cavity_amplitude, b.cavity_amplitude)

    def test_different_seeds_differ(self, fpi):
        a = simulate(fpi, SRC5, SMALL)
        b = simulate(fpi, SRC5, replace_seed(SMALL, 1))
        assert not np.array_equal(a.input_amplitude, b.input_amplitude)

    def test_stationary_input_power(self, fpi):
        traj = simulate(fpi, SRC5, SimConfig(n_steps=65536, n_realizations=16, burn_in=4096))
        mean, err = stationary_input_power(traj)
        assert abs(mean - SRC5.p_in) < 3.0 * err

    def test_stationary_photon_number(self, fpi):
        traj = simulate(fpi, SRC5, SimConfig(n_steps=65536, n_realizations=16, burn_in=4096))
        mean, err = stationary_photon_number(traj)
        assert abs(mean - mean_photon_number(fpi, SRC5)) < 3.0 * err

    def test_unstable_step_rejected_before_running(self, fpi):
        with pytest.raises(ConfigError):
            simulate(fpi, SRC5, SimConfig(dt=0.1, n_steps=1024, burn_in=8192))

    def test_single_realization_rejected(self):
        # a standard error across realizations needs at least two
        with pytest.raises(ParameterError, match="n_realizations >= 2"):
            SimConfig(n_realizations=1)

    def test_short_burn_in_rejected(self, fpi):
        with pytest.raises(ConfigError):
            validate_sim_config(SimConfig(burn_in=10), fpi, SRC5)

    def test_zero_input_stays_dark(self, fpi):
        traj = simulate(fpi, SourceParams(p_in=0.0), SMALL)
        assert np.all(traj.input_amplitude == 0.0)
        assert np.all(traj.cavity_amplitude == 0.0)
        spec = intensity_fluct_spectrum(traj, SMALL, segment_length=2048)
        assert np.all(spec.values == 0.0)

    def test_trajectory_shapes(self, fpi):
        traj = simulate(fpi, SRC5, SMALL)
        assert traj.input_amplitude.shape == (8, 16384)
        assert traj.cavity_amplitude.shape == (8, 16384)
        assert traj.times.shape == (16384,)


def replace_seed(cfg: SimConfig, seed: int) -> SimConfig:
    from dataclasses import replace

    return replace(cfg, seed=seed)


class TestIntensitySpectrum:
    def test_cavity_spectrum_matches_analytic_classical(self, fpi):
        cfg = SimConfig()
        traj = simulate(fpi, SRC5, cfg)
        spec = intensity_fluct_spectrum(traj, cfg)
        mask = np.abs(spec.omegas) <= 10.0
        analytic = cavity_fluct_components(spec.omegas[mask], fpi, SRC5)[0]
        rms = np.sqrt(np.mean((spec.values[mask] - analytic) ** 2))
        assert rms / np.sqrt(np.mean(analytic**2)) <= 0.05

    def test_input_spectrum_matches_drive_selfbeat(self, fpi):
        cfg = SimConfig()
        traj = simulate(fpi, SRC5, cfg)
        spec = intensity_fluct_spectrum(traj, cfg, signal="input")
        mask = np.abs(spec.omegas) <= 10.0
        g = source_linewidth(SRC5)
        target = SRC5.p_in**2 * _lorentz(spec.omegas[mask], 2.0 * g)
        rms = np.sqrt(np.mean((spec.values[mask] - target) ** 2))
        assert rms / np.sqrt(np.mean(target**2)) <= 0.05

    def test_few_segments_warn(self, fpi):
        tiny = SimConfig(n_steps=16384, n_realizations=4, burn_in=4096)
        traj = simulate(fpi, SRC5, tiny)
        with pytest.warns(EstimatorVarianceWarning):
            intensity_fluct_spectrum(traj, tiny, segment_length=16384)

    def test_halving_dt_is_second_order(self, fpi):
        # a first-order step bias would scale like dt * fastest rate
        # (about 5% here) and stand far above the seed-replication noise
        # floor of the smoothed estimate; halving dt must instead leave
        # the smoothed spectrum within ~the floor itself
        def smoothed(cfg, seg):
            spec = intensity_fluct_spectrum(simulate(fpi, SRC5, cfg), cfg, segment_length=seg)
            mask = np.abs(spec.omegas) <= 10.0
            return spec.omegas[mask], uniform_filter1d(spec.values, 81)[mask]

        probe, base = smoothed(SimConfig(n_realizations=24), 8192)
        _, replica = smoothed(SimConfig(n_realizations=24, seed=77), 8192)
        fine_grid, fine = smoothed(
            SimConfig(dt=0.005, n_steps=262144, n_realizations=24, burn_in=16384), 16384
        )
        fine_on_probe = np.interp(probe, fine_grid, fine)
        scale = np.sqrt(np.mean(base**2))
        noise_floor = np.sqrt(np.mean((base - replica) ** 2)) / scale
        dt_change = np.sqrt(np.mean((base - fine_on_probe) ** 2)) / scale
        assert dt_change < max(1.5 * noise_floor, 0.01)
        assert dt_change < 0.05  # far below any first-order bias scale


class TestStreamedOracle:
    """The oracle product runs one realization at a time."""

    @staticmethod
    def _run(fpi, **sim):
        cfg = SimConfig(n_steps=16384, burn_in=4096, **sim)
        return cfg, oracle_product(RunConfig(fpi=fpi, source=SRC5, sim=cfg))

    @pytest.mark.parametrize("seed", [3, 20260810])
    def test_product_equals_the_whole_ensemble_routes(self, fpi, seed):
        cfg, ds = self._run(fpi, n_realizations=4, seed=seed)
        traj = simulate(fpi, SRC5, cfg)
        spec = intensity_fluct_spectrum(traj, cfg)
        assert np.array_equal(ds.series["omega"], spec.omegas)
        assert np.array_equal(ds.series["estimated"], spec.values)
        meta = ds.metadata
        assert (meta["input_power_mean"], meta["input_power_stderr"]) == stationary_input_power(traj)
        assert (meta["photon_number_mean"], meta["photon_number_stderr"]) == (
            stationary_photon_number(traj)
        )

    def test_few_segments_warn(self, fpi):
        with pytest.warns(EstimatorVarianceWarning):
            self._run(fpi, n_realizations=2)

    def test_memory_grows_by_the_intensity_rows_only(self, fpi):
        # doubling R from 16 adds 16 float64 rows of |a|^2 (n_steps) and of
        # the per-run periodogram (8192 bins); the whole complex ensemble
        # is never held at once
        def peak_bytes(n_realizations):
            tracemalloc.start()
            try:
                self._run(fpi, n_realizations=n_realizations)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = peak_bytes(32) - peak_bytes(16)
        assert growth <= 1.25 * 16 * (16384 + 8192) * 8
