"""Stochastic time-domain oracle: stationarity, spectra, reproducibility."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

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
    oracle,
    reflected_fluct_spectrum,
    simulate,
)
from fpinoise.errors import EstimatorVarianceWarning
from fpinoise.figures import oracle_product
from fpinoise.fluctuations import cavity_fluct_components
from fpinoise.oracle import (
    CHUNK_LENGTH,
    SEGMENT_LENGTH,
    _fluct_spectrum,
    stationary_input_power,
    stationary_photon_number,
    streamed_estimate,
    validate_sim_config,
)
from fpinoise.source import source_linewidth
from routes import complex_kick_realization, welch_route

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
        spec = intensity_fluct_spectrum(traj, SMALL)
        assert np.all(spec.values == 0.0)

    def test_real_pair_kicks_equal_the_complex_construction(self, fpi):
        cfg = SimConfig(n_steps=4096, n_realizations=2, burn_in=4096, seed=11)
        traj = simulate(fpi, SRC5, cfg)
        for r in range(2):
            x, a = complex_kick_realization(fpi, SRC5, cfg, r)
            assert np.array_equal(traj.input_amplitude[r], x)
            assert np.array_equal(traj.cavity_amplitude[r], a)

    @pytest.mark.parametrize(
        "n_steps, burn_in",
        [
            (4096, 0),  # no burn-in chunk
            (2 * CHUNK_LENGTH + 1000, 4096),  # not a multiple of the chunk
            (SimConfig.n_steps, SimConfig.burn_in),  # the default shape
        ],
    )
    def test_chunked_realizations_equal_the_complex_construction(
        self, fpi, monkeypatch, n_steps, burn_in
    ):
        # the chunking is under test here, not the stationarity check
        monkeypatch.setattr(oracle, "validate_sim_config", lambda *args: None)
        cfg = SimConfig(n_steps=n_steps, n_realizations=2, burn_in=burn_in, seed=11)
        traj = simulate(fpi, SRC5, cfg)
        for r in range(2):
            x, a = complex_kick_realization(fpi, SRC5, cfg, r)
            assert np.array_equal(traj.input_amplitude[r], x)
            assert np.array_equal(traj.cavity_amplitude[r], a)

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
        spec = _fluct_spectrum(np.abs(traj.input_amplitude) ** 2, cfg.dt, SEGMENT_LENGTH)
        mask = np.abs(spec.omegas) <= 10.0
        g = source_linewidth(SRC5)
        target = SRC5.p_in**2 * _lorentz(spec.omegas[mask], 2.0 * g)
        rms = np.sqrt(np.mean((spec.values[mask] - target) ** 2))
        assert rms / np.sqrt(np.mean(target**2)) <= 0.05

    def test_few_segments_warn(self, fpi):
        # one segment per row, four over the ensemble
        tiny = SimConfig(n_steps=SEGMENT_LENGTH, n_realizations=4, burn_in=4096)
        traj = simulate(fpi, SRC5, tiny)
        with pytest.warns(EstimatorVarianceWarning) as record:
            intensity_fluct_spectrum(traj, tiny)
        # the warning names the caller, not a helper inside the oracle
        assert record[0].filename == __file__

    def test_reflected_spectrum_matches_analytic(self):
        # the reflected field x - sqrt(2 kappa1) a, away from critical
        # coupling (kappa1 > kappa2 + kappa0).  a[n] is driven by x[n-1]
        # held over the step, a zero-order hold that lags the drive by
        # half a step, so a[n] pairs with the midpoint drive
        # (x[n-1] + x[n]) / 2: second order in dt, where pairing it with
        # x[n] or x[n-1] biases it by 1-3% at 2 <= |w| <= 10
        fpi = FpiParams(kappa1=1.0, kappa2=0.3, kappa0=0.1, delta=2.0)
        cfg = SimConfig(n_steps=65536, n_realizations=32, burn_in=8192)
        traj = simulate(fpi, SRC5, cfg)
        x, a = traj.input_amplitude, traj.cavity_amplitude
        rows = np.abs(0.5 * (x[:, :-1] + x[:, 1:]) - np.sqrt(2.0 * fpi.kappa1) * a[:, 1:]) ** 2
        spec = _fluct_spectrum(rows, cfg.dt, SEGMENT_LENGTH)
        per_run = np.array(
            [_fluct_spectrum(row[None], cfg.dt, SEGMENT_LENGTH).values for row in rows]
        )
        target = reflected_fluct_spectrum(spec.omegas, fpi, SRC5).colored
        # relative error averaged over a band: the ensemble estimate
        # against the standard error of the realizations' own estimates
        for low, high in ((0.2, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 10.0)):
            band = (np.abs(spec.omegas) >= low) & (np.abs(spec.omegas) < high)
            error = np.mean(spec.values[band] / target[band] - 1.0)
            per_run_error = np.mean(per_run[:, band] / target[band] - 1.0, axis=1)
            stderr = per_run_error.std(ddof=1) / np.sqrt(cfg.n_realizations)
            assert abs(error) <= 4.0 * stderr, (low, high, error, stderr)

    def test_halving_dt_is_second_order(self, fpi):
        # a first-order step bias would scale like dt * fastest rate
        # (about 5% here) and stand far above the seed-replication noise
        # floor of the smoothed estimate; halving dt must instead leave
        # the smoothed spectrum within ~the floor itself
        def smoothed(cfg, seg):
            traj = simulate(fpi, SRC5, cfg)
            spec = _fluct_spectrum(np.abs(traj.cavity_amplitude) ** 2, cfg.dt, seg)
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


class TestWelchEstimate:
    """The batched FFT estimate against per-row ``scipy.signal.welch``."""

    @pytest.fixture(scope="class")
    def intensity(self):
        cfg = SimConfig(n_steps=16384, n_realizations=4, burn_in=4096)
        return np.abs(simulate(FpiParams(), SRC5, cfg).cavity_amplitude) ** 2

    @pytest.mark.filterwarnings("ignore::fpinoise.errors.EstimatorVarianceWarning")
    @pytest.mark.parametrize(
        "n_steps, length",
        [
            (16384, 2048),  # even segment length
            (16384, 1001),  # odd segment length: the hop is 501, not 500
            (16384, 16384),  # one segment per row
            (10000, 2048),  # rows that are not a multiple of the hop
        ],
    )
    def test_agrees_with_scipy_welch(self, intensity, n_steps, length):
        rows = intensity[:, :n_steps]
        got = _fluct_spectrum(rows, SMALL.dt, length)
        want = welch_route(rows, SMALL.dt, length)
        assert np.array_equal(got.omegas, want.omegas)
        assert np.max(np.abs(got.values - want.values)) <= 1e-13 * np.max(want.values)

    @pytest.mark.parametrize("length", [0, 1, -4])
    def test_segment_length_below_two_rejected(self, intensity, length):
        with pytest.raises(ParameterError, match="segment_length"):
            _fluct_spectrum(intensity, SMALL.dt, length)

    def test_scipy_signal_loads_only_when_a_simulation_runs(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import sys\n"
            "import fpinoise, fpinoise.cli\n"
            "assert 'scipy.signal' not in sys.modules\n"
            "cfg = fpinoise.SimConfig(n_steps=64, n_realizations=2, burn_in=4096)\n"
            "fpinoise.simulate(fpinoise.FpiParams(), fpinoise.SourceParams(p_in=5.0), cfg)\n"
            "assert 'scipy.signal' in sys.modules\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert run.returncode == 0, run.stderr

    def test_residue_path_loads_neither_cmath_nor_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import sys\n"
            "import fpinoise, fpinoise.cli\n"
            "src = fpinoise.SourceParams(p_in=1.5)\n"
            "fpinoise.classical_noise_kernel(0.3, fpinoise.FpiParams(), src)\n"
            "assert 'cmath' not in sys.modules\n"
            "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize(
        "call",
        [
            "from fpinoise.figures import energy_split_fraction\n"
            "energy_split_fraction(fpinoise.FpiParams(), fpinoise.SourceParams(p_in=5.0))",
            # distinct poles 1e-10 apart: the residue sum falls back to quadrature
            "from fpinoise.lorentz import lorentz_product_integral, product\n"
            "lorentz_product_integral(product((0.0, 1.0), (1e-10, 1.0)))",
        ],
    )
    def test_scipy_integrate_loads_only_when_a_quadrature_runs(self, call):
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import sys, warnings\n"
            "import fpinoise, fpinoise.cli\n"
            "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
            "warnings.simplefilter('ignore')\n"
            f"{call}\n"
            "assert 'scipy.integrate' in sys.modules\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert run.returncode == 0, run.stderr


class TestStreamedOracle:
    """The oracle product holds no ensemble array, only each realization's Welch sums."""

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
        cfg = SimConfig(n_steps=16384, n_realizations=2, burn_in=4096)
        with pytest.warns(EstimatorVarianceWarning) as record:
            streamed_estimate(fpi, SRC5, cfg)
        # the warning names the caller, not a helper inside the oracle
        assert record[0].filename == __file__

    @staticmethod
    def _peak_bytes(fpi, cfg):
        # the scipy.signal import of the first simulation is not counted:
        # the routes module imported above has loaded it already
        tracemalloc.start()
        try:
            streamed_estimate(fpi, SRC5, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_grows_by_one_spectrum_row_per_realization_at_most(self, fpi, monkeypatch):
        # doubling R from 16 adds less than 16 rows of L/2 + 1 float64
        # bins: a realization is reduced to its Welch sums in the worker
        # that generates it, no (R, n_steps) array is held, and the sums
        # of |X|^2 go into one accumulator as they arrive
        def peak_bytes(n_realizations):
            cfg = SimConfig(n_steps=16384, n_realizations=n_realizations, burn_in=4096)
            return self._peak_bytes(fpi, cfg)

        # two workers on any machine, so no extra worker buffers enter the difference
        monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 2)
        growth = peak_bytes(32) - peak_bytes(16)
        assert growth <= 1.25 * 16 * (SEGMENT_LENGTH // 2 + 1) * 8

    def test_default_config_peak_memory(self, fpi, monkeypatch):
        # 48 realizations of 131,072 steps: a whole-ensemble |a|^2 array
        # alone would take 50 MB; two workers' rows, chunks and segment
        # FFTs take under 20 MB
        monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 2)
        assert self._peak_bytes(fpi, SimConfig()) < 20e6

    def test_a_second_worker_adds_one_workers_buffers_at_most(self, fpi, monkeypatch):
        # a worker holds one chunk's kicks, drive and cavity amplitudes
        # (48 bytes a step) and one float64 row of n_steps, or less than
        # that in the Welch stage; streamed_estimate owns those buffers
        def peak_bytes(workers):
            monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: workers)
            cfg = SimConfig(n_steps=16384, n_realizations=16, burn_in=4096)
            return self._peak_bytes(fpi, cfg)

        one_worker = CHUNK_LENGTH * 48 + 16384 * 8
        assert peak_bytes(2) - peak_bytes(1) <= 1.25 * one_worker


class TestThreads:
    """Realizations and Welch rows run on a thread pool without changing a bit."""

    CFG = SimConfig(n_steps=2 * CHUNK_LENGTH + 1000, n_realizations=5, burn_in=4096)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_changes_no_bit(self, fpi, monkeypatch, workers):
        def run(n):
            monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: n)
            threads = threading.active_count()
            spectrum, power, photons = streamed_estimate(fpi, SRC5, self.CFG)
            traj = simulate(fpi, SRC5, self.CFG)
            assert threading.active_count() == threads
            return spectrum.values, power, photons, traj.input_amplitude, traj.cavity_amplitude

        for serial, threaded in zip(run(1), run(workers)):
            assert np.array_equal(serial, threaded)

    def test_a_failing_realization_propagates(self, fpi, monkeypatch):
        stream = oracle._stream

        def failing_stream(seed, realization):
            if realization == 1:
                raise RuntimeError("realization 1 failed")
            return stream(seed, realization)

        monkeypatch.setattr(oracle, "_stream", failing_stream)
        monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 2)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="realization 1 failed"):
            streamed_estimate(fpi, SRC5, self.CFG)
        assert threading.active_count() == threads
