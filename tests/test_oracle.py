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
    Trajectory,
    cavity_autocorr,
    intensity_fluct_spectrum,
    mean_photon_number,
    oracle,
    reflected_fluct_spectrum,
    simulate,
    transmitted_fluct_spectrum,
)
from fpinoise.cli import main
from fpinoise.errors import EstimatorVarianceWarning
from fpinoise.figures import oracle_product
from fpinoise.fluctuations import cavity_fluct_components
from fpinoise.oracle import (
    CHUNK_LENGTH,
    SEGMENT_LENGTH,
    streamed_estimate,
    validate_sim_config,
)
from fpinoise.source import source_linewidth
from routes import (
    complex_kick_realization,
    stationary_input_power,
    stationary_photon_number,
    welch_route,
)

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

    @pytest.mark.parametrize("field", ["n_steps", "n_realizations", "seed", "burn_in"])
    def test_integer_fields_reject_floats(self, field):
        # seed 1.5 ran seed 1's stream; the others failed with a TypeError in the run
        with pytest.raises(ParameterError, match=f"^{field} must be an integer, got 16384.5"):
            SimConfig(**{field: 16384.5})
        value = np.uint64(16384) if field == "seed" else np.int64(16384)
        assert getattr(SimConfig(**{field: value}), field) == 16384

    def test_short_burn_in_rejected(self, fpi):
        with pytest.raises(ConfigError):
            validate_sim_config(SimConfig(burn_in=10), fpi, SRC5)

    def test_burn_in_error_prints_a_large_count_in_short_form(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="need at least 2000 steps$"):
            validate_sim_config(SimConfig(burn_in=10), FpiParams(), SourceParams(p_in=5.0))
        # the count had 302 digits
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text("sim.dt = 1e-300\n")
        assert main(["oracle", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: sim.burn_in = ")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize(
        "text",
        [
            "sim.dt = 1e-320",  # 10 / (dt * slowest rate) overflows to inf
            "sim.dt = 1e-310\nsource.gamma_max = 1e-10\nsource.p_in = 0",
            "sim.dt = 5e-324\nsource.gamma_max = 0.1",  # dt * slowest rate underflows to 0
        ],
    )
    def test_subnormal_step_exits_2_as_a_burn_in_error(self, tmp_path, capsys, text):
        # the step count was converted to an int: OverflowError or ZeroDivisionError, exit 1
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text(f"{text}\n")
        assert main(["oracle", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("configuration error: sim.burn_in = ")

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
            (4096, 2 * CHUNK_LENGTH + 1000),  # a burn-in of three chunks
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
        spec = welch_route(np.abs(traj.input_amplitude) ** 2, cfg.dt, SEGMENT_LENGTH)
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
        spec = welch_route(rows, cfg.dt, SEGMENT_LENGTH)
        per_run = np.array(
            [welch_route(row[None], cfg.dt, SEGMENT_LENGTH).values for row in rows]
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
            spec = welch_route(np.abs(traj.cavity_amplitude) ** 2, cfg.dt, seg)
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

    CFG = SimConfig(n_steps=3 * SEGMENT_LENGTH, n_realizations=4, burn_in=4096)

    @pytest.fixture(scope="class")
    def trajectory(self):
        return simulate(FpiParams(), SRC5, self.CFG)

    @pytest.mark.filterwarnings("ignore::fpinoise.errors.EstimatorVarianceWarning")
    @pytest.mark.parametrize(
        "n_steps",
        [
            3 * SEGMENT_LENGTH,  # five half-overlapping segments per row
            20000,  # rows that are not a multiple of the hop
            SEGMENT_LENGTH,  # one segment per row
            SEGMENT_LENGTH - 1,  # one odd segment per row
        ],
    )
    def test_agrees_with_scipy_welch(self, trajectory, n_steps):
        cut = Trajectory(
            input_amplitude=trajectory.input_amplitude[:, :n_steps],
            cavity_amplitude=trajectory.cavity_amplitude[:, :n_steps],
        )
        got = intensity_fluct_spectrum(cut, self.CFG)
        want = welch_route(np.abs(cut.cavity_amplitude) ** 2, self.CFG.dt, SEGMENT_LENGTH)
        assert np.array_equal(got.omegas, want.omegas)
        assert np.max(np.abs(got.values - want.values)) <= 1e-13 * np.max(want.values)

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
            "from fpinoise.lorentz import LorentzProduct, Lorentzian, lorentz_product_integral\n"
            "lorentz_product_integral(LorentzProduct((Lorentzian(0.0, 1.0), Lorentzian(1e-10, 1.0))))",
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
    def _run(fpi, n_steps=16384, **sim):
        cfg = SimConfig(n_steps=n_steps, burn_in=4096, **sim)
        return cfg, oracle_product(RunConfig(fpi=fpi, source=SRC5, sim=cfg))

    @pytest.mark.parametrize(
        "seed, n_steps",
        [
            pytest.param(3, 16384, id="3"),
            pytest.param(20260810, 16384, id="20260810"),
            # rows shorter than a segment: one odd segment per realization
            pytest.param(3, SEGMENT_LENGTH - 1, id="3-odd-row"),
            pytest.param(20260810, SEGMENT_LENGTH - 1, id="20260810-odd-row"),
        ],
    )
    def test_product_equals_the_whole_ensemble_routes(self, fpi, recwarn, seed, n_steps):
        cfg, ds = self._run(fpi, n_steps, n_realizations=4, seed=seed)
        traj = simulate(fpi, SRC5, cfg)
        spec = intensity_fluct_spectrum(traj, cfg)
        assert np.array_equal(ds.series["omega"], spec.omegas)
        assert np.array_equal(ds.series["estimated"], spec.values)
        meta = ds.metadata
        assert (meta["input_power_mean"], meta["input_power_stderr"]) == stationary_input_power(traj)
        assert (meta["photon_number_mean"], meta["photon_number_stderr"]) == (
            stationary_photon_number(traj)
        )
        # one segment per row is 4 over the ensemble, and each route warns once
        warned = [str(w.message) for w in recwarn if w.category is EstimatorVarianceWarning]
        expected = ["only 4 periodogram segments; the estimate variance is high"] * 2
        assert warned == (expected if n_steps < SEGMENT_LENGTH else [])

    def test_few_segments_warn(self, fpi):
        with pytest.warns(EstimatorVarianceWarning) as record:
            self._run(fpi, n_realizations=2)
        # the warning names the product's caller, not the product inside the package
        assert record[0].filename == __file__
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

    def test_peak_memory_does_not_grow_with_the_burn_in(self, fpi, monkeypatch):
        # the burn-in is generated CHUNK_LENGTH steps at a time too; as one
        # chunk it held its kicks, drive and cavity amplitudes, 2.1 MB more
        monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 1)

        def peak_bytes(burn_in):
            cfg = SimConfig(n_steps=16384, n_realizations=2, burn_in=burn_in)
            return self._peak_bytes(fpi, cfg)

        with pytest.warns(EstimatorVarianceWarning):
            growth = peak_bytes(5 * CHUNK_LENGTH + 123) - peak_bytes(CHUNK_LENGTH)
        assert growth < 0.25e6


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


# the drive and cavity of the reflected-field check, at the coarsest step
# that validate_sim_config admits (0.05 / |delta|): lag curves need long
# records, 105,000 time units over the ensemble, more than fine steps
LAG_FPI = FpiParams(kappa1=1.0, kappa2=0.3, kappa0=0.1, delta=2.0)
LAG_SIM = SimConfig(dt=0.025, n_steps=131072, n_realizations=32, burn_in=8192)


@pytest.fixture(scope="module")
def lag_ensemble():
    """One seeded ensemble for the lag-domain checks, simulated once per module."""
    return simulate(LAG_FPI, SRC5, LAG_SIM)


class TestLagCurves:
    """The closed-form lag curves against the simulated intensity's autocovariance."""

    def test_cavity_classical_curve_matches_the_ensemble(self, lag_ensemble):
        n = LAG_SIM.n_steps
        lags = np.arange(25) * 20  # tau = 0, 0.5, ..., 12
        intensity = np.abs(lag_ensemble.cavity_amplitude) ** 2
        means = intensity.mean(axis=1)
        # each realization's autocovariance of |a|^2 less its own mean, by a
        # zero-padded FFT (no circular wrap), averaged over the n - k pairs
        per_run = np.empty((LAG_SIM.n_realizations, lags.size))
        for r, row in enumerate(intensity):
            spectrum = np.fft.rfft(row - means[r], 2 * n)
            per_run[r] = np.fft.irfft(np.abs(spectrum) ** 2, 2 * n)[lags] / (n - lags)
        # a control variate (Glasserman, Monte Carlo Methods in Financial
        # Engineering, 2004, sec. 4.1): a realization's mean m_r has the known
        # expectation n, and its autocovariance rises with it (correlation
        # about 0.8 at zero lag); the intercept at m_r = n of a straight-line
        # fit across realizations has about 0.6 of the plain mean's standard
        # error at short lags, where a scale error in the curve shows most,
        # and the fit's covariance gives that error from the realizations'
        # own scatter
        nbar = mean_photon_number(LAG_FPI, SRC5)
        coef, cov = np.polyfit(means / nbar - 1.0, per_run, 1, cov=True)
        estimate, stderr = coef[1], np.sqrt(cov[1, 1])
        # removing a record's own mean lowers every lag by Var(m_r), which is
        # S(0) / T to first order in the correlation time over the record
        # length T (Priestley, Spectral Analysis and Time Series, 1981,
        # sec. 5.3), S(0) the classical spectrum at zero frequency; corrected
        # here, the correction is 0.07% of C(0) and a tenth of its error
        estimate += cavity_fluct_components(0.0, LAG_FPI, SRC5)[0] / (n * LAG_SIM.dt)
        target = cavity_autocorr(LAG_FPI, SRC5, lags * LAG_SIM.dt).classical
        # 25 correlated lags, each within 4 standard errors; the curve
        # scaled by 1.05 or 0.95 misses by more than 6 at zero lag
        z = (estimate - target) / stderr
        assert np.max(np.abs(z)) <= 4.0, z

    @pytest.mark.parametrize("port", ("transmitted", "reflected"))
    def test_photocounts_carry_the_white_floor(self, lag_ensemble, port):
        # counts N_n ~ Poisson(r_n dt) at the port's power r_n: the rate is
        # itself random, so the spectrum of N/dt is the rate's colored
        # spectrum plus its mean, the port's white floor (Mandel's
        # semiclassical photodetection; Mandel & Wolf, Optical Coherence and
        # Quantum Optics, 1995, ch. 9 and 14)
        x, a = lag_ensemble.input_amplitude, lag_ensemble.cavity_amplitude
        if port == "transmitted":
            power, spectrum = 2.0 * LAG_FPI.kappa2 * np.abs(a) ** 2, transmitted_fluct_spectrum
        else:
            # the midpoint drive pairing of the reflected colored check above
            field = 0.5 * (x[:, :-1] + x[:, 1:]) - np.sqrt(2.0 * LAG_FPI.kappa1) * a[:, 1:]
            power, spectrum = np.abs(field) ** 2, reflected_fluct_spectrum
        dt = LAG_SIM.dt
        counts = np.random.default_rng(LAG_SIM.seed).poisson(power * dt) / dt
        spec = welch_route(counts, dt, SEGMENT_LENGTH)
        per_run = np.array([welch_route(row[None], dt, SEGMENT_LENGTH).values for row in counts])
        target = spectrum(spec.omegas, LAG_FPI, SRC5).total
        # the floor is a third (transmitted) or a sixth (reflected) of the
        # total below |w| = 1 and all of it above 30, below Nyquist at 125.7;
        # band by band as in the reflected colored check.  Above |w| = 3 the
        # floor scaled by 1.05 misses by more than 6 standard errors, and the
        # colored part alone by more than 100
        for low, high in ((0.0, 1.0), (1.0, 3.0), (3.0, 10.0), (10.0, 30.0), (30.0, 100.0)):
            band = (np.abs(spec.omegas) > low) & (np.abs(spec.omegas) <= high)
            error = np.mean(spec.values[band] / target[band] - 1.0)
            per_run_error = np.mean(per_run[:, band] / target[band] - 1.0, axis=1)
            stderr = per_run_error.std(ddof=1) / np.sqrt(LAG_SIM.n_realizations)
            assert abs(error) <= 4.0 * stderr, (low, high, error, stderr)
