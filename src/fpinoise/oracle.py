"""Time-domain stochastic validation of the classical (colored) noise terms.

The drive is modeled as a complex Ornstein-Uhlenbeck process x(t) with
relaxation rate gamma_l and stationary power <|x|^2> = p_in, so its
spectrum is exactly p_in * L(w, gamma_l).  The cavity amplitude follows
the linear filter

    da/dt = -(i delta + kappa_t) a + sqrt(2 kappa1) x,

integrated with the exact exponential propagator (input held piecewise
constant over a step), and the intensity fluctuation spectrum of
|a(t)|^2 is estimated by averaged periodograms (Welch, IEEE Trans.
Audio Electroacoust. 15 (1967) 70): each realization's Hann-windowed,
half-overlapping segments go through one batched real FFT, the sums of
|X|^2 are added up over realizations, and the averaged one-sided |X|^2
is mirrored onto the two-sided axis.  Being a
classical simulation, it reproduces the classical self-beat terms only;
the colored quantum contribution and the white floors are outside its
reach by construction.

Realizations run on a thread pool, one worker per usable CPU, each
generated ``CHUNK_LENGTH`` steps at a time, burn-in too.
:func:`streamed_estimate`, behind the ``oracle`` product, reduces each
realization in the worker that generates it to its means and its Welch
sums, so it holds no ensemble array: its peak memory is, per worker, two
float64 rows of n_steps and either one chunk's amplitudes or one batch of
segment FFTs, plus one accumulator of L/2 + 1 bins for L-sample segments.
:func:`simulate` stacks the same realizations into a :class:`Trajectory`.
No bit depends on the worker count: realization r draws from its own
(seed, r) stream, chunked draws and ``lfilter`` calls with carried state
equal the one-shot calls, and the Welch sums are added up in row order.
The numpy and ``lfilter`` kernels release the GIL.

``scipy.signal`` (for the ``lfilter`` recurrences) is imported only when
a simulation first runs, so importing the package does not load it.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cavity import FpiParams, SpectrumGrid
from .errors import ConfigError, EstimatorVarianceWarning, ParameterError, warn_at_caller
from .lorentz import TWO_PI
from .source import SourceParams, source_linewidth

# samples per periodogram segment of the Welch estimate
SEGMENT_LENGTH = 8192
# steps generated at a time within a realization, burn-in included
CHUNK_LENGTH = 2 * SEGMENT_LENGTH
# Welch segments per batched FFT: glibc malloc reuses 8-segment buffers
# (0.5 MB at the default segment length) from batch to batch, where it
# handed whole-row buffers of 2 MB back to the OS after every realization
# (about 60,000 more page faults per default oracle run, 2-core Linux)
FFT_BATCH = 8


@dataclass(frozen=True)
class SimConfig:
    """Step size, length, ensemble size and seeding of a simulation run.

    Stability and stationarity constraints are checked against the
    physical rates in :func:`validate_sim_config`:
    dt <= 0.05 / max(gamma_l, kappa_t, |delta|) resolves the fastest
    scale, and burn_in >= 10 / (dt * min(gamma_l, kappa_t)) discards the
    pre-stationary transient.
    """

    dt: float = 0.01
    n_steps: int = 131072
    n_realizations: int = 48
    seed: int = 20260810
    burn_in: int = 8192

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ParameterError("dt must be positive")
        for name in ("n_steps", "n_realizations", "seed", "burn_in"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {getattr(self, name)!r}")
        # a standard error across realizations needs at least two of them
        if self.n_steps < 2 or self.n_realizations < 2 or self.burn_in < 0:
            raise ParameterError("n_steps >= 2, n_realizations >= 2, burn_in >= 0 required")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must be an integer in [0, 2**64)")


@dataclass(frozen=True)
class Trajectory:
    """Stationary section of an ensemble of simulated runs.

    ``input_amplitude`` and ``cavity_amplitude`` are complex arrays of
    shape (n_realizations, n_steps), sampled every ``SimConfig.dt``.
    """

    input_amplitude: np.ndarray
    cavity_amplitude: np.ndarray


def validate_sim_config(cfg: SimConfig, fpi: FpiParams, src: SourceParams) -> None:
    """Raise :class:`ConfigError` when the step or burn-in is inadequate."""
    g = source_linewidth(src)
    fastest = max(g, fpi.kappa_t, abs(fpi.delta))
    if cfg.dt > 0.05 / fastest:
        raise ConfigError(
            f"sim.dt = {cfg.dt:g} too coarse for the fastest rate {fastest:g}; "
            f"need dt <= {0.05 / fastest:g}"
        )
    # a subnormal dt makes the product 0.0 or the quotient inf: no step count suffices
    span = cfg.dt * min(g, fpi.kappa_t)
    needed = 10.0 / span if span > 0.0 else math.inf
    if cfg.burn_in < needed:
        if math.isfinite(needed):
            need = f"need at least {math.ceil(needed)} steps"
        else:
            need = f"no step count is enough at sim.dt = {cfg.dt:g}"
        raise ConfigError(f"sim.burn_in = {cfg.burn_in} too short to reach stationarity; {need}")


def _stream(seed: int, realization: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, realization index)."""
    key = np.array([seed, realization], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _worker_count(n_tasks: int) -> int:
    """Threads for ``n_tasks`` independent tasks: one per usable CPU, at most one per task."""
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), n_tasks)
    return min(os.cpu_count() or 1, n_tasks)


def _thread_map(fn, n_tasks: int):
    """Yield ``fn(0), ..., fn(n_tasks - 1)`` in order, computed on a thread pool."""
    with ThreadPoolExecutor(_worker_count(n_tasks)) as pool:
        yield from pool.map(fn, range(n_tasks))


def _realization_chunks(fpi: FpiParams, src: SourceParams, cfg: SimConfig):
    """Generator factory over one realization's stationary drive and cavity amplitudes.

    The configuration is validated at the call.  ``chunks(r)`` runs
    realization ``r``, burn-in and stationary steps ``CHUNK_LENGTH`` at a
    time, yielding (offset, x, a) for each stationary chunk.
    The drive update is the exact discrete-time Ornstein-Uhlenbeck
    solution (exponential decay plus an exactly scaled complex Gaussian
    increment), and the cavity update the exact exponential propagator
    with the drive held constant over each step; neither carries
    first-order step bias.  Fixed (seed, realization) keys make every
    trajectory bit-reproducible and realizations independent.
    """
    # scipy.signal takes about 0.6 s to import; only a simulation needs it
    from scipy.signal import lfilter

    validate_sim_config(cfg, fpi, src)
    g = source_linewidth(src)
    lam = complex(fpi.kappa_t, fpi.delta)

    decay = math.exp(-g * cfg.dt)
    step_std = math.sqrt(src.p_in * (1.0 - decay * decay))
    cavity_decay = np.exp(-lam * cfg.dt)
    drive_gain = math.sqrt(2.0 * fpi.kappa1) * (1.0 - cavity_decay) / lam
    steps = (cfg.burn_in, cfg.n_steps)
    sizes = [min(CHUNK_LENGTH, n - s) for n in steps for s in range(0, n, CHUNK_LENGTH)]

    def chunks(r: int):
        rng = _stream(cfg.seed, r)
        # filter states carried from chunk to chunk
        x_state = np.zeros((1, 2))
        a_state = np.zeros(1, dtype=np.complex128)
        offset = -cfg.burn_in
        for size in sizes:
            # (real, imaginary) pairs of the complex kicks, in draw order
            kicks = rng.standard_normal((size, 2))
            kicks *= step_std / math.sqrt(2.0)
            # x[n] = decay * x[n-1] + kick[n]; the real decay filters both parts alike
            x, x_state = lfilter([1.0], [1.0, -decay], kicks, axis=0, zi=x_state)
            del kicks  # a chunk holds only x and a while it is consumed
            x = x.view(np.complex128).ravel()
            # a[n] = cavity_decay * a[n-1] + drive_gain * x[n-1]
            a, a_state = lfilter([0.0, drive_gain], [1.0, -cavity_decay], x, zi=a_state)
            if offset >= 0:
                yield offset, x, a
            offset += size

    return chunks


def simulate(fpi: FpiParams, src: SourceParams, cfg: SimConfig) -> Trajectory:
    """Generate the stationary drive and cavity amplitudes of every realization."""
    chunks = _realization_chunks(fpi, src, cfg)
    x = np.empty((cfg.n_realizations, cfg.n_steps), dtype=np.complex128)
    a = np.empty_like(x)

    def store(r: int) -> None:
        for offset, drive, cavity in chunks(r):
            x[r, offset : offset + drive.size] = drive
            a[r, offset : offset + drive.size] = cavity

    for _ in _thread_map(store, cfg.n_realizations):
        pass
    return Trajectory(input_amplitude=x, cavity_amplitude=a)


def _welch_layout(n_runs: int, n_steps: int):
    """Segments per row and periodic Hann window of the Welch estimate.

    Segments of ``min(SEGMENT_LENGTH, n_steps)`` samples overlap by half
    a segment.  Fewer than 8 segments over the ensemble raise an
    :class:`EstimatorVarianceWarning`.
    """
    length = min(SEGMENT_LENGTH, n_steps)
    count = (n_steps - length // 2) // (length - length // 2)
    if n_runs * count < 8:
        warn_at_caller(
            f"only {n_runs * count} periodogram segments; the estimate variance is high",
            EstimatorVarianceWarning,
        )
    # periodic Hann window, as scipy.signal.get_window("hann", length)
    window = 0.5 + 0.5 * np.cos(np.linspace(-math.pi, math.pi, length + 1))[:-1]
    return count, window


def _row_sums(row: np.ndarray, mean: float, window: np.ndarray, count: int):
    """One row's Welch sums: (mean, sum of |X_k|^2, sum of X_k at k = 0, 1).

    X is the real FFT of a Hann-windowed segment of ``row - mean``; the
    sums run over the row's ``count`` half-overlapping segments, taken
    ``FFT_BATCH`` at a time through one batched FFT.
    """
    length = window.size
    segments = sliding_window_view(row - mean, length)[:: length - length // 2][:count]
    squares = np.zeros(length // 2 + 1)
    firsts = np.zeros(2, dtype=np.complex128)
    for start in range(0, count, FFT_BATCH):
        spectra = np.fft.rfft(segments[start : start + FFT_BATCH] * window, axis=1)
        squares += np.sum(spectra.real**2 + spectra.imag**2, axis=0)
        firsts += spectra[:, :2].sum(axis=0)
    return mean, squares, firsts


def _welch_density(rows, n_runs: int, window: np.ndarray, count: int, dt: float) -> SpectrumGrid:
    """Welch density of the ensemble from each row's :func:`_row_sums`.

    ``rows`` yields the sums in row order, and they are added up in that
    order.  Each row's FFTs saw the row less its own mean m_r; with the
    ensemble mean m removed instead, every segment's X gains
    (m_r - m) W, W = rfft(window), which for the periodic Hann window is
    nonzero at bins 0 and 1 only.  So those two bins gain
    2 (m_r - m) Re(S1_r conj W) + count (m_r - m)^2 |W|^2 per row, S1_r
    being the row's sum of X there, and the FFTs never see the large
    mean.  The average over segments and rows is scaled to a density.
    The intensity is real, so |X_{L-k}| = |X_k| and the one-sided bins
    P_0..P_{L//2} mirror onto the two-sided axis as
    [P_0..P_{L//2}, P_{(L+1)//2-1}..P_1] (the fftfreq order), which
    fftshift puts in increasing frequency.
    """
    length = window.size
    power = np.zeros(length // 2 + 1)
    means = np.empty(n_runs)
    firsts = np.empty((n_runs, 2), dtype=np.complex128)
    for r, (mean, squares, first) in enumerate(rows):
        means[r] = mean
        power += squares
        firsts[r] = first
    shift = (means - means.mean())[:, None]
    gain = np.fft.rfft(window)[:2]
    power[:2] += np.sum(
        2.0 * shift * (firsts * gain.conjugate()).real + count * shift**2 * np.abs(gain) ** 2,
        axis=0,
    )
    power *= dt / (n_runs * count * np.sum(window**2))
    two_sided = np.concatenate((power, power[(length + 1) // 2 - 1 : 0 : -1]))
    # the density in cyclic frequency equals the density in angular
    # frequency under the (1/2pi) dw measure, so only the axis is rescaled
    omegas = TWO_PI * np.fft.fftshift(np.fft.fftfreq(length, dt))
    return SpectrumGrid(omegas, np.fft.fftshift(two_sided))


def intensity_fluct_spectrum(traj: Trajectory, cfg: SimConfig) -> SpectrumGrid:
    """Averaged-periodogram estimate of the cavity intensity fluctuation spectrum.

    Welch estimate of the two-sided spectral density of
    I(t) = |a|^2 - <|a|^2> of the cavity amplitude a: the stationary mean is
    removed once over the whole ensemble (removing it per segment would
    notch the spectrum at zero frequency), then Hann-windowed segments
    of ``min(SEGMENT_LENGTH, n_steps)`` samples with 50% overlap are
    averaged over segments and realizations.  Rows run on the thread
    pool through the same :func:`_row_sums` as :func:`streamed_estimate`.
    Equal, within rounding, to ``scipy.signal.welch`` with
    ``window="hann"``, ``detrend=False``, ``return_onesided=False`` and
    ``scaling="density"`` averaged over rows.  Returned in angular
    frequency with the (1/2pi) * integral dw normalization, directly
    comparable to the analytic classical terms.
    """
    intensity = np.abs(traj.cavity_amplitude) ** 2
    n_runs, n_steps = intensity.shape
    count, window = _welch_layout(n_runs, n_steps)

    def row_sums(r: int):
        return _row_sums(intensity[r], intensity[r].mean(), window, count)

    return _welch_density(_thread_map(row_sums, n_runs), n_runs, window, count, cfg.dt)


def _mean_and_stderr(per_run: np.ndarray) -> tuple[float, float]:
    return float(per_run.mean()), float(per_run.std(ddof=1) / math.sqrt(per_run.size))


def stationary_input_power(traj: Trajectory) -> tuple[float, float]:
    """Ensemble mean of |x|^2 and its standard error across realizations."""
    return _mean_and_stderr(np.mean(np.abs(traj.input_amplitude) ** 2, axis=1))


def stationary_photon_number(traj: Trajectory) -> tuple[float, float]:
    """Ensemble mean of |a|^2 and its standard error across realizations."""
    return _mean_and_stderr(np.mean(np.abs(traj.cavity_amplitude) ** 2, axis=1))


def streamed_estimate(
    fpi: FpiParams, src: SourceParams, cfg: SimConfig
) -> tuple[SpectrumGrid, tuple[float, float], tuple[float, float]]:
    """Cavity intensity spectrum, input power and photon number, one realization at a time.

    Equal bit for bit to :func:`intensity_fluct_spectrum`,
    :func:`stationary_input_power` and :func:`stationary_photon_number`
    applied to :func:`simulate`, but no ensemble array is held: a worker
    records one realization's |x|^2 and |a|^2 chunk by chunk into its own
    two rows and reduces them to their means and the realization's Welch
    sums (:func:`_row_sums`) before it takes the next realization.
    """
    count, window = _welch_layout(cfg.n_realizations, cfg.n_steps)
    chunks = _realization_chunks(fpi, src, cfg)
    power = np.empty(cfg.n_realizations)
    photons = np.empty(cfg.n_realizations)

    # a worker's two rows serve all its realizations, as the FFT batches
    # do, so the allocator does not hand them back to the OS each time
    buffers = threading.local()

    def record(r: int):
        if not hasattr(buffers, "rows"):
            buffers.rows = np.empty((2, cfg.n_steps))
        drive, intensity = buffers.rows  # |x| then |x|^2, and |a| then |a|^2
        for offset, x, a in chunks(r):
            np.abs(x, out=drive[offset : offset + x.size])
            np.abs(a, out=intensity[offset : offset + a.size])
        power[r] = np.mean(np.square(drive, out=drive))
        photons[r] = np.square(intensity, out=intensity).mean()
        return intensity

    def row_sums(r: int):
        # the last chunk's amplitudes are dropped before the FFTs
        return _row_sums(record(r), photons[r], window, count)

    rows = _thread_map(row_sums, cfg.n_realizations)
    spectrum = _welch_density(rows, cfg.n_realizations, window, count, cfg.dt)
    return spectrum, _mean_and_stderr(power), _mean_and_stderr(photons)
