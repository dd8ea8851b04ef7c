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
half-overlapping segments go through one batched real FFT, and the
averaged one-sided |X|^2 is mirrored onto the two-sided axis.  Being a
classical simulation, it reproduces the classical self-beat terms only;
the colored quantum contribution and the white floors are outside its
reach by construction.

Realizations are generated one at a time.  :func:`streamed_estimate`,
behind the ``oracle`` product, keeps only |a|^2 of each run and its
per-run means, so its peak memory is the (n_realizations, n_steps)
float64 intensity array plus one realization's complex amplitudes and
periodogram segments.  :func:`simulate` stacks the same realizations
into a :class:`Trajectory` for callers that want the amplitudes.

``scipy.signal`` (for the ``lfilter`` recurrences) is imported only when
a simulation first runs, so importing the package does not load it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cavity import FpiParams, SpectrumGrid
from .errors import ConfigError, EstimatorVarianceWarning, ParameterError
from .source import SourceParams, source_linewidth

# samples per periodogram segment of the Welch estimate
SEGMENT_LENGTH = 8192


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
        # a standard error across realizations needs at least two of them
        if self.n_steps < 2 or self.n_realizations < 2 or self.burn_in < 0:
            raise ParameterError("n_steps >= 2, n_realizations >= 2, burn_in >= 0 required")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must fit in 64 bits")


@dataclass(frozen=True)
class Trajectory:
    """Stationary section of an ensemble of simulated runs.

    ``input_amplitude`` and ``cavity_amplitude`` are complex arrays of
    shape (n_realizations, n_steps) sharing the time axis ``times``.
    """

    times: np.ndarray
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
    slowest = min(g, fpi.kappa_t)
    needed = 10.0 / (cfg.dt * slowest)
    if cfg.burn_in < needed:
        raise ConfigError(
            f"sim.burn_in = {cfg.burn_in} too short to reach stationarity; "
            f"need at least {int(math.ceil(needed))} steps"
        )


def _stream(seed: int, realization: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, realization index)."""
    key = np.array([seed, realization], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _realizations(fpi: FpiParams, src: SourceParams, cfg: SimConfig):
    """Iterator over the realizations' stationary drive and cavity amplitudes.

    The configuration is validated at the call; each realization is
    generated only when the iterator reaches it.  The drive update is the
    exact discrete-time Ornstein-Uhlenbeck solution (exponential decay
    plus an exactly scaled complex Gaussian increment), and the cavity
    update the exact exponential propagator with the drive held constant
    over each step; neither carries first-order step bias.  Fixed (seed,
    realization) keys make every trajectory bit-reproducible and
    realizations independent.
    """
    # scipy.signal takes about 0.6 s to import; only a simulation needs it
    from scipy.signal import lfilter

    validate_sim_config(cfg, fpi, src)
    g = source_linewidth(src)
    lam = complex(fpi.kappa_t, fpi.delta)
    total = cfg.burn_in + cfg.n_steps

    decay = math.exp(-g * cfg.dt)
    step_std = math.sqrt(src.p_in * (1.0 - decay * decay)) if src.p_in > 0 else 0.0
    cavity_decay = np.exp(-lam * cfg.dt)
    drive_gain = math.sqrt(2.0 * fpi.kappa1) * (1.0 - cavity_decay) / lam

    def realization(r: int) -> tuple[np.ndarray, np.ndarray]:
        rng = _stream(cfg.seed, r)
        # (real, imaginary) pairs of the complex kicks, in draw order
        kicks = rng.standard_normal((total, 2))
        kicks *= step_std / math.sqrt(2.0)
        # x[n] = decay * x[n-1] + kick[n]; the real decay filters both parts alike
        x = lfilter([1.0], [1.0, -decay], kicks, axis=0).view(np.complex128).ravel()
        # a[n] = cavity_decay * a[n-1] + drive_gain * x[n-1]
        a = lfilter([0.0, drive_gain], [1.0, -cavity_decay], x)
        return x[cfg.burn_in :], a[cfg.burn_in :]

    return map(realization, range(cfg.n_realizations))


def simulate(fpi: FpiParams, src: SourceParams, cfg: SimConfig) -> Trajectory:
    """Generate the stationary drive and cavity amplitudes of every realization."""
    runs = _realizations(fpi, src, cfg)
    x = np.empty((cfg.n_realizations, cfg.n_steps), dtype=np.complex128)
    a = np.empty_like(x)
    for r, (drive, cavity) in enumerate(runs):
        x[r] = drive
        a[r] = cavity
    return Trajectory(
        times=np.arange(cfg.n_steps) * cfg.dt, input_amplitude=x, cavity_amplitude=a
    )


def _fluct_spectrum(intensity: np.ndarray, dt: float, segment_length: int) -> SpectrumGrid:
    """Welch estimate over the rows of an (n_realizations, n_steps) intensity.

    The ensemble mean is removed from each row.  A row's Hann-windowed
    segments, overlapping by ``segment_length // 2`` samples, go through
    one batched real FFT; the mean over segments of |X_k|^2 is added up
    over rows, and the average is scaled to a density.  The intensity is
    real, so |X_{L-k}| = |X_k| and the one-sided bins P_0..P_{L//2}
    mirror onto the two-sided axis as [P_0..P_{L//2}, P_{(L+1)//2-1}..P_1]
    (the fftfreq order), which fftshift puts in increasing frequency.
    Equal, within rounding, to ``scipy.signal.welch`` with ``window="hann"``,
    ``detrend=False``, ``return_onesided=False`` and ``scaling="density"``
    averaged over rows.
    """
    if segment_length < 2:
        raise ParameterError(f"segment_length must be at least 2, got {segment_length}")
    mean = intensity.mean()
    n_runs, n_steps = intensity.shape
    length = int(min(segment_length, n_steps))
    hop = length - length // 2
    count = (n_steps - length // 2) // hop
    segments = n_runs * count
    if segments < 8:
        warnings.warn(
            f"only {segments} periodogram segments; the estimate variance is high",
            EstimatorVarianceWarning,
            stacklevel=3,
        )
    # periodic Hann window, as scipy.signal.get_window("hann", length)
    window = 0.5 + 0.5 * np.cos(np.linspace(-math.pi, math.pi, length + 1))[:-1]
    power = np.zeros(length // 2 + 1)
    for row in intensity:
        spectra = np.fft.rfft(
            sliding_window_view(row - mean, length)[::hop][:count] * window, axis=1
        )
        power += np.mean(spectra.real**2 + spectra.imag**2, axis=0)
    power *= dt / (n_runs * np.sum(window**2))
    two_sided = np.concatenate((power, power[(length + 1) // 2 - 1 : 0 : -1]))
    # the density in cyclic frequency equals the density in angular
    # frequency under the (1/2pi) dw measure, so only the axis is rescaled
    omegas = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(length, dt))
    return SpectrumGrid(omegas, np.fft.fftshift(two_sided))


def intensity_fluct_spectrum(
    traj: Trajectory,
    cfg: SimConfig,
    segment_length: int = SEGMENT_LENGTH,
    signal: str = "cavity",
) -> SpectrumGrid:
    """Averaged-periodogram estimate of the intensity fluctuation spectrum.

    Welch estimate of the two-sided spectral density of
    I(t) = |amplitude|^2 - <|amplitude|^2>: the stationary mean is
    removed once over the whole ensemble (removing it per segment would
    notch the spectrum at zero frequency), then Hann-windowed segments
    with 50% overlap are averaged over segments and realizations.
    Returned in angular frequency with the (1/2pi) * integral dw
    normalization, directly comparable to the analytic classical terms.
    ``signal`` selects the cavity (default) or the input amplitude.
    """
    if signal not in ("cavity", "input"):
        raise ParameterError("signal must be 'cavity' or 'input'")
    amp = traj.cavity_amplitude if signal == "cavity" else traj.input_amplitude
    return _fluct_spectrum(np.abs(amp) ** 2, cfg.dt, segment_length)


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
    """Cavity intensity spectrum, input power and photon number, one run at a time.

    Equal bit for bit to :func:`intensity_fluct_spectrum`,
    :func:`stationary_input_power` and :func:`stationary_photon_number`
    applied to :func:`simulate`, but only |a|^2 of the whole ensemble is
    kept: each realization's complex amplitudes are dropped once their
    intensity and per-run means are recorded.
    """
    runs = _realizations(fpi, src, cfg)
    intensity = np.empty((cfg.n_realizations, cfg.n_steps))
    power = np.empty(cfg.n_realizations)
    photons = np.empty(cfg.n_realizations)
    for r, (x, a) in enumerate(runs):
        power[r] = np.mean(np.abs(x) ** 2)
        intensity[r] = np.abs(a) ** 2
        photons[r] = intensity[r].mean()
    spectrum = _fluct_spectrum(intensity, cfg.dt, SEGMENT_LENGTH)
    return spectrum, _mean_and_stderr(power), _mean_and_stderr(photons)
