"""Second-order time autocorrelations of photon number and field power.

Fluctuation spectrum and lag autocorrelation form a Fourier pair,

    d2x(tau) = (1/2pi) * integral d2x(w) e^{-i w tau} dw,

so every colored spectrum in this package transforms in closed form.
Writing g1(tau) for the lag transform of the in-cavity field spectrum
n(w) (a two-pole residue sum) and c1(tau) = e^{-i delta tau - kappa_t tau}
for the transform of the mode commutator density,

    in-cavity:    classical |g1|^2  +  quantum Re[g1 conj(c1)]
    transmitted:  (2 kappa2)^2 |g1|^2,   white floor -> p_t * delta(tau)
    reflected:    |pr1(tau)|^2,          white floor -> p_r * delta(tau)

with pr1 the lag transform of the reflected field spectrum.  The white
floors never enter the smooth values; they are carried as an explicit
delta-function weight at zero lag.  Lags may be scalars or arrays: each
lag curve is one array-valued residue transform, and the zero-lag
normalisations use the closed forms |2 kappa2 g1(0)|^2 = p_t^2 and
|pr1(0)|^2 = p_r^2.  A grid-based cosine transform with a rational tail
correction handles arbitrary tabulated spectra and serves as the
independent route in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import sici

from .cavity import FpiParams, reflected_power, transmitted_power
from .errors import CoverageError, ParameterError
from .fluctuations import SpectrumDecomposition
from .lorentz import TWO_PI, lorentz_product_transform, product
from .source import SourceParams, source_linewidth


@dataclass(frozen=True)
class AutoCorrelation:
    """Smooth lag autocorrelation plus an optional delta weight at zero lag.

    ``values`` holds the transform of the colored spectrum on the
    nonnegative lag grid ``taus``; a flat (white) spectral floor maps to
    ``delta_weight * delta(tau)`` and is never folded into ``values``.
    When the classical/quantum split is meaningful the two components
    are carried along and sum to ``values``.
    """

    taus: np.ndarray
    values: np.ndarray
    delta_weight: float = 0.0
    classical: np.ndarray | None = None
    quantum: np.ndarray | None = None

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if taus.ndim != 1 or taus.shape != values.shape:
            raise ParameterError("taus and values must be matching 1-d arrays")
        if np.any(taus < 0.0):
            raise ParameterError("lags must be nonnegative")
        if self.delta_weight < 0.0:
            raise ParameterError("delta_weight must be nonnegative")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ExponentialFit:
    """Comparison of a normalized autocorrelation against e^{-rate * tau}."""

    rate: float
    rms_deviation: float


def default_tau_grid(tau_max: float = 12.0, count: int = 601) -> np.ndarray:
    """Uniform nonnegative lag grid, tau * kappa_l in [0, tau_max]."""
    return np.linspace(0.0, tau_max, count)


def cavity_amplitude_correlation(tau, fpi: FpiParams, src: SourceParams):
    """Lag transform g1(tau) of the in-cavity field spectrum, tau >= 0.

    Two-factor residue transform of the drive line times the mode
    response, scaled by p_in kappa1 / kappa_t; g1(0) equals the mean
    photon number.  A scalar lag gives a complex, an array of lags an
    array.
    """
    g = source_linewidth(src)
    shape = product((0.0, g), (fpi.delta, fpi.kappa_t))
    return src.p_in * fpi.coupling * lorentz_product_transform(shape, tau)


def commutator_correlation(tau, fpi: FpiParams):
    """Lag transform of the mode commutator density: e^{-i delta tau - kappa_t tau}."""
    return np.exp(-(1j * fpi.delta + fpi.kappa_t) * np.asarray(tau, dtype=float))


def reflected_amplitude_correlation(tau, fpi: FpiParams, src: SourceParams):
    """Lag transform of the reflected field spectrum, tau >= 0, scalar or array."""
    g = source_linewidth(src)
    direct = np.exp(-g * np.asarray(tau, dtype=float))
    removed = lorentz_product_transform(
        product((0.0, g), (fpi.delta, fpi.kappa_t)), tau
    )
    return src.p_in * (direct - fpi.removal_rate * removed)


def cavity_autocorr(fpi: FpiParams, src: SourceParams, taus) -> AutoCorrelation:
    """Photon-number autocorrelation with its classical/quantum split.

    classical(tau) = |g1(tau)|^2, quantum(tau) = Re[g1(tau) conj(c1(tau))];
    at zero lag they reach n^2 and n.  No delta weight: in-cavity
    quantum noise is colored, not white.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    g1 = cavity_amplitude_correlation(taus, fpi, src)
    classical = np.abs(g1) ** 2
    quantum = (g1 * np.conj(commutator_correlation(taus, fpi))).real
    return AutoCorrelation(
        taus=taus,
        values=classical + quantum,
        delta_weight=0.0,
        classical=classical,
        quantum=quantum,
    )


def transmitted_autocorr(
    fpi: FpiParams, src: SourceParams, taus, normalized: bool = False
) -> AutoCorrelation:
    """Transmitted-power autocorrelation (colored part only).

    The white quantum floor p_t appears solely as ``delta_weight``.
    With ``normalized=True`` the values are divided by the colored
    variance |2 kappa2 g1(0)|^2 = p_t^2 (the zero-lag value), making
    values[0] equal one.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    values = (2.0 * fpi.kappa2) ** 2 * np.abs(cavity_amplitude_correlation(taus, fpi, src)) ** 2
    p_t = transmitted_power(fpi, src)
    if normalized and p_t**2 > 0.0:
        values = values / p_t**2
    return AutoCorrelation(taus=taus, values=values, delta_weight=p_t)


def reflected_autocorr(
    fpi: FpiParams, src: SourceParams, taus
) -> tuple[AutoCorrelation, ExponentialFit]:
    """Reflected-power autocorrelation plus its exponential-decay report.

    values(tau) = |pr1(tau)|^2 with delta weight p_r.  The report gives
    the rms deviation of values/values(0) from e^{-2 gamma_l tau}, the
    pure drive-line self-beat that dominates when little power enters
    the cavity; values(0) = |pr1(0)|^2 = p_r^2.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    values = np.abs(reflected_amplitude_correlation(taus, fpi, src)) ** 2
    rate = 2.0 * source_linewidth(src)
    p_r = reflected_power(fpi, src)
    v0 = p_r**2
    if v0 > 0.0:
        deviation = values / v0 - np.exp(-rate * taus)
        rms = float(np.sqrt(np.mean(deviation**2)))
    else:
        rms = 0.0
    ac = AutoCorrelation(taus=taus, values=values, delta_weight=p_r)
    return ac, ExponentialFit(rate=rate, rms_deviation=rms)


def _rational_tail_transform(taus: np.ndarray, edge: float, coefficient: float) -> np.ndarray:
    """(1/2pi) * integral over |w| > edge of (a / w^2) e^{-i w tau} dw (real part).

    Both tails together give (a/pi) * [cos(edge tau)/edge
    - tau (pi/2 - Si(edge tau))]; integrating by parts reduces the
    oscillatory tail to the sine integral.
    """
    si, _ = sici(edge * taus)
    return (
        coefficient
        / math.pi
        * (np.cos(edge * taus) / edge - taus * (0.5 * math.pi - si))
    )


def _grid_cosine_transform(
    omegas: np.ndarray, values: np.ndarray, taus: np.ndarray
) -> np.ndarray:
    """(1/2pi) * integral S(w) cos(w tau) dw for an even tabulated spectrum.

    Trapezoidal cosine sum over the grid plus a rational 1/w^2 tail
    correction read off the edge values; accurate until the grid spacing
    stops resolving either the spectrum or the oscillation.
    """
    out = np.empty_like(taus)
    # chunk the (tau, omega) cosine matrix to keep memory flat
    step = max(1, int(4e6 // max(omegas.size, 1)))
    for start in range(0, taus.size, step):
        block = taus[start : start + step, None]
        integrand = values[None, :] * np.cos(block * omegas[None, :])
        out[start : start + step] = np.trapezoid(integrand, omegas, axis=1) / TWO_PI
    edge = min(abs(omegas[0]), abs(omegas[-1]))
    if edge > 0.0:
        tail_coeff = 0.5 * (
            values[0] * omegas[0] ** 2 + values[-1] * omegas[-1] ** 2
        )
        out = out + _rational_tail_transform(taus, edge, tail_coeff)
    return out


def autocorr_from_spectrum(spec: SpectrumDecomposition, taus) -> AutoCorrelation:
    """Cosine-transform a tabulated (even, decaying) fluctuation spectrum.

    The classical and quantum components are transformed separately and
    summed; the white floor becomes the delta weight.  Raises
    :class:`CoverageError` when the grid leaves too much spectral mass
    in the tails for the transform tolerance.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if np.any(taus < 0.0):
        raise ParameterError("lags must be nonnegative")
    omegas = spec.omegas
    colored = spec.colored
    peak = float(np.max(np.abs(colored))) if colored.size else 0.0
    if peak > 0.0:
        edge_fraction = max(abs(colored[0]), abs(colored[-1])) / peak
        if edge_fraction > 1e-3:
            raise CoverageError(
                "spectrum grid truncates the colored spectrum at "
                f"{edge_fraction:.2e} of its peak; extend the grid",
                required_half_width=float(abs(omegas[-1])) * math.sqrt(edge_fraction / 1e-3),
            )
    classical = _grid_cosine_transform(omegas, spec.classical, taus)
    quantum = _grid_cosine_transform(omegas, spec.quantum, taus)
    return AutoCorrelation(
        taus=taus,
        values=classical + quantum,
        delta_weight=spec.white_floor,
        classical=classical,
        quantum=quantum,
    )


def dominant_oscillation_frequency(taus: np.ndarray, values: np.ndarray) -> float:
    """Frequency of the dominant oscillatory component of a lag curve.

    Second differences suppress the smooth decaying envelope while
    amplifying oscillations by their squared frequency; the peak of a
    zero-padded Fourier magnitude of the (Hann-windowed) second
    differences then locates the beat frequency.
    """
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    if taus.size < 8:
        raise ParameterError("need at least 8 lag samples")
    dt = taus[1] - taus[0]
    if not np.allclose(np.diff(taus), dt):
        raise ParameterError("lag grid must be uniform")
    curvature = np.diff(values, 2)
    curvature = curvature - curvature.mean()
    windowed = curvature * np.hanning(curvature.size)
    n_pad = 1 << max(14, int(math.ceil(math.log2(curvature.size * 8))))
    spectrum = np.abs(np.fft.rfft(windowed, n_pad))
    freqs = TWO_PI * np.fft.rfftfreq(n_pad, d=dt)
    # skip the near-dc residue of the envelope
    mask = freqs > 0.5 / (taus[-1] - taus[0] + dt) * TWO_PI
    if not np.any(mask):
        raise ParameterError("lag range too short to resolve any oscillation")
    return float(freqs[mask][np.argmax(spectrum[mask])])
