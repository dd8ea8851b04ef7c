"""Independent numerical routes that the tests compare the closed forms against.

None of this is on a production path.  The tabulated routes work on
arbitrary gridded spectra: trapezoidal convolutions for the fluctuation
spectra and a trapezoidal cosine transform with a rational 1/w^2 tail
correction for the lag autocorrelations.  Both refuse, with
:class:`~fpinoise.CoverageError`, grids that truncate too much of the
spectrum.  ``lorentz_convolve`` is the two-line closed form that checks
the residue engine and the quadrature, and ``variance_check_values``
gives the targets of the variance sum rules.  The quantum and reflection
noise kernels K1 and K2 have two reference routes here: per-point
residue sums of their defining Lorentzian products, and an ``mpmath``
quadrature of their defining integrals at any working precision.  For
the stochastic oracle, ``welch_route`` is the per-row
``scipy.signal.welch`` estimate that checks the batched FFT estimate,
and ``complex_kick_realization`` builds a realization from complex
kicks through complex ``lfilter`` recurrences.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import lfilter, welch
from scipy.special import sici

from fpinoise.autocorr import AutoCorrelation
from fpinoise.cavity import FpiParams, SpectrumGrid, mean_photon_number
from fpinoise.errors import CoverageError, ParameterError
from fpinoise.fluctuations import SpectrumDecomposition
from fpinoise.lorentz import (
    TWO_PI,
    Lorentzian,
    lorentz_product_integral,
    lorentz_value,
    map_over_omega,
    product,
)
from fpinoise.oracle import SimConfig, _stream
from fpinoise.source import SourceParams, source_linewidth

# Acceptable truncated tail mass, as a fraction of the total integrand
# mass, before a tabulated convolution refuses to answer.  Tails up to
# this size are handled by the analytic 1/w^2 tail correction; beyond it
# the tail model itself is no longer trustworthy.
_TAIL_FRACTION = 2e-3


def lorentz_convolve(shift: float, g1: float, g2: float) -> float:
    """Closed form of (1/2pi) * integral L(w, g1) L(shift - w, g2) dw.

    Two Lorentzians convolve to a Lorentzian of summed widths, so the
    result is L(shift, g1 + g2), exactly.
    """
    if not (g1 > 0.0 and g2 > 0.0):
        raise ParameterError(f"convolution widths must be positive, got {g1}, {g2}")
    return lorentz_value(shift, Lorentzian(0.0, g1 + g2))


def _check_coverage(grid: SpectrumGrid, label: str) -> None:
    """Reject tabulations whose 1/w^2 tails carry non-negligible mass."""
    omegas, values = grid.omegas, grid.values
    total = abs(np.trapezoid(values, omegas)) / TWO_PI
    if total == 0.0:
        return
    for edge_value, edge_omega in ((values[0], omegas[0]), (values[-1], omegas[-1])):
        if edge_omega == 0.0:
            raise CoverageError(
                f"{label}: grid must extend well past the spectrum support",
                required_half_width=math.inf,
            )
        # rational-tail model p ~ a/w^2 beyond the edge
        tail = abs(edge_value) * abs(edge_omega) / TWO_PI
        if tail > _TAIL_FRACTION * total:
            required = abs(edge_omega) * tail / (_TAIL_FRACTION * total)
            raise CoverageError(
                f"{label}: estimated tail mass beyond |w|={abs(edge_omega):g} is "
                f"{tail:.3e} ({tail / total:.2e} of the total); extend the grid "
                f"to roughly |w| <= {required:.3g}",
                required_half_width=required,
            )


def _shifted(grid: SpectrumGrid, shift: float) -> np.ndarray:
    """Values of the tabulated spectrum at omegas + shift, zero outside."""
    return np.interp(grid.omegas + shift, grid.omegas, grid.values, left=0.0, right=0.0)


def _tail_mass(grid: SpectrumGrid) -> float:
    """Integrated 1/w^2 tail model beyond both grid edges, under dw/2pi."""
    left = abs(grid.values[0]) * abs(grid.omegas[0])
    right = abs(grid.values[-1]) * abs(grid.omegas[-1])
    return (left + right) / TWO_PI


def general_freespace_fluct_spectrum(p_spec: SpectrumGrid, omega: float):
    """Free-space power noise from a tabulated field spectrum.

    Returns ``(colored, white_floor)`` with
    colored = (1/2pi) * integral p(w' - omega) p(w') dw' evaluated by
    trapezoidal convolution on the grid, and white_floor the total
    power: the trapezoidal mass plus the analytic 1/w^2 tail beyond the
    grid edges.  (The tails contribute to the colored part only through
    tail-times-tail overlap, negligible at the accepted coverage.)
    Raises :class:`CoverageError` when the grid truncates the integrand
    beyond what the tail model can absorb.
    """
    _check_coverage(p_spec, "free-space fluctuation spectrum")
    colored = (
        np.trapezoid(_shifted(p_spec, -float(omega)) * p_spec.values, p_spec.omegas)
        / TWO_PI
    )
    floor = np.trapezoid(p_spec.values, p_spec.omegas) / TWO_PI + _tail_mass(p_spec)
    return colored, floor


def general_cavity_fluct_spectrum(
    n_spec: SpectrumGrid, c_spec: SpectrumGrid, omega: float
) -> float:
    """In-cavity photon-number noise from tabulated field and commutator spectra.

    Classical part: (1/2pi) * integral n(omega + w') n(w') dw'.
    Quantum part:   (1/4pi) * integral [n(w' + omega) + n(w' - omega)] c(w') dw'.
    Both are trapezoidal convolutions on the given grids; the commutator
    grid must match the field grid.
    """
    if not np.array_equal(n_spec.omegas, c_spec.omegas):
        raise ParameterError("field and commutator spectra must share one grid")
    _check_coverage(n_spec, "cavity fluctuation spectrum")
    _check_coverage(c_spec, "commutator spectrum")
    w = float(omega)
    classical = (
        np.trapezoid(_shifted(n_spec, w) * n_spec.values, n_spec.omegas) / TWO_PI
    )
    quantum = (
        np.trapezoid(
            (_shifted(n_spec, w) + _shifted(n_spec, -w)) * c_spec.values,
            n_spec.omegas,
        )
        / (2.0 * TWO_PI)
    )
    return classical + quantum


def variance_check_values(fpi: FpiParams, src: SourceParams):
    """Closed-form targets for the variance sum rules: (n^2, n, n(n+1))."""
    n = mean_photon_number(fpi, src)
    return n * n, n, n * (n + 1.0)


def residue_commutator_kernels(omega, g: float, k: float, d: float):
    """K1 and K2 as per-point residue sums of their defining Lorentzian products.

    g = gamma_l, k = kappa_t, d = delta.  Returns (K1, K2), each a float
    for a scalar ``omega`` and an array of its shape otherwise.
    """

    def k1(w: float) -> float:
        left = lorentz_product_integral(product((w, g), (w + d, k), (d, k))).value
        right = lorentz_product_integral(product((-w, g), (d - w, k), (d, k))).value
        return 0.5 * (left + right)

    def k2(w: float) -> float:
        a = lorentz_product_integral(product((w, g), (0.0, g), (w + d, k))).value
        b = lorentz_product_integral(product((w, g), (0.0, g), (d, k))).value
        return a + b

    return map_over_omega(k1, omega), map_over_omega(k2, omega)


def mp_commutator_kernels(mp, w: float, g: float, k: float, d: float):
    """K1 and K2 at one frequency by ``mpmath`` quadrature of their definitions.

    K1 = (1/4pi) * integral [s(u - w) + s(u + w)] L(u - d, k) du with
    s(u) = L(u, g) L(u - d, k), and
    K2 = (1/2pi) * integral L(u - w, g) L(u, g) [L(u - w - d, k) + L(u - d, k)] du.
    The integration range is split at every line center, and the result
    carries the caller's ``mp`` working precision.
    """
    w, g, k, d = (mp.mpf(x) for x in (w, g, k, d))

    def line(x, width):
        return 2 * width / (x * x + width * width)

    def k1(u):
        shifted = line(u - w, g) * line(u - w - d, k) + line(u + w, g) * line(u + w - d, k)
        return shifted * line(u - d, k)

    def k2(u):
        return line(u - w, g) * line(u, g) * (line(u - w - d, k) + line(u - d, k))

    centers = sorted({-w, mp.mpf(0), w, d - w, d, d + w})
    breaks = [-mp.inf, *centers, mp.inf]
    return mp.quad(k1, breaks) / (4 * mp.pi), mp.quad(k2, breaks) / (2 * mp.pi)


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


def welch_route(intensity: np.ndarray, dt: float, segment_length: int) -> SpectrumGrid:
    """Ensemble-mean-removed ``scipy.signal.welch`` per row, averaged over rows."""
    mean = intensity.mean()
    n_runs, n_steps = intensity.shape
    segment_length = int(min(segment_length, n_steps))
    psd = np.empty((n_runs, segment_length))
    for r in range(n_runs):
        freqs, psd[r] = welch(
            intensity[r] - mean,
            fs=1.0 / dt,
            window="hann",
            nperseg=segment_length,
            noverlap=segment_length // 2,
            detrend=False,
            return_onesided=False,
            scaling="density",
            average="mean",
        )
    omegas = 2.0 * math.pi * np.fft.fftshift(freqs)
    return SpectrumGrid(omegas, np.fft.fftshift(psd.mean(axis=0)))


def complex_kick_realization(
    fpi: FpiParams, src: SourceParams, cfg: SimConfig, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stationary (x, a) of realization ``r``, with complex kicks and complex filters.

    The same Philox stream and recurrences as the oracle, but the kicks
    are assembled as complex numbers from alternate draws and the drive
    recurrence runs as a complex ``lfilter``.
    """
    g = source_linewidth(src)
    lam = complex(fpi.kappa_t, fpi.delta)
    total = cfg.burn_in + cfg.n_steps
    decay = math.exp(-g * cfg.dt)
    step_std = math.sqrt(src.p_in * (1.0 - decay * decay)) if src.p_in > 0 else 0.0
    cavity_decay = np.exp(-lam * cfg.dt)
    drive_gain = math.sqrt(2.0 * fpi.kappa1) * (1.0 - cavity_decay) / lam
    noise = _stream(cfg.seed, r).standard_normal(2 * total)
    kicks = (noise[0::2] + 1j * noise[1::2]) * (step_std / math.sqrt(2.0))
    x = lfilter([1.0], [1.0, -decay], kicks)
    a = lfilter([0.0, drive_gain], [1.0, -cavity_decay], x)
    return x[cfg.burn_in :], a[cfg.burn_in :]
