"""Independent numerical routes that the tests compare the closed forms against.

None of this is on a production path.  The tabulated routes work on
arbitrary gridded spectra: trapezoidal convolutions for the fluctuation
spectra and a trapezoidal cosine transform with a rational 1/w^2 tail
correction for the lag autocorrelations.  Both refuse, with
:class:`CoverageError`, grids that truncate too much of the
spectrum.  ``lorentz_convolve`` is the two-line closed form that checks
the residue engine and the quadrature, ``product((c1, k1), ...)`` is the
shorthand the tests build Lorentzian products with, and
``variance_check_values`` gives the targets of the variance sum rules.  The quantum and reflection
noise kernels K1 and K2 have two reference routes here: per-point
residue sums of their defining Lorentzian products, and an ``mpmath``
quadrature of their defining integrals at any working precision; K0 has
the same ``mpmath`` route.  ``exact_lorentz_integral`` sums the residues
of any Lorentzian product in exact rational arithmetic, the reference
every residue and quadrature result is measured against without a
working precision to choose; ``exact_kernels`` applies it to the
definitions of K1 and K2.  ``dominant_oscillation_frequency`` reads
the beat frequency off a lag curve.  ``lorentz_value_route``,
``product_value_route`` and ``half_plane_sum_route`` are the residue
engine as it was before its scalar fast paths (every point through a 0-d
numpy array, both half-planes grouped), which the engine must match bit
for bit.  For the stochastic oracle, ``stationary_input_power`` and
``stationary_photon_number`` are the ensemble means, with standard
errors, of a :class:`Trajectory`, and ``welch_route`` is the per-row
``scipy.signal.welch`` estimate that checks the batched FFT estimate,
and the estimator for any intensity other than |a|^2 or any segment
length other than ``SEGMENT_LENGTH``; ``complex_kick_realization``
builds a realization from complex kicks through complex ``lfilter``
recurrences.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
from scipy.signal import lfilter, welch
from scipy.special import sici

from fpinoise.autocorr import AutoCorrelation
from fpinoise.cavity import FpiParams, SpectrumGrid, mean_photon_number
from fpinoise.errors import ParameterError
from fpinoise.fluctuations import SpectrumDecomposition
from fpinoise.lorentz import (
    TWO_PI,
    Lorentzian,
    LorentzProduct,
    _group_poles,
    lorentz_product_integral,
    lorentz_value,
    map_over_omega,
)
from fpinoise.oracle import SimConfig, Trajectory, _mean_and_stderr, _stream
from fpinoise.source import SourceParams, source_linewidth

# Acceptable truncated tail mass, as a fraction of the total integrand
# mass, before a tabulated convolution refuses to answer.  Tails up to
# this size are handled by the analytic 1/w^2 tail correction; beyond it
# the tail model itself is no longer trustworthy.
_TAIL_FRACTION = 2e-3


class CoverageError(ValueError):
    """A tabulated spectrum does not cover the support of an integrand.

    ``required_half_width`` suggests how far the grid should extend.
    """

    def __init__(self, message: str, required_half_width: float):
        super().__init__(message)
        self.required_half_width = required_half_width


def lorentz_convolve(shift: float, g1: float, g2: float) -> float:
    """Closed form of (1/2pi) * integral L(w, g1) L(shift - w, g2) dw.

    Two Lorentzians convolve to a Lorentzian of summed widths, so the
    result is L(shift, g1 + g2), exactly.
    """
    if not (g1 > 0.0 and g2 > 0.0):
        raise ParameterError(f"convolution widths must be positive, got {g1}, {g2}")
    return lorentz_value(shift, Lorentzian(0.0, g1 + g2))


def product(*center_width_pairs: tuple[float, float]) -> LorentzProduct:
    """Shorthand: ``product((c1, k1), (c2, k2), ...)``."""
    return LorentzProduct(tuple(Lorentzian(c, k) for c, k in center_width_pairs))


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


def mp_classical_kernel(mp, w: float, g: float, k: float, d: float):
    """K0 at one frequency by ``mpmath`` quadrature of its definition.

    K0 = (1/2pi) * integral s(u - w) s(u) du with s(u) = L(u, g) L(u - d, k),
    split at every line center, at the caller's ``mp`` working precision.
    """
    w, g, k, d = (mp.mpf(x) for x in (w, g, k, d))

    def line(x, width):
        return 2 * width / (x * x + width * width)

    def k0(u):
        return line(u - w, g) * line(u - w - d, k) * line(u, g) * line(u - d, k)

    centers = sorted({mp.mpf(0), w, d, d + w})
    return mp.quad(k0, [-mp.inf, *centers, mp.inf]) / (2 * mp.pi)


def _times(a, b):
    """Product of two complex rationals held as (real, imaginary) pairs."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _series_product(a, b):
    """Cauchy product of two series of complex rationals, truncated to len(a)."""
    out = []
    for n in range(len(a)):
        terms = [_times(a[i], b[n - i]) for i in range(n + 1)]
        out.append((sum(t[0] for t in terms), sum(t[1] for t in terms)))
    return out


def exact_lorentz_integral(lines):
    """(1/2pi) * integral prod L(w; center, width) dw in exact rational arithmetic.

    ``lines`` are (center, width) pairs; each becomes a ``Fraction``, so a
    float input is taken at its exact binary value.  The contour closes
    in the lower half-plane, and the residue at a pole p of multiplicity m
    is the (m-1)-th Laurent coefficient: the Taylor coefficient of
    C / prod_{q != p} (z - q)^mq about p, whose factors expand as
    1/(z - q) = sum_n (-1)^n (z - p)^n / (p - q)^(n+1).  Returns the real
    and imaginary parts as ``Fraction``s; the imaginary part is exactly 0.
    """
    lines = [(Fraction(c), Fraction(k)) for c, k in lines]
    poles: dict = {}
    for c, k in lines:
        for pole in ((c, -k), (c, k)):
            poles[pole] = poles.get(pole, 0) + 1
    scale = math.prod(2 * k for _, k in lines)
    total = (Fraction(0), Fraction(0))
    for p, m in poles.items():
        if p[1] > 0:
            continue
        series = [(scale, Fraction(0))] + [(Fraction(0), Fraction(0))] * (m - 1)
        for q, mq in poles.items():
            if q == p:
                continue
            d = (p[0] - q[0], p[1] - q[1])
            norm = d[0] * d[0] + d[1] * d[1]
            inverse = (d[0] / norm, -d[1] / norm)
            expansion = [inverse]
            for _ in range(m - 1):
                expansion.append(_times(expansion[-1], (-inverse[0], -inverse[1])))
            for _ in range(mq):
                series = _series_product(series, expansion)
        total = (total[0] + series[m - 1][0], total[1] + series[m - 1][1])
    # (1/2pi) * (-2pi i) * sum of residues = -i * sum
    return total[1], -total[0]


def exact_kernels(w: float, g: float, k: float, d: float):
    """K1 and K2 at the float inputs, exactly, from their defining integrals.

    g = gamma_l, k = kappa_t, d = delta.  With s(u) = L(u, g) L(u - d, k),
    K1 = (1/4pi) * integral [s(u - w) + s(u + w)] L(u - d, k) du and
    K2 = (1/2pi) * integral L(u - w, g) L(u, g) [L(u - w - d, k) + L(u - d, k)] du,
    each split into its Lorentzian products and summed by
    :func:`exact_lorentz_integral`.  Every shifted center is formed in
    rational arithmetic, so nothing is rounded.  Returns (K1, K2) as
    ``Fraction``s.
    """
    w, d = Fraction(w), Fraction(d)
    k1 = (
        exact_lorentz_integral([(w, g), (w + d, k), (d, k)])[0]
        + exact_lorentz_integral([(-w, g), (d - w, k), (d, k)])[0]
    ) / 2
    k2 = (
        exact_lorentz_integral([(w, g), (0, g), (w + d, k)])[0]
        + exact_lorentz_integral([(w, g), (0, g), (d, k)])[0]
    )
    return k1, k2


def lorentz_value_route(omega, line: Lorentzian):
    """L(omega; center, hwhm) with every argument through a numpy array."""
    d = np.asarray(omega, dtype=float) - line.center
    k = line.hwhm
    out = 2.0 * k / (d * d + k * k)
    if out.ndim == 0:
        return float(out)
    return out


def product_value_route(prod: LorentzProduct, omega):
    """``LorentzProduct.value`` on :func:`lorentz_value_route`."""
    out = lorentz_value_route(omega, prod.factors[0])
    for line in prod.factors[1:]:
        out = out * lorentz_value_route(omega, line)
    return out


def half_plane_sum_route(centers, widths, tau: float):
    """Lower-half-plane residue sum at one lag that groups both half-planes separately."""
    lower_groups = _group_poles([complex(c, -k) for c, k in zip(centers, widths)])
    upper_groups = _group_poles([complex(c, +k) for c, k in zip(centers, widths)])

    prefactor = 1.0
    for k in widths:
        prefactor *= 2.0 * k

    all_groups = lower_groups + upper_groups
    total = 0.0 + 0.0j
    for pole, mult in lower_groups:
        others = [(q, mq) for q, mq in all_groups if q is not pole]
        h0 = prefactor * cmath.exp(-1j * pole * tau)
        for q, mq in others:
            h0 /= (pole - q) ** mq
        if mult == 1:
            total += h0
            continue
        s = [-1j * tau - sum(mq / (pole - q) for q, mq in others)]
        for j in range(1, mult - 1):
            fact = math.factorial(j) * (-1.0) ** (j + 1)
            s.append(fact * sum(mq / (pole - q) ** (j + 1) for q, mq in others))
        derivs = [h0]
        for n in range(mult - 1):
            nxt = sum(math.comb(n, k) * derivs[k] * s[n - k] for k in range(n + 1))
            derivs.append(nxt)
        total += derivs[mult - 1] / math.factorial(mult - 1)
    return -1j * total


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


def stationary_input_power(traj: Trajectory) -> tuple[float, float]:
    """Ensemble mean of |x|^2 and its standard error across realizations."""
    return _mean_and_stderr(np.mean(np.abs(traj.input_amplitude) ** 2, axis=1))


def stationary_photon_number(traj: Trajectory) -> tuple[float, float]:
    """Ensemble mean of |a|^2 and its standard error across realizations."""
    return _mean_and_stderr(np.mean(np.abs(traj.cavity_amplitude) ** 2, axis=1))


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
