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
delta-function weight at zero lag.  Lags may be scalars or arrays: both
g1 and pr1 are closed forms in the two poles of the drive line times the
mode response, and each curve is an :class:`AutoCorrelation`.  The
zero-lag values |2 kappa2 g1(0)|^2 = p_t^2 and |pr1(0)|^2 = p_r^2 are the
squared delta weights; the ``autocorr`` product normalises by them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavity import FpiParams, reflected_power, transmitted_power
from .errors import ParameterError
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


def _line_mode_transform(tau, g: float, k: float, d: float):
    """(1/2pi) * integral L(w, g) L(w - d, k) e^{-i w tau} dw for tau >= 0.

    The two lower poles -ig and d - ik give, with b = k + i d,

        e^{-g tau} 2(k + g) / ((g + conj b)(g + b))
            + 2g / (g + b) * (e^{-g tau} - e^{-b tau}) / (b - g).

    The divided difference of the two exponentials is taken as
    tau e^{-s tau} phi1(-(f - s) tau), phi1(z) = expm1(z)/z, where s is the
    slower and f the faster of the decay rates g and b.  It does not
    cancel as b -> g (McCurdy, Ng & Parlett, Math. Comp. 43 (1984) 501),
    and phi1 never sees an argument with positive real part, so nothing
    overflows at long lags.  A scalar lag gives a complex, an array of
    lags an array.
    """
    lags = np.asarray(tau, dtype=float)
    if np.any(lags < 0.0):
        raise ParameterError("transform lag must be nonnegative")
    b = complex(k, d)
    slow, fast = (g, b) if k >= g else (b, g)
    z = -(fast - slow) * lags
    small = np.abs(z) < 1e-5
    safe = np.where(small, 1.0, z)
    phi1 = np.where(small, 1.0 + z / 2.0 + z * z / 6.0, np.expm1(safe) / safe)
    line = 2.0 * (k + g) / ((g + b.conjugate()) * (g + b))
    mixed = 2.0 * g / (g + b)
    values = line * np.exp(-g * lags) + mixed * lags * np.exp(-slow * lags) * phi1
    return complex(values) if lags.ndim == 0 else values


def _cavity_amplitude(fpi: FpiParams, src: SourceParams, taus: np.ndarray) -> np.ndarray:
    """g1(tau), the lag transform of the in-cavity field spectrum; g1(0) is the photon number."""
    g = source_linewidth(src)
    return src.p_in * fpi.coupling * _line_mode_transform(taus, g, fpi.kappa_t, fpi.delta)


def cavity_autocorr(fpi: FpiParams, src: SourceParams, taus) -> AutoCorrelation:
    """Photon-number autocorrelation with its classical/quantum split.

    classical(tau) = |g1(tau)|^2, quantum(tau) = Re[g1(tau) conj(c1(tau))];
    at zero lag they reach n^2 and n.  No delta weight: in-cavity
    quantum noise is colored, not white.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    g1 = _cavity_amplitude(fpi, src, taus)
    c1 = np.exp(-(1j * fpi.delta + fpi.kappa_t) * taus)
    classical = np.abs(g1) ** 2
    quantum = (g1 * np.conj(c1)).real
    return AutoCorrelation(
        taus=taus,
        values=classical + quantum,
        delta_weight=0.0,
        classical=classical,
        quantum=quantum,
    )


def transmitted_autocorr(fpi: FpiParams, src: SourceParams, taus) -> AutoCorrelation:
    """Transmitted-power autocorrelation (colored part only).

    The white quantum floor p_t appears solely as ``delta_weight``; the
    zero-lag value is the colored variance |2 kappa2 g1(0)|^2 = p_t^2.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    values = (2.0 * fpi.kappa2) ** 2 * np.abs(_cavity_amplitude(fpi, src, taus)) ** 2
    return AutoCorrelation(taus=taus, values=values, delta_weight=transmitted_power(fpi, src))


def reflected_autocorr(fpi: FpiParams, src: SourceParams, taus) -> AutoCorrelation:
    """Reflected-power autocorrelation (colored part only).

    values(tau) = |pr1(tau)|^2 with delta weight p_r, so values(0) = p_r^2; it
    nears the drive self-beat p_r^2 e^{-2 gamma_l tau} when little enters the cavity.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    g = source_linewidth(src)
    removed = _line_mode_transform(taus, g, fpi.kappa_t, fpi.delta)
    pr1 = src.p_in * (np.exp(-g * taus) - fpi.removal_rate * removed)
    p_r = reflected_power(fpi, src)
    return AutoCorrelation(taus=taus, values=np.abs(pr1) ** 2, delta_weight=p_r)
