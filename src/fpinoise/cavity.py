"""Single-mode interferometer filter: field spectra and energy balance.

The mode is coupled to the drive through mirror 1 (rate kappa1), leaks
through mirror 2 (kappa2) and absorbs internally (kappa0); its total
half-width is kappa_t = kappa1 + kappa2 + kappa0 and its center is
detuned by ``delta`` from the drive-line center.  Input-output relations
give every spectrum below in closed form:

    n(w)   = (kappa1/kappa_t) p_in(w) L(delta - w, kappa_t)   in-cavity
    p_t(w) = 2 kappa2 n(w),  p_0(w) = 2 kappa0 n(w)           out/absorbed
    p_r(w) = p_in(w) [1 - (2 kappa1 (kappa2+kappa0)/kappa_t) L(w - delta, kappa_t)]

with the pointwise balance p_r + p_t + p_0 = p_in holding identically.
Frequencies ``w`` are optical detunings from the drive-line center, in
kappa_l units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .lorentz import Lorentzian, lorentz_value
from .source import SourceParams, input_spectrum, source_linewidth


@dataclass(frozen=True)
class FpiParams:
    """Mirror, absorption and detuning parameters of the interferometer.

    kappa1, kappa2
        Escape rates through the input and output mirrors; kappa1 > 0
        (the mode must couple to the drive), kappa2 >= 0.
    kappa0
        Internal absorption rate, >= 0.
    delta
        Detuning of the mode center from the drive-line center.
    """

    kappa1: float = 0.5
    kappa2: float = 0.5
    kappa0: float = 0.1
    delta: float = 5.0

    def __post_init__(self):
        for name in ("kappa1", "kappa2", "kappa0", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if not self.kappa1 > 0.0:
            raise ParameterError(f"kappa1 must be positive (input coupling), got {self.kappa1}")
        if self.kappa2 < 0.0 or self.kappa0 < 0.0:
            raise ParameterError("kappa2 and kappa0 must be nonnegative")
        # B is finite exactly when its numerator 2 kappa1 (kappa2 + kappa0) is,
        # and that numerator bounds those of R, T and the absorbed fraction
        if not (math.isfinite(self.kappa_t) and math.isfinite(self.removal_rate)):
            raise ParameterError("rates too large: kappa_t or 2 kappa1 (kappa2 + kappa0) overflows")

    @property
    def kappa_t(self) -> float:
        """Total mode decay rate kappa1 + kappa2 + kappa0 (always derived)."""
        return self.kappa1 + self.kappa2 + self.kappa0

    @property
    def coupling(self) -> float:
        """Input coupling kappa1 / kappa_t: the drive share entering the mode."""
        return self.kappa1 / self.kappa_t

    @property
    def removal_rate(self) -> float:
        """B = 2 kappa1 (kappa2 + kappa0) / kappa_t.

        Weight of the mode response removed from the reflected drive
        line: p_r(w) = p_in(w) [1 - B L(w - delta, kappa_t)].
        """
        return 2.0 * self.kappa1 * (self.kappa2 + self.kappa0) / self.kappa_t


@dataclass(frozen=True)
class SpectrumGrid:
    """A tabulated spectrum: strictly increasing frequencies plus values."""

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if omegas.ndim != 1 or omegas.shape != values.shape:
            raise ParameterError("omegas and values must be matching 1-d arrays")
        if omegas.size < 2 or not np.all(np.diff(omegas) > 0.0):
            raise ParameterError("omegas must be strictly increasing")
        if not (np.all(np.isfinite(omegas)) and np.all(np.isfinite(values))):
            raise ParameterError("grid entries must be finite")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)


def commutator_spectrum(omega, fpi: FpiParams):
    """Mode commutator density c(w) = L(delta - w, kappa_t).

    Unit-normalized under (1/2pi) * integral dw; in free space the same
    density is flat and equal to one.
    """
    return lorentz_value(omega, Lorentzian(fpi.delta, fpi.kappa_t))


def cavity_field_spectrum(omega, fpi: FpiParams, src: SourceParams):
    """In-cavity photon spectral density n(w); drive line times mode response."""
    return fpi.coupling * input_spectrum(omega, src) * commutator_spectrum(omega, fpi)


def mean_photon_number(fpi: FpiParams, src: SourceParams) -> float:
    """Mean in-cavity photon number (kappa1/kappa_t) p_in L(delta, kappa_t + gamma_l).

    Equal to the frequency integral of :func:`cavity_field_spectrum`;
    the drive line and mode response convolve to a single Lorentzian of
    summed widths.
    """
    return fpi.coupling * src.p_in * _response_weight(fpi, source_linewidth(src))


def transmitted_spectrum(omega, fpi: FpiParams, src: SourceParams):
    """Transmitted power density 2 kappa2 n(w) behind mirror 2."""
    return 2.0 * fpi.kappa2 * cavity_field_spectrum(omega, fpi, src)


def absorbed_spectrum(omega, fpi: FpiParams, src: SourceParams):
    """Internally absorbed power density 2 kappa0 n(w)."""
    return 2.0 * fpi.kappa0 * cavity_field_spectrum(omega, fpi, src)


def reflected_spectrum(omega, fpi: FpiParams, src: SourceParams):
    """Power density reflected off mirror 1.

    The drive line minus the share the mode response removes; shows a
    gap at the mode center and complements transmission and absorption
    to the exact input density at every frequency.
    """
    removal = fpi.removal_rate * commutator_spectrum(omega, fpi)
    return input_spectrum(omega, src) * (1.0 - removal)


def _response_weight(fpi: FpiParams, gamma_l: float) -> float:
    """Line-averaged mode response L(delta, kappa_t + gamma_l), as ``lorentz_value`` does it."""
    if gamma_l < 0.0:
        raise ParameterError("gamma_l must be nonnegative")
    k = fpi.kappa_t + gamma_l
    return 2.0 * k / (fpi.delta * fpi.delta + k * k)


def reflection_coefficient_hwhm(fpi: FpiParams, gamma_l: float) -> float:
    """Reflected power fraction for a drive line of half-width ``gamma_l``.

    ``gamma_l = 0`` gives the monochromatic limit.  Always within [0, 1]:
    the removed share 4 kappa1 (kappa2+kappa0) <= kappa_t^2.
    """
    return 1.0 - fpi.removal_rate * _response_weight(fpi, gamma_l)


def transmission_coefficient_hwhm(fpi: FpiParams, gamma_l: float) -> float:
    """Transmitted power fraction for a drive line of half-width ``gamma_l``."""
    return 2.0 * fpi.kappa1 * fpi.kappa2 / fpi.kappa_t * _response_weight(fpi, gamma_l)


def reflection_coefficient(fpi: FpiParams, src: SourceParams) -> float:
    """Reflected fraction of the drive power, R = p_r / p_in."""
    return reflection_coefficient_hwhm(fpi, source_linewidth(src))


def transmission_coefficient(fpi: FpiParams, src: SourceParams) -> float:
    """Transmitted fraction of the drive power, T = p_t / p_in."""
    return transmission_coefficient_hwhm(fpi, source_linewidth(src))


def absorbed_fraction(fpi: FpiParams, src: SourceParams) -> float:
    """Absorbed fraction of the drive power; completes R + T to one."""
    g = source_linewidth(src)
    return 2.0 * fpi.kappa1 * fpi.kappa0 / fpi.kappa_t * _response_weight(fpi, g)


def transmitted_power(fpi: FpiParams, src: SourceParams) -> float:
    """Total transmitted power 2 kappa2 n."""
    return 2.0 * fpi.kappa2 * mean_photon_number(fpi, src)


def reflected_power(fpi: FpiParams, src: SourceParams) -> float:
    """Total reflected power R * p_in."""
    return reflection_coefficient(fpi, src) * src.p_in
