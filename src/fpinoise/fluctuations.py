"""Photon-number and power fluctuation spectra, inside and outside the cavity.

In-cavity photon-number noise splits into a classical and a quantum
piece,

    d2n(w) = A^2 K0(w) + A K1(w),       A = p_in kappa1 / kappa_t,

where K0 is the self-correlation of the unit intracavity line shape
s(w) = L(w, gamma_l) L(w - delta, kappa_t) and K1 correlates s with the
mode commutator density (quantum noise in the cavity is colored).
Outside, the quantum noise is white: the transmitted and reflected power
fluctuation spectra are the self-correlations of the respective field
spectra plus a flat floor equal to the mean power,

    d2p(w) = (1/2pi) * integral p(w' - w) p(w') dw'  +  p.

All integrals are rational functions of (w, delta, gamma_l, kappa_t).  K1
and the reflection cross kernel K2 are those functions in closed form,
evaluated over the whole frequency array at once; K0 still sums residues
point by point on the residue engine.

:func:`fluct_spectra` builds all three spectra from one pass of the
kernels; the per-port ``*_fluct_spectrum`` functions return its entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavity import FpiParams, reflected_power, transmitted_power
from .errors import ParameterError
from .lorentz import (
    Lorentzian,
    LorentzProduct,
    lorentz_product_integral,
    lorentz_value,
    map_over_omega,
)
from .source import SourceParams, source_linewidth


@dataclass(frozen=True)
class SpectrumDecomposition:
    """A fluctuation spectrum on a grid, split by noise origin.

    ``classical`` collects the field self-beat part, ``quantum`` the
    colored in-cavity quantum part (identically zero for free-space
    spectra, whose quantum noise is the flat ``white_floor``).  The
    physical spectrum is ``total = classical + quantum + white_floor``.
    """

    omegas: np.ndarray
    classical: np.ndarray
    quantum: np.ndarray
    white_floor: float = 0.0

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        classical = np.asarray(self.classical, dtype=float)
        quantum = np.asarray(self.quantum, dtype=float)
        if not (omegas.shape == classical.shape == quantum.shape) or omegas.ndim != 1:
            raise ParameterError("decomposition arrays must be matching 1-d arrays")
        if self.white_floor < 0.0:
            raise ParameterError("white_floor must be nonnegative")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "classical", classical)
        object.__setattr__(self, "quantum", quantum)

    @property
    def colored(self) -> np.ndarray:
        """Frequency-dependent part, without the white floor."""
        return self.classical + self.quantum

    @property
    def total(self) -> np.ndarray:
        return self.classical + self.quantum + self.white_floor


def classical_noise_kernel(omega, fpi: FpiParams, src: SourceParams):
    """Self-correlation kernel of the intracavity line shape.

    K0(w) = (1/2pi) * integral s(u - w) s(u) du with
    s(u) = L(u, gamma_l) L(u - delta, kappa_t).  Even in w; carries the
    self-beat peak at w = 0 and beat sidebands at w = +-delta.
    """
    g = source_linewidth(src)
    kt, d = fpi.kappa_t, fpi.delta
    fixed = (Lorentzian(0.0, g), Lorentzian(d, kt))

    def kernel(w: float) -> float:
        prod = LorentzProduct((Lorentzian(w, g), Lorentzian(w + d, kt)) + fixed)
        return lorentz_product_integral(prod).value

    return map_over_omega(kernel, omega)


def _commutator_kernel(omega, a: float, b: float, d: float):
    """(1/4pi) * integral [s(u - w) + s(u + w)] L(u - d, b) du in closed form.

    Here s(u) = L(u, a) L(u - d, b); this is the rational function given
    in :func:`quantum_noise_kernel` with gamma_l = a and kappa_t = b.  No
    factor vanishes as a -> b, so near-coincident poles (d = 0, a ~ b)
    cost no accuracy.  D is a product of sums of squares whose two
    w-dependent factors swap under w -> -w, so the result is even bit for
    bit.  The one sign-indefinite monomial of N, d^2 w^2 (b - a), stays
    below 1/(2 sqrt 2) of 2d^4 a + c w^4 (AM-GM), so N is positive and
    well conditioned.  A scalar w gives a float, an array keeps its shape.
    """
    w = np.asarray(omega, dtype=float)
    w2, c, d2 = w * w, a + b, d * d
    c2 = c * c
    den = (c2 + d2) * ((c2 + (d - w) ** 2) * (c2 + (d + w) ** 2))
    num = 2.0 * c2 * c2 * (a + 2.0 * b) + 4.0 * d2 * c2 * c + 2.0 * d2 * d2 * a
    num = num + w2 * (c2 * (3.0 * a + 5.0 * b) + d2 * (b - a) + w2 * c)
    out = 4.0 * b * num / ((w2 + 4.0 * b * b) * den)
    return float(out) if out.ndim == 0 else out


def quantum_noise_kernel(omega, fpi: FpiParams, src: SourceParams):
    """Correlation kernel of the line shape with the mode commutator density.

    K1(w) = (1/4pi) * integral [s(u - w) + s(u + w)] L(u - delta, kappa_t) du,
    even in w by construction; the colored quantum contribution peaks
    near the mode-drive beat at w = delta.  With g = gamma_l, k = kappa_t,
    d = delta and c = g + k, summing the upper-half-plane residues and
    cancelling gives the rational function

        K1(w) = 4k N1 / [(w^2 + 4k^2) D],
        N1 = 2c^4 (g + 2k) + 4d^2 c^3 + 2d^4 g
             + w^2 [c^2 (3g + 5k) + d^2 (k - g)] + w^4 c,
        D  = (c^2 + d^2) (c^2 + (d - w)^2) (c^2 + (d + w)^2),

    evaluated over the whole array at once (see :func:`_commutator_kernel`).
    """
    return _commutator_kernel(omega, source_linewidth(src), fpi.kappa_t, fpi.delta)


def reflection_cross_kernel(omega, fpi: FpiParams, src: SourceParams):
    """Drive-line/mode cross kernel entering the reflected-power noise.

    K2(w) = (1/2pi) * integral L(u - w, gamma_l) L(u, gamma_l)
            [L(u - w - delta, kappa_t) + L(u - delta, kappa_t)] du, even in w.

    Reflecting u -> delta - u turns this into twice K1 with gamma_l and
    kappa_t swapped, so with the notation of :func:`quantum_noise_kernel`

        K2(w) = 8g N2 / [(w^2 + 4g^2) D],
        N2 = 2c^4 (2g + k) + 4d^2 c^3 + 2d^4 k
             + w^2 [c^2 (5g + 3k) + d^2 (g - k)] + w^4 c.
    """
    return 2.0 * _commutator_kernel(omega, fpi.kappa_t, source_linewidth(src), fpi.delta)


def _cavity_parts(k0, k1, fpi: FpiParams, src: SourceParams):
    a = src.p_in * fpi.coupling
    return a * a * k0, a * k1


def cavity_fluct_components(omega, fpi: FpiParams, src: SourceParams):
    """Classical and quantum parts of the in-cavity photon-number noise."""
    k0 = classical_noise_kernel(omega, fpi, src)
    return _cavity_parts(k0, quantum_noise_kernel(omega, fpi, src), fpi, src)


def fluct_spectra(
    omegas, fpi: FpiParams, src: SourceParams
) -> tuple[SpectrumDecomposition, SpectrumDecomposition, SpectrumDecomposition]:
    """Photon-number, transmitted and reflected power noise from one K0.

    In the cavity, d2n = A^2 K0 + A K1: the classical part integrates to
    n^2, the quantum part to n, so the variance is the thermal-statistics
    value n(n+1).  The transmitted colored part is the self-correlation
    of p_t(w) = 2 kappa2 n(w), i.e. (2 kappa2)^2 times the classical
    in-cavity part.  The reflected one expands into the drive self-beat
    L(w, 2 gamma_l), minus the cross kernel, plus the removed share
    beating with itself:

        p_in^2 [L(w, 2 gamma_l) - B K2(w) + B^2 K0(w)],
        B = 2 kappa1 (kappa2 + kappa0) / kappa_t  (FpiParams.removal_rate),

    a self-correlation of a nonnegative spectrum whose terms cancel (to
    ~1/gamma_l at critical coupling, kappa1 = kappa2 + kappa0): round-off
    can take it below zero, by under 2 eps p_in^2 [L + B K2 + B^2 K0] in
    the property tests.  Outside the cavity the quantum noise is the flat
    floor p_t or p_r, so the free-space ``quantum`` arrays are zero.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    k0 = classical_noise_kernel(omegas, fpi, src)
    k1 = quantum_noise_kernel(omegas, fpi, src)
    k2 = reflection_cross_kernel(omegas, fpi, src)
    a = src.p_in * fpi.coupling
    b = fpi.removal_rate
    self_beat = lorentz_value(omegas, Lorentzian(0.0, 2.0 * source_linewidth(src)))
    trans = (2.0 * fpi.kappa2) ** 2 * a * a * k0
    refl = src.p_in**2 * (self_beat - b * k2 + b * b * k0)
    return (
        SpectrumDecomposition(omegas, *_cavity_parts(k0, k1, fpi, src)),
        SpectrumDecomposition(omegas, trans, np.zeros_like(k0), transmitted_power(fpi, src)),
        SpectrumDecomposition(omegas, refl, np.zeros_like(k0), reflected_power(fpi, src)),
    )


def cavity_fluctuation_spectrum(
    omegas, fpi: FpiParams, src: SourceParams
) -> SpectrumDecomposition:
    """Photon-number noise d2n(w) on a grid, entry 0 of :func:`fluct_spectra`."""
    return fluct_spectra(omegas, fpi, src)[0]


def transmitted_fluct_spectrum(
    omegas, fpi: FpiParams, src: SourceParams
) -> SpectrumDecomposition:
    """Transmitted power noise d2p_t(w) on a grid, entry 1 of :func:`fluct_spectra`."""
    return fluct_spectra(omegas, fpi, src)[1]


def reflected_fluct_spectrum(
    omegas, fpi: FpiParams, src: SourceParams
) -> SpectrumDecomposition:
    """Reflected power noise d2p_r(w) on a grid, entry 2 of :func:`fluct_spectra`."""
    return fluct_spectra(omegas, fpi, src)[2]
