"""Finite-linewidth light source feeding the interferometer.

The source is a single-mode emitter (LED-to-laser family) whose output
spectrum is a normalized Lorentzian of power ``p_in`` and half-width

    gamma_l = gamma_max / (1 + p_in / kappa_l),

so the line narrows as the drive grows.  A microscopic two-level-medium
parametrization is kept alongside as a consistency layer: adiabatic
elimination of the medium polarization gives the same Lorentzian output
with width kappa_l * eta, where eta measures the distance below the
oscillation threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AdiabaticityWarning, ParameterError, warn_at_caller
from .lorentz import Lorentzian, lorentz_value

# All rates are expressed in units of the source-cavity escape rate.
KAPPA_L = 1.0

# Reporting thresholds on gamma_l/kappa_l separating the broad-line (LED),
# intermediate and narrow-line (lasing) regimes.  Classification only;
# nothing numerical branches on these.
LED_THRESHOLD = 3.0
LASING_THRESHOLD = 1.0 / 3.0


@dataclass(frozen=True)
class SourceParams:
    """Drive power and maximum linewidth of the input field.

    p_in
        Output power in photons per second (kappa_l units);  >= 0.
    gamma_max
        Zero-power half-width of the output spectrum; > 0.
    """

    p_in: float
    gamma_max: float = 3.0

    def __post_init__(self):
        if not (math.isfinite(self.p_in) and self.p_in >= 0.0):
            raise ParameterError(f"p_in must be nonnegative, got {self.p_in}")
        if not (math.isfinite(self.gamma_max) and self.gamma_max > 0.0):
            raise ParameterError(f"gamma_max must be positive, got {self.gamma_max}")


def source_linewidth(src: SourceParams) -> float:
    """Power-dependent output half-width gamma_max / (1 + p_in/kappa_l).

    Strictly decreasing in the drive power, approaching gamma_max for a
    dark source.
    """
    return src.gamma_max / (1.0 + src.p_in / KAPPA_L)


def input_spectrum(omega, src: SourceParams):
    """Spectral power density p_in * L(omega, gamma_l) of the source output.

    Integrates back to p_in under (1/2pi) * integral d omega; a dark
    source gives zeros of the shape of ``omega`` (a float for a scalar).
    """
    return src.p_in * lorentz_value(omega, Lorentzian(0.0, source_linewidth(src)))


def source_regime(src: SourceParams) -> str:
    """Classify the drive as ``"led"``, ``"intermediate"`` or ``"lasing"``.

    Broad lines (gamma_l > 3 kappa_l) behave LED-like, narrow lines
    (gamma_l < kappa_l/3) laser-like.  Reporting only.
    """
    ratio = source_linewidth(src) / KAPPA_L
    if ratio > LED_THRESHOLD:
        return "led"
    if ratio < LASING_THRESHOLD:
        return "lasing"
    return "intermediate"


@dataclass(frozen=True)
class SourceMicroParams:
    """Two-level-medium description of the source; every field is finite.

    n_emitters
        Number of two-level emitters in the gain medium (> 0).
    n_excited
        Upper-state population; 0 < n_excited <= n_emitters.
    rabi
        Vacuum Rabi frequency coupling field and medium (> 0).
    gamma_perp
        Polarization decay rate (full), > 0.  Adiabatic elimination of
        the polarization needs kappa_l << gamma_perp / 2; a ratio above
        0.1 triggers :class:`AdiabaticityWarning`.

    Each emitter is a two-level transition (level factor 1/2).  The
    threshold inversion ``n_threshold`` and the below-threshold margin
    ``eta`` derive from these rates; an inversion at or above threshold
    (eta <= 0) is outside this model's validity and rejected.
    """

    n_emitters: float
    n_excited: float
    rabi: float
    gamma_perp: float

    def __post_init__(self):
        for name in ("n_emitters", "n_excited", "rabi", "gamma_perp"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.n_emitters > 0.0:
            raise ParameterError("n_emitters must be positive")
        if not 0.0 < self.n_excited <= self.n_emitters:
            raise ParameterError("n_excited must satisfy 0 < n_excited <= n_emitters")
        if not (self.rabi > 0.0 and self.gamma_perp > 0.0):
            raise ParameterError("rabi and gamma_perp must be positive")
        # rabi * rabi never raises; rabi**2 raises on overflow, and 0.0 divides by zero
        if not (0.0 < self.rabi * self.rabi < math.inf and 0.0 < self.n_threshold < math.inf):
            raise ParameterError("n_threshold of rabi and gamma_perp must be finite and positive")
        if KAPPA_L / (0.5 * self.gamma_perp) >= 0.1:
            warn_at_caller(
                "kappa_l is not small against gamma_perp/2; adiabatic "
                "elimination of the medium polarization is marginal",
                AdiabaticityWarning,
            )
        if not math.isfinite(self.n_emitters / self.n_threshold):  # so eta is finite
            raise ParameterError(f"n_emitters over n_threshold {self.n_threshold:g} overflows")
        if not self.eta > 0.0:
            raise ParameterError(
                "population inversion at or above threshold (eta <= 0); "
                "the linear below-threshold model does not apply"
            )

    @property
    def n_threshold(self) -> float:
        """Threshold inversion kappa_l * gamma_perp / (2 rabi^2 f), f = 1/2 for two levels."""
        return KAPPA_L * self.gamma_perp / self.rabi**2

    @property
    def inversion(self) -> float:
        """Population inversion 2 n_excited - n_emitters (may be negative)."""
        return 2.0 * self.n_excited - self.n_emitters

    @property
    def eta(self) -> float:
        """Below-threshold margin 1 - inversion / n_threshold; > 0 when valid."""
        return 1.0 - self.inversion / self.n_threshold


def max_linewidth_from_medium(micro: SourceMicroParams) -> float:
    """Zero-power linewidth kappa_l * (1 + n_emitters / n_threshold).

    Reduces to the bare cavity width kappa_l when the medium empties.
    """
    return KAPPA_L * (1.0 + micro.n_emitters / micro.n_threshold)


def emitted_power(micro: SourceMicroParams) -> float:
    """Output power 2 kappa_l (n_excited / n_threshold) / eta.

    This is the frequency integral of the microscopic output spectrum,
    a Lorentzian of half-width kappa_l * eta.
    """
    return 2.0 * KAPPA_L * (micro.n_excited / micro.n_threshold) / micro.eta


def macro_params_from_medium(micro: SourceMicroParams) -> SourceParams:
    """Project the microscopic description onto (p_in, gamma_max).

    The projection is exact: applying :func:`source_linewidth` to the
    result reproduces the microscopic width kappa_l * eta to round-off.
    """
    return SourceParams(
        p_in=emitted_power(micro), gamma_max=max_linewidth_from_medium(micro)
    )
