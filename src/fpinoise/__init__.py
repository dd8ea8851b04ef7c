"""Noise and spectra of a small two-mirror interferometer under finite-linewidth drive.

Closed-form field spectra, photon-number and power fluctuation spectra,
reflection/transmission coefficients and second-order lag
autocorrelations, all validated by independent adaptive-quadrature and
stochastic time-domain routes.  Frequencies and rates are expressed in
units of the source-cavity escape rate; times in its inverse.
"""

__version__ = "0.1.0"

from .autocorr import (
    AutoCorrelation,
    cavity_autocorr,
    dominant_oscillation_frequency,
    reflected_autocorr,
    transmitted_autocorr,
)
from .cavity import (
    FpiParams,
    SpectrumGrid,
    absorbed_fraction,
    absorbed_spectrum,
    cavity_field_spectrum,
    commutator_spectrum,
    mean_photon_number,
    reflected_spectrum,
    reflection_coefficient,
    transmission_coefficient,
    transmitted_spectrum,
)
from .config import GridSpec, RunConfig, load_config, parse_config
from .errors import (
    ConfigError,
    ConvergenceError,
    DegeneratePolesWarning,
    ParameterError,
)
from .fluctuations import (
    SpectrumDecomposition,
    cavity_fluctuation_spectrum,
    classical_noise_kernel,
    quantum_noise_kernel,
    reflected_fluct_spectrum,
    reflection_cross_kernel,
    transmitted_fluct_spectrum,
)
from .lorentz import (
    KAPPA_L_RAD_PER_SEC,
    Lorentzian,
    LorentzProduct,
    QuadratureSettings,
    adaptive_integral,
    lorentz_product_integral,
    lorentz_product_transform,
    lorentz_value,
)
from .oracle import SimConfig, Trajectory, intensity_fluct_spectrum, simulate
from .source import (
    SourceMicroParams,
    SourceParams,
    emitted_power,
    input_spectrum,
    macro_params_from_medium,
    max_linewidth_from_medium,
    source_linewidth,
    source_regime,
)

__all__ = [
    "__version__",
    "AutoCorrelation",
    "ConfigError",
    "ConvergenceError",
    "DegeneratePolesWarning",
    "FpiParams",
    "GridSpec",
    "KAPPA_L_RAD_PER_SEC",
    "Lorentzian",
    "LorentzProduct",
    "ParameterError",
    "QuadratureSettings",
    "RunConfig",
    "SimConfig",
    "SourceMicroParams",
    "SourceParams",
    "SpectrumDecomposition",
    "SpectrumGrid",
    "Trajectory",
    "absorbed_fraction",
    "absorbed_spectrum",
    "adaptive_integral",
    "cavity_autocorr",
    "cavity_field_spectrum",
    "cavity_fluctuation_spectrum",
    "classical_noise_kernel",
    "commutator_spectrum",
    "dominant_oscillation_frequency",
    "emitted_power",
    "input_spectrum",
    "intensity_fluct_spectrum",
    "load_config",
    "lorentz_product_integral",
    "lorentz_product_transform",
    "lorentz_value",
    "macro_params_from_medium",
    "max_linewidth_from_medium",
    "mean_photon_number",
    "parse_config",
    "quantum_noise_kernel",
    "reflected_autocorr",
    "reflected_fluct_spectrum",
    "reflected_spectrum",
    "reflection_coefficient",
    "reflection_cross_kernel",
    "simulate",
    "source_linewidth",
    "source_regime",
    "transmission_coefficient",
    "transmitted_autocorr",
    "transmitted_fluct_spectrum",
    "transmitted_spectrum",
]
