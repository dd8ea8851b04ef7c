"""Exception and warning types shared across the package, and the warning helper."""

import sys
import warnings


class ParameterError(ValueError):
    """A physical parameter violates its domain (e.g. non-positive linewidth)."""


class ConfigError(ValueError):
    """A run configuration is malformed or violates an invariant.

    Messages name the offending key path and state how to fix it.
    """


class ConvergenceError(RuntimeError):
    """An adaptive integral failed to reach the requested tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class DegeneratePolesWarning(UserWarning):
    """Residue summation was abandoned: its round-off bound missed the tolerance."""


class EstimatorVarianceWarning(UserWarning):
    """A spectral estimate was averaged over too few segments to be reliable."""


class AdiabaticityWarning(UserWarning):
    """Source-cavity escape rate is not small against the polarization decay."""


def warn_at_caller(message: str, category: type[Warning]) -> None:
    """Warn at the first stack frame outside this package: the caller's own line.

    Frames are told by their module, not their file, so a dataclass's
    generated ``__init__`` (file ``<string>``) counts as the package's.
    """
    frame, level = sys._getframe(), 1
    while frame and frame.f_globals.get("__name__", "").partition(".")[0] == "fpinoise":
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)
