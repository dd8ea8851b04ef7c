"""Lorentzian lines and exact integrals of their products.

The basic object is the normalized Lorentzian density

    L(w, k) = 2k / ((w - w0)^2 + k^2),      (1/2pi) * integral L dw = 1,

with center ``w0`` and half width at half maximum ``k``.  Everything in
this package reduces to integrals of products of a few such lines over
the whole frequency axis.  Those integrals are rational and are computed
exactly here by closing the contour in one half-plane and summing
residues, including repeated poles.  An adaptive quadrature over the
infinite axis (tangent substitution, no truncation cutoff) is the
independent cross-check, and the fallback of a residue sum whose
round-off bound misses the one tolerance (:func:`accepts`).

All frequencies and rates are dimensionless, expressed in units of the
source-cavity escape rate; see :data:`KAPPA_L_RAD_PER_SEC`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DegeneratePolesWarning, ParameterError, warn_at_caller

TWO_PI = 2.0 * math.pi

# Physical value of the normalizing rate, for report metadata only; the
# numerics never touch it.
KAPPA_L_RAD_PER_SEC = 4.0e11

# Poles closer than GROUP_FACTOR * (sum of widths) are treated as one
# pole of higher multiplicity.  Distinct poles just farther apart give
# residue terms that cancel; their round-off bound below then misses the
# quadrature tolerance and quadrature takes over.
GROUP_FACTOR = 1e-12

# Round-off of one residue term, relative to its magnitude.
_ROUNDOFF = 16.0 * math.ulp(1.0)

# The one tolerance: the adaptive quadrature's targets, and the test
# that both its result and a residue sum's round-off bound must pass.
REL_TOL = 1e-11
ABS_TOL = 1e-13
MAX_SUBDIVISIONS = 200


def accepts(value: float, error: float) -> bool:
    """Whether ``error`` <= 10 max(ABS_TOL, REL_TOL |value|); NaN or inf fails.

    Plain ``max``/``abs``: the per-point residue integrals stay off numpy.
    """
    return error < math.inf and error <= max(ABS_TOL, REL_TOL * abs(value)) * 10.0


@dataclass(frozen=True)
class Lorentzian:
    """A normalized Lorentzian line: ``center`` and ``hwhm``, both in kappa_l units."""

    center: float
    hwhm: float

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ParameterError(f"Lorentzian center must be finite, got {self.center}")
        if not (math.isfinite(self.hwhm) and self.hwhm > 0.0):
            raise ParameterError(f"Lorentzian hwhm must be positive, got {self.hwhm}")


def lorentz_value(omega, line: Lorentzian):
    """Evaluate L(omega; center, hwhm) = 2k / ((omega-center)^2 + k^2).

    Accepts a scalar or an array of frequencies; the peak value is
    2/hwhm and the half-maximum points sit at center +- hwhm.  A plain
    ``float`` skips numpy: quadrature integrands call this once per node
    and factor, where the 0-d array round trip costs more than the
    formula.  Same operations in the same order, so the same bits.
    """
    k = line.hwhm
    if type(omega) is float:
        d = omega - line.center
        return 2.0 * k / (d * d + k * k)
    d = np.asarray(omega, dtype=float) - line.center
    out = 2.0 * k / (d * d + k * k)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class LorentzProduct:
    """An ordered product of 1 to 4 Lorentzian factors of one variable."""

    factors: tuple[Lorentzian, ...]

    def __post_init__(self):
        if not 1 <= len(self.factors) <= 4:
            raise ParameterError(
                f"LorentzProduct supports 1..4 factors, got {len(self.factors)}"
            )

    def value(self, omega):
        """Pointwise product of the factors at ``omega`` (scalar or array)."""
        out = lorentz_value(omega, self.factors[0])
        for line in self.factors[1:]:
            out = out * lorentz_value(omega, line)
        return out


@dataclass(frozen=True)
class ProductIntegral:
    """A (1/2pi) axis integral, how it was obtained and a bound on its error."""

    value: float
    method: str  # "residue" (round-off bound) or "quadrature" (reported bound)
    error_estimate: float


def adaptive_integral(f: Callable[[float], float]) -> ProductIntegral:
    """Adaptive quadrature of ``f`` over the whole real axis.

    The substitution w = tan(u) maps the axis onto (-pi/2, pi/2), so
    rational tails (decay at least 1/w^2) are integrated without any
    truncation cutoff.  Returns a ``"quadrature"`` :class:`ProductIntegral`
    carrying the reported error bound, or raises :class:`ConvergenceError`
    when the tolerance cannot be met within ``MAX_SUBDIVISIONS`` subintervals.
    """
    # scipy.integrate is imported only when a quadrature runs
    from scipy.integrate import quad

    def transformed(u: float) -> float:
        t = math.tan(u)
        return f(t) * (1.0 + t * t)

    out = quad(
        transformed,
        -0.5 * math.pi,
        0.5 * math.pi,
        epsabs=ABS_TOL,
        epsrel=REL_TOL,
        limit=MAX_SUBDIVISIONS,
        full_output=True,
    )
    value, error = out[0], out[1]
    if len(out) > 3:
        raise ConvergenceError(
            f"adaptive integral did not converge: {out[3].strip()}",
            estimate=value,
            error_bound=error,
        )
    if not accepts(value, error):
        raise ConvergenceError(
            "adaptive integral error bound exceeds the requested tolerance",
            estimate=value,
            error_bound=error,
        )
    return ProductIntegral(value, "quadrature", error)


def _group_poles(poles: Sequence[complex], tol: float) -> list[list]:
    """Cluster poles within ``tol`` of each other into [location, multiplicity]."""
    groups: list[list] = []
    for p in poles:
        for g in groups:
            if abs(p - g[0]) <= tol:
                g[0] = (g[0] * g[1] + p) / (g[1] + 1)
                g[1] += 1
                break
        else:
            groups.append([p, 1])
    return groups


def _half_plane_sum(
    centers: Sequence[float],
    widths: Sequence[float],
    tau: float | np.ndarray,
) -> tuple[complex | np.ndarray, float | np.ndarray]:
    """Sum of residues needed for (1/2pi) * integral prod_i L(w - c_i, k_i) e^{-i w tau} dw.

    For tau >= 0 the contour closes in the lower half-plane; for tau == 0
    either closure works and the lower one is kept.  Poles within
    ``GROUP_FACTOR`` of the summed widths form one pole of higher
    multiplicity.  Two modes: the float ``tau`` 0.0 of
    :func:`lorentz_product_integral` stays on plain complex arithmetic,
    which is faster for the one-point integrals of the noise kernels; an
    ndarray of lags (0-d included) is grouped once and gives arrays.
    Returns the sum and the summed magnitudes of its residue terms, which
    measure the cancellation between them.
    """
    group_tol = GROUP_FACTOR * float(sum(widths))

    lower_groups = _group_poles([complex(c, -k) for c, k in zip(centers, widths)], group_tol)
    # the running-mean grouping commutes with conjugation
    upper_groups = [[p.conjugate(), m] for p, m in lower_groups]

    prefactor = 1.0
    for k in widths:
        prefactor *= 2.0 * k

    # None: the scalar lag is zero and has unit phase
    exp = np.exp if isinstance(tau, np.ndarray) else None
    all_groups = lower_groups + upper_groups
    total = 0.0 + 0.0j
    magnitude = 0.0
    for i, (pole, mult) in enumerate(lower_groups):
        others = all_groups[:i] + all_groups[i + 1 :]
        # H(z) = C e^{-i z tau} prod (z - q)^{-mq}; residue = H^{(m-1)}(pole)/(m-1)!
        h0 = prefactor if exp is None else prefactor * exp(-1j * pole * tau)
        for q, mq in others:
            h0 /= (pole - q) if mq == 1 else (pole - q) ** mq
        if mult == 1:
            total += h0
            magnitude += abs(h0)
            continue
        # log-derivative of H at the pole: s(z) = -i tau - sum mq/(z - q)
        s = [-1j * tau - sum(mq / (pole - q) for q, mq in others)]
        for j in range(1, mult - 1):
            fact = math.factorial(j) * (-1.0) ** (j + 1)
            s.append(fact * sum(mq / (pole - q) ** (j + 1) for q, mq in others))
        derivs = [h0]
        for n in range(mult - 1):
            nxt = sum(
                math.comb(n, k) * derivs[k] * s[n - k] for k in range(n + 1)
            )
            derivs.append(nxt)
        term = derivs[mult - 1] / math.factorial(mult - 1)
        total += term
        magnitude += abs(term)
    # closing downward turns the contour clockwise: -2pi i * sum, and the
    # 1/2pi normalization leaves -i * sum
    return -1j * total, magnitude


def lorentz_product_integral(prod: LorentzProduct) -> ProductIntegral:
    """Exact (1/2pi) * integral over the real axis of a Lorentzian product.

    The residue sum over one half-plane is exact for distinct poles and
    handles repeated poles through derivatives of the reduced product.
    Its ``error_estimate`` is 16 eps times the summed magnitudes of the
    residue terms: it bounds the round-off of the cancellation between
    them, which grows as distinct poles approach.  When that bound fails
    :func:`accepts` (the test the adaptive quadrature applies to its own
    result), the integral falls back to that quadrature under a
    :class:`DegeneratePolesWarning` and returns its result.
    """
    centers = [line.center for line in prod.factors]
    widths = [line.hwhm for line in prod.factors]
    total, magnitude = _half_plane_sum(centers, widths, 0.0)
    value, error = total.real, _ROUNDOFF * magnitude
    if accepts(value, error):
        return ProductIntegral(value, "residue", error)
    warn_at_caller(
        "near-coincident poles: falling back to adaptive quadrature", DegeneratePolesWarning
    )
    return adaptive_integral(lambda w: prod.value(w) / TWO_PI)


def lorentz_product_transform(
    prod: LorentzProduct, tau: float | np.ndarray
) -> complex | np.ndarray:
    """(1/2pi) * integral prod_i L(w - c_i, k_i) e^{-i w tau} dw for tau >= 0.

    ``tau`` is one lag, giving a ``complex``, or an array of lags, giving
    a complex array of the same shape.  Exact residue evaluation with the
    poles grouped once per call, and the round-off bound of
    :func:`lorentz_product_integral` at every lag.  When the bound of any
    lag fails :func:`accepts`, the whole call falls back, lag by lag, to
    the Fourier-weighted quadrature of
    :func:`lorentz_transform_quadrature` under a single warning.
    """
    lags = np.asarray(tau, dtype=float)
    if np.any(lags < 0.0):
        raise ParameterError("transform lag must be nonnegative; use conjugation for tau < 0")
    centers = [line.center for line in prod.factors]
    widths = [line.hwhm for line in prod.factors]
    values, magnitudes = _half_plane_sum(centers, widths, lags)
    bounds = (_ROUNDOFF * magnitudes).ravel().tolist()
    if not all(map(accepts, np.abs(values).ravel().tolist(), bounds)):
        warn_at_caller(
            "near-coincident poles: transform falls back to adaptive quadrature",
            DegeneratePolesWarning,
        )
        values = np.array(
            [lorentz_transform_quadrature(prod, float(t)) for t in lags.flat]
        ).reshape(lags.shape)
    return complex(values) if lags.ndim == 0 else values


def lorentz_transform_quadrature(prod: LorentzProduct, tau: float) -> complex:
    """Numerical route for the transform, independent of the residue path.

    Splits the axis at zero and hands each oscillatory half-line integral
    to the Fourier-weighted adaptive quadrature (cycle summation with
    extrapolation), so no truncation cutoff enters.  Zero lag is
    :func:`adaptive_integral`'s; other lags use absolute tolerance 1e-11.
    """
    from scipy.integrate import quad

    if tau < 0.0:
        raise ParameterError("transform lag must be nonnegative")
    if tau == 0.0:
        return complex(adaptive_integral(lambda w: prod.value(w) / TWO_PI).value)

    def even_part(w: float) -> float:
        return prod.value(w) + prod.value(-w)

    def odd_part(w: float) -> float:
        return prod.value(w) - prod.value(-w)

    re = quad(even_part, 0.0, np.inf, weight="cos", wvar=tau, epsabs=1e-11, limlst=200)[0]
    im = quad(odd_part, 0.0, np.inf, weight="sin", wvar=tau, epsabs=1e-11, limlst=200)[0]
    return complex(re, -im) / TWO_PI


def map_over_omega(fn: Callable[[float], float], omega):
    """Apply a scalar frequency function over a scalar or array argument."""
    arr = np.asarray(omega, dtype=float)
    if arr.ndim == 0:
        return fn(float(arr))
    flat = np.array([fn(w) for w in arr.ravel().tolist()])
    return flat.reshape(arr.shape)
