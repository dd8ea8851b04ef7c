"""Lorentzian lines and exact integrals of their products.

The basic object is the normalized Lorentzian density

    L(w, k) = 2k / ((w - w0)^2 + k^2),      (1/2pi) * integral L dw = 1,

with center ``w0`` and half width at half maximum ``k``.  Everything in
this package reduces to integrals of products of a few such lines over
the whole frequency axis.  Those integrals are rational and are computed
exactly here by closing the contour in one half-plane and summing
residues, including repeated poles, and close poles as one divided
difference.  An adaptive quadrature over the infinite axis (tangent
substitution, no truncation cutoff) is the independent cross-check, and
the safety net of a sum whose error bound misses the tolerance (:func:`accepts`).

All frequencies and rates are dimensionless, expressed in units of the
source-cavity escape rate; see :data:`KAPPA_L_RAD_PER_SEC`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DegeneratePolesWarning, ParameterError, warn_at_caller

TWO_PI = 2.0 * math.pi

# Physical value of the normalizing rate, for report metadata only; the
# numerics never touch it.
KAPPA_L_RAD_PER_SEC = 4.0e11

# Lower-half-plane poles form a cluster when their spread r about their
# mean c is at most CLUSTER_RATIO times c's distance R to any other pole.
CLUSTER_RATIO = 1.0 / 16.0

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


def _group_poles(poles: Sequence[complex]) -> list[list]:
    """Merge repeated poles, up to a running mean's round-off, into [location, multiplicity]."""
    tol = _ROUNDOFF * max(map(abs, poles))
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


def _clusters(lower: list, upper: list) -> list[tuple]:
    """(members, others, c, r/R, R) of the largest clusters: below 1/3 they nest or are disjoint."""
    found: list[tuple] = []
    for size in range(len(lower), 1, -1):
        for idx in combinations(range(len(lower)), size):
            members = [lower[i] for i in idx]
            others = [g for j, g in enumerate(lower + upper) if j not in idx]
            mean = sum(p * m for p, m in members) / sum(m for _, m in members)
            spread = max(abs(p - mean) for p, _ in members)
            nearest = min(abs(mean - q) for q, _ in others)
            taken = any(g in cluster[0] for cluster in found for g in members)
            if spread <= CLUSTER_RATIO * nearest < math.inf and not taken:
                found.append((members, others, mean, spread / nearest, nearest))
    return found


def _cluster_sum(prefactor, members, others, mean, rho, nearest) -> tuple:
    """Sum, summed term magnitudes and tail bound of one cluster's residues.

    Its m residues sum to the divided difference h[p_1..p_m] of h(z) =
    prefactor / prod over the poles q outside, R^{1-m} sum_j a_{m-1+j}
    H_j(t/R): a_n are the Taylor coefficients of h(c + R u), H_j the
    complete homogeneous symmetric polynomials of the offsets t = p - c.
    Term j is below |h(c)| C(M, m-1) C(M+j, j) rho^j R^{1-m} (M + 2 poles),
    so the sum stops once the tail bound C(M+J, J) rho^J / (1 - rho
    (M+J+1)/(J+1)) is below 16 eps.
    """
    m = sum(mult for _, mult in members)
    big_m, count, tail = m - 2 + sum(mq for _, mq in others), 0, 1.0
    # tail = C(M + count, count) rho^count; step is the ratio of the next to it
    while (step := rho * (big_m + count + 1) / (count + 1)) >= 1 or tail > _ROUNDOFF * (1 - step):
        count, tail = count + 1, tail * step
    h0 = prefactor / math.prod((mean - q) ** mq for q, mq in others)
    scaled = [(nearest / (q - mean), mq) for q, mq in others]
    s = [sum(mq * x ** (j + 1) for x, mq in scaled) for j in range(m + count - 2)]
    a = [h0]
    for n in range(m + count - 2):
        a.append(sum(a[k] * s[n - k] for k in range(n + 1)) / (n + 1))
    hs = [1.0] + [0.0] * (count - 1)
    for t in [(p - mean) / nearest for p, mult in members for _ in range(mult)]:
        for j in range(1, count):
            hs[j] += t * hs[j - 1]
    terms = [a[m - 1 + j] * hs[j] for j in range(count)]
    bound = abs(h0) * math.comb(big_m, m - 1) * tail / (1.0 - step)
    return tuple(x / nearest ** (m - 1) for x in (sum(terms), sum(map(abs, terms)), bound))


def _half_plane_sum(
    factors: Sequence[Lorentzian], tau: float, clustered: bool = False
) -> tuple[complex, float]:
    """Sum of residues needed for (1/2pi) * integral prod_i L(w - c_i, k_i) e^{-i w tau} dw.

    One lag ``tau`` >= 0, on plain complex arithmetic: the contour closes
    in the lower half-plane, and at tau == 0, where either closure works,
    the lower one is kept and every phase is 1.  Only repeated poles merge
    (:func:`_group_poles`); ``clustered`` sums close distinct ones by
    :func:`_cluster_sum`.  Returns the sum and its error bound:
    ``_ROUNDOFF`` times the summed term magnitudes (their cancellation),
    plus the clusters' tail bounds.
    """
    if tau:
        from cmath import exp  # loaded only when a nonzero lag is summed
    lower_groups = _group_poles([complex(line.center, -line.hwhm) for line in factors])
    # the running-mean grouping commutes with conjugation
    upper_groups = [[p.conjugate(), m] for p, m in lower_groups]

    prefactor = 1.0
    for line in factors:
        prefactor *= 2.0 * line.hwhm

    all_groups = lower_groups + upper_groups
    total = 0.0 + 0.0j
    magnitude = truncation = 0.0
    clusters = _clusters(lower_groups, upper_groups) if clustered else ()
    for cluster in clusters:
        term, size, bound = _cluster_sum(prefactor, *cluster)
        total, magnitude, truncation = total + term, magnitude + size, truncation + bound
    for i, (pole, mult) in enumerate(lower_groups):
        if clusters and any(lower_groups[i] in cluster[0] for cluster in clusters):
            continue
        others = all_groups[:i] + all_groups[i + 1 :]
        # H(z) = C e^{-i z tau} prod (z - q)^{-mq}; residue = H^{(m-1)}(pole)/(m-1)!
        h0 = prefactor * exp(-1j * pole * tau) if tau else prefactor
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
    return -1j * total, _ROUNDOFF * magnitude + truncation


def lorentz_product_integral(prod: LorentzProduct) -> ProductIntegral:
    """Exact (1/2pi) * integral over the real axis of a Lorentzian product.

    The residue sum over one half-plane is exact for distinct poles and
    handles repeated poles through derivatives of the reduced product.
    Its ``error_estimate`` is 16 eps times the summed magnitudes of the
    residue terms: it bounds the round-off of their cancellation, which
    grows as distinct poles approach.  Where it exceeds ``REL_TOL`` of the
    value, each cluster of lower poles (spread r about their mean at most
    ``CLUSTER_RATIO`` times their distance R to the nearest other pole) is
    summed as one divided difference, a series in r/R that does not cancel,
    its a priori tail bound added (:func:`_cluster_sum`); the smaller bound
    wins.  If that fails :func:`accepts`, the adaptive quadrature takes
    over, under a :class:`DegeneratePolesWarning`.
    """
    total, error = _half_plane_sum(prod.factors, 0.0)
    if error > REL_TOL * abs(total.real):  # the terms cancel: sum close poles by cluster
        clustered = _half_plane_sum(prod.factors, 0.0, clustered=True)
        total, error = clustered if clustered[1] < error else (total, error)
    if accepts(total.real, error):
        return ProductIntegral(total.real, "residue", error)
    warn_at_caller(
        "near-coincident poles: falling back to adaptive quadrature", DegeneratePolesWarning
    )
    return adaptive_integral(lambda w: prod.value(w) / TWO_PI)


def lorentz_product_transform(
    prod: LorentzProduct, tau: float | np.ndarray
) -> complex | np.ndarray:
    """(1/2pi) * integral prod_i L(w - c_i, k_i) e^{-i w tau} dw for tau >= 0.

    ``tau`` is one lag, giving a ``complex``, or an array of lags, giving
    a complex array of the same shape; every lag must be finite and
    nonnegative.  Each lag is one exact residue sum of
    :func:`_half_plane_sum`, which merges only repeated poles, with the
    round-off bound of :func:`lorentz_product_integral`.  When the bound of
    any lag fails :func:`accepts`, the whole call falls back, lag by lag,
    to the Fourier-weighted quadrature of
    :func:`lorentz_transform_quadrature` under a single warning.
    """
    lags = np.asarray(tau, dtype=float)
    if not np.all((0.0 <= lags) & (lags < np.inf)):
        raise ParameterError("transform lags must be finite and >= 0; use conjugation for tau < 0")
    flat = lags.ravel().tolist()
    sums = [_half_plane_sum(prod.factors, t) for t in flat]
    if all(accepts(abs(value), bound) for value, bound in sums):
        values = [value for value, _ in sums]
    else:
        warn_at_caller(
            "near-coincident poles: transform falls back to adaptive quadrature",
            DegeneratePolesWarning,
        )
        values = [lorentz_transform_quadrature(prod, t) for t in flat]
    return values[0] if lags.ndim == 0 else np.array(values, dtype=complex).reshape(lags.shape)


def lorentz_transform_quadrature(prod: LorentzProduct, tau: float) -> complex:
    """Numerical route for the transform, independent of the residue path.

    Splits the axis at zero and hands each oscillatory half-line integral
    to the Fourier-weighted adaptive quadrature (cycle summation with
    extrapolation), so no truncation cutoff enters.  Zero lag is
    :func:`adaptive_integral`'s; other lags use absolute tolerance 1e-11.
    A lag that is not finite and >= 0 raises :class:`ParameterError`.
    """
    from scipy.integrate import quad

    if not 0.0 <= tau < math.inf:
        raise ParameterError("transform lag must be finite and nonnegative")
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
