"""Property tests of the noise kernels over the valid domain.

Draws cover generic cavities and the near-coincident poles a residue sum
cancels at (delta = 0 or tiny, gamma_l = kappa_t (1 + eps)), at, near
and away from w = 0.  Every draw is checked against a 30-digit ``mpmath``
quadrature of the defining integrals: the closed forms K1 and K2 to
1e-13 relative (and to 16 u of their exact rational values), and K0's
Lorentz-product integral to within the error estimate it returns, which
meets the default quadrature tolerance.  The
quantum sum rule and the zero-lag identities hold to 1e-15, and the
reflected noise stays above minus its round-off bound, also in a stratum
at critical coupling with narrow drive lines.  The line-mode lag
transform behind every lag curve matches its two-pole residue formula
at 50 digits over the same draws and over drive lines up to 1e3 times
broader than the mode, out to 50 decay times of the slower pole.  K0
itself is checked point by point against the exact rational residue sum,
over the same draws and three strata where its poles nearly or exactly
coincide: to ``REL_TOL``, within its own error estimate, with no warning
and with no call of the quadrature fallback.  Derandomized, so every run
draws the same examples.
"""

import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
mp = pytest.importorskip("mpmath")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fpinoise import (  # noqa: E402
    DegeneratePolesWarning,
    FpiParams,
    Lorentzian,
    SourceParams,
    classical_noise_kernel,
    lorentz_product_integral,
    lorentz_value,
    mean_photon_number,
    quantum_noise_kernel,
    reflected_autocorr,
    reflected_fluct_spectrum,
    reflection_cross_kernel,
    transmitted_autocorr,
)
from fpinoise import fluctuations, lorentz  # noqa: E402
from fpinoise.autocorr import _line_mode_transform  # noqa: E402
from fpinoise.cavity import reflected_power, transmitted_power  # noqa: E402
from fpinoise.lorentz import REL_TOL, accepts  # noqa: E402
from fpinoise.source import KAPPA_L, source_linewidth  # noqa: E402
from routes import (  # noqa: E402
    exact_kernels,
    exact_lorentz_integral,
    mp_classical_kernel,
    mp_commutator_kernels,
    product,
)


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


def _signed(magnitudes):
    return st.tuples(st.sampled_from((-1.0, 1.0)), magnitudes).map(lambda t: t[0] * t[1])


DETUNINGS = st.one_of(st.just(0.0), _signed(_log_uniform(-9.0, -3.0)), st.floats(-10.0, 10.0))
FREQUENCIES = st.one_of(st.just(0.0), _signed(_log_uniform(-12.0, -6.0)), st.floats(-20.0, 20.0))


DRAWS = given(
    kappa1=st.floats(0.05, 5.0),
    kappa2=st.floats(0.05, 5.0),
    kappa0=st.floats(0.01, 1.0),
    delta=DETUNINGS,
    eps=_log_uniform(-12.0, -1.0),
    p_in=st.floats(0.0, 60.0),
    omega=FREQUENCIES,
)


def _draw(kappa1, kappa2, kappa0, delta, eps, p_in):
    fpi = FpiParams(kappa1=kappa1, kappa2=kappa2, kappa0=kappa0, delta=delta)
    src = SourceParams(p_in=p_in, gamma_max=fpi.kappa_t * (1.0 + eps) * (1.0 + p_in / KAPPA_L))
    return fpi, src


@settings(derandomize=True, deadline=None, max_examples=60)
@DRAWS
def test_kernels_positive_even_and_exact(kappa1, kappa2, kappa0, delta, eps, p_in, omega):
    fpi, src = _draw(kappa1, kappa2, kappa0, delta, eps, p_in)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k1, k2 = quantum_noise_kernel(omega, fpi, src), reflection_cross_kernel(omega, fpi, src)
        assert k1 > 0.0 and k2 > 0.0
        assert quantum_noise_kernel(-omega, fpi, src) == k1
        assert reflection_cross_kernel(-omega, fpi, src) == k2
    with mp.workdps(30):
        exact1, exact2 = mp_commutator_kernels(mp, omega, source_linewidth(src), fpi.kappa_t, delta)
        assert abs(k1 / exact1 - 1) <= 1e-13
        assert abs(k2 / exact2 - 1) <= 1e-13


# Relative error of the closed-form K1 and K2 against their exact values
# at the float inputs, in units of u = 2^-53; 900 random draws like DRAWS
# reached 8.0 u.
CLOSED_FORM_ULPS = 16


@settings(derandomize=True, deadline=None, max_examples=60)
@DRAWS
def test_quantum_and_cross_kernels_match_the_exact_route(
    kappa1, kappa2, kappa0, delta, eps, p_in, omega
):
    fpi, src = _draw(kappa1, kappa2, kappa0, delta, eps, p_in)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = quantum_noise_kernel(omega, fpi, src), reflection_cross_kernel(omega, fpi, src)
    exact = exact_kernels(omega, source_linewidth(src), fpi.kappa_t, delta)
    for name, value, reference in zip(("K1", "K2"), values, exact):
        ulps = abs(Fraction(value) - reference) / reference * 2**53
        assert ulps <= CLOSED_FORM_ULPS, (name, float(ulps))


@settings(derandomize=True, deadline=None, max_examples=60)
@DRAWS
def test_classical_kernel_error_estimate_bounds_its_error(
    kappa1, kappa2, kappa0, delta, eps, p_in, omega
):
    fpi, src = _draw(kappa1, kappa2, kappa0, delta, eps, p_in)
    g, k = source_linewidth(src), fpi.kappa_t
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePolesWarning)
        r = lorentz_product_integral(product((omega, g), (omega + delta, k), (0.0, g), (delta, k)))
    with mp.workdps(30):
        exact = mp_classical_kernel(mp, omega, g, k, delta)
        assert abs(r.value - exact) <= r.error_estimate, (r.method, r.value, exact)
    assert accepts(r.value, r.error_estimate), r.method


@settings(derandomize=True, deadline=None, max_examples=60)
@DRAWS
def test_quantum_sum_rule_and_zero_lag_identities(
    kappa1, kappa2, kappa0, delta, eps, p_in, omega
):
    fpi, src = _draw(kappa1, kappa2, kappa0, delta, eps, p_in)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # (1/2pi) * integral A K1 dw = n, A = p_in kappa1 / kappa_t
        breaks = [-mp.inf, *sorted({-abs(delta), 0.0, abs(delta)}), mp.inf]
        area = mp.quad(lambda u: quantum_noise_kernel(float(u), fpi, src), breaks)
        n = mean_photon_number(fpi, src)
        assert abs(p_in * fpi.coupling * float(area / (2 * mp.pi)) - n) <= 1e-15 * n
        p_t, p_r = transmitted_power(fpi, src), reflected_power(fpi, src)
        # |2 kappa2 g1(0)|^2 = p_t^2 and |pr1(0)|^2 = p_r^2
        assert abs(transmitted_autocorr(fpi, src, 0.0).values[0] - p_t**2) <= 1e-15 * p_t**2
        assert abs(reflected_autocorr(fpi, src, 0.0).values[0] - p_r**2) <= 1e-15 * p_r**2


def _assert_k0_matches_the_exact_route(fpi, src, omega):
    """K0 at one point: a residue sum, exact to REL_TOL and to its own error bound.

    The point runs with warnings as errors and with ``adaptive_integral``
    counted, so a quadrature fallback fails the draw even where it would
    be accurate: a guard against the cliff that needs no timing.
    """
    quadratures, results = [], []
    quadrature = lorentz.adaptive_integral

    def counting_quadrature(f):
        quadratures.append(f)
        return quadrature(f)

    def recording_integral(prod):
        results.append(lorentz_product_integral(prod))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(lorentz, "adaptive_integral", counting_quadrature)
        patch.setattr(fluctuations, "lorentz_product_integral", recording_integral)
        warnings.simplefilter("error")
        value = classical_noise_kernel(omega, fpi, src)
    assert quadratures == []
    (result,) = results
    assert result.method == "residue" and result.value == value
    g, k, d = source_linewidth(src), fpi.kappa_t, fpi.delta
    exact, _ = exact_lorentz_integral([(omega, g), (omega + d, k), (0.0, g), (d, k)])
    error = abs(Fraction(value) - exact)
    assert error <= Fraction(REL_TOL) * exact, (float(error / exact), result)
    assert error <= Fraction(result.error_estimate), (float(error / exact), result)


@settings(derandomize=True, deadline=None, max_examples=60)
@DRAWS
def test_k0_matches_the_exact_route_without_quadrature(
    kappa1, kappa2, kappa0, delta, eps, p_in, omega
):
    fpi, src = _draw(kappa1, kappa2, kappa0, delta, eps, p_in)
    _assert_k0_matches_the_exact_route(fpi, src, omega)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    kappa1=st.floats(0.05, 5.0),
    kappa2=st.floats(0.05, 5.0),
    kappa0=st.floats(0.01, 1.0),
    eps=_log_uniform(-12.0, -2.0),
    p_in=st.floats(0.0, 60.0),
    omega=FREQUENCIES,
)
def test_k0_of_near_coincident_lines_at_zero_detuning(kappa1, kappa2, kappa0, eps, p_in, omega):
    # delta = 0 and gamma_l = kappa_t (1 + eps): all four lower poles close in
    _assert_k0_matches_the_exact_route(*_draw(kappa1, kappa2, kappa0, 0.0, eps, p_in), omega)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    kappa1=st.floats(0.05, 5.0),
    kappa2=st.floats(0.05, 5.0),
    kappa0=st.floats(0.01, 1.0),
    delta=DETUNINGS,
    gamma_l=_log_uniform(-9.0, -5.0),
    p_in=st.floats(0.0, 60.0),
    omega=st.one_of(st.just(0.0), _signed(_log_uniform(-12.0, -6.0))),
)
def test_k0_of_a_narrow_line_near_zero_frequency(
    kappa1, kappa2, kappa0, delta, gamma_l, p_in, omega
):
    # (w, gamma_l) and (0, gamma_l) pair up within w of each other, far
    # closer to each other than to anything but their conjugates
    fpi = FpiParams(kappa1=kappa1, kappa2=kappa2, kappa0=kappa0, delta=delta)
    src = SourceParams(p_in=p_in, gamma_max=gamma_l * (1.0 + p_in / KAPPA_L))
    _assert_k0_matches_the_exact_route(fpi, src, omega)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    kappa1=st.floats(0.05, 5.0),
    kappa2=st.floats(0.05, 5.0),
    kappa0=st.floats(0.01, 1.0),
    delta=st.one_of(st.just(0.0), DETUNINGS),
    same_width=st.booleans(),
    gamma_max=_log_uniform(-3.0, 1.0),
)
def test_k0_of_exactly_repeated_poles_at_zero_frequency(
    kappa1, kappa2, kappa0, delta, same_width, gamma_max
):
    # w = 0 repeats both lines; at delta = 0 with gamma_l = kappa_t all
    # four lower poles coincide
    fpi = FpiParams(kappa1=kappa1, kappa2=kappa2, kappa0=kappa0, delta=delta)
    src = SourceParams(p_in=0.0, gamma_max=fpi.kappa_t if same_width else gamma_max)
    _assert_k0_matches_the_exact_route(fpi, src, 0.0)


# The reflected noise p_in^2 [L(w, 2 gamma_l) - B K2 + B^2 K0] is a
# self-correlation, so nonnegative, but it is computed as a sum whose
# terms cancel (to about 1/gamma_l at critical coupling).  Its round-off
# is bounded by REFLECTED_MARGIN eps p_in^2 (L + B K2 + B^2 K0); 1,800
# random draws at critical coupling reached 1.77 of eps p_in^2 (...).
REFLECTED_MARGIN = 4.0


def _assert_reflected_above_round_off(fpi, src, omega):
    value = reflected_fluct_spectrum(omega, fpi, src).colored[0]
    g, b = source_linewidth(src), fpi.removal_rate
    terms = (
        lorentz_value(omega, Lorentzian(0.0, 2.0 * g))
        + b * reflection_cross_kernel(omega, fpi, src)
        + b * b * classical_noise_kernel(omega, fpi, src)
    )
    bound = REFLECTED_MARGIN * sys.float_info.epsilon * src.p_in**2 * terms
    assert value >= -bound, (value, bound)


@settings(derandomize=True, deadline=None, max_examples=60)
@DRAWS
def test_reflected_noise_above_its_round_off_bound(
    kappa1, kappa2, kappa0, delta, eps, p_in, omega
):
    fpi, src = _draw(kappa1, kappa2, kappa0, delta, eps, p_in)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePolesWarning)
        _assert_reflected_above_round_off(fpi, src, omega)


# The frequencies leave out 0 < |w| < 1e-5 or so, where K0 of a narrow
# line falls back to a quadrature that fails (test_fluctuations.py,
# test_k0_of_a_narrow_line_near_zero_matches_mpmath); "error" turns any
# fallback into a failure here.
@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    kappa2=st.floats(0.05, 5.0),
    kappa0=st.floats(0.01, 1.0),
    delta=st.one_of(st.just(0.0), _signed(_log_uniform(-9.0, -3.0))),
    gamma_l=_log_uniform(-9.0, -1.0),
    p_in=st.floats(0.0, 60.0),
    omega=st.one_of(st.just(0.0), st.floats(-20.0, 20.0)),
)
def test_reflected_noise_at_critical_coupling_above_its_round_off_bound(
    kappa2, kappa0, delta, gamma_l, p_in, omega
):
    fpi = FpiParams(kappa1=kappa2 + kappa0, kappa2=kappa2, kappa0=kappa0, delta=delta)
    src = SourceParams(p_in=p_in, gamma_max=gamma_l * (1.0 + p_in / KAPPA_L))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_reflected_above_round_off(fpi, src, omega)


# Relative error of the line-mode transform against the magnitudes of
# its two terms, per unit of the condition number 1 + (|b| + g) tau of
# e^{-g tau} and e^{-b tau} in the lag; 300 random draws over the
# ranges of both strata below reached 3.6e-16.
LINE_MODE_TOL = 1e-15


def _assert_line_mode_transform_matches_mpmath(g, k, d):
    # lags on both sides of the divided difference's series branch
    # (|z| < 1e-5), out to 50 decay times of the slower pole
    taus = np.concatenate(
        ([0.0, 1e-9, 1e-6 / max(g, k)], np.linspace(0.0, 50.0 / min(g, k), 26)[1:])
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _line_mode_transform(taus, g, k, d)
    with mp.workdps(50):
        g, k, d = mp.mpf(g), mp.mpf(k), mp.mpf(d)
        b = mp.mpc(k, d)
        line = 2 * (k + g) / ((g + mp.conj(b)) * (g + b))
        mixed = 2 * g / (g + b)
        for tau, value in zip(taus, values):
            t = mp.mpf(tau)
            # (e^{-g tau} - e^{-b tau}) / (b - g), or its limit at a double pole
            divided = t * mp.exp(-g * t) if b == g else (mp.exp(-g * t) - mp.exp(-b * t)) / (b - g)
            terms = (line * mp.exp(-g * t), mixed * divided)
            error = abs(mp.mpc(value) - sum(terms))
            bound = LINE_MODE_TOL * (1 + (abs(b) + g) * t) * sum(map(abs, terms))
            assert error <= bound, (float(tau), float(error), float(bound))


@settings(derandomize=True, deadline=None, max_examples=60)
@DRAWS
def test_line_mode_transform_matches_the_residue_formula(
    kappa1, kappa2, kappa0, delta, eps, p_in, omega
):
    fpi, src = _draw(kappa1, kappa2, kappa0, delta, eps, p_in)
    _assert_line_mode_transform_matches_mpmath(source_linewidth(src), fpi.kappa_t, delta)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    kappa_t=_log_uniform(-1.5, 1.1),
    ratio=_log_uniform(0.0, 3.0),
    delta=DETUNINGS,
)
def test_line_mode_transform_of_a_broad_line_matches_the_residue_formula(kappa_t, ratio, delta):
    _assert_line_mode_transform_matches_mpmath(kappa_t * ratio, kappa_t, delta)
