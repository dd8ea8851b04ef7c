"""Property tests of the noise kernels over the valid domain.

Draws cover generic cavities and the near-coincident poles a residue sum
cancels at (delta = 0 or tiny, gamma_l = kappa_t (1 + eps)), at, near
and away from w = 0.  Every draw is checked against a 30-digit ``mpmath``
quadrature of the defining integrals: the closed forms K1 and K2 to
1e-13 relative, and K0's Lorentz-product integral to within the error
estimate it returns, which meets the default quadrature tolerance.
Derandomized, so every run draws the same examples.
"""

import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
mp = pytest.importorskip("mpmath")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fpinoise import (  # noqa: E402
    DegeneratePolesWarning,
    FpiParams,
    SourceParams,
    lorentz_product_integral,
    quantum_noise_kernel,
    reflection_cross_kernel,
)
from fpinoise.lorentz import DEFAULT_QUADRATURE, product  # noqa: E402
from fpinoise.source import KAPPA_L, source_linewidth  # noqa: E402
from routes import mp_classical_kernel, mp_commutator_kernels  # noqa: E402


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
    tol = DEFAULT_QUADRATURE
    assert r.error_estimate <= 10.0 * max(tol.abs_tol, tol.rel_tol * abs(r.value)), r.method
