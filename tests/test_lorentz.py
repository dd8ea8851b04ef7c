"""Lorentzian primitives: residue integrals against the quadrature oracle."""

import math
import os
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fpinoise import (
    ConvergenceError,
    DegeneratePolesWarning,
    Lorentzian,
    ParameterError,
    SourceParams,
    adaptive_integral,
    lorentz_product_integral,
    lorentz_product_transform,
    lorentz_value,
)
import fpinoise.lorentz as lorentz
from fpinoise.config import DEFAULT_TAU_GRID
from fpinoise.lorentz import REL_TOL, TWO_PI, lorentz_transform_quadrature, map_over_omega
from fpinoise.source import source_linewidth
from routes import (
    exact_lorentz_integral,
    half_plane_sum_route,
    lorentz_convolve,
    lorentz_value_route,
    mp_classical_kernel,
    product,
    product_value_route,
)


class TestLorentzValue:
    def test_peak_value(self):
        line = Lorentzian(0.0, 1.1)
        assert lorentz_value(0.0, line) == pytest.approx(2.0 / 1.1, rel=1e-15)

    def test_half_maximum_at_hwhm(self):
        line = Lorentzian(2.0, 0.7)
        peak = lorentz_value(2.0, line)
        assert lorentz_value(2.0 + 0.7, line) == pytest.approx(0.5 * peak, rel=1e-15)
        assert lorentz_value(2.0 - 0.7, line) == pytest.approx(0.5 * peak, rel=1e-15)

    def test_off_peak_value(self):
        # direct evaluation 2k/(w^2 + k^2) at w=5, k=1.1588
        assert lorentz_value(5.0, Lorentzian(0.0, 1.1588)) == pytest.approx(
            0.0879784406234719, rel=1e-12
        )

    def test_array_input(self):
        line = Lorentzian(1.0, 0.5)
        grid = np.array([-1.0, 1.0, 3.0])
        values = lorentz_value(grid, line)
        assert values.shape == (3,)
        assert values[1] == pytest.approx(4.0)

    def test_positive_everywhere(self, rng):
        line = Lorentzian(rng.uniform(-5, 5), rng.uniform(0.05, 5))
        assert np.all(lorentz_value(rng.uniform(-100, 100, size=64), line) > 0)

    def test_normalization(self):
        line = Lorentzian(0.7, 1.3)
        est = adaptive_integral(lambda w: lorentz_value(w, line) / TWO_PI)
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_invalid_hwhm_rejected(self):
        with pytest.raises(ParameterError):
            Lorentzian(0.0, 0.0)
        with pytest.raises(ParameterError):
            Lorentzian(0.0, -1.0)


def _assert_exact_residue(prod):
    """The integral of ``prod`` is a residue sum within its error estimate, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = lorentz_product_integral(prod)
    assert result.method == "residue"
    exact, _ = exact_lorentz_integral([(line.center, line.hwhm) for line in prod.factors])
    assert abs(Fraction(result.value) - exact) <= Fraction(result.error_estimate)
    return result


def _bits(x) -> tuple:
    x = np.asarray(x)
    return x.dtype.str, x.shape, x.tobytes()


class TestScalarTypes:
    LINE = Lorentzian(0.4, 0.9)
    PROD = product((0.4, 0.9), (-1.0, 0.3), (2.0, 1.7))

    def _functions(self):
        return (
            lambda w: lorentz_value(w, self.LINE),
            self.PROD.value,
            lambda w: map_over_omega(self.PROD.value, w),
        )

    def test_scalars_give_python_float(self):
        for fn in self._functions():
            for w in (3.0, np.float64(3.0), 3, np.array(3.0)):
                value = fn(w)
                assert type(value) is float
                assert _bits(value) == _bits(fn(3.0))

    def test_arrays_keep_their_shape(self, rng):
        for fn in self._functions():
            for shape in ((7,), (3, 4)):
                grid = rng.uniform(-5, 5, size=shape)
                values = fn(grid)
                assert values.shape == shape and values.dtype == np.float64
                per_point = [fn(float(w)) for w in grid.ravel()]
                assert _bits(values.ravel()) == _bits(np.array(per_point))

    def test_empty_array_gives_empty_float_array(self):
        for fn in self._functions():
            values = fn(np.array([]))
            assert values.shape == (0,) and values.dtype == np.float64

    def test_float_branch_matches_route(self, rng):
        for w in [0.4, -0.0, 1e150, -1e-300, *rng.uniform(-50, 50, size=200)]:
            w = float(w)
            assert _bits(lorentz_value(w, self.LINE)) == _bits(lorentz_value_route(w, self.LINE))
            assert _bits(self.PROD.value(w)) == _bits(product_value_route(self.PROD, w))


class TestConvolve:
    def test_zero_shift_unit_widths(self):
        assert lorentz_convolve(0.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_widths_add(self):
        assert lorentz_convolve(5.0, 0.0588, 1.1) == pytest.approx(
            lorentz_value(5.0, Lorentzian(0.0, 0.0588 + 1.1)), rel=1e-15
        )

    def test_against_quadrature_of_convolution_integral(self):
        shift, g1, g2 = 5.0, 0.0588, 1.1
        est = adaptive_integral(
            lambda w: lorentz_value(w, Lorentzian(0.0, g1))
            * lorentz_value(shift - w, Lorentzian(0.0, g2))
            / TWO_PI,
        )
        assert est.value == pytest.approx(lorentz_convolve(shift, g1, g2), rel=1e-10)

    def test_random_triples_match_quadrature(self, rng):
        for _ in range(100):
            shift = rng.uniform(-10, 10)
            g1, g2 = rng.uniform(0.05, 5, size=2)
            closed = lorentz_convolve(shift, g1, g2)
            est = adaptive_integral(
                lambda w: lorentz_value(w, Lorentzian(0.0, g1))
                * lorentz_value(shift - w, Lorentzian(0.0, g2))
                / TWO_PI,
            )
            assert est.value == pytest.approx(closed, rel=1e-8)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ParameterError):
            lorentz_convolve(0.0, -1.0, 1.0)


class TestProductIntegral:
    def test_single_factor_normalization(self):
        result = lorentz_product_integral(product((3.0, 0.8)))
        assert result.value == pytest.approx(1.0, rel=1e-14)
        assert result.method == "residue"

    def test_two_factors_reduce_to_convolution(self):
        result = lorentz_product_integral(product((0.0, 1.2), (5.0, 1.1)))
        assert result.value == pytest.approx(lorentz_convolve(5.0, 1.2, 1.1), rel=1e-14)

    def test_four_factors_match_quadrature(self):
        # interferometer-study shape: gamma_l = 0.45, kappa_t = 1.1, delta = 5
        prod = product((0.0, 0.45), (-5.0, 1.1), (3.0, 0.45), (5.0, 1.1))
        result = lorentz_product_integral(prod)
        est = adaptive_integral(lambda w: prod.value(w) / TWO_PI)
        assert result.value == pytest.approx(est.value, rel=1e-8)

    def test_repeated_poles_handled_by_multiplicity(self):
        # squared pair: both factor pairs coincide exactly
        prod = product((0.0, 0.5), (5.0, 1.1), (0.0, 0.5), (5.0, 1.1))
        result = lorentz_product_integral(prod)
        assert result.method == "residue"
        est = adaptive_integral(lambda w: prod.value(w) / TWO_PI)
        assert result.value == pytest.approx(est.value, rel=1e-10)

    def test_fully_degenerate_quadruple_pole(self):
        prod = product(*[(1.0, 0.8)] * 4)
        result = lorentz_product_integral(prod)
        assert result.method == "residue"
        est = adaptive_integral(lambda w: prod.value(w) / TWO_PI)
        assert result.value == pytest.approx(est.value, rel=1e-10)

    def test_near_degenerate_falls_back_to_quadrature(self, monkeypatch):
        monkeypatch.setattr(lorentz, "CLUSTER_RATIO", 0.0)
        prod = product((0.0, 0.5), (1e-11, 0.5))
        with pytest.warns(DegeneratePolesWarning):
            result = lorentz_product_integral(prod)
        assert result.method == "quadrature"
        assert result.value == pytest.approx(lorentz_convolve(0.0, 0.5, 0.5), rel=1e-8)

    def test_near_degenerate_poles_are_summed_as_one_cluster(self):
        _assert_exact_residue(product((0.0, 0.5), (1e-11, 0.5)))

    def test_randomized_residue_vs_quadrature(self, rng):
        for _ in range(60):
            n = rng.integers(2, 5)
            pairs = [(rng.uniform(-10, 10), rng.uniform(0.05, 5)) for _ in range(n)]
            prod = product(*pairs)
            result = lorentz_product_integral(prod)
            est = adaptive_integral(lambda w: prod.value(w) / TWO_PI)
            assert result.value == pytest.approx(est.value, rel=1e-8)
            assert result.value > 0.0

    def test_permutation_invariance(self, rng):
        pairs = [(rng.uniform(-8, 8), rng.uniform(0.1, 3)) for _ in range(4)]
        base = lorentz_product_integral(product(*pairs)).value
        order = rng.permutation(4)
        shuffled = lorentz_product_integral(product(*[pairs[i] for i in order])).value
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_translation_invariance(self, rng):
        pairs = [(rng.uniform(-8, 8), rng.uniform(0.1, 3)) for _ in range(3)]
        base = lorentz_product_integral(product(*pairs)).value
        moved = lorentz_product_integral(
            product(*[(c + 4.321, k) for c, k in pairs])
        ).value
        assert moved == pytest.approx(base, rel=1e-12)

    def test_center_negation_invariance(self, rng):
        pairs = [(rng.uniform(-8, 8), rng.uniform(0.1, 3)) for _ in range(4)]
        base = lorentz_product_integral(product(*pairs)).value
        mirrored = lorentz_product_integral(product(*[(-c, k) for c, k in pairs])).value
        assert mirrored == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("p_in", (0.1, 1.5, 5.0))
    def test_error_estimate_bounds_the_error(self, fpi, p_in, monkeypatch):
        # K0's integrand, whose poles pair up as w -> 0: exact repeats at
        # w = 0, cancelling residue terms just above it, whose bound misses
        # the tolerance and, without clusters, sends the integral to quadrature
        mp = pytest.importorskip("mpmath")
        monkeypatch.setattr(lorentz, "CLUSTER_RATIO", 0.0)
        g, kt, d = source_linewidth(SourceParams(p_in=p_in)), fpi.kappa_t, fpi.delta
        methods = {0.0: "residue", 1e-8: "quadrature", 1e-6: "quadrature",
                   1e-5: "quadrature", 1e-3: "residue", 0.3: "residue"}
        for w, method in methods.items():
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                result = lorentz_product_integral(product((w, g), (w + d, kt), (0.0, g), (d, kt)))
            assert result.method == method, w
            assert [r.category for r in record] == [DegeneratePolesWarning] * (method == "quadrature")
            with mp.workdps(50):
                error = abs(mp.mpf(result.value) - mp_classical_kernel(mp, w, g, kt, d))
            assert error <= result.error_estimate, (w, float(error))
            assert lorentz.accepts(result.value, result.error_estimate)

    @pytest.mark.parametrize("p_in", (0.1, 1.5, 5.0))
    def test_clusters_serve_every_point_of_the_error_estimate_table(self, fpi, p_in):
        g, kt, d = source_linewidth(SourceParams(p_in=p_in)), fpi.kappa_t, fpi.delta
        for w in (0.0, 1e-8, 1e-6, 1e-5, 1e-3, 0.3):
            _assert_exact_residue(product((w, g), (w + d, kt), (0.0, g), (d, kt)))

    def test_factor_count_bounds(self):
        with pytest.raises(ParameterError):
            product(*[(0.0, 1.0)] * 5)
        with pytest.raises(ParameterError):
            product()


class TestAdaptiveIntegral:
    def test_lorentzian_normalization(self):
        est = adaptive_integral(lambda w: lorentz_value(w, Lorentzian(0.0, 1.0)) / TWO_PI)
        assert est.value == pytest.approx(1.0, abs=1e-10)
        assert est.error_estimate < 1e-9

    def test_convolution_identity(self):
        est = adaptive_integral(
            lambda w: lorentz_value(w, Lorentzian(0.0, 0.6))
            * lorentz_value(3.0 - w, Lorentzian(0.0, 1.7))
            / TWO_PI
        )
        assert est.value == pytest.approx(lorentz_convolve(3.0, 0.6, 1.7), rel=1e-9)

    def test_matches_residue_engine_on_quartic_integrand(self):
        prod = product((0.0, 0.45), (5.0, 1.1), (5.0, 0.45), (10.0, 1.1))
        est = adaptive_integral(lambda w: prod.value(w) / TWO_PI)
        assert est.value == pytest.approx(
            lorentz_product_integral(prod).value, rel=1e-8
        )

    def test_convergence_failure_raises(self):
        # two lines 1e-5 wide, 4 apart: quad reports "probably divergent"
        spiky = product((0.0, 1e-5), (4.0, 1e-5))
        with pytest.raises(ConvergenceError) as info:
            adaptive_integral(lambda w: spiky.value(w) / TWO_PI)
        assert math.isfinite(info.value.estimate)
        assert info.value.error_bound > 0.0

    def test_acceptance_rule(self):
        assert lorentz.accepts(2.0, 1.9e-10)
        assert not lorentz.accepts(2.0, 2.1e-10)
        assert lorentz.accepts(-2.0, 1.9e-10)
        assert lorentz.accepts(0.0, 0.9e-12)
        assert not lorentz.accepts(0.0, 1.1e-12)
        assert not lorentz.accepts(1.0, math.nan)
        assert not lorentz.accepts(math.inf, math.inf)


class TestProductTransform:
    def test_single_line_gives_exponential(self):
        for tau in (0.0, 0.5, 2.0, 9.0):
            value = lorentz_product_transform(product((0.0, 0.7)), tau)
            assert type(value) is complex
            assert value == pytest.approx(math.exp(-0.7 * tau), rel=1e-13)

    def test_shifted_line_gives_rotating_exponential(self):
        value = lorentz_product_transform(product((5.0, 1.1)), 0.8)
        expected = np.exp(-(1j * 5.0 + 1.1) * 0.8)
        assert value == pytest.approx(expected, rel=1e-13)

    def test_pair_matches_fourier_quadrature(self):
        prod = product((0.0, 0.5), (5.0, 1.1))
        for tau in (0.3, 1.7, 6.4):
            exact = lorentz_product_transform(prod, tau)
            numeric = lorentz_transform_quadrature(prod, tau)
            assert exact == pytest.approx(numeric, abs=1e-9)

    def test_repeated_pole_transform(self):
        # L(w, g)^2 transforms to (1/g)(1 + g tau) e^{-g tau}
        g = 0.5
        prod = product((0.0, g), (0.0, g))
        for tau in (0.0, 0.8, 3.0):
            value = lorentz_product_transform(prod, tau)
            expected = (1.0 + g * tau) * math.exp(-g * tau) / g
            assert value == pytest.approx(expected, rel=1e-12)

    def test_zero_lag_equals_product_integral(self, rng):
        pairs = [(rng.uniform(-5, 5), rng.uniform(0.1, 2)) for _ in range(3)]
        prod = product(*pairs)
        assert lorentz_product_transform(prod, 0.0).real == pytest.approx(
            lorentz_product_integral(prod).value, rel=1e-12
        )

    def test_negative_lag_rejected(self):
        with pytest.raises(ParameterError):
            lorentz_product_transform(product((0.0, 1.0)), -1.0)
        with pytest.raises(ParameterError):
            lorentz_product_transform(product((0.0, 1.0)), np.array([0.0, 2.0, -1e-9, 3.0]))

    def test_array_of_lags_matches_per_lag_calls(self, fpi, sweep_sources):
        taus = DEFAULT_TAU_GRID.build()
        shapes = [
            product((0.0, source_linewidth(src)), (fpi.delta, fpi.kappa_t))
            for src in sweep_sources
        ]
        shapes.append(product((0.0, 0.5), (0.0, 0.5)))  # repeated pole
        for prod in shapes:
            values = lorentz_product_transform(prod, taus)
            assert values.shape == taus.shape
            per_lag = np.array([lorentz_product_transform(prod, float(t)) for t in taus])
            assert np.allclose(values, per_lag, rtol=1e-12, atol=0.0)

    def test_near_degenerate_array_falls_back_with_one_warning(self):
        prod = product((0.0, 1.0), (0.0, 1.0 + 1e-11))
        taus = np.array([0.0, 0.6, 2.5])
        with pytest.warns(DegeneratePolesWarning) as record:
            values = lorentz_product_transform(prod, taus)
        assert len(record) == 1
        per_lag = [lorentz_transform_quadrature(prod, float(t)) for t in taus]
        assert np.array_equal(values, np.array(per_lag))

    def test_distinct_poles_of_a_narrow_line_stay_apart_at_every_lag(self):
        # the K0 product at gamma_l = 1e-9, kappa_t = 1.7, delta = 0 and
        # w = 1e-12: the two narrow lines are 1e-12 apart, and taking them
        # for one double pole puts lag 0 off by 2.5e-7 relative
        pairs = [(1e-12, 1e-9), (1e-12, 1.7), (0.0, 1e-9), (0.0, 1.7)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = lorentz_product_transform(product(*pairs), np.array([0.0, 0.5, 2.0]))
        exact, _ = exact_lorentz_integral(pairs)
        assert abs(Fraction(values[0].real) - exact) <= Fraction(REL_TOL) * exact

    def test_lags_that_are_not_finite_are_rejected(self):
        # scipy's Fourier-weighted quad crashes the interpreter on a NaN or
        # infinite lag, so the calls run in a child process
        script = textwrap.dedent(
            """
            import math
            import numpy as np
            from fpinoise.errors import ParameterError
            from fpinoise.lorentz import (
                Lorentzian, LorentzProduct, lorentz_product_transform, lorentz_transform_quadrature,
            )
            prod = LorentzProduct((Lorentzian(0.0, 0.5), Lorentzian(5.0, 1.1)))
            for bad in (math.nan, math.inf, -math.inf):
                for name, call, lag in (
                    ("quadrature", lorentz_transform_quadrature, bad),
                    ("transform", lorentz_product_transform, bad),
                    ("transform", lorentz_product_transform, np.array([[0.0, 1.0], [bad, 2.0]])),
                ):
                    try:
                        call(prod, lag)
                    except ParameterError:
                        continue
                    raise SystemExit(f"{name} accepted the lag {lag!r}")
            """
        )
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert run.returncode == 0, (run.returncode, run.stderr)


def _random_pairs(rng, n: int) -> list[tuple[float, float]]:
    return [(float(rng.uniform(-10, 10)), float(rng.uniform(0.05, 5))) for _ in range(n)]


def _route_cases(rng):
    """Random 1-4 factor products, signed-zero centers and repeated poles."""
    for _ in range(300):
        yield _random_pairs(rng, int(rng.integers(1, 5)))
    for signs in ((0.0, -0.0), (-0.0, -0.0), (-0.0, 0.0)):
        yield [(signs[0], 0.5), (5.0, 1.1), (signs[1], 0.5), (5.0, 1.1)]
    for mult in (2, 3, 4):
        for _ in range(20):
            pairs = _random_pairs(rng, 1) * mult + _random_pairs(rng, 4 - mult)
            yield [pairs[i] for i in rng.permutation(4)]


class TestEngineMatchesRoute:
    """The residue engine against its pre-fast-path form, bit for bit."""

    def test_integrals(self, rng):
        for pairs in _route_cases(rng):
            centers, widths = zip(*pairs)
            result = lorentz_product_integral(product(*pairs))
            assert result.method == "residue"
            expected = half_plane_sum_route(centers, widths, 0.0).real
            assert _bits(result.value) == _bits(expected), pairs

    def test_transforms_over_lag_arrays(self, rng):
        taus = np.concatenate(([0.0], rng.uniform(0.0, 20.0, size=23))).reshape(4, 6)
        for pairs in _route_cases(rng):
            centers, widths = zip(*pairs)
            values = lorentz_product_transform(product(*pairs), taus)
            per_lag = [half_plane_sum_route(centers, widths, t) for t in taus.ravel().tolist()]
            assert _bits(values) == _bits(np.reshape(per_lag, taus.shape)), pairs

    def test_fallback_equals_quadrature_of_route_integrand(self, monkeypatch):
        monkeypatch.setattr(lorentz, "CLUSTER_RATIO", 0.0)
        prod = product((0.0, 1.0), (0.0, 1.0 + 5e-10), (0.3, 0.5))
        with pytest.warns(DegeneratePolesWarning):
            result = lorentz_product_integral(prod)
        assert result.method == "quadrature"
        expected = adaptive_integral(lambda w: product_value_route(prod, w) / TWO_PI)
        assert _bits(result.value) == _bits(expected.value)
        assert _bits(result.error_estimate) == _bits(expected.error_estimate)

    def test_near_coincident_poles_of_the_fallback_product_are_one_cluster(self):
        _assert_exact_residue(product((0.0, 1.0), (0.0, 1.0 + 5e-10), (0.3, 0.5)))

    @staticmethod
    def _count_asarray(monkeypatch) -> list:
        calls = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def asarray(self, *args, **kwargs):
                calls.append(args)
                return np.asarray(*args, **kwargs)

        monkeypatch.setattr(lorentz, "np", CountingNumpy())
        return calls

    def test_fallback_integrand_makes_no_numpy_arrays(self, monkeypatch):
        # a deterministic guard on the float fast path: a regression shows
        # as asarray calls, not as a timing on a noisy machine
        monkeypatch.setattr(lorentz, "CLUSTER_RATIO", 0.0)
        calls = self._count_asarray(monkeypatch)
        prod = product((0.0, 1.0), (0.0, 1.0 + 5e-10), (0.3, 0.5))
        with pytest.warns(DegeneratePolesWarning):
            assert lorentz_product_integral(prod).method == "quadrature"
        assert calls == []
        lorentz.lorentz_value(np.float64(0.3), prod.factors[0])
        assert len(calls) == 1  # the proxy does see the numpy branch

    def test_cluster_sum_makes_no_numpy_arrays(self, monkeypatch):
        calls = self._count_asarray(monkeypatch)
        _assert_exact_residue(product((0.0, 1.0), (0.0, 1.0 + 5e-10), (0.3, 0.5)))
        assert calls == []
        lorentz.lorentz_value(np.float64(0.3), Lorentzian(0.0, 1.0))
        assert len(calls) == 1  # the proxy does see the numpy branch


class TestExactRoute:
    """``routes.exact_lorentz_integral``, the rational reference of the engine."""

    def test_a_single_line_integrates_to_exactly_one(self, rng):
        for center, width in [(0.0, 1.0), (3.0, 0.8), *rng.uniform(0.01, 5.0, size=(10, 2))]:
            assert exact_lorentz_integral([(float(center), float(width))]) == (1, 0)

    def test_the_imaginary_part_is_exactly_zero(self, rng):
        for pairs in _route_cases(np.random.default_rng(5)):
            _, imag = exact_lorentz_integral(pairs)
            assert imag == 0, pairs
            if rng.random() < 0.05:
                break

    @pytest.mark.parametrize("mult", (2, 3, 4))
    def test_repeated_poles_match_mpmath(self, mult):
        mp = pytest.importorskip("mpmath")
        pairs = [(0.7, 0.3)] * mult + [(1.9, 0.5), (-0.4, 1.3)][: 4 - mult]
        exact, _ = exact_lorentz_integral(pairs)
        with mp.workdps(40):

            def integrand(u):
                out = mp.mpf(1)
                for c, k in pairs:
                    out *= 2 * mp.mpf(k) / ((u - c) ** 2 + mp.mpf(k) ** 2)
                return out

            breaks = [-mp.inf, *sorted({c for c, _ in pairs}), mp.inf]
            quadrature = mp.quad(integrand, breaks) / (2 * mp.pi)
            assert abs(mp.mpf(exact.numerator) / exact.denominator / quadrature - 1) < 1e-25
