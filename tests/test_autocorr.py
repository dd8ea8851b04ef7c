"""Lag autocorrelations: closed forms vs residue, mpmath, cosine-quadrature and brute force."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fpinoise import (
    AutoCorrelation,
    DegeneratePolesWarning,
    FpiParams,
    ParameterError,
    SourceParams,
    cavity_autocorr,
    cavity_field_spectrum,
    cavity_fluctuation_spectrum,
    commutator_spectrum,
    lorentz_product_transform,
    mean_photon_number,
    reflected_autocorr,
    reflected_fluct_spectrum,
    transmitted_autocorr,
    transmitted_fluct_spectrum,
)
from fpinoise.autocorr import _line_mode_transform
from fpinoise.cavity import reflected_power, transmitted_power
from fpinoise.config import DEFAULT_TAU_GRID, GridSpec, RunConfig
from fpinoise.figures import autocorr_product
from fpinoise.fluctuations import (
    SpectrumDecomposition,
    cavity_fluct_components,
)
from fpinoise.source import source_linewidth
from routes import CoverageError, autocorr_from_spectrum, dominant_oscillation_frequency, product

TAUS = DEFAULT_TAU_GRID.build()


def _mp_line_mode(mp, taus, g, k, d):
    """Two-pole residue sum of the line-mode lag transform at 50 digits (mpc list)."""
    with mp.workdps(50):
        g, k, d = mp.mpf(g), mp.mpf(k), mp.mpf(d)
        b = mp.mpc(k, d)
        out = []
        for tau in map(mp.mpf, taus):
            if b == g:  # double pole at -ig
                out.append((1 / g + tau) * mp.exp(-g * tau))
            else:
                out.append(
                    2 * k * mp.exp(-g * tau) / ((g + mp.conj(b)) * (b - g))
                    - 2 * g * mp.exp(-b * tau) / ((g + b) * (b - g))
                )
        return out


def _max_deviation(values, reference) -> float:
    """Largest |values - reference| over the largest |reference|."""
    reference = np.asarray([complex(r) for r in reference])
    return float(np.max(np.abs(values - reference)) / np.max(np.abs(reference)))


def _cosine_transform_oracle(spectrum_fn, tau: float) -> float:
    """(1/pi) * integral_0^inf S(w) cos(w tau) dw for an even spectrum S."""
    if tau == 0.0:
        body, _ = quad(spectrum_fn, 0.0, 60.0, limit=400, points=[0.0, 5.0])
        tail, _ = quad(spectrum_fn, 60.0, np.inf, limit=200)
        return (body + tail) / math.pi
    value, _ = quad(
        spectrum_fn, 0.0, np.inf, weight="cos", wvar=tau, limlst=300, limit=200
    )
    return value / math.pi


class TestLineModeTransform:
    def test_matches_residue_transform(self, fpi, sweep_sources):
        cases = [
            (TAUS, source_linewidth(src), fpi.kappa_t, d)
            for src in sweep_sources
            for d in (5.0, 0.4, -2.0)
        ]
        # a drive line much broader than the mode, out to lags where
        # e^{(gamma_l - kappa_t) tau} alone would overflow
        cases.append((np.linspace(0.0, 400.0, 801), 1000.0, 0.2, 5.0))
        for taus, g, k, d in cases:
            exact = lorentz_product_transform(product((0.0, g), (d, k)), taus)
            closed = _line_mode_transform(taus, g, k, d)
            assert np.all(np.isfinite(closed))
            assert np.max(np.abs(closed - exact)) <= 1e-14 * np.max(np.abs(exact))

    def test_matches_mpmath_at_near_coincident_poles(self):
        mp = pytest.importorskip("mpmath")
        k = 1.1
        cases = [(k * (1.0 + eps), 0.0) for eps in (1e-11, 1e-9, 1e-7, 1e-5, 1e-3)]
        cases += [(k, 0.0), (k, 1e-7)]
        for g, d in cases:
            reference = _mp_line_mode(mp, TAUS, g, k, d)
            assert _max_deviation(_line_mode_transform(TAUS, g, k, d), reference) <= 1e-14

    def test_scalar_lag_gives_complex(self):
        assert type(_line_mode_transform(0.7, 1.2, 1.1, 5.0)) is complex

    def test_negative_lag_rejected(self):
        with pytest.raises(ParameterError):
            _line_mode_transform(-0.1, 1.2, 1.1, 5.0)


class TestNearCoincidentPoles:
    def test_autocorrs_at_degenerate_poles_match_mpmath_without_warning(self):
        # delta = 0 and gamma_l = kappa_t (1 + 1e-11): the residue engine's
        # near-degeneracy fallback region
        mp = pytest.importorskip("mpmath")
        fpi = FpiParams(delta=0.0)
        src = SourceParams(p_in=1.5, gamma_max=fpi.kappa_t * (1.0 + 1e-11) * 2.5)
        g = source_linewidth(src)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegeneratePolesWarning)
            cavity = cavity_autocorr(fpi, src, TAUS)
            transmitted = transmitted_autocorr(fpi, src, TAUS)
            reflected = reflected_autocorr(fpi, src, TAUS)
        with mp.workdps(50):
            line_mode = _mp_line_mode(mp, TAUS, g, fpi.kappa_t, 0.0)
            p_in, kappa_t = mp.mpf(src.p_in), mp.mpf(fpi.kappa_t)
            g1 = [p_in * mp.mpf(fpi.coupling) * t for t in line_mode]
            c1 = [mp.exp(-kappa_t * mp.mpf(tau)) for tau in TAUS]
            pr1 = [
                p_in * (mp.exp(-mp.mpf(g) * mp.mpf(tau)) - mp.mpf(fpi.removal_rate) * t)
                for tau, t in zip(TAUS, line_mode)
            ]
            expected = {
                "cavity": [abs(a) ** 2 + mp.re(a * c) for a, c in zip(g1, c1)],
                "transmitted": [(2 * mp.mpf(fpi.kappa2)) ** 2 * abs(a) ** 2 for a in g1],
                "reflected": [abs(r) ** 2 for r in pr1],
            }
        for name, ac in (("cavity", cavity), ("transmitted", transmitted), ("reflected", reflected)):
            assert _max_deviation(ac.values, expected[name]) <= 1e-14, name


class TestCavityAutocorr:
    def test_zero_lag_reaches_thermal_variance(self, fpi, sweep_sources):
        for src in sweep_sources:
            n = mean_photon_number(fpi, src)
            ac = cavity_autocorr(fpi, src, TAUS)
            assert ac.values[0] == pytest.approx(n * (n + 1.0), rel=1e-10)
            assert ac.classical[0] == pytest.approx(n * n, rel=1e-10)
            assert ac.quantum[0] == pytest.approx(n, rel=1e-10)

    def test_components_sum_to_values(self, fpi):
        ac = cavity_autocorr(fpi, SourceParams(p_in=5.0), TAUS)
        assert np.allclose(ac.values, ac.classical + ac.quantum, rtol=0, atol=0)
        assert ac.delta_weight == 0.0

    def test_against_cosine_quadrature(self, fpi):
        src = SourceParams(p_in=5.0)
        ac = cavity_autocorr(fpi, src, np.array([0.0, 0.7, 3.1, 8.5]))
        for i, tau in enumerate((0.0, 0.7, 3.1, 8.5)):
            oracle = _cosine_transform_oracle(
                lambda w: sum(cavity_fluct_components(w, fpi, src)), tau
            )
            assert ac.values[i] == pytest.approx(oracle, abs=2e-8)

    def test_against_brute_force_double_integral(self, fpi):
        # direct two-frequency integral of the defining correlation, on
        # tabulated spectra: inner shift integral by trapezoid, outer
        # oscillatory integral by trapezoid against cos(w tau)
        src = SourceParams(p_in=1.5)
        inner_grid = np.linspace(-220.0, 220.0, 60001)
        n_tab = cavity_field_spectrum(inner_grid, fpi, src)
        c_tab = commutator_spectrum(inner_grid, fpi)
        outer_grid = np.linspace(-60.0, 60.0, 8001)

        def inner(w):
            shifted = np.interp(
                inner_grid + w, inner_grid, n_tab, left=0.0, right=0.0
            )
            return np.trapezoid(shifted * (n_tab + c_tab), inner_grid) / (2 * np.pi)

        inner_values = np.array([inner(w) for w in outer_grid])
        ac = cavity_autocorr(fpi, src, np.array([0.4, 1.9, 6.0]))
        scale = cavity_autocorr(fpi, src, np.array([0.0])).values[0]
        for i, tau in enumerate((0.4, 1.9, 6.0)):
            brute = np.trapezoid(
                inner_values * np.cos(outer_grid * tau), outer_grid
            ) / (2 * np.pi)
            # truncating the 1/w^2 quantum tail at the outer grid edge
            # limits the naive oracle to ~1e-4 of the zero-lag scale
            assert abs(ac.values[i] - brute) < 5e-4 * scale

    def test_weak_broad_drive_monotone(self, fpi):
        ac = cavity_autocorr(fpi, SourceParams(p_in=0.1), TAUS)
        assert np.all(np.diff(ac.values) <= 1e-12 * ac.values[0])

    def test_intermediate_drive_goes_negative(self, fpi):
        ac = cavity_autocorr(fpi, SourceParams(p_in=5.0), TAUS)
        assert ac.values.min() < 0.0

    def test_long_lag_decay(self, fpi):
        src = SourceParams(p_in=5.0)
        ac = cavity_autocorr(fpi, src, np.array([0.0, 40.0, 80.0]))
        assert abs(ac.values[1]) < 1e-4 * ac.values[0]
        assert abs(ac.values[2]) < 1e-8 * ac.values[0]


class TestTransmittedAutocorr:
    def test_normalized_starts_at_one(self, fpi, sweep_sources):
        for src in sweep_sources:
            ds = autocorr_product(RunConfig(fpi=fpi, source=src))
            assert ds.series["transmitted_norm"][0] == pytest.approx(1.0, rel=1e-12)

    def test_normalized_is_the_curve_over_its_squared_delta_weight(self, fpi, sweep_sources):
        for src in sweep_sources:
            ds = autocorr_product(RunConfig(fpi=fpi, source=src))
            weight = ds.metadata["transmitted_delta_weight"]
            assert np.array_equal(
                ds.series["transmitted_norm"], ds.series["transmitted"] / weight**2
            )

    def test_normalized_keeps_a_zero_curve_at_zero_transmission(self):
        # kappa2 = 0: no transmitted power, so nothing to normalise by
        ds = autocorr_product(RunConfig(fpi=FpiParams(kappa2=0.0), source=SourceParams(p_in=5.0)))
        assert ds.metadata["transmitted_delta_weight"] == 0.0
        assert np.array_equal(ds.series["transmitted_norm"], ds.series["transmitted"])

    def test_zero_lag_is_squared_delta_weight(self, fpi, sweep_sources):
        # |2 kappa2 g1(0)|^2 = (2 kappa2 n)^2 = p_t^2
        for src in sweep_sources:
            ac = transmitted_autocorr(fpi, src, TAUS)
            assert ac.values[0] == pytest.approx(transmitted_power(fpi, src) ** 2, rel=1e-12)

    def test_delta_weight_is_transmitted_power(self, fpi):
        src = SourceParams(p_in=5.0)
        ac = transmitted_autocorr(fpi, src, TAUS)
        assert ac.delta_weight == pytest.approx(transmitted_power(fpi, src), rel=1e-13)

    def test_against_cosine_quadrature(self, fpi):
        src = SourceParams(p_in=0.1)
        taus = np.array([0.5, 2.0, 5.5])
        ac = transmitted_autocorr(fpi, src, taus)
        for i, tau in enumerate(taus):
            oracle = _cosine_transform_oracle(
                lambda w: transmitted_fluct_spectrum(w, fpi, src).colored[0], float(tau)
            )
            # the oscillatory quadrature certifies ~1e-10 absolute
            assert ac.values[i] == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_weak_drive_no_sign_change(self, fpi):
        ac = transmitted_autocorr(fpi, SourceParams(p_in=0.1), TAUS)
        assert np.all(ac.values >= 0.0)

    def test_oscillation_at_the_detuning_beat(self, fpi):
        for p in (5.0, 50.0):
            ac = transmitted_autocorr(fpi, SourceParams(p_in=p), TAUS)
            freq = dominant_oscillation_frequency(ac.taus, ac.values)
            assert abs(freq - fpi.delta) / fpi.delta < 0.05


# the alternative configuration of test_cli.py's preset checks
ALT_CONFIG = RunConfig(
    fpi=FpiParams(kappa0=0.0, delta=-3.0),
    source=SourceParams(p_in=1.5, gamma_max=1.2),
    omega_grid=GridSpec(-10.0, 15.0, 201),
    tau_grid=GridSpec(0.0, 12.0, 101),
)


@pytest.mark.parametrize("lag", [0.7, TAUS], ids=["scalar", "array"])
@pytest.mark.parametrize("curve", [cavity_autocorr, transmitted_autocorr, reflected_autocorr])
def test_every_lag_curve_is_an_autocorrelation(fpi, curve, lag):
    ac = curve(fpi, SourceParams(p_in=1.5), lag)
    assert type(ac) is AutoCorrelation
    assert np.array_equal(ac.taus, np.atleast_1d(lag))


class TestReflectedAutocorr:
    def test_total_reflection_is_exact_exponential(self):
        fpi = FpiParams(kappa1=0.5, kappa2=0.0, kappa0=0.0, delta=5.0)
        src = SourceParams(p_in=5.0)
        ds = autocorr_product(RunConfig(fpi=fpi, source=src))
        assert ds.metadata["reflected_exp_rms"] == pytest.approx(0.0, abs=1e-12)
        ac = reflected_autocorr(fpi, src, TAUS)
        g = source_linewidth(src)
        assert np.allclose(
            ac.values, src.p_in**2 * np.exp(-2 * g * TAUS), rtol=1e-12, atol=0
        )

    def test_exponential_fit_within_five_percent(self, fpi, sweep_sources):
        for src in sweep_sources:
            meta = autocorr_product(RunConfig(fpi=fpi, source=src)).metadata
            assert meta["reflected_exp_rate"] == pytest.approx(
                2.0 * source_linewidth(src), rel=1e-14
            )
            assert meta["reflected_exp_rms"] <= 0.05

    @pytest.mark.parametrize("cfg", [RunConfig(), ALT_CONFIG], ids=["default", "alternative"])
    def test_report_is_the_rms_of_the_normalised_curve(self, cfg):
        # bit for bit: the product applies this formula to reflected_autocorr
        taus = cfg.tau_grid.build()
        ac = reflected_autocorr(cfg.fpi, cfg.source, taus)
        rate = 2.0 * source_linewidth(cfg.source)
        deviation = ac.values / ac.delta_weight**2 - np.exp(-rate * taus)
        meta = autocorr_product(cfg).metadata
        assert meta["reflected_exp_rate"] == rate
        assert meta["reflected_exp_rms"] == float(np.sqrt(np.mean(deviation**2)))

    def test_dark_source_reports_zero_rms_without_warning(self, fpi):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ds = autocorr_product(RunConfig(fpi=fpi, source=SourceParams(p_in=0.0)))
        assert ds.metadata["reflected_delta_weight"] == 0.0
        assert ds.metadata["reflected_exp_rms"] == 0.0

    def test_zero_lag_matches_colored_variance(self, fpi):
        src = SourceParams(p_in=5.0)
        ac = reflected_autocorr(fpi, src, TAUS)
        variance = _cosine_transform_oracle(
            lambda w: reflected_fluct_spectrum(w, fpi, src).colored[0], 0.0
        )
        assert ac.values[0] == pytest.approx(variance, rel=1e-4)

    def test_zero_lag_is_squared_delta_weight(self, fpi, sweep_sources):
        # |pr1(0)|^2 = (R p_in)^2 = p_r^2
        for src in sweep_sources:
            ac = reflected_autocorr(fpi, src, TAUS)
            assert ac.values[0] == pytest.approx(reflected_power(fpi, src) ** 2, rel=1e-12)

    def test_delta_weight_is_reflected_power(self, fpi):
        src = SourceParams(p_in=1.5)
        ac = reflected_autocorr(fpi, src, TAUS)
        assert ac.delta_weight == pytest.approx(reflected_power(fpi, src), rel=1e-13)


class TestGridTransform:
    def test_lorentzian_to_exponential(self):
        g = 0.9
        grid = np.linspace(-800.0, 800.0, 320001)
        spec = SpectrumDecomposition(
            omegas=grid,
            classical=2.0 * (2 * g) / (grid**2 + (2 * g) ** 2),
            quantum=np.zeros_like(grid),
            white_floor=0.0,
        )
        taus = np.linspace(0.0, 8.0, 81)
        ac = autocorr_from_spectrum(spec, taus)
        assert np.allclose(ac.values, np.exp(-2 * g * taus), atol=2e-8)

    def test_matches_exact_path_for_cavity_spectrum(self, fpi):
        src = SourceParams(p_in=5.0)
        grid = np.linspace(-400.0, 400.0, 40001)
        spec = cavity_fluctuation_spectrum(grid, fpi, src)
        probe = np.linspace(0.0, 12.0, 25)
        via_grid = autocorr_from_spectrum(spec, probe)
        exact = cavity_autocorr(fpi, src, probe)
        scale = exact.values[0]
        assert np.max(np.abs(via_grid.values - exact.values)) < 1e-4 * scale
        assert np.max(np.abs(via_grid.classical - exact.classical)) < 1e-4 * scale
        assert np.max(np.abs(via_grid.quantum - exact.quantum)) < 1e-4 * scale

    def test_white_floor_becomes_delta_weight(self, fpi):
        src = SourceParams(p_in=1.5)
        grid = np.linspace(-400.0, 400.0, 80001)
        from fpinoise import transmitted_fluct_spectrum

        spec = transmitted_fluct_spectrum(grid, fpi, src)
        ac = autocorr_from_spectrum(spec, np.linspace(0.0, 5.0, 11))
        assert ac.delta_weight == spec.white_floor

    def test_truncated_grid_rejected(self, fpi):
        src = SourceParams(p_in=5.0)
        grid = np.linspace(-2.0, 2.0, 201)
        spec = cavity_fluctuation_spectrum(grid, fpi, src)
        with pytest.raises(CoverageError):
            autocorr_from_spectrum(spec, np.linspace(0.0, 5.0, 11))


class TestRoundTrip:
    def test_forward_transform_recovers_spectrum(self, fpi):
        # cosine-transform the exact lag curve back to frequencies:
        # S(w) = 2 * integral_0^inf v(tau) cos(w tau) dtau
        src = SourceParams(p_in=1.5)

        def lag_curve(tau):
            return float(cavity_autocorr(fpi, src, np.array([tau])).values[0])

        for w in (0.5, 2.0, 5.0, 7.5):
            forward, _ = quad(
                lag_curve, 0.0, np.inf, weight="cos", wvar=w, limlst=200, limit=100
            )
            spectrum = sum(cavity_fluct_components(w, fpi, src))
            assert 2.0 * forward == pytest.approx(spectrum, rel=1e-4)
