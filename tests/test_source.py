"""Source model: linewidth law, output spectrum, micro/macro consistency."""

import math

import numpy as np
import pytest

from fpinoise import (
    ParameterError,
    SourceMicroParams,
    SourceParams,
    adaptive_integral,
    emitted_power,
    input_spectrum,
    macro_params_from_medium,
    max_linewidth_from_medium,
    source_linewidth,
    source_regime,
)
from fpinoise.errors import AdiabaticityWarning
from fpinoise.lorentz import TWO_PI


class TestLinewidth:
    def test_dark_source_reaches_maximum(self):
        assert source_linewidth(SourceParams(p_in=0.0, gamma_max=3.0)) == 3.0

    def test_standard_drive(self):
        # 3 / (1 + 1.5) = 1.2
        assert source_linewidth(SourceParams(p_in=1.5, gamma_max=3.0)) == pytest.approx(
            1.2, rel=1e-15
        )

    def test_strong_drive(self):
        assert source_linewidth(SourceParams(p_in=50.0, gamma_max=3.0)) == pytest.approx(
            0.058823529411764705, rel=1e-14
        )

    def test_monotone_decreasing_in_power(self, rng):
        powers = np.sort(rng.uniform(0.0, 100.0, size=64))
        widths = [source_linewidth(SourceParams(p_in=p)) for p in powers]
        assert np.all(np.diff(widths) < 0.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ParameterError):
            SourceParams(p_in=-1.0)
        with pytest.raises(ParameterError):
            SourceParams(p_in=1.0, gamma_max=0.0)

    def test_power_with_an_overflowing_square_rejected(self):
        # the noise spectra scale as p_in^2, which raised OverflowError
        with pytest.raises(ParameterError, match="^p_in must be nonnegative with a finite square"):
            SourceParams(p_in=1.4e154)
        assert SourceParams(p_in=1.3e154).p_in == 1.3e154


class TestInputSpectrum:
    def test_peak_value(self):
        # p_in * 2/gamma_l = 1.5 * 2/1.2
        assert input_spectrum(0.0, SourceParams(p_in=1.5)) == pytest.approx(2.5, rel=1e-14)

    def test_integrates_to_power(self, rng):
        for _ in range(5):
            src = SourceParams(p_in=rng.uniform(0.1, 60), gamma_max=rng.uniform(0.5, 5))
            est = adaptive_integral(
                lambda w: input_spectrum(w, src) / TWO_PI,
            )
            assert est.value == pytest.approx(src.p_in, rel=1e-9)

    def test_dark_source_is_zero(self):
        src = SourceParams(p_in=0.0)
        for omega in (0.0, np.float64(0.0)):
            value = input_spectrum(omega, src)
            assert type(value) is float and value == 0.0
        assert np.all(input_spectrum(np.linspace(-5, 5, 11), src) == 0.0)
        grid = np.linspace(-5, 5, 12).reshape(3, 4)
        values = input_spectrum(grid, src)
        assert values.shape == (3, 4) and np.all(values == 0.0)

    def test_peak_grows_faster_than_linearly(self):
        # peak = 2 p (1 + p) / gamma_max: superlinear in p
        peaks = [input_spectrum(0.0, SourceParams(p_in=p)) for p in (1.0, 2.0, 4.0)]
        assert peaks[1] / peaks[0] > 2.0
        assert peaks[2] / peaks[1] > 2.0


class TestRegime:
    def test_broad_line_is_led(self):
        assert source_regime(SourceParams(p_in=0.0, gamma_max=4.0)) == "led"

    def test_narrow_line_is_lasing(self):
        assert source_regime(SourceParams(p_in=50.0)) == "lasing"

    def test_middle_is_intermediate(self):
        assert source_regime(SourceParams(p_in=1.5)) == "intermediate"


def _micro(n_emitters, n_excited, n_threshold, gamma_perp=200.0):
    """Build micro params with a prescribed threshold inversion."""
    rabi = np.sqrt(gamma_perp / (2.0 * n_threshold * 0.5))
    return SourceMicroParams(
        n_emitters=n_emitters,
        n_excited=n_excited,
        rabi=rabi,
        gamma_perp=gamma_perp,
    )


class TestMicroModel:
    def test_threshold_inversion_value(self):
        micro = _micro(100.0, 10.0, n_threshold=50.0)
        assert micro.n_threshold == pytest.approx(50.0, rel=1e-12)

    def test_max_linewidth_doubled_medium(self):
        # n_emitters = 2 * n_threshold gives 3 kappa_l
        micro = _micro(100.0, 10.0, n_threshold=50.0)
        assert max_linewidth_from_medium(micro) == pytest.approx(3.0, rel=1e-12)

    def test_max_linewidth_empty_medium_limit(self):
        micro = _micro(1e-9, 1e-10, n_threshold=50.0)
        assert max_linewidth_from_medium(micro) == pytest.approx(1.0, rel=1e-9)

    def test_max_linewidth_heavier_medium(self):
        micro = _micro(200.0, 10.0, n_threshold=50.0)
        assert max_linewidth_from_medium(micro) == pytest.approx(5.0, rel=1e-12)

    def test_emitted_power_direct_substitution(self):
        # n_excited = n_threshold/2 and inversion 0: eta = 1, power = kappa_l
        micro = _micro(50.0, 25.0, n_threshold=50.0)
        assert micro.eta == pytest.approx(1.0, rel=1e-12)
        assert emitted_power(micro) == pytest.approx(1.0, rel=1e-12)

    def test_emitted_power_vanishes_with_excitation(self):
        micro = _micro(50.0, 1e-9, n_threshold=50.0)
        assert emitted_power(micro) == pytest.approx(0.0, abs=1e-9)

    def test_above_threshold_rejected(self):
        with pytest.raises(ParameterError):
            _micro(300.0, 290.0, n_threshold=50.0)  # inversion 280 > 50

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_emitters", math.inf),
            ("n_excited", math.nan),
            ("rabi", math.inf),
            ("gamma_perp", math.inf),
            ("gamma_perp", math.nan),
        ],
    )
    def test_non_finite_field_rejected_by_name(self, field, value):
        params = dict(n_emitters=100.0, n_excited=10.0, rabi=2.0, gamma_perp=200.0)
        with pytest.raises(ParameterError, match=f"^{field} must be finite"):
            SourceMicroParams(**{**params, field: value})

    @pytest.mark.parametrize(
        "rabi, gamma_perp",
        [
            (1e200, 200.0),  # rabi^2 overflows
            (1e-200, 200.0),  # rabi^2 underflows to 0
            (1e-5, 1e300),  # gamma_perp / rabi^2 overflows
            (10.0, 5e-324),  # gamma_perp / rabi^2 underflows to 0
        ],
    )
    def test_threshold_outside_the_float_range_rejected(self, rabi, gamma_perp):
        with pytest.raises(ParameterError, match="^n_threshold .* must be finite and positive"):
            SourceMicroParams(n_emitters=100.0, n_excited=10.0, rabi=rabi, gamma_perp=gamma_perp)

    def test_infinite_margin_rejected(self):
        # eta was 1 + 1e600 = inf, and macro_params_from_medium named no field
        with pytest.warns(AdiabaticityWarning), pytest.raises(
            ParameterError, match="^n_emitters over n_threshold 1e-300"
        ):
            SourceMicroParams(n_emitters=1e300, n_excited=1.0, rabi=1.0, gamma_perp=1e-300)

    def test_adiabaticity_warning(self):
        with pytest.warns(AdiabaticityWarning) as record:
            SourceMicroParams(
                n_emitters=10.0, n_excited=1.0, rabi=0.1, gamma_perp=5.0
            )
        # the warning names this call, not the dataclass's generated __init__
        assert record[0].filename == __file__

    def test_micro_macro_linewidth_consistency(self, rng):
        # the macro linewidth law applied to the micro power and maximum
        # width reproduces the microscopic width kappa_l * eta exactly
        for _ in range(100):
            n_threshold = rng.uniform(0.5, 500.0)
            n_emitters = rng.uniform(0.1, 1000.0)
            # eta > 0 requires inversion < n_threshold
            top = min(n_emitters, 0.5 * (n_emitters + n_threshold) * 0.999)
            n_excited = rng.uniform(0.0, 1.0) * top
            if n_excited <= 0.0:
                continue
            micro = _micro(n_emitters, n_excited, n_threshold)
            macro = macro_params_from_medium(micro)
            assert source_linewidth(macro) == pytest.approx(
                micro.eta, rel=1e-12
            )  # kappa_l = 1 internally
