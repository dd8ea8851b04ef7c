"""Fluctuation spectra: kernels vs quadrature, sum rules, engine cross-paths."""

import warnings

import numpy as np
import pytest

from fpinoise import (
    DegeneratePolesWarning,
    FpiParams,
    SourceParams,
    SpectrumGrid,
    adaptive_integral,
    cavity_field_spectrum,
    cavity_fluctuation_spectrum,
    classical_noise_kernel,
    commutator_spectrum,
    quantum_noise_kernel,
    reflected_fluct_spectrum,
    reflected_spectrum,
    reflection_cross_kernel,
    transmitted_fluct_spectrum,
    transmitted_spectrum,
)
from fpinoise import fluctuations
from fpinoise.cavity import reflected_power, transmitted_power
from fpinoise.config import DEFAULT_OMEGA_GRID
from fpinoise.fluctuations import (
    cavity_fluct_components,
    fluct_spectra,
)
from fpinoise.lorentz import TWO_PI
from fpinoise.source import source_linewidth
from routes import (
    CoverageError,
    general_cavity_fluct_spectrum,
    general_freespace_fluct_spectrum,
    half_plane_sum_route,
    mp_classical_kernel,
    mp_commutator_kernels,
    product,
    product_value_route,
    residue_commutator_kernels,
    variance_check_values,
)


# Frozen values of the three kernels at gamma_l = 0.5, kappa_t = 1.1,
# delta = 5 (the p_in = 5 study point), computed with the adaptive
# quadrature oracle on the defining integrands.
KERNEL_TABLE = {
    0.0: (0.017071909014966018, 0.046467484920950985, 0.34626654392801276),
    2.5: (0.00505158862646504, 0.03718336196865963, 0.0723952335753679),
    5.0: (0.0043836569509418605, 0.05895267488894097, 0.059708592988595134),
}


def _lorentz(w, k):
    return 2.0 * k / (w * w + k * k)


def _kernel_quadratures(w, g, kt, d):
    """Quadrature oracles built directly from the defining integrands."""
    q0 = adaptive_integral(
        lambda u: _lorentz(u - w, g) * _lorentz(u - w - d, kt) * _lorentz(u, g) * _lorentz(u - d, kt) / TWO_PI,
    ).value
    q1 = adaptive_integral(
        lambda u: (
            _lorentz(u - w, g) * _lorentz(u - w - d, kt)
            + _lorentz(u + w, g) * _lorentz(u + w - d, kt)
        )
        * _lorentz(u - d, kt)
        / (2.0 * TWO_PI),
    ).value
    q2 = adaptive_integral(
        lambda u: _lorentz(u - w, g)
        * _lorentz(u, g)
        * (_lorentz(u - w - d, kt) + _lorentz(u - d, kt))
        / TWO_PI,
    ).value
    return q0, q1, q2


class TestKernels:
    def test_frozen_values_at_study_point(self, fpi):
        src = SourceParams(p_in=5.0)
        for w, (k0, k1, k2) in KERNEL_TABLE.items():
            assert classical_noise_kernel(w, fpi, src) == pytest.approx(k0, rel=1e-8)
            assert quantum_noise_kernel(w, fpi, src) == pytest.approx(k1, rel=1e-8)
            assert reflection_cross_kernel(w, fpi, src) == pytest.approx(k2, rel=1e-8)

    def test_even_in_frequency(self, fpi, rng):
        src = SourceParams(p_in=5.0)
        for w in rng.uniform(0.1, 10.0, size=8):
            assert classical_noise_kernel(w, fpi, src) == pytest.approx(
                classical_noise_kernel(-w, fpi, src), rel=1e-12
            )
            assert quantum_noise_kernel(w, fpi, src) == pytest.approx(
                quantum_noise_kernel(-w, fpi, src), rel=1e-12
            )
            assert reflection_cross_kernel(w, fpi, src) == pytest.approx(
                reflection_cross_kernel(-w, fpi, src), rel=1e-12
            )

    def test_residue_vs_quadrature_randomized(self, fpi, rng):
        for _ in range(10):
            src = SourceParams(p_in=rng.uniform(0.05, 60.0))
            g = source_linewidth(src)
            w = rng.uniform(-10.0, 10.0)
            q0, q1, q2 = _kernel_quadratures(w, g, fpi.kappa_t, fpi.delta)
            assert classical_noise_kernel(w, fpi, src) == pytest.approx(q0, rel=1e-8)
            assert quantum_noise_kernel(w, fpi, src) == pytest.approx(q1, rel=1e-8)
            assert reflection_cross_kernel(w, fpi, src) == pytest.approx(q2, rel=1e-8)

    def test_broad_line_collapse(self, fpi):
        # gamma_l = 2.73-ish broad-drive set: single smooth bump
        src = SourceParams(p_in=0.1)
        q0 = _kernel_quadratures(1.0, source_linewidth(src), fpi.kappa_t, fpi.delta)[0]
        assert classical_noise_kernel(1.0, fpi, src) == pytest.approx(q0, rel=1e-8)
        grid = np.linspace(0.0, 15.0, 601)
        values = classical_noise_kernel(grid, fpi, src)
        interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
        assert not np.any(interior)  # no interior maximum on the positive half

    def test_k0_matches_route_bit_for_bit(self, fpi, sweep_sources):
        grid = DEFAULT_OMEGA_GRID.build()
        kt, d = fpi.kappa_t, fpi.delta
        for src in sweep_sources:
            g = source_linewidth(src)
            expected = [
                half_plane_sum_route((w, w + d, 0.0, d), (g, kt, g, kt), 0.0).real
                for w in grid.tolist()
            ]
            assert classical_noise_kernel(grid, fpi, src).tobytes() == np.array(expected).tobytes()

    def test_k0_fallback_matches_route_bit_for_bit(self):
        fpi = FpiParams(delta=0.0)
        src = SourceParams(p_in=0.0, gamma_max=fpi.kappa_t * (1.0 + 5e-10))
        g, kt, d = source_linewidth(src), fpi.kappa_t, fpi.delta
        grid = np.array([0.0, 1e-8, 0.3, -2.0])
        with pytest.warns(DegeneratePolesWarning) as record:
            values = classical_noise_kernel(grid, fpi, src)
        assert len(record) == grid.size
        # each warning names this line, not the kernel's call inside the package
        assert {r.filename for r in record} == {__file__}
        for w, value in zip(grid.tolist(), values.tolist()):
            prod = product((w, g), (w + d, kt), (0.0, g), (d, kt))
            expected = adaptive_integral(lambda u: product_value_route(prod, u) / TWO_PI)
            assert np.float64(value).tobytes() == np.float64(expected.value).tobytes()

    @pytest.mark.parametrize(
        "delta, eps, p_in, w",
        (
            # gamma_l = kappa_t (1 + eps) near delta = 0: distinct poles whose
            # residue terms cancel at w = 0 (the residue sum was off by 1e8)
            (0.0, 1e-8, 0.0, 0.0),
            (0.0, 1e-6, 0.0, 0.0),
            (1e-6, 1e-6, 0.0, 0.0),
            # default line: (w, gamma_l)/(0, gamma_l) and
            # (w + delta, kappa_t)/(delta, kappa_t) pair up at tiny w
            (5.0, None, 5.0, 1e-8),
            (5.0, None, 5.0, 1e-6),
            (5.0, None, 5.0, 1e-5),
        ),
    )
    def test_k0_where_residue_terms_cancel_matches_mpmath(self, delta, eps, p_in, w):
        mp = pytest.importorskip("mpmath")
        fpi = FpiParams(delta=delta)
        src = SourceParams(p_in=p_in) if eps is None else SourceParams(
            p_in=p_in, gamma_max=fpi.kappa_t * (1.0 + eps)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneratePolesWarning)
            value = classical_noise_kernel(w, fpi, src)
        with mp.workdps(40):
            exact = mp_classical_kernel(mp, w, source_linewidth(src), fpi.kappa_t, delta)
            assert abs(value / exact - 1) <= 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="narrow drive line near w = 0: the residue bound sends K0 to quadrature, "
        "which misses the peaks; the closed-form K0 removes this",
    )
    @pytest.mark.parametrize(
        "fpi, g, w",
        (
            # quadrature raises ConvergenceError (the CLI exits 3)
            (FpiParams(kappa1=0.8, kappa2=0.8, delta=0.0), 1.9e-5, 5.3e-11),
            # quadrature returns 2.6e-5 against 1.1e7, with a warning only
            (FpiParams(delta=5e-7), 3e-7, 5e-12),
        ),
    )
    def test_k0_of_a_narrow_line_near_zero_matches_mpmath(self, fpi, g, w):
        mp = pytest.importorskip("mpmath")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneratePolesWarning)
            value = classical_noise_kernel(w, fpi, SourceParams(p_in=0.0, gamma_max=g))
        with mp.workdps(30):
            exact = mp_classical_kernel(mp, w, g, fpi.kappa_t, fpi.delta)
            assert abs(value / exact - 1) <= 1e-10

    @pytest.mark.xfail(
        strict=True,
        reason="at critical coupling the reflected noise p_in^2 [L(w, 2 gamma_l) - B K2 + B^2 K0] "
        "cancels terms of order 1/gamma_l down to round-off, which can be negative",
    )
    def test_reflected_noise_at_critical_coupling_is_nonnegative(self):
        # kappa1 = kappa2 + kappa0, gamma_l = 1e-6: the CLI wrote -4.66e-10 at w = 0
        fpi = FpiParams(kappa1=0.6, kappa2=0.5, kappa0=0.1, delta=0.0)
        src = SourceParams(p_in=1.0, gamma_max=2e-6)
        assert reflected_fluct_spectrum(np.array([0.0]), fpi, src).colored[0] >= 0.0

    def test_positive(self, fpi, rng):
        src = SourceParams(p_in=rng.uniform(0.1, 50.0))
        grid = rng.uniform(-12, 12, size=16)
        assert np.all(classical_noise_kernel(grid, fpi, src) > 0.0)
        assert np.all(quantum_noise_kernel(grid, fpi, src) > 0.0)
        assert np.all(reflection_cross_kernel(grid, fpi, src) > 0.0)


# delta = 0 and gamma_l = kappa_t (1 + eps): the near-coincident poles
# where a residue sum cancels, at the mode center, near it and off it
NEAR_COINCIDENT_EPS = (1e-11, 1e-9, 5e-9, 1e-6, 1e-3)
NEAR_COINCIDENT_OMEGAS = (0.0, 1e-8, 0.3)


def _near_coincident_cases():
    fpi = FpiParams(delta=0.0)
    for eps in NEAR_COINCIDENT_EPS:
        src = SourceParams(p_in=0.0, gamma_max=fpi.kappa_t * (1.0 + eps))
        yield fpi, src


class TestClosedFormKernels:
    def test_matches_residue_sums_on_default_grid(self, fpi, sweep_sources):
        grid = DEFAULT_OMEGA_GRID.build()
        for src in sweep_sources:
            k1, k2 = residue_commutator_kernels(grid, source_linewidth(src), fpi.kappa_t, fpi.delta)
            assert np.max(np.abs(quantum_noise_kernel(grid, fpi, src) / k1 - 1.0)) <= 1e-13
            assert np.max(np.abs(reflection_cross_kernel(grid, fpi, src) / k2 - 1.0)) <= 1e-13

    def test_matches_mpmath_at_near_coincident_poles(self):
        mp = pytest.importorskip("mpmath")
        for fpi, src in _near_coincident_cases():
            g = source_linewidth(src)
            for w in NEAR_COINCIDENT_OMEGAS:
                with mp.workdps(50):
                    k1, k2 = mp_commutator_kernels(mp, w, g, fpi.kappa_t, fpi.delta)
                    err1 = abs(quantum_noise_kernel(w, fpi, src) / k1 - 1)
                    err2 = abs(reflection_cross_kernel(w, fpi, src) / k2 - 1)
                assert err1 <= 1e-14, (g, w)
                assert err2 <= 1e-14, (g, w)

    def test_near_coincident_poles_emit_no_warning(self):
        grid = np.array(NEAR_COINCIDENT_OMEGAS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fpi, src in _near_coincident_cases():
                assert np.all(quantum_noise_kernel(grid, fpi, src) > 0.0)
                assert np.all(reflection_cross_kernel(grid, fpi, src) > 0.0)

    def test_scalar_frequency_gives_float(self, fpi):
        src = SourceParams(p_in=5.0)
        for w in (0.0, 2.5, np.float64(5.0), np.array(1.0)):
            assert type(quantum_noise_kernel(w, fpi, src)) is float
            assert type(reflection_cross_kernel(w, fpi, src)) is float
        assert quantum_noise_kernel(np.zeros((2, 3)), fpi, src).shape == (2, 3)
        assert reflection_cross_kernel(np.zeros((2, 3)), fpi, src).shape == (2, 3)


class TestCavitySpectrum:
    def test_variance_sum_rules(self, fpi, sweep_sources):
        for src in sweep_sources:
            target_classical, target_quantum, target_total = variance_check_values(fpi, src)
            classical = adaptive_integral(
                lambda w: cavity_fluct_components(w, fpi, src)[0] / TWO_PI
            ).value
            quantum = adaptive_integral(
                lambda w: cavity_fluct_components(w, fpi, src)[1] / TWO_PI
            ).value
            assert classical == pytest.approx(target_classical, rel=1e-6)
            assert quantum == pytest.approx(target_quantum, rel=1e-6)
            assert classical + quantum == pytest.approx(target_total, rel=1e-6)

    def test_decomposition_identity(self, fpi):
        src = SourceParams(p_in=5.0)
        grid = np.linspace(-10, 15, 201)
        spec = cavity_fluctuation_spectrum(grid, fpi, src)
        assert spec.white_floor == 0.0
        assert np.allclose(spec.total, spec.classical + spec.quantum, rtol=0, atol=0)
        assert np.all(spec.classical >= 0.0)
        assert np.all(spec.quantum >= 0.0)

    def test_sideband_structure(self, fpi):
        grid = np.linspace(0.0, 15.0, 3001)
        for p, expect_sideband in ((0.1, False), (5.0, True), (50.0, True)):
            spec = cavity_fluctuation_spectrum(grid, fpi, SourceParams(p_in=p))
            v = spec.total
            interior = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
            peaks = grid[1:-1][interior]
            near_mode = [w for w in peaks if abs(w - fpi.delta) <= 1.0]
            assert bool(near_mode) is expect_sideband

    def test_power_scaling_at_fixed_linewidth(self, fpi):
        # scale p_in while holding gamma_l fixed by rescaling gamma_max
        g_target = 0.5
        p1, p2 = 5.0, 10.0
        src1 = SourceParams(p_in=p1, gamma_max=g_target * (1 + p1))
        src2 = SourceParams(p_in=p2, gamma_max=g_target * (1 + p2))
        assert source_linewidth(src1) == pytest.approx(g_target, rel=1e-14)
        assert source_linewidth(src2) == pytest.approx(g_target, rel=1e-14)
        for w in (0.0, 2.0, 5.0):
            c1, q1 = cavity_fluct_components(w, fpi, src1)
            c2, q2 = cavity_fluct_components(w, fpi, src2)
            assert c2 / c1 == pytest.approx((p2 / p1) ** 2, rel=1e-12)
            assert q2 / q1 == pytest.approx(p2 / p1, rel=1e-12)


class TestFreeSpaceSpectra:
    def test_transmitted_floor_and_scaling(self, fpi):
        src = SourceParams(p_in=5.0)
        grid = np.linspace(-10, 15, 201)
        spec = transmitted_fluct_spectrum(grid, fpi, src)
        assert spec.white_floor == pytest.approx(transmitted_power(fpi, src), rel=1e-14)
        assert np.all(spec.quantum == 0.0)
        cav = cavity_fluctuation_spectrum(grid, fpi, src)
        scale = (2.0 * fpi.kappa2) ** 2
        assert np.allclose(spec.classical, scale * cav.classical, rtol=1e-13)

    def test_transmitted_weak_drive_is_floor_only(self, fpi):
        grid = np.linspace(-10, 15, 101)
        weak = transmitted_fluct_spectrum(grid, fpi, SourceParams(p_in=1e-4))
        # colored term is O(p_in^2), floor is O(p_in)
        assert np.max(weak.classical) < 1e-3 * weak.white_floor

    def test_reflected_floor_and_positivity(self, fpi, sweep_sources):
        grid = np.linspace(-10, 15, 501)
        for src in sweep_sources:
            spec = reflected_fluct_spectrum(grid, fpi, src)
            assert spec.white_floor == pytest.approx(reflected_power(fpi, src), rel=1e-13)
            assert np.all(spec.classical >= 0.0)

    def test_total_reflection_limit(self):
        fpi = FpiParams(kappa1=0.5, kappa2=0.0, kappa0=0.0, delta=5.0)
        src = SourceParams(p_in=5.0)
        g = source_linewidth(src)
        grid = np.linspace(-10, 15, 301)
        spec = reflected_fluct_spectrum(grid, fpi, src)
        expected = src.p_in**2 * _lorentz(grid, 2.0 * g)
        assert np.allclose(spec.classical, expected, rtol=1e-12)

    def test_transmitted_against_tabulated_convolution(self, fpi):
        src = SourceParams(p_in=5.0)
        grid = np.linspace(-250.0, 250.0, 120001)
        p_grid = SpectrumGrid(grid, transmitted_spectrum(grid, fpi, src))
        for w in (0.0, 2.5, 5.0):
            colored, floor = general_freespace_fluct_spectrum(p_grid, w)
            exact = transmitted_fluct_spectrum(w, fpi, src)
            exact_colored, exact_floor = exact.colored[0], exact.white_floor
            assert colored == pytest.approx(exact_colored, rel=1e-6)
            assert floor == pytest.approx(exact_floor, rel=1e-6)

    def test_reflected_against_tabulated_convolution(self, fpi):
        src = SourceParams(p_in=5.0)
        grid = np.linspace(-250.0, 250.0, 120001)
        p_grid = SpectrumGrid(grid, reflected_spectrum(grid, fpi, src))
        spec = reflected_fluct_spectrum(np.array([0.0, 2.5, 5.0]), fpi, src)
        for i, w in enumerate((0.0, 2.5, 5.0)):
            colored, floor = general_freespace_fluct_spectrum(p_grid, w)
            assert colored == pytest.approx(spec.classical[i], rel=1e-6)
            assert floor == pytest.approx(spec.white_floor, rel=1e-6)


    def test_one_kernel_pass_equals_the_three_spectra(self, fpi, sweep_sources, monkeypatch):
        calls = []

        def counted(omega, fpi, src):
            calls.append(np.size(omega))
            return classical_noise_kernel(omega, fpi, src)

        monkeypatch.setattr(fluctuations, "classical_noise_kernel", counted)
        grid = np.linspace(-10.0, 15.0, 51)
        builds = (cavity_fluctuation_spectrum, transmitted_fluct_spectrum, reflected_fluct_spectrum)
        for src in sweep_sources:
            calls.clear()
            spectra = fluct_spectra(grid, fpi, src)
            assert calls == [grid.size]
            for shared, build in zip(spectra, builds):
                calls.clear()
                single = build(grid, fpi, src)
                assert calls == [grid.size]
                assert np.array_equal(shared.classical, single.classical)
                assert np.array_equal(shared.quantum, single.quantum)
                assert shared.white_floor == single.white_floor


class TestGeneralEngines:
    def test_zero_spectrum(self):
        grid = np.linspace(-50, 50, 1001)
        p_grid = SpectrumGrid(grid, np.zeros_like(grid))
        colored, floor = general_freespace_fluct_spectrum(p_grid, 1.0)
        assert colored == 0.0
        assert floor == 0.0

    def test_lorentzian_selfbeat_identity(self):
        # p L(w, g) feeds back p^2 L(w, 2g) + p
        p, g = 3.0, 0.8
        grid = np.linspace(-600.0, 600.0, 240001)
        p_grid = SpectrumGrid(grid, p * _lorentz(grid, g))
        for w in (0.0, 1.0, 4.0):
            colored, floor = general_freespace_fluct_spectrum(p_grid, w)
            assert colored == pytest.approx(p * p * _lorentz(w, 2 * g), rel=1e-8)
        assert floor == pytest.approx(p, rel=1e-8)

    def test_even_output(self):
        grid = np.linspace(-300.0, 300.0, 120001)
        values = 2.0 * _lorentz(grid, 1.3) + _lorentz(grid - 3.0, 0.9) + _lorentz(grid + 3.0, 0.9)
        p_grid = SpectrumGrid(grid, values)
        for w in (0.7, 2.9, 6.0):
            plus, _ = general_freespace_fluct_spectrum(p_grid, w)
            minus, _ = general_freespace_fluct_spectrum(p_grid, -w)
            assert plus == pytest.approx(minus, rel=1e-10)

    def test_coverage_error_on_narrow_grid(self):
        grid = np.linspace(-3.0, 3.0, 301)
        p_grid = SpectrumGrid(grid, _lorentz(grid, 1.0))
        with pytest.raises(CoverageError) as info:
            general_freespace_fluct_spectrum(p_grid, 0.5)
        assert info.value.required_half_width > 3.0

    def test_cavity_engine_matches_closed_form(self, fpi):
        src = SourceParams(p_in=1.5)
        grid = np.linspace(-250.0, 250.0, 120001)
        n_grid = SpectrumGrid(grid, cavity_field_spectrum(grid, fpi, src))
        c_grid = SpectrumGrid(grid, commutator_spectrum(grid, fpi))
        for w in (0.0, 2.5, 5.0, 8.0):
            total = general_cavity_fluct_spectrum(n_grid, c_grid, w)
            classical, quantum = cavity_fluct_components(w, fpi, src)
            assert total == pytest.approx(classical + quantum, rel=1e-6)
            mirrored = general_cavity_fluct_spectrum(n_grid, c_grid, -w)
            assert mirrored == pytest.approx(total, rel=1e-10)

    def test_cavity_engine_zero_field(self, fpi):
        grid = np.linspace(-400.0, 400.0, 40001)
        n_grid = SpectrumGrid(grid, np.zeros_like(grid))
        c_grid = SpectrumGrid(grid, commutator_spectrum(grid, fpi))
        assert general_cavity_fluct_spectrum(n_grid, c_grid, 1.0) == 0.0

    def test_cavity_engine_requires_common_grid(self, fpi):
        grid_a = np.linspace(-100.0, 100.0, 1001)
        grid_b = np.linspace(-100.0, 100.0, 1002)
        n_grid = SpectrumGrid(grid_a, np.exp(-np.abs(grid_a)))
        c_grid = SpectrumGrid(grid_b, np.exp(-np.abs(grid_b)))
        with pytest.raises(Exception):
            general_cavity_fluct_spectrum(n_grid, c_grid, 0.0)

    def test_grid_refinement_converges(self, fpi):
        # doubling the tabulation density settles the answer to <= 1e-6
        src = SourceParams(p_in=5.0)
        w = 2.0
        previous = None
        for count in (30001, 60001, 120001):
            grid = np.linspace(-250.0, 250.0, count)
            p_grid = SpectrumGrid(grid, transmitted_spectrum(grid, fpi, src))
            colored, _ = general_freespace_fluct_spectrum(p_grid, w)
            if previous is not None:
                assert colored == pytest.approx(previous, rel=1e-6)
            previous = colored


class TestSymmetry:
    def test_spectra_even_on_symmetric_grid(self, fpi, sweep_sources):
        grid = np.linspace(-10.0, 10.0, 401)
        for src in sweep_sources:
            for build in (
                cavity_fluctuation_spectrum,
                transmitted_fluct_spectrum,
                reflected_fluct_spectrum,
            ):
                spec = build(grid, fpi, src)
                total = spec.total
                assert np.max(np.abs(total - total[::-1])) <= 1e-12 * np.max(total)
