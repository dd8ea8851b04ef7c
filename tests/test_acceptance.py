"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Two sub-criteria encode structural expectations that contradict the
closed forms every other criterion validates (see README, "Known
discrepancies"): the transmitted power-fluctuation spectrum necessarily
carries its dominant self-beat peak at zero frequency, and the colored
part of the transmitted power autocorrelation is a squared magnitude,
hence never negative.  Those two tests are implemented as stated and
fail; they are kept red deliberately rather than weakened.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fpinoise import (
    FpiParams,
    RunConfig,
    SourceParams,
    adaptive_integral,
    cavity_autocorr,
    cavity_fluctuation_spectrum,
    input_spectrum,
    mean_photon_number,
    reflected_fluct_spectrum,
    reflected_spectrum,
    source_linewidth,
    transmitted_autocorr,
    transmitted_fluct_spectrum,
    transmitted_spectrum,
)
from fpinoise.cavity import (
    absorbed_spectrum,
    reflection_coefficient_hwhm,
    transmission_coefficient_hwhm,
)
from fpinoise.config import DEFAULT_TAU_GRID
from fpinoise.figures import autocorr_product, energy_split_fraction
from fpinoise.fluctuations import (
    cavity_fluct_components,
    classical_noise_kernel,
    quantum_noise_kernel,
    reflection_cross_kernel,
)
from fpinoise.lorentz import TWO_PI
from fpinoise.oracle import (
    SimConfig,
    intensity_fluct_spectrum,
    simulate,
)
from fpinoise.source import SourceMicroParams, macro_params_from_medium
from routes import dominant_oscillation_frequency, stationary_photon_number, variance_check_values

FPI = FpiParams()
SWEEP = (0.1, 1.5, 5.0, 50.0)
SOURCES = {p: SourceParams(p_in=p) for p in SWEEP}
OMEGA_GRID = np.linspace(-10.0, 15.0, 2001)
TAU_GRID = DEFAULT_TAU_GRID.build()


def _report(number: str, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:>3} {status}: {label}{suffix}")
    return ok


def _local_maxima(omegas: np.ndarray, values: np.ndarray, prominence: float = 0.01):
    """Positions of local maxima above ``prominence`` of the global peak.

    The first grid point stands for the center of an even spectrum, so it
    counts as a maximum when the curve falls away from it.
    """
    threshold = prominence * values.max()
    hits = []
    if values[0] > values[1] and values[0] > threshold:
        hits.append(omegas[0])
    interior = np.where(
        (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:]) & (values[1:-1] > threshold)
    )[0]
    hits.extend(omegas[1:-1][interior])
    return hits


class TestCriterion01VarianceSumRule:
    def test_bose_einstein_variance(self):
        worst = 0.0
        slowest = 0.0
        for p in SWEEP:
            src = SOURCES[p]
            expect_classical, expect_quantum, expect_total = variance_check_values(FPI, src)
            start = time.monotonic()
            classical = adaptive_integral(
                lambda w: cavity_fluct_components(w, FPI, src)[0] / TWO_PI
            ).value
            quantum = adaptive_integral(
                lambda w: cavity_fluct_components(w, FPI, src)[1] / TWO_PI
            ).value
            elapsed = time.monotonic() - start
            slowest = max(slowest, elapsed)
            worst = max(
                worst,
                abs(classical / expect_classical - 1.0),
                abs(quantum / expect_quantum - 1.0),
                abs((classical + quantum) / expect_total - 1.0),
            )
        ok = worst <= 1e-6 and slowest < 1.0
        assert _report(
            "1",
            "photon-number variance integrates to n(n+1), parts to n^2 and n",
            ok,
            f"worst rel {worst:.2e}, slowest set {slowest:.2f}s",
        )


class TestCriterion02PointwiseConservation:
    def test_three_ports_reassemble_the_drive(self):
        worst = 0.0
        for p in SWEEP:
            src = SOURCES[p]
            total = (
                reflected_spectrum(OMEGA_GRID, FPI, src)
                + transmitted_spectrum(OMEGA_GRID, FPI, src)
                + absorbed_spectrum(OMEGA_GRID, FPI, src)
            )
            drive = input_spectrum(OMEGA_GRID, src)
            worst = max(worst, float(np.max(np.abs(total / drive - 1.0))))
        ok = worst <= 1e-12
        assert _report(
            "2",
            "reflected + transmitted + absorbed equals the drive pointwise",
            ok,
            f"worst rel {worst:.2e}",
        )


class TestCriterion03LosslessUnitarity:
    def test_r_plus_t_without_absorption(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            fpi = FpiParams(
                kappa1=rng.uniform(0.05, 2.0),
                kappa2=rng.uniform(0.01, 2.0),
                kappa0=0.0,
                delta=rng.uniform(-12.0, 12.0),
            )
            g = rng.uniform(0.0, 5.0)
            total = reflection_coefficient_hwhm(fpi, g) + transmission_coefficient_hwhm(fpi, g)
            worst = max(worst, abs(total - 1.0))
        ok = worst <= 1e-12
        assert _report(
            "3",
            "R + T = 1 for a lossless interferometer (50 random draws)",
            ok,
            f"worst |R+T-1| {worst:.2e}",
        )


class TestCriterion04MonochromaticLimit:
    def test_resonant_narrow_line_coefficients(self):
        fpi = replace(FPI, delta=0.0)
        t = transmission_coefficient_hwhm(fpi, 1e-6)
        r = reflection_coefficient_hwhm(fpi, 1e-6)
        ok = abs(t / 0.82645 - 1.0) <= 1e-3 and abs(r / 0.0082645 - 1.0) <= 1e-3
        assert _report(
            "4",
            "monochromatic resonant limit: T = 0.82645, R = 0.0082645",
            ok,
            f"T = {t:.6f}, R = {r:.6f}",
        )


class TestCriterion05MeanPhotonNumber:
    def test_strong_drive_photon_number(self):
        n = mean_photon_number(FPI, SOURCES[50.0])
        ok = abs(n - 2.0) <= 1e-3 and 0.1 < n < 10.0
        assert _report(
            "5",
            "strong drive keeps order-one photons: n(p_in=50) = 2.0000(10)",
            ok,
            f"n = {n:.6f}",
        )


class TestCriterion06EnergySplit:
    def test_transmitted_energy_split(self):
        targets = {1.5: 0.48, 5.0: 0.70, 50.0: 0.95}
        results = {p: energy_split_fraction(FPI, SOURCES[p]) for p in targets}
        ok = all(abs(results[p] - targets[p]) <= 0.02 for p in targets)
        assert _report(
            "6",
            "transmitted energy below delta/2 hits 48/70/95 percent",
            ok,
            ", ".join(f"{p:g}: {results[p]:.3f}" for p in targets),
        )


class TestCriterion07ResidueVsQuadrature:
    def test_kernels_agree_with_quadrature(self):
        def lorentz(w, k):
            return 2.0 * k / (w * w + k * k)

        omegas = np.linspace(-10.0, 10.0, 21)
        start = time.monotonic()
        worst = 0.0
        for p in SWEEP:
            src = SOURCES[p]
            g = source_linewidth(src)
            kt, d = FPI.kappa_t, FPI.delta
            for w in omegas:
                q0 = adaptive_integral(
                    lambda u: lorentz(u - w, g)
                    * lorentz(u - w - d, kt)
                    * lorentz(u, g)
                    * lorentz(u - d, kt)
                    / TWO_PI,
                ).value
                q1 = adaptive_integral(
                    lambda u: (
                        lorentz(u - w, g) * lorentz(u - w - d, kt)
                        + lorentz(u + w, g) * lorentz(u + w - d, kt)
                    )
                    * lorentz(u - d, kt)
                    / (2.0 * TWO_PI),
                ).value
                q2 = adaptive_integral(
                    lambda u: lorentz(u - w, g)
                    * lorentz(u, g)
                    * (lorentz(u - w - d, kt) + lorentz(u - d, kt))
                    / TWO_PI,
                ).value
                worst = max(
                    worst,
                    abs(classical_noise_kernel(w, FPI, src) / q0 - 1.0),
                    abs(quantum_noise_kernel(w, FPI, src) / q1 - 1.0),
                    abs(reflection_cross_kernel(w, FPI, src) / q2 - 1.0),
                )
        elapsed = time.monotonic() - start
        ok = worst <= 1e-8 and elapsed < 5.0
        assert _report(
            "7",
            "residue and quadrature kernel paths agree (21 x 4 x 3 points)",
            ok,
            f"worst rel {worst:.2e}, {elapsed:.2f}s",
        )


class TestCriterion08SpectralStructure:
    def test_a_cavity_sideband_maxima(self):
        half = OMEGA_GRID[OMEGA_GRID >= 0.0]
        results = {}
        for p, expect in ((0.1, False), (5.0, True), (50.0, True)):
            spec = cavity_fluctuation_spectrum(half, FPI, SOURCES[p])
            peaks = _local_maxima(half, spec.total, prominence=1e-3)
            results[p] = any(abs(w - FPI.delta) <= 1.0 for w in peaks)
            assert results[p] is expect or _report(
                "8a", "cavity sideband structure", False, f"p_in={p}"
            )
        assert _report(
            "8a",
            "photon-number noise: sideband at the detuning for p_in in {5, 50}, none at 0.1",
            True,
            "sidebands: " + ", ".join(f"{p:g}: {results[p]}" for p in results),
        )

    def test_b_transmitted_peak_location(self):
        # stated expectation: for p_in = 50 every visible transmitted
        # noise peak sits near the detuning.  The closed form instead
        # puts the dominant self-beat peak of the narrow drive line at
        # zero frequency (the independent convolution and time-domain
        # oracles confirm it), so this check fails by construction.
        half = OMEGA_GRID[OMEGA_GRID >= 0.0]
        spec = transmitted_fluct_spectrum(half, FPI, SOURCES[50.0])
        peaks = _local_maxima(half, spec.total)
        ok = bool(peaks) and all(abs(w - FPI.delta) <= 1.0 for w in peaks)
        assert _report(
            "8b",
            "transmitted power noise peaks only near the detuning (p_in=50)",
            ok,
            "peaks at " + ", ".join(f"{w:.2f}" for w in peaks),
        )

    def test_c_reflected_peak_location(self):
        half = OMEGA_GRID[OMEGA_GRID >= 0.0]
        spec = reflected_fluct_spectrum(half, FPI, SOURCES[50.0])
        peaks = _local_maxima(half, spec.total)
        ok = bool(peaks) and all(abs(w) <= 1.0 for w in peaks)
        assert _report(
            "8c",
            "reflected power noise peaks only near zero frequency (p_in=50)",
            ok,
            "peaks at " + ", ".join(f"{w:.2f}" for w in peaks),
        )


class TestCriterion09AutocorrelationSigns:
    def test_a_cavity_monotone_then_negative(self):
        weak = cavity_autocorr(FPI, SOURCES[0.1], TAU_GRID)
        monotone = bool(np.all(np.diff(weak.values) <= 1e-12 * weak.values[0]))
        strong = cavity_autocorr(FPI, SOURCES[5.0], TAU_GRID)
        negative = bool(strong.values.min() < 0.0)
        ok = monotone and negative
        assert _report(
            "9a",
            "photon-number lag curve: monotone at p_in=0.1, negative dips at 5",
            ok,
            f"monotone={monotone}, min at p=5: {strong.values.min():.4f}",
        )

    def test_b_transmitted_negativity(self):
        # stated expectation: the transmitted power autocorrelation dips
        # below zero for p_in in {5, 50}.  Its colored part is
        # |2 kappa2 g1(tau)|^2, a squared magnitude, so it cannot be
        # negative; the check fails by construction and is kept as
        # stated.
        minima = {}
        for p in (5.0, 50.0):
            ac = transmitted_autocorr(FPI, SOURCES[p], TAU_GRID)
            minima[p] = float(ac.values.min())
        ok = all(v < 0.0 for v in minima.values())
        assert _report(
            "9b",
            "transmitted power lag curve attains negative values (p_in 5, 50)",
            ok,
            ", ".join(f"{p:g}: min {v:.3e}" for p, v in minima.items()),
        )

    def test_c_transmitted_beat_frequency(self):
        errors = {}
        for p in (5.0, 50.0):
            ac = transmitted_autocorr(FPI, SOURCES[p], TAU_GRID)
            freq = dominant_oscillation_frequency(ac.taus, ac.values)
            errors[p] = abs(freq - FPI.delta) / FPI.delta
        ok = all(err <= 0.05 for err in errors.values())
        assert _report(
            "9c",
            "transmitted lag oscillation sits at the detuning beat (within 5%)",
            ok,
            ", ".join(f"{p:g}: {err:.3%}" for p, err in errors.items()),
        )


class TestCriterion10ReflectedExponential:
    def test_reflected_autocorr_is_exponential(self):
        worst = 0.0
        for p in SWEEP:
            # the product's report, on the default lag grid TAU_GRID
            ds = autocorr_product(RunConfig(fpi=FPI, source=SOURCES[p]))
            worst = max(worst, ds.metadata["reflected_exp_rms"])
        ok = worst <= 0.05
        assert _report(
            "10",
            "reflected power lag curve follows exp(-2 gamma_l tau) within 5% rms",
            ok,
            f"worst rms {worst:.4f}",
        )


class TestCriterion11StochasticOracle:
    def test_simulation_matches_classical_noise(self):
        cfg = SimConfig()
        src = SOURCES[5.0]
        start = time.monotonic()
        traj = simulate(FPI, src, cfg)
        spec = intensity_fluct_spectrum(traj, cfg)
        elapsed = time.monotonic() - start
        mask = np.abs(spec.omegas) <= 10.0
        analytic = cavity_fluct_components(spec.omegas[mask], FPI, src)[0]
        rms = float(
            np.sqrt(np.mean((spec.values[mask] - analytic) ** 2))
            / np.sqrt(np.mean(analytic**2))
        )
        photon_mean, photon_err = stationary_photon_number(traj)
        pulls = abs(photon_mean - mean_photon_number(FPI, src)) / photon_err
        ok = rms <= 0.05 and pulls <= 3.0 and elapsed <= 120.0
        assert _report(
            "11",
            "time-domain simulation reproduces the classical noise spectrum",
            ok,
            f"rms {rms:.3f}, photon-number pull {pulls:.2f} sigma, {elapsed:.1f}s",
        )


class TestCriterion12Symmetry:
    def test_spectra_even_and_coefficients_symmetric(self):
        grid = np.linspace(-10.0, 10.0, 801)
        worst = 0.0
        for p in SWEEP:
            src = SOURCES[p]
            for build in (
                cavity_fluctuation_spectrum,
                transmitted_fluct_spectrum,
                reflected_fluct_spectrum,
            ):
                total = build(grid, FPI, src).total
                worst = max(worst, float(np.max(np.abs(total - total[::-1])) / total.max()))
        coeff_sym = True
        for d in np.linspace(0.25, 12.0, 16):
            plus, minus = replace(FPI, delta=float(d)), replace(FPI, delta=float(-d))
            for coeff in (reflection_coefficient_hwhm, transmission_coefficient_hwhm):
                if coeff(plus, 1.2) != coeff(minus, 1.2):
                    coeff_sym = False
        ok = worst <= 1e-12 and coeff_sym
        assert _report(
            "12",
            "noise spectra even in frequency; R and T even in the detuning",
            ok,
            f"worst asymmetry {worst:.2e}",
        )


class TestCriterion13MicroMacroConsistency:
    def test_medium_parametrization_consistency(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        count = 0
        while count < 100:
            n_threshold = rng.uniform(0.5, 500.0)
            n_emitters = rng.uniform(0.1, 1000.0)
            ceiling = min(n_emitters, 0.499 * (n_emitters + n_threshold))
            n_excited = rng.uniform(0.0, 1.0) * ceiling
            if n_excited <= 0.0:
                continue
            rabi = np.sqrt(200.0 / (2.0 * n_threshold * 0.5))
            micro = SourceMicroParams(
                n_emitters=n_emitters,
                n_excited=n_excited,
                rabi=rabi,
                gamma_perp=200.0,
            )
            macro = macro_params_from_medium(micro)
            worst = max(worst, abs(source_linewidth(macro) / micro.eta - 1.0))
            count += 1
        ok = worst <= 1e-13
        assert _report(
            "13",
            "medium-level and power-level source linewidths agree to round-off",
            ok,
            f"worst rel {worst:.2e} over 100 draws",
        )
