"""Tests of the benchmark itself: inputs, checks and reporting."""

import contextlib
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, child, probes, run, speed, workloads


def test_scan_draws_repeat_for_a_seed_and_differ_between_seeds():
    first = [workloads.scan_draw(5, i) for i in range(90)]
    again = [workloads.scan_draw(5, i) for i in range(90)]
    other = [workloads.scan_draw(6, i) for i in range(90)]
    assert first == again
    assert [p for p, adv in first if not adv] != [p for p, adv in other if not adv]
    assert workloads.scan_config(5, 17) == workloads.scan_config(5, 17)


def test_scan_adversarial_share_and_geometry():
    draws = [workloads.scan_draw(11, i) for i in range(450)]
    adversarial = [p for p, adv in draws if adv]
    assert len(adversarial) == 50  # one in nine
    lo, hi = workloads.EPSILON_RANGE
    for p in adversarial:
        kappa_t = p["kappa1"] + p["kappa2"] + p["kappa0"]
        gamma_l = p["gamma_max"] / (1.0 + p["p_in"])
        assert p["delta"] == 0.0
        assert lo <= p["epsilon"] <= hi
        assert gamma_l / kappa_t - 1.0 == pytest.approx(p["epsilon"], rel=1e-5)
    eps = sorted({p["epsilon"] for p in adversarial})
    assert len(eps) == workloads.SCAN_ADVERSARIAL  # one per log stratum
    for p, adv in draws:
        if not adv:
            assert workloads.P_IN_RANGE[0] <= p["p_in"] <= workloads.P_IN_RANGE[1]
            assert workloads.DELTA_RANGE[0] <= p["delta"] <= workloads.DELTA_RANGE[1]


# the library falls back to quadrature below this eps for every product
# of an adversarial draw (1e-9 x summed widths of two or more lines)
FALLBACK_EPS = 2e-9


def test_scan_p90_lands_on_a_slow_adversarial_draw():
    draws = [workloads.scan_draw(2, i) for i in range(3 * workloads.SCAN_BLOCK)]
    slow = [adv for p, adv in draws]
    assert all(p["epsilon"] < FALLBACK_EPS for p, adv in draws if adv)
    assert len(draws) >= run.P90_MIN_SAMPLES
    assert 0.1 < sum(slow) / len(draws) < 0.12  # slightly over 1 in 10
    latencies = [2.0 if is_slow else 0.015 for is_slow in slow]
    assert run.percentile_ms(latencies, 0.9) == pytest.approx(2000.0)


@pytest.mark.xfail(reason="known defect: above the near-degenerate threshold the residue "
                   "sum is wrong at omega = 0 for gamma_l ~ kappa_t, delta = 0 (ROADMAP item 3)")
def test_an_adversarial_draw_above_the_fallback_threshold_is_correct():
    from dataclasses import replace

    cfg, adversarial = workloads.scan_config(0, workloads.SCAN_ADVERSARIAL_EVERY - 1)
    params, _ = workloads.scan_draw(0, workloads.SCAN_ADVERSARIAL_EVERY - 1)
    assert adversarial
    kappa_t = params["kappa1"] + params["kappa2"] + params["kappa0"]
    gamma_max = kappa_t * (1.0 + 5e-9) * (1.0 + params["p_in"])
    cfg = replace(cfg, source=replace(cfg.source, gamma_max=gamma_max))
    op = workloads.Operation("eps-5e-9", cfg.outputs, cfg, False, True)
    results = workloads.run_operation(op, lambda name: contextlib.nullcontext())
    problems, _ = checks.check_operation("scan", op, results, np.random.default_rng(0))
    assert problems == []


def test_study_block_covers_every_dataset_once():
    ops = workloads.block("study", 3, 0, Path("unused"))
    assert sorted(op.label for op in ops) == sorted(workloads.study_ids())
    assert len(ops) == 24


def test_checker_catches_a_column_perturbed_by_1e_6():
    refs = checks.study_refs("fig6a")
    assert checks.compare_columns(dict(refs), refs, checks.STUDY_REL_TOL) == []
    scaled = dict(refs, classical=refs["classical"] * (1.0 + 1e-6))
    assert checks.compare_columns(scaled, refs, checks.STUDY_REL_TOL)
    one_point = refs["quantum"].copy()
    peak = int(np.argmax(np.abs(one_point)))
    one_point[peak] *= 1.0 + 1e-6
    assert checks.compare_columns(dict(refs, quantum=one_point), refs, checks.STUDY_REL_TOL)


def test_oracle_fingerprint_catches_a_perturbed_estimate():
    values = np.random.default_rng(0).random(8192) + 1.0
    ref = checks.fingerprint(values)
    assert checks.compare_fingerprint(values, ref, checks.ORACLE_REL_TOL) == []
    assert checks.compare_fingerprint(values * (1.0 + 1e-6), ref, checks.ORACLE_REL_TOL)
    bumped = values.copy()
    bumped[4001] *= 1.0 + 1e-6  # not a sample bin
    assert checks.compare_fingerprint(bumped, ref, checks.ORACLE_REL_TOL)


def test_spot_check_flags_a_wrong_kernel_value():
    from fpinoise.cavity import FpiParams
    from fpinoise.figures import run_figure
    from fpinoise.config import RunConfig, GridSpec

    cfg = RunConfig(omega_grid=GridSpec(-10.0, 15.0, 51))
    series = dict(run_figure("fig6b", cfg).series)
    rng = np.random.default_rng(1)
    assert checks.spot_check("fig6b", series, FpiParams(), 1.5, 3.0, rng, points=51) == []
    series["quantum"] = series["quantum"] * (1.0 + 1e-5)
    assert checks.spot_check("fig6b", series, FpiParams(), 1.5, 3.0, rng, points=51)


def test_an_operation_that_raises_counts_as_failed(monkeypatch, tmp_path):
    ops = [workloads.Operation(f"op{i}", ("spectra",), None, write=False) for i in range(3)]
    monkeypatch.setattr(workloads, "block", lambda *args: ops)

    def run_operation(op, span):
        if op.label == "op1":
            raise ArithmeticError("boom")
        return []

    monkeypatch.setattr(workloads, "run_operation", run_operation)
    result = child.timed_loop("study", 0, 0.0, tmp_path)
    assert (result["attempted"], result["completed"], result["failed"]) == (3, 2, 1)
    assert "ArithmeticError: boom" in result["failures"][0]
    result["gauge_s"] = [speed.REFERENCE_S]
    metrics = run.end_to_end(result, _setup(1.0), scaled=True)
    assert metrics["error_rate"] == pytest.approx(1 / 3)


def test_the_timed_loop_stops_inside_a_block_when_out_of_time(monkeypatch, tmp_path):
    ops = [workloads.Operation(f"op{i}", ("spectra",), None, write=False) for i in range(5)]
    monkeypatch.setattr(workloads, "block", lambda *args: ops)
    monkeypatch.setattr(workloads, "run_operation", lambda op, span: [])
    result = child.timed_loop("study", 0, 60.0, tmp_path, stop_after=0.0)
    assert (result["attempted"], result["blocks"], result["truncated"]) == (1, 0, True)


def _child_result(samples: int, gauge: float = speed.REFERENCE_S) -> dict:
    return {"latencies_s": [0.01] * samples, "completed": samples, "busy_s": 0.01 * samples,
            "peak_rss_mb": 100.0, "failed": 0, "attempted": samples, "gauge_s": [gauge]}


def _setup(wall: float, gauge: float = speed.REFERENCE_S) -> list[dict]:
    return [{"wall_s": wall, "gauge_s": [gauge]}]


def test_p90_is_null_below_100_operations():
    assert run.end_to_end(_child_result(99), _setup(1.0), scaled=True)["op_p90_ms"] is None
    metrics = run.end_to_end(_child_result(100), _setup(1.0), scaled=True)
    assert metrics["op_p90_ms"] == pytest.approx(10.0)


def test_times_are_scaled_to_the_reference_speed():
    result, setup = _child_result(100, 2 * speed.REFERENCE_S), _setup(3.0, 2 * speed.REFERENCE_S)
    slow = run.end_to_end(result, setup, scaled=True)
    assert slow["op_p50_ms"] == pytest.approx(5.0)
    assert slow["ops_per_s"] == pytest.approx(200.0)
    assert slow["setup_s"] == pytest.approx(1.5)
    assert slow["speed_factor"] == pytest.approx(0.5)
    raw = run.end_to_end(result, setup, scaled=False)
    assert raw["op_p50_ms"] == pytest.approx(10.0)
    assert raw["setup_s"] == pytest.approx(1.5)


def test_percentile_interpolates_between_order_statistics():
    assert run.percentile_ms([0.001, 0.002, 0.003, 0.004], 0.5) == pytest.approx(2.5)


def test_probes_observe_without_changing_results():
    from fpinoise import fluctuations
    from fpinoise.cavity import FpiParams
    from fpinoise.source import SourceParams

    omegas = np.linspace(-3.0, 3.0, 7)
    fpi, src = FpiParams(), SourceParams(p_in=1.5)
    plain = fluctuations.classical_noise_kernel(omegas, fpi, src)
    original = fluctuations.lorentz_product_integral
    tracer = probes.Tracer()
    installer = probes.Probes(tracer)
    with installer.installed():
        traced = fluctuations.classical_noise_kernel(omegas, fpi, src)
    assert np.array_equal(plain, traced)
    assert fluctuations.lorentz_product_integral is original
    metrics = probes.layer_metrics(tracer, installer.missing)
    assert metrics["lorentz.integral_calls"] == 7
    assert metrics["fluctuations.k0_points"] == 7
    assert metrics["lorentz.residue_share"] == 1.0
    assert 0.0 < metrics["fluctuations.kernel_self_s"] < metrics["fluctuations.kernel_s"]


def test_a_missing_probe_gives_null_metrics(monkeypatch):
    import fpinoise
    from fpinoise import lorentz

    monkeypatch.delattr(lorentz, "lorentz_product_transform")
    tracer = probes.Tracer()
    installer = probes.Probes(tracer)
    with installer.installed():
        pass
    assert "fpinoise.lorentz.lorentz_product_transform" in installer.missing
    metrics = probes.layer_metrics(tracer, installer.missing)
    assert metrics["lorentz.transform_calls"] is None
    assert metrics["lorentz.integral_calls"] == 0
    assert callable(fpinoise.lorentz_product_integral)


def test_importtime_parser_reads_cumulative_microseconds():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        450 |   fpinoise.lorentz\n"
        "import time:        80 |     900000 | fpinoise\n"
    )
    assert run.parse_importtime(text) == {"fpinoise.lorentz": 450e-6, "fpinoise": 0.9}


def test_every_metric_benchmark_json_names_is_computed():
    computed = run.end_to_end(_child_result(100), _setup(1.0), scaled=True)
    assert set(run.END_TO_END) <= set(computed)
    traced = set(probes.layer_metrics(probes.Tracer(), [])) | set(run.IMPORT_MODULES) | {"trace.overhead_pct"}
    assert set(run.PER_LAYER) <= traced
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert all(math.isfinite(b) and b > 0 for b in bounds.values())
