"""fpinoise benchmark: the ``study``, ``oracle`` and ``scan`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py                      # all workloads, one after another
    python3 perfbench/run.py --workload study --seed 3 --seconds 20 --trace 0

Each workload runs in its own fresh child process (``perfbench.child``)
with thread pools capped at the number of usable cores.  With
``--trace 0`` the end-to-end metrics are measured; with ``--trace 1`` a
traced run gives the per-layer metrics.  Every metric is printed by name
with its unit, then a ``record:`` line with the run's provenance, and as
the last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from ``src`` of the same checkout;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import speed  # noqa: E402
from perfbench.workloads import SPEED_SCALED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
DEFAULT_SECONDS = SPEC["run_seconds"]
# end-to-end metrics compared across commits, and the traced run's per-layer metrics
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# printed and recorded, but not compared: op_p90_ms is null below
# P90_MIN_SAMPLES operations, error_rate is zero on a correct program,
# speed_factor describes the machine, not the program
REPORTED_ONLY = {"op_p90_ms": "ms", "error_rate": "ratio", "speed_factor": "ratio"}

SETUP_RUNS = 3
IMPORTTIME_RUNS = 3
P90_MIN_SAMPLES = 100
RUN_BUDGET_S = 170  # every process of one workload's run ends within this
# the timed loop stops starting operations, even inside a block, after
# STOP_FACTOR x --seconds of wall time, or STOP_MARGIN_S before the budget
# ends, and reports what it measured: a slow change shows as slow, not as
# a run that timed out
STOP_FACTOR = 3
STOP_MARGIN_S = 30
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

IMPORT_MODULES = {
    "setup.import.lorentz_s": "fpinoise.lorentz",
    "setup.import.autocorr_s": "fpinoise.autocorr",
    "setup.import.oracle_s": "fpinoise.oracle",
    "setup.import.fpinoise_s": "fpinoise",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment of every child: this checkout's sources, capped thread pools."""
    env = dict(os.environ)
    cores = usable_cores()
    for var in THREAD_VARS:
        current = env.get(var, "")
        cap = min(int(current), cores) if current.isdigit() and int(current) > 0 else cores
        env[var] = str(cap)
    paths = [str(ROOT / "src"), str(ROOT)]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    tmp = ROOT / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def _run(cmd: list[str], env: dict[str, str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"out of time before {' '.join(cmd[1:4])}")
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, timeout=timeout, capture_output=True, text=True
        )
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps the child
        raise BenchmarkError(f"{' '.join(cmd[1:4])} did not finish in {timeout:.0f} s") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchmarkError(f"{' '.join(cmd)} exited with status {done.returncode}")
    return done


def _child(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, "-m", "perfbench.child", "--workload", workload, "--seed", str(seed), *extra]


def measure_setup(workload: str, seed: int, env: dict[str, str], runs: int, deadline: float) -> list[dict]:
    """Fresh interpreters that import fpinoise.cli and build the config.

    Each child then reads the speed gauge on its own CPU; the reading time
    is taken off the measured wall time.
    """
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        done = _run(_child(workload, seed, "--setup-only"), env, deadline)
        wall = time.perf_counter() - start
        gauge = json.loads(done.stdout.strip().splitlines()[-1])["gauge_s"]
        samples.append({"wall_s": wall - sum(gauge), "gauge_s": gauge})
    return samples


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return cumulative


def measure_imports(env: dict[str, str], runs: int, deadline: float) -> dict[str, float | None]:
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    for _ in range(runs):
        done = _run([sys.executable, "-X", "importtime", "-c", "import fpinoise.cli"], env, deadline)
        cumulative = parse_importtime(done.stderr)
        for name, module in IMPORT_MODULES.items():
            if module in cumulative:
                samples[name].append(cumulative[module])
    return {name: statistics.median(v) if v else None for name, v in samples.items()}


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def percentile_ms(latencies_s: list[float], q: float) -> float:
    ordered = sorted(latencies_s)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return (ordered[low] + (ordered[high] - ordered[low]) * (position - low)) * 1e3


def end_to_end(child: dict, setup: list[dict], scaled: bool) -> dict[str, float | None]:
    """End-to-end metrics; setup, and with ``scaled`` operation times, are
    scaled to the reference speed (speed.py)."""
    factor = speed.scale(child["gauge_s"]) if scaled else 1.0
    latencies = [t * factor for t in child["latencies_s"]]
    return {
        "setup_s": statistics.median(s["wall_s"] * speed.scale(s["gauge_s"]) for s in setup),
        "ops_per_s": child["completed"] / (child["busy_s"] * factor),
        "op_p50_ms": percentile_ms(latencies, 0.5),
        "peak_rss_mb": child["peak_rss_mb"],
        "op_p90_ms": percentile_ms(latencies, 0.9) if len(latencies) >= P90_MIN_SAMPLES else None,
        "error_rate": child["failed"] / child["attempted"],
        "speed_factor": speed.scale(child["gauge_s"]),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env()
    record: dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "nproc": usable_cores(),
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        "load_generation": "one process, closed loop, no concurrency",
    }
    if trace:
        imports = measure_imports(env, IMPORTTIME_RUNS, deadline)
        done = _run(_child(workload, seed, "--seconds", str(seconds), "--trace", "1"), env, deadline)
        child = json.loads(done.stdout.strip().splitlines()[-1])
        metrics = dict(child.pop("metrics"))
        metrics.update(imports)
        units = PER_LAYER
        record["samples"] = {
            "traced_passes": child["traced_passes"],
            "importtime_runs": IMPORTTIME_RUNS,
            "note": "times are medians over traced passes of block 0; counts are per pass",
        }
        record["labels"] = {
            "oracle.ensemble_mb_computed": "computed from array shapes, not measured",
            "oracle.rss_growth_mb": "ru_maxrss growth across simulate and the Welch estimate, "
            "first traced pass of a fresh process",
        }
    else:
        setup = measure_setup(workload, seed, env, SETUP_RUNS, deadline)
        stop_after = min(STOP_FACTOR * seconds, deadline - time.monotonic() - STOP_MARGIN_S)
        done = _run(
            _child(workload, seed, "--seconds", str(seconds), "--trace", "0", "--stop-after", f"{stop_after:.3f}"),
            env,
            deadline,
        )
        child = json.loads(done.stdout.strip().splitlines()[-1])
        metrics = end_to_end(child, setup, workload in SPEED_SCALED)
        units = {**END_TO_END, **REPORTED_ONLY}
        latencies = child.pop("latencies_s")
        record["raw"] = {
            "ops_per_s": child["completed"] / child["busy_s"],
            "op_p50_ms": percentile_ms(latencies, 0.5),
            "setup_s": statistics.median(s["wall_s"] for s in setup),
        }
        record["samples"] = {
            "setup": setup,
            "operations": len(latencies),
            "blocks": child["blocks"],
            "truncated": child["truncated"],
            "busy_s": child["busy_s"],
            "op_p90_ms": len(latencies) if len(latencies) >= P90_MIN_SAMPLES
            else f"null: {len(latencies)} operations < {P90_MIN_SAMPLES}",
        }
    record["child"] = child
    return {
        "workload": workload,
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
        "record": record,
    }


def print_result(result: dict, compared: tuple[str, ...]) -> None:
    print(f"== {result['workload']}: {result['attempted']} operations, {result['failed']} failed")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        tag = "" if name in compared else "  (reported only)"
        print(f"  {result['workload']:<7} {name:<34} {shown:>14} {entry['unit']}{tag}")
    for failure in result["record"]["child"]["failures"]:
        print(f"  failed: {failure}")
    print("record: " + json.dumps(result["record"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a nonnegative 64-bit integer")
    if not (ROOT / "src" / "fpinoise" / "__init__.py").is_file():
        print(f"perfbench: no fpinoise sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = (args.workload,) if args.workload else WORKLOADS
    compared = tuple(PER_LAYER) if args.trace else tuple(END_TO_END)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_result(result, compared)
            results.append(result)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if args.workload:
        summary["metrics"] = {k: v for k, v in results[0]["metrics"].items() if k in compared}
    else:
        summary["workloads"] = {
            r["workload"]: {k: v for k, v in r["metrics"].items() if k in compared} for r in results
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
