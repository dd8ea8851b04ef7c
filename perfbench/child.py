"""One workload in a fresh process: the timed loop or the traced run.

Started by ``run.py`` as ``python -m perfbench.child`` from the checkout
root.  Prints one JSON object as its last line of standard output.

The timed loop (``--trace 0``) is a single closed loop: each operation
starts when the previous one has finished.  It runs whole blocks of the
workload until the operations have taken ``--seconds`` in total, checks
every operation's outputs outside the timed region, and reads the speed
gauge (``speed.py``) before every operation.  Past ``--stop-after``
seconds of wall time it starts no further operation, even inside a
block, and reports the run as truncated.

The traced run (``--trace 1``) alternates one traced and one untraced
pass over block 0 for at most ``--seconds`` (but at least one round),
traced first so that the first pass of the fresh process shows the
oracle's memory growth.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_GAUGE_READINGS = 3


def import_program():
    """Import ``fpinoise`` from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fpinoise.cli  # noqa: F401  (what every CLI invocation imports)
    import fpinoise

    origin = Path(fpinoise.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"fpinoise was imported from {origin}, not from {src}")
    return fpinoise


def _no_span(name):
    return nullcontext()


def _failure(op, exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{op.label}: {type(exc).__name__}: {exc} ({Path(frame.filename).name}:{frame.lineno})"


def timed_loop(workload: str, seed: int, seconds: float, out_dir: Path, stop_after: float = math.inf) -> dict:
    import numpy as np

    from perfbench import checks, speed, workloads

    latencies: list[float] = []
    failures: list[str] = []
    notes: set[str] = set()
    completed = 0
    busy = 0.0
    blocks = 0
    gauge = []
    spot_rng = np.random.default_rng([seed, 7])
    truncated = False
    started = time.perf_counter()
    while not truncated and (blocks == 0 or busy < seconds):
        for op in workloads.block(workload, seed, blocks, out_dir):
            if latencies and time.perf_counter() - started > stop_after:
                truncated = True
                break
            gauge.append(speed.loop_seconds())
            start = time.perf_counter()
            try:
                results = workloads.run_operation(op, _no_span)
            except Exception as exc:  # an operation that raises counts as failed
                latencies.append(time.perf_counter() - start)
                busy += latencies[-1]
                failures.append(_failure(op, exc))
                continue
            latencies.append(time.perf_counter() - start)
            busy += latencies[-1]
            completed += 1
            problems, note = checks.check_operation(workload, op, results, spot_rng)
            if note:
                notes.add(note)
            if problems:
                failures.append(f"{op.label}: " + "; ".join(problems))
        else:
            blocks += 1
    return {
        "attempted": len(latencies),
        "completed": completed,
        "failed": len(failures),
        "failures": failures[:20],
        "busy_s": busy,
        "blocks": blocks,
        "truncated": truncated,
        "latencies_s": latencies,
        "gauge_s": gauge,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "notes": sorted(notes),
    }


def traced_run(workload: str, seed: int, seconds: float, out_dir: Path, spans_path: Path) -> dict:
    import numpy as np

    from perfbench import checks, probes, workloads

    per_block: list[dict] = []
    traced_walls: list[float] = []
    untraced_walls: list[float] = []
    failures: list[str] = []
    notes: set[str] = set()
    attempted = 0
    dumped = []
    missing: list[str] = []
    spot_rng = np.random.default_rng([seed, 7])
    ops = workloads.block(workload, seed, 0, out_dir)
    started = time.perf_counter()
    # start another round only if one more is expected to end in time
    while not traced_walls or (
        time.perf_counter() - started + traced_walls[-1] + untraced_walls[-1] <= seconds
    ):
        tracer = probes.Tracer()
        installer = probes.Probes(tracer)
        outputs = []
        with installer.installed():
            start = time.perf_counter()
            for op in ops:
                attempted += 1
                try:
                    outputs.append((op, workloads.run_operation(op, tracer.span)))
                except Exception as exc:
                    failures.append(_failure(op, exc))
            traced_walls.append(time.perf_counter() - start)
        missing = installer.missing
        per_block.append(probes.layer_metrics(tracer, missing))
        dumped.append([[s.name, s.start, s.end, s.parent, s.units] for s in tracer.spans])
        for op, results in outputs:
            problems, note = checks.check_operation(workload, op, results, spot_rng)
            if note:
                notes.add(note)
            if problems:
                failures.append(f"{op.label} (traced): " + "; ".join(problems))

        start = time.perf_counter()
        for op in ops:
            try:
                workloads.run_operation(op, _no_span)
            except Exception:  # already counted in the traced pass
                pass
        untraced_walls.append(time.perf_counter() - start)

    metrics: dict[str, float | None] = {}
    for name in per_block[0]:
        values = [block[name] for block in per_block]
        if None in values:
            metrics[name] = None
        elif name == "oracle.rss_growth_mb":
            metrics[name] = max(values)  # only the first pass of a process grows the peak
        else:
            metrics[name] = statistics.median(values)
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    metrics["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "units"],
                                      "blocks": dumped}))
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "missing_probes": missing,
        "traced_passes": len(traced_walls),
        "traced_wall_s": traced_walls,
        "untraced_wall_s": untraced_walls,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "notes": sorted(notes),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stop-after", type=float, default=math.inf)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    fpinoise = import_program()
    from perfbench import workloads

    run_dir = ROOT / ".perfbench"
    out_dir = run_dir / f"out-{args.workload}-{os.getpid()}"
    workloads.block(args.workload, args.seed, 0, out_dir)
    if args.setup_only:
        from perfbench import speed

        print(json.dumps({"gauge_s": [speed.loop_seconds() for _ in range(SETUP_GAUGE_READINGS)]}))
        return 0

    import numpy
    import scipy

    try:
        if args.trace:
            spans_path = run_dir / f"spans-{args.workload}-seed{args.seed}.json"
            result = traced_run(args.workload, args.seed, args.seconds, out_dir, spans_path)
        else:
            result = timed_loop(args.workload, args.seed, args.seconds, out_dir, args.stop_after)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fpinoise": fpinoise.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
