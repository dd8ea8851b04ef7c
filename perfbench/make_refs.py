"""Record the reference outputs the benchmark's checks compare against.

Run from the root of a checkout, at the commit whose outputs are to be
the reference::

    python3 perfbench/make_refs.py

Writes ``perfbench/refs/study.npz`` (every column of the 24 study
datasets) and ``perfbench/refs/oracle.npz`` (the seed-free ``omega`` and
``analytic_classical`` columns, plus a fingerprint of ``estimated`` for
each sim.seed below ``checks.ORACLE_FINGERPRINT_SEEDS``).  The ``scan``
workload has no references: its points are checked against quadrature.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.child import import_program  # noqa: E402
from perfbench.workloads import build_dataset, study_ids  # noqa: E402


def main() -> int:
    import_program()
    from fpinoise.config import RunConfig

    cfg = RunConfig()
    study = {}
    for name in study_ids():
        for column, values in build_dataset(name, cfg).series.items():
            study[f"{name}/{column}"] = values
    checks.REF_DIR.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(checks.STUDY_REFS, **study)
    print(f"{checks.STUDY_REFS.relative_to(ROOT)}: {len(study)} columns")

    oracle = {}
    for seed in range(checks.ORACLE_FINGERPRINT_SEEDS):
        ds = build_dataset("oracle", replace(cfg, sim=replace(cfg.sim, seed=seed)))
        oracle.setdefault("omega", ds.series["omega"])
        oracle.setdefault("analytic_classical", ds.series["analytic_classical"])
        oracle[f"estimated/{seed}"] = checks.fingerprint(ds.series["estimated"])
        for problem in checks.oracle_statistics(ds.metadata):
            print(f"sim.seed={seed}: {problem}")
    np.savez_compressed(checks.ORACLE_REFS, **oracle)
    print(f"{checks.ORACLE_REFS.relative_to(ROOT)}: {len(oracle)} entries")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
