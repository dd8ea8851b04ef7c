"""Seeded inputs of the three benchmark workloads and how one operation runs.

A workload is a sequence of blocks; a block is a list of operations.  The
benchmark always runs whole blocks, so every run of a workload measures
the same mix of cheap and expensive operations:

* ``study``  -- one block is one pass over the bundled reference study
  (19 figure presets and 5 CLI products, default grids), in a seeded
  order; one operation builds one dataset and writes it as CSV.
* ``oracle`` -- one block is one ``oracle`` product at the default
  ``SimConfig`` with ``sim.seed`` equal to the benchmark seed, written
  as CSV.
* ``scan``   -- one block is 45 parameter draws, every ninth adversarial;
  one operation runs ``fluct``, ``autocorr`` and ``coeffs`` for one draw
  on a short grid and writes nothing.

Only :class:`fpinoise.config.RunConfig` values built here reach the
library; the seed itself never does (except as ``sim.seed``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

STUDY_PRODUCTS = ("spectra", "fluct", "autocorr", "coeffs", "sweep")

# workloads whose operation times are scaled by the speed gauge (speed.py).
# Their time goes to interpreted Python, which slows with the gauge's
# Python loop; oracle time goes to compiled numpy/scipy kernels on
# hundreds of MB, which did not: scaled, its run-to-run spread doubled.
SPEED_SCALED = ("study", "scan")

# a scan block is SCAN_BLOCK draws; every ninth is adversarial, slightly
# over 1 in 10, which puts the 90th-percentile latency of a run of 3 blocks
# inside the slow tail.  The SCAN_ADVERSARIAL adversarial draws of a block
# take one eps from each of that many equal strata of the log range.  The
# library falls back to quadrature when two poles lie closer than 1e-9 x
# the summed widths of a product, at eps below 2e-9 for every product of a
# draw, so every adversarial draw falls back at every point.  Above that
# threshold the residue sum serves these draws and returns wrong values at
# omega = 0 (perfbench/README.md, Output checks), so the range stops at 1e-9.
SCAN_BLOCK = 45
SCAN_ADVERSARIAL_EVERY = 9
SCAN_ADVERSARIAL = SCAN_BLOCK // SCAN_ADVERSARIAL_EVERY
SCAN_GRID_SIZES = (33, 41, 49, 57, 65)
SCAN_TAU_MAX = 12.0

# log-uniform ranges of the valid parameter domain, in kappa_l units
KAPPA1_RANGE = (0.05, 5.0)
KAPPA2_RANGE = (0.05, 5.0)
KAPPA0_RANGE = (0.01, 1.0)
GAMMA_MAX_RANGE = (0.1, 10.0)
P_IN_RANGE = (0.01, 100.0)
DELTA_RANGE = (-10.0, 10.0)  # uniform
EPSILON_RANGE = (1e-11, 1e-9)  # adversarial gamma_l = kappa_t (1 + eps)


@dataclass(frozen=True)
class Operation:
    """One closed-loop operation: build ``builds`` from ``cfg``.

    ``builds`` holds figure ids and CLI product names; ``write`` says
    whether each dataset is written as CSV, as the CLI would.
    """

    label: str
    builds: tuple[str, ...]
    cfg: object  # fpinoise.config.RunConfig
    write: bool
    adversarial: bool = False


def _low_discrepancy(seed: int, stream: int, index: int, dim: int) -> np.ndarray:
    """Point ``index`` of a seeded additive-recurrence sequence in [0, 1)^dim.

    Roberts' R_d sequence with a random shift drawn from (seed, stream):
    every prefix covers the cube evenly, so runs of any length and any
    seed see nearly the same parameter mix.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = phi ** -np.arange(1, dim + 1)
    shift = np.random.default_rng([seed, stream]).random(dim)
    return (shift + (index + 1) * alpha) % 1.0


def _log_uniform(u: float, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def scan_draw(seed: int, index: int) -> tuple[dict[str, float], bool]:
    """Parameters of scan draw ``index`` and whether it is adversarial.

    Generic draws come from a seeded low-discrepancy sequence.  An
    adversarial draw costs up to 100x a generic one, and how much depends
    on its pole geometry (kappa1, kappa2, kappa0, eps), not on p_in; so
    the geometry of the j-th adversarial draw is the same in every block
    and for every seed, with eps at the midpoint of stratum j, and only
    p_in is seeded.  Every block then holds the same cliff, and a run's
    throughput does not depend on how many blocks fitted in it.
    """
    block, position = divmod(index, SCAN_BLOCK)
    stratum, offset = divmod(position, SCAN_ADVERSARIAL_EVERY)
    if offset == SCAN_ADVERSARIAL_EVERY - 1:
        u = _low_discrepancy(0, 1, stratum, 3)
        k1 = _log_uniform(u[0], KAPPA1_RANGE)
        k2 = _log_uniform(u[1], KAPPA2_RANGE)
        k0 = _log_uniform(u[2], KAPPA0_RANGE)
        p_in = _log_uniform(_low_discrepancy(seed, 2, index, 1)[0], P_IN_RANGE)
        eps = _log_uniform((stratum + 0.5) / SCAN_ADVERSARIAL, EPSILON_RANGE)
        gamma_l = (k1 + k2 + k0) * (1.0 + eps)
        # gamma_l = gamma_max / (1 + p_in / kappa_l), with kappa_l = 1
        params = dict(kappa1=k1, kappa2=k2, kappa0=k0, delta=0.0,
                      p_in=p_in, gamma_max=gamma_l * (1.0 + p_in), epsilon=eps)
        return params, True
    u = _low_discrepancy(seed, 0, index, 6)
    params = dict(
        kappa1=_log_uniform(u[0], KAPPA1_RANGE),
        kappa2=_log_uniform(u[1], KAPPA2_RANGE),
        kappa0=_log_uniform(u[2], KAPPA0_RANGE),
        gamma_max=_log_uniform(u[3], GAMMA_MAX_RANGE),
        p_in=_log_uniform(u[4], P_IN_RANGE),
        delta=DELTA_RANGE[0] + u[5] * (DELTA_RANGE[1] - DELTA_RANGE[0]),
    )
    return params, False


def scan_config(seed: int, index: int):
    """The RunConfig of scan draw ``index``; the grids are short and symmetric."""
    from fpinoise.cavity import FpiParams
    from fpinoise.config import GridSpec, RunConfig
    from fpinoise.source import SourceParams

    params, adversarial = scan_draw(seed, index)
    # an adversarial draw falls back to quadrature at every grid point, so it
    # takes the shortest grid: a run of 3 blocks then fits in about 25 s
    count = SCAN_GRID_SIZES[0] if adversarial else SCAN_GRID_SIZES[index % len(SCAN_GRID_SIZES)]
    kappa_t = params["kappa1"] + params["kappa2"] + params["kappa0"]
    gamma_l = params["gamma_max"] / (1.0 + params["p_in"])
    half_width = abs(params["delta"]) + 4.0 * (kappa_t + gamma_l)
    cfg = RunConfig(
        fpi=FpiParams(params["kappa1"], params["kappa2"], params["kappa0"], params["delta"]),
        source=SourceParams(p_in=params["p_in"], gamma_max=params["gamma_max"]),
        omega_grid=GridSpec(-half_width, half_width, count),
        tau_grid=GridSpec(0.0, SCAN_TAU_MAX, count),
        outputs=("fluct", "autocorr", "coeffs"),
    )
    return cfg, adversarial


def study_ids() -> tuple[str, ...]:
    from fpinoise.figures import FIGURE_IDS

    return tuple(FIGURE_IDS) + STUDY_PRODUCTS


def block(workload: str, seed: int, index: int, out_dir: Path) -> list[Operation]:
    """Operations of block ``index`` of ``workload`` under ``seed``."""
    from fpinoise.config import RunConfig

    if workload == "study":
        cfg = RunConfig(out_dir=str(out_dir))
        ids = study_ids()
        order = np.random.default_rng([seed, index]).permutation(len(ids))
        return [Operation(ids[i], (ids[i],), cfg, write=True) for i in order]
    if workload == "oracle":
        cfg = RunConfig(out_dir=str(out_dir))
        cfg = replace(cfg, sim=replace(cfg.sim, seed=seed))
        return [Operation("oracle", ("oracle",), cfg, write=True)]
    if workload == "scan":
        ops = []
        for draw in range(index * SCAN_BLOCK, (index + 1) * SCAN_BLOCK):
            cfg, adversarial = scan_config(seed, draw)
            ops.append(Operation(f"draw-{draw}", cfg.outputs, cfg, False, adversarial))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def build_dataset(name: str, cfg):
    """Build one figure preset or CLI product, looked up at call time."""
    from fpinoise import figures

    if name in figures.PRODUCT_BUILDERS:
        return figures.PRODUCT_BUILDERS[name](cfg)
    return figures.run_figure(name, cfg)


def run_operation(op: Operation, span) -> list[tuple[str, object, Path | None]]:
    """Run ``op``; returns (name, dataset, written path or None) per build.

    ``span(name)`` is a context manager opened around each builder call;
    the untraced loop passes a no-op.
    """
    from fpinoise import output

    results = []
    for name in op.builds:
        with span(f"figures:{name}"):
            ds = build_dataset(name, op.cfg)
        path = output.write_dataset(ds, op.cfg.out_dir, "csv") if op.write else None
        results.append((name, ds, path))
    return results
