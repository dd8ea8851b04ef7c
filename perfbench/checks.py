"""Output checks behind the benchmark's ``failed`` count.

Three independent kinds of evidence:

* reference columns recorded by ``make_refs.py`` at the commit that
  introduced the benchmark, compared with a tolerance scaled to each
  column (its largest magnitude);
* spot checks of K0/K1/K2-derived points against ``scipy.integrate.quad``
  of the explicit Lorentzian integrands written out below, independent
  of ``fpinoise.lorentz``;
* the oracle's own statistics, as in acceptance criterion 11.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.integrate import quad

REF_DIR = Path(__file__).resolve().parent / "refs"
STUDY_REFS = REF_DIR / "study.npz"
ORACLE_REFS = REF_DIR / "oracle.npz"

STUDY_REL_TOL = 1e-9
ORACLE_REL_TOL = 1e-12
SPOT_REL_TOL = 1e-6
ORACLE_RMS_LIMIT = 0.05
ORACLE_PULL_LIMIT = 3.0

# the oracle's ``estimated`` column depends on sim.seed; for each sim.seed
# below ORACLE_FINGERPRINT_SEEDS the references keep these sample bins
# plus sums instead of all 8192 values
FINGERPRINT_BINS = 64
ORACLE_FINGERPRINT_SEEDS = 100


@lru_cache(maxsize=None)
def load_refs(path: Path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def compare_columns(
    series: dict[str, np.ndarray], refs: dict[str, np.ndarray], rel_tol: float
) -> list[str]:
    """Compare each reference column with ``series`` within rel_tol * max|ref|."""
    problems = []
    for name, ref in refs.items():
        if name not in series:
            problems.append(f"column {name!r} is missing")
            continue
        got = np.asarray(series[name], dtype=float)
        if got.shape != ref.shape:
            problems.append(f"column {name!r} has shape {got.shape}, reference {ref.shape}")
            continue
        same_nan = np.isnan(got) & np.isnan(ref)
        scale = float(np.max(np.abs(ref[~np.isnan(ref)]), initial=0.0))
        err = np.where(same_nan, 0.0, np.abs(got - ref))
        worst = float(np.max(err, initial=0.0))
        if not worst <= rel_tol * scale:
            problems.append(
                f"column {name!r} deviates by {worst:.3e}, over {rel_tol:g} x scale {scale:.3e}"
            )
    return problems


def study_refs(dataset_id: str) -> dict[str, np.ndarray]:
    prefix = dataset_id + "/"
    return {
        key[len(prefix):]: value
        for key, value in load_refs(STUDY_REFS).items()
        if key.startswith(prefix)
    }


def check_csv(path: Path, dataset_id: str, rows: int) -> list[str]:
    """The written file names the dataset and holds a header plus ``rows`` lines."""
    text = path.read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    problems = []
    if not text.startswith(f"# dataset: {dataset_id}\n"):
        problems.append(f"{path.name}: header does not name dataset {dataset_id!r}")
    if len(lines) != rows + 1:
        problems.append(f"{path.name}: {len(lines) - 1} data rows, expected {rows}")
    return problems


# --- explicit Lorentzian integrands --------------------------------------


def _lorentz(x: float, k: float) -> float:
    return 2.0 * k / (x * x + k * k)


def _integrate(f, centers: list[float], widths: tuple[float, float]) -> float:
    """(1/2pi) * integral of f over the real axis.

    The axis is cut at every line center and at 1, 10 and 100 line widths
    on either side of it, so that each piece holds at most one scale of
    every peak however narrow it is; the two tails are left infinite.
    """
    cuts: list[float] = []
    for cut in sorted(c + m * k for c in centers for k in widths for m in (-100, -10, -1, 0, 1, 10, 100)):
        if not cuts or cut - cuts[-1] > 1e-6 * min(widths):  # no sliver pieces
            cuts.append(cut)
    opts = dict(epsabs=0.0, epsrel=1e-10, limit=200)
    total = quad(f, -np.inf, cuts[0], **opts)[0] + quad(f, cuts[-1], np.inf, **opts)[0]
    total += sum(quad(f, a, b, **opts)[0] for a, b in zip(cuts[:-1], cuts[1:]))
    return total / (2.0 * math.pi)


def kernel_by_quadrature(kind: str, w: float, g: float, kt: float, d: float) -> float:
    """K0, K1 or K2 at frequency ``w`` by direct quadrature.

    K0(w) = (1/2pi) int s(u - w) s(u) du, s(u) = L(u, g) L(u - d, kt)
    K1(w) = (1/4pi) int [s(u - w) + s(u + w)] L(u - d, kt) du
    K2(w) = (1/2pi) int L(u - w, g) L(u, g) [L(u - w - d, kt) + L(u - d, kt)] du
    """
    widths = (g, kt)

    def s(u: float) -> float:
        return _lorentz(u, g) * _lorentz(u - d, kt)

    if kind == "K0":
        return _integrate(lambda u: s(u - w) * s(u), [w, w + d, 0.0, d], widths)
    if kind == "K1":
        left = _integrate(lambda u: s(u - w) * _lorentz(u - d, kt), [w, w + d, d], widths)
        right = _integrate(lambda u: s(u + w) * _lorentz(u - d, kt), [-w, d - w, d], widths)
        return 0.5 * (left + right)
    if kind == "K2":
        return _integrate(
            lambda u: _lorentz(u - w, g) * _lorentz(u, g)
            * (_lorentz(u - w - d, kt) + _lorentz(u - d, kt)),
            [w, 0.0, w + d, d],
            widths,
        )
    raise ValueError(f"unknown kernel {kind!r}")


def _quadrature_value(column: str, w: float, p_in: float, g: float, fpi) -> float:
    """Value of a K-derived dataset column at ``w`` from the quadrature kernels."""
    k1, k2, k0, d = fpi.kappa1, fpi.kappa2, fpi.kappa0, fpi.delta
    kt = k1 + k2 + k0
    amp = p_in * k1 / kt
    if column in ("d2n_classical", "classical"):
        return amp * amp * kernel_by_quadrature("K0", w, g, kt, d)
    if column in ("d2n_quantum", "quantum"):
        return amp * kernel_by_quadrature("K1", w, g, kt, d)
    if column == "d2pr_colored":
        removal = 2.0 * k1 * (k2 + k0) / kt
        return p_in * p_in * (
            _lorentz(w, 2.0 * g)
            - removal * kernel_by_quadrature("K2", w, g, kt, d)
            + removal * removal * kernel_by_quadrature("K0", w, g, kt, d)
        )
    raise ValueError(f"no quadrature rule for column {column!r}")


SPOT_COLUMNS = {
    "fluct": ("d2n_classical", "d2n_quantum", "d2pr_colored"),
    "fig6a": ("classical", "quantum"),
    "fig6b": ("classical", "quantum"),
    "fig6c": ("classical", "quantum"),
    "fig6d": ("classical", "quantum"),
}


def spot_check(
    dataset_id: str, series: dict[str, np.ndarray], fpi, p_in: float, gamma_max: float,
    rng: np.random.Generator, points: int,
) -> list[str]:
    """Compare K-derived columns with quadrature at omega = 0 and ``points`` seeded rows.

    The row nearest omega = 0 is always checked: there the poles of every
    kernel coincide pairwise, which is where a residue sum is least
    stable.  The column scale is the largest quadrature value checked,
    so a wrong library value cannot widen its own tolerance.
    """
    columns = SPOT_COLUMNS.get(dataset_id, ())
    if not columns:
        return []
    g = gamma_max / (1.0 + p_in)  # gamma_l in kappa_l units
    omegas = series["omega"]
    seeded = rng.choice(omegas.size, size=min(points, omegas.size), replace=False)
    rows = sorted({int(np.argmin(np.abs(omegas))), *map(int, seeded)})
    problems = []
    for column in columns:
        values = series[column]
        expected = [_quadrature_value(column, float(omegas[r]), p_in, g, fpi) for r in rows]
        scale = max(abs(e) for e in expected)
        for row, want in zip(rows, expected):
            if not abs(values[row] - want) <= SPOT_REL_TOL * scale:
                problems.append(
                    f"{dataset_id}.{column} at omega={omegas[row]:.6g}: {values[row]:.9e} "
                    f"vs quadrature {want:.9e} (scale {scale:.3e})"
                )
    return problems


def fingerprint(values: np.ndarray) -> np.ndarray:
    """Sample bins, sum, absolute sum and sum of squares of a column."""
    index = np.linspace(0, values.size - 1, FINGERPRINT_BINS).astype(int)
    return np.concatenate(
        [values[index], [values.sum(), np.abs(values).sum(), (values * values).sum()]]
    )


def compare_fingerprint(values: np.ndarray, ref: np.ndarray, rel_tol: float) -> list[str]:
    got = fingerprint(np.asarray(values, dtype=float))
    if got.shape != ref.shape:
        return [f"fingerprint length {got.shape}, reference {ref.shape}"]
    samples, sums = got[:-3], got[-3:]
    ref_samples, ref_sums = ref[:-3], ref[-3:]
    scale = float(np.max(np.abs(ref_samples)))
    problems = []
    if not np.max(np.abs(samples - ref_samples)) <= rel_tol * scale:
        problems.append("estimated: sample bins differ from the seed reference")
    bounds = rel_tol * np.array([ref_sums[1], ref_sums[1], ref_sums[2]])
    for label, diff, bound in zip(("sum", "abs sum", "square sum"), np.abs(sums - ref_sums), bounds):
        if not diff <= bound:
            problems.append(f"estimated: {label} differs from the seed reference by {diff:.3e}")
    return problems


def oracle_statistics(metadata: dict) -> list[str]:
    """Criterion 11: central rms deviation and photon-number pull."""
    rms = float(metadata["rms_deviation_central"])
    pull = abs(
        float(metadata["photon_number_mean"]) - float(metadata["photon_number_analytic"])
    ) / float(metadata["photon_number_stderr"])
    problems = []
    if not rms <= ORACLE_RMS_LIMIT:
        problems.append(f"oracle rms deviation {rms:.4f} > {ORACLE_RMS_LIMIT}")
    if not pull <= ORACLE_PULL_LIMIT:
        problems.append(f"oracle photon-number pull {pull:.2f} sigma > {ORACLE_PULL_LIMIT}")
    return problems


def check_oracle(series: dict[str, np.ndarray], metadata: dict, sim_seed: int) -> tuple[list[str], str]:
    """Problems of one oracle dataset, and which reference applied to ``estimated``."""
    refs = load_refs(ORACLE_REFS)
    problems = compare_columns(
        series, {k: refs[k] for k in ("omega", "analytic_classical")}, ORACLE_REL_TOL
    )
    key = f"estimated/{sim_seed}"
    if key in refs:
        problems += compare_fingerprint(series["estimated"], refs[key], ORACLE_REL_TOL)
        basis = f"estimated: checked against the recorded fingerprint of sim.seed={sim_seed}"
    else:
        basis = f"estimated: no recorded fingerprint for sim.seed={sim_seed}; statistics only"
    problems += oracle_statistics(metadata)
    return problems, basis


def check_operation(workload: str, op, results, rng: np.random.Generator) -> tuple[list[str], str]:
    """Problems found in the outputs of one operation, plus a note on the basis."""
    problems: list[str] = []
    note = ""
    for name, ds, path in results:
        series = ds.series
        if any(np.isinf(v).any() for v in series.values()):
            problems.append(f"{name}: infinite values")
        if path is not None:
            rows = len(next(iter(series.values())))
            problems += check_csv(Path(path), ds.figure_id, rows)
        if workload == "study":
            problems += [f"{name}: {p}" for p in compare_columns(series, study_refs(name), STUDY_REL_TOL)]
            # a figure panel records its own drive power; products use the config's
            p_in = float(ds.metadata.get("p_in", op.cfg.source.p_in))
            problems += spot_check(name, series, op.cfg.fpi, p_in, op.cfg.source.gamma_max, rng, points=2)
        elif workload == "oracle":
            found, note = check_oracle(series, ds.metadata, op.cfg.sim.seed)
            problems += found
        elif workload == "scan":
            src = op.cfg.source
            problems += spot_check(name, series, op.cfg.fpi, src.p_in, src.gamma_max, rng, points=1)
    return problems, note

