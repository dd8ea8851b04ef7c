"""Dataset records and machine-readable writers (CSV and JSON).

Every emitted file embeds the parameter echo and the package version.
Rerunning one configuration gives identical bytes.  The echo documents
the run but is not itself a config file: it spells the seed
``sim.seed`` where config files use ``seed``, adds the derived
``source.gamma_l`` and ``source.regime``, and leaves out ``format`` and
``out_dir``.  Numbers are written in scientific notation with 9 significant
digits; the JSON writer stores the same rounded values, making the two
encodings numerically identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParameterError


def format_float(x: float) -> str:
    """Scientific notation, 9 significant digits; stable for diffs."""
    return f"{float(x):.8e}"


def _rounded(x: float) -> float:
    return float(format_float(x))


@dataclass(frozen=True)
class FigureDataset:
    """Named columns over one common grid, plus a metadata echo.

    ``figure_id`` names the product (a bundled figure preset id or a CLI
    product name); all series must share one length.
    """

    figure_id: str
    series: dict[str, np.ndarray]
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.series:
            raise ParameterError("dataset needs at least one series")
        lengths = {np.asarray(col).shape for col in self.series.values()}
        if len(lengths) != 1 or any(len(shape) != 1 for shape in lengths):
            raise ParameterError("all series must be 1-d and of equal length")
        coerced = {
            name: np.asarray(col, dtype=float) for name, col in self.series.items()
        }
        object.__setattr__(self, "series", coerced)


def _metadata_lines(ds: FigureDataset) -> list[str]:
    lines = [f"# dataset: {ds.figure_id}"]
    for key, value in ds.metadata.items():
        if isinstance(value, float):
            value = format_float(value)
        lines.append(f"# {key}: {value}")
    return lines


def dataset_to_csv(ds: FigureDataset) -> str:
    names = list(ds.series)
    rows = np.column_stack([ds.series[name] for name in names])
    lines = _metadata_lines(ds)
    lines.append(",".join(names))
    # "%.8e" % x gives the bytes of format_float(x), one row at a time
    row_format = ",".join(["%.8e"] * len(names))
    lines.extend(row_format % tuple(row) for row in rows.tolist())
    return "\n".join(lines) + "\n"


def dataset_to_json(ds: FigureDataset) -> str:
    payload = {
        "dataset": ds.figure_id,
        "metadata": {
            key: (format_float(value) if isinstance(value, float) else value)
            for key, value in ds.metadata.items()
        },
        "series": {
            name: [_rounded(x) for x in col] for name, col in ds.series.items()
        },
    }
    return json.dumps(payload, indent=1) + "\n"


def write_dataset(ds: FigureDataset, out_dir: str | Path, fmt: str) -> Path:
    """Serialize one dataset into ``out_dir`` and return the file path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{ds.figure_id}.{fmt}"
    text = dataset_to_csv(ds) if fmt == "csv" else dataset_to_json(ds)
    path.write_text(text, encoding="utf-8")
    return path
