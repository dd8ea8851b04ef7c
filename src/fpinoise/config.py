"""Run configuration: defaults, key-value parsing and validation.

A configuration is a plain text document of ``key = value`` lines with
``#`` comments.  Dotted keys address nested records, e.g.::

    fpi.kappa1   = 0.5
    source.p_in  = 1.5
    grid.omega   = -10:15:2001
    format       = csv

An empty document yields the default parameter set: mirror rates
0.5/0.5, absorption 0.1, detuning 5, maximum source linewidth 3 and
drive power 1.5, all in kappa_l units.

Config lines, in file order (the last value of a key wins), and the CLI
flags ``--out``, ``--format``, ``--seed`` and ``--grid-points`` all set
values through :func:`set_key`, which validates each one and starts every
error with its key.  A leading byte-order mark is accepted; an empty
``out_dir`` is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

import numpy as np

from .cavity import FpiParams
from .errors import ConfigError, ParameterError
from .oracle import SimConfig
from .output import WRITERS
from .source import SourceParams, source_linewidth

PRODUCTS = ("spectra", "fluct", "autocorr", "coeffs", "oracle", "sweep")

# drive powers (in kappa_l units) used by the bundled figure presets
SWEEP_POWERS = (0.1, 1.5, 5.0, 50.0)


@dataclass(frozen=True)
class GridSpec:
    """A uniform grid given as start, stop and point count."""

    start: float
    stop: float
    count: int

    def __post_init__(self):
        # inf or nan when an end is not finite, and inf when the span overflows
        if not math.isfinite(self.stop - self.start):
            raise ParameterError("grid start, stop and span stop - start must be finite")
        if not self.stop > self.start:
            raise ParameterError("grid stop must exceed start")
        if not isinstance(self.count, (int, np.integer)):
            raise ParameterError(f"grid point count must be an integer, got {self.count!r}")
        if self.count < 2:
            raise ParameterError("grid needs at least 2 points")

    def build(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise ParameterError("grid spec must be 'start:stop:count'")
        return cls(float(parts[0]), float(parts[1]), int(parts[2]))

    def __str__(self) -> str:
        # repr parses back to the same float; an integral bound drops its ".0"
        start, stop = (repr(float(x)).removesuffix(".0") for x in (self.start, self.stop))
        return f"{start}:{stop}:{self.count}"


DEFAULT_OMEGA_GRID = GridSpec(-10.0, 15.0, 2001)
DEFAULT_TAU_GRID = GridSpec(0.0, 12.0, 601)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: physics, grids, products and output policy."""

    fpi: FpiParams = field(default_factory=FpiParams)
    source: SourceParams = field(default_factory=lambda: SourceParams(p_in=1.5))
    omega_grid: GridSpec = DEFAULT_OMEGA_GRID
    tau_grid: GridSpec = DEFAULT_TAU_GRID
    outputs: tuple[str, ...] = ("spectra", "fluct", "autocorr", "coeffs")
    format: str = "csv"
    out_dir: str = "out"
    sim: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self):
        for name in self.outputs:
            if name not in PRODUCTS:
                raise ConfigError(
                    f"outputs: unknown product '{name}'; choose from {', '.join(PRODUCTS)}"
                )
        if self.format not in WRITERS:
            raise ConfigError(
                f"format: '{self.format}' is not supported; use one of {', '.join(WRITERS)}"
            )
        if self.tau_grid.start < 0.0:
            raise ConfigError(f"grid.tau: lags must be nonnegative, got {self.tau_grid.start:g}")
        if not self.out_dir:
            raise ConfigError("out_dir: empty; name a directory, e.g. out")


def _record_keys() -> dict[str, tuple[str, str, type]]:
    """Config key -> (record, field, type) for every field of the records."""
    keys = {}
    for group in ("fpi", "source", "sim"):
        record = type(getattr(RunConfig(), group))
        types = get_type_hints(record)
        for fld in fields(record):
            # the simulation seed is spelled without its group
            key = "seed" if fld.name == "seed" else f"{group}.{fld.name}"
            keys[key] = (group, fld.name, types[fld.name])
    return keys


# config key -> (record, or None for a top-level field; field; parser)
_KEYS = {
    **_record_keys(),
    "grid.omega": (None, "omega_grid", GridSpec.parse),
    "grid.tau": (None, "tau_grid", GridSpec.parse),
    "format": (None, "format", str),
    "out_dir": (None, "out_dir", str),
}


def set_key(cfg: RunConfig, key: str, text: str) -> RunConfig:
    """Return ``cfg`` with one key set from its text and validated.

    Raises :class:`ConfigError` whose message starts with the key; unknown
    keys list the known ones.
    """
    if key not in _KEYS:
        raise ConfigError(f"unknown key '{key}'; known keys: {', '.join(sorted(_KEYS))}")
    group, name, parse = _KEYS[key]
    try:
        value = parse(text)
        if group is not None:
            name, value = group, replace(getattr(cfg, group), **{name: value})
        return replace(cfg, **{name: value})
    except ConfigError:
        raise  # RunConfig's own messages already start with the key
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse a key-value document into a validated :class:`RunConfig`.

    Lines apply in file order through :func:`set_key`: each value is checked
    as it is read, and the last value of a key wins.
    """
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        cfg = set_key(cfg, key.strip(), value.strip())
    return cfg


def load_config(path: str | None) -> RunConfig:
    """Read a UTF-8 config file (a leading byte-order mark dropped); None gives the defaults."""
    if path is None:
        return RunConfig()
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start} is not UTF-8; save it as UTF-8") from exc
    return parse_config(text)


def config_echo(cfg: RunConfig) -> dict[str, object]:
    """Flat key-value echo of a configuration, for dataset metadata."""
    echo: dict[str, object] = {}
    for key, (group, name, _) in _KEYS.items():
        if group is not None:
            echo[f"{group}.{name}"] = getattr(getattr(cfg, group), name)
        elif key.startswith("grid."):
            echo[key] = str(getattr(cfg, name))
    echo["source.gamma_l"] = source_linewidth(cfg.source)
    return echo
