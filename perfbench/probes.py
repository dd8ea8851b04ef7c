"""Layer probes: spans and counters recorded from outside the package.

A probe replaces a public function by a wrapper in every ``fpinoise``
module whose globals hold it, because modules import names directly
(``fpinoise.fluctuations.lorentz_product_integral``).  Wrappers only
observe: they pass arguments and return values through unchanged and
re-raise whatever the function raises.  A probed name that no longer
exists is skipped with a note, and the metrics that depend on it are
reported as null.

Layer boundaries get spans (name, start, end, parent), kept in memory;
the innermost ``lorentz`` calls only get counts and cumulative time,
which is also charged to the enclosing span so that self time can be
computed as span time minus child time.
"""

from __future__ import annotations

import importlib
import resource
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


def _size_of(index: int, keyword: str):
    """Extractor: the element count of argument ``index`` / ``keyword``."""

    def extract(args, kwargs):
        value = kwargs[keyword] if keyword in kwargs else args[index]
        return int(np.size(value))

    return extract


def _ru_maxrss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class Probe:
    module: str
    name: str
    layer: str
    counter: str | None = None  # counter group: record counts and time, no span
    units: object = None  # extractor of a work count from (args, kwargs)


PROBES = (
    Probe("fpinoise.lorentz", "lorentz_product_integral", "lorentz", counter="integral"),
    Probe("fpinoise.lorentz", "lorentz_product_transform", "lorentz", counter="transform"),
    Probe("fpinoise.lorentz", "adaptive_integral", "lorentz", counter="quadrature"),
    Probe("fpinoise.lorentz", "lorentz_transform_quadrature", "lorentz", counter="quadrature"),
    Probe("fpinoise.fluctuations", "classical_noise_kernel", "fluctuations.k0", units=_size_of(0, "omega")),
    Probe("fpinoise.fluctuations", "quantum_noise_kernel", "fluctuations.k1", units=_size_of(0, "omega")),
    Probe("fpinoise.fluctuations", "reflection_cross_kernel", "fluctuations.k2", units=_size_of(0, "omega")),
    Probe("fpinoise.fluctuations", "cavity_fluct_components", "fluctuations"),
    Probe("fpinoise.fluctuations", "cavity_fluctuation_spectrum", "fluctuations"),
    Probe("fpinoise.fluctuations", "transmitted_fluct_spectrum", "fluctuations"),
    Probe("fpinoise.fluctuations", "reflected_fluct_spectrum", "fluctuations"),
    Probe("fpinoise.autocorr", "cavity_autocorr", "autocorr", units=_size_of(2, "taus")),
    Probe("fpinoise.autocorr", "transmitted_autocorr", "autocorr", units=_size_of(2, "taus")),
    Probe("fpinoise.autocorr", "reflected_autocorr", "autocorr", units=_size_of(2, "taus")),
    Probe("fpinoise.cavity", "commutator_spectrum", "cavity"),
    Probe("fpinoise.cavity", "cavity_field_spectrum", "cavity"),
    Probe("fpinoise.cavity", "mean_photon_number", "cavity"),
    Probe("fpinoise.cavity", "transmitted_spectrum", "cavity"),
    Probe("fpinoise.cavity", "absorbed_spectrum", "cavity"),
    Probe("fpinoise.cavity", "reflected_spectrum", "cavity"),
    Probe("fpinoise.cavity", "reflection_coefficient_hwhm", "cavity"),
    Probe("fpinoise.cavity", "transmission_coefficient_hwhm", "cavity"),
    Probe("fpinoise.cavity", "reflection_coefficient", "cavity"),
    Probe("fpinoise.cavity", "transmission_coefficient", "cavity"),
    Probe("fpinoise.cavity", "absorbed_fraction", "cavity"),
    Probe("fpinoise.cavity", "transmitted_power", "cavity"),
    Probe("fpinoise.cavity", "reflected_power", "cavity"),
    Probe("fpinoise.source", "input_spectrum", "cavity"),
    Probe("fpinoise.oracle", "simulate", "oracle.simulate"),
    Probe("fpinoise.oracle", "intensity_fluct_spectrum", "oracle.welch"),
    Probe("fpinoise.output", "write_dataset", "output"),
)

WARNING_CLASS = ("fpinoise.errors", "DegeneratePolesWarning")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    units: int = 0
    counted: float = 0.0  # time of counter-only calls made directly inside
    extra: dict = field(default_factory=dict)


class Tracer:
    """Spans and counters of one traced block."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.residue_results = 0
        self.warnings = 0
        self._counter_depth: dict[str, int] = {}
        self._in_counter = 0

    @contextmanager
    def span(self, name: str, units: int = 0):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, units)
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self.stack.pop()

    def counted_call(self, group: str, fn, args, kwargs):
        depth = self._counter_depth.get(group, 0)
        outermost = self._in_counter == 0
        self._counter_depth[group] = depth + 1
        self._in_counter += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._in_counter -= 1
            self._counter_depth[group] = depth
            if depth == 0:  # nested calls of one group are counted once
                self.calls[group] = self.calls.get(group, 0) + 1
                self.seconds[group] = self.seconds.get(group, 0.0) + elapsed
            if outermost and self.stack:
                self.spans[self.stack[-1]].counted += elapsed


class Probes:
    """Installs the wrappers of :data:`PROBES` and removes them again."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.warning_class = None

    def install(self) -> None:
        self.missing = []
        packages = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fpinoise"]
        for probe in PROBES:
            try:
                original = getattr(importlib.import_module(probe.module), probe.name)
            except (ImportError, AttributeError):
                self.missing.append(f"{probe.module}.{probe.name}")
                continue
            wrapper = self._wrap(probe, original)
            for module in packages:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            module = importlib.import_module(WARNING_CLASS[0])
            self.warning_class = getattr(module, WARNING_CLASS[1])
        except (ImportError, AttributeError):
            self.missing.append(".".join(WARNING_CLASS))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            with warnings.catch_warnings():
                if self.warning_class is not None:
                    warnings.simplefilter("always", self.warning_class)
                    previous = warnings.showwarning

                    def count(message, category, *args, **kwargs):
                        if issubclass(category, self.warning_class):
                            self.tracer.warnings += 1
                        else:
                            previous(message, category, *args, **kwargs)

                    warnings.showwarning = count
                yield self
        finally:
            self.uninstall()

    def _wrap(self, probe: Probe, fn):
        tracer = self.tracer

        if probe.counter is not None:
            group = probe.counter
            track_method = probe.name == "lorentz_product_integral"

            def counted(*args, **kwargs):
                result = tracer.counted_call(group, fn, args, kwargs)
                if track_method and getattr(result, "method", None) == "residue":
                    tracer.residue_results += 1
                return result

            counted.__wrapped__ = fn
            return counted

        label = f"{probe.layer}:{probe.name}"
        units = probe.units

        def spanned(*args, **kwargs):
            count = _observe(units, args, kwargs) if units is not None else 0
            rss_before = _ru_maxrss_mb() if probe.layer == "oracle.simulate" else None
            with tracer.span(label, count) as record:
                result = fn(*args, **kwargs)
            if rss_before is not None:
                record.extra["rss_before_mb"] = rss_before
                record.extra["steps"] = _observe(_simulated_steps, args, kwargs)
                record.extra["ensemble_bytes"] = _observe(_ensemble_bytes, result)
            if probe.layer == "oracle.welch":
                record.extra["rss_after_mb"] = _ru_maxrss_mb()
            if probe.layer == "output":
                record.extra["bytes"] = _observe(lambda path: path.stat().st_size, result)
            return result

        spanned.__wrapped__ = fn
        return spanned


def _observe(extract, *args):
    """``extract(*args)``, or None when the probed call's shape has changed."""
    try:
        return extract(*args)
    except (LookupError, AttributeError, TypeError, ValueError, OSError):
        return None


def _simulated_steps(args, kwargs) -> int:
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    return int(cfg.n_realizations * (cfg.n_steps + cfg.burn_in))


def _ensemble_bytes(traj) -> int:
    """Bytes of the arrays behind the returned trajectory, from their shapes."""
    total = 0
    seen = set()
    for value in vars(traj).values():
        if not isinstance(value, np.ndarray):
            continue
        base = value.base if isinstance(value.base, np.ndarray) else value
        if id(base) not in seen:
            seen.add(id(base))
            total += int(np.prod(base.shape)) * base.itemsize
    return total


# probes ("module.name") that per-layer metrics need; a missing probe
# turns the metrics that need it into null
_LORENTZ = "fpinoise.lorentz."
_FLUCT = "fpinoise.fluctuations."
_KERNELS = tuple(_FLUCT + n for n in ("classical_noise_kernel", "quantum_noise_kernel", "reflection_cross_kernel"))
_AUTOCORR = tuple("fpinoise.autocorr." + n for n in ("cavity_autocorr", "transmitted_autocorr", "reflected_autocorr"))
_CAVITY = tuple(f"{p.module}.{p.name}" for p in PROBES if p.layer == "cavity")
_ORACLE = ("fpinoise.oracle.simulate", "fpinoise.oracle.intensity_fluct_spectrum")
_ANALYTIC = tuple(f"{p.module}.{p.name}" for p in PROBES if p.layer.startswith("fluctuations"))
_INTEGRAL = (_LORENTZ + "lorentz_product_integral",)
_TRANSFORM = (_LORENTZ + "lorentz_product_transform",)
_QUADRATURE = (_LORENTZ + "adaptive_integral", _LORENTZ + "lorentz_transform_quadrature")
_OUTPUT = ("fpinoise.output.write_dataset",)


def _per(numerator, denominator, scale: float = 1.0):
    """numerator / denominator * scale; 0 when nothing was measured, None when unknown."""
    if numerator is None or denominator is None:
        return None
    return numerator / denominator * scale if denominator else 0.0


def _total(values):
    """Sum of observed values; None if any could not be observed."""
    values = list(values)
    return None if None in values else sum(values)


def layer_metrics(tracer: Tracer, missing: list[str]) -> dict[str, float | None]:
    """Per-layer metrics of one traced block; null where a probe they need is missing."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start

    def layer(s: Span) -> str:
        return s.name.split(":")[0]

    def family(s: Span) -> str:
        return layer(s).split(".")[0]

    def duration(s: Span) -> float:
        return s.end - s.start

    def seconds(selected) -> float:
        return float(sum(duration(s) for s in selected))

    def self_time(i: int) -> float:
        return duration(spans[i]) - child_time[i] - spans[i].counted

    def outermost(s: Span) -> bool:
        """The first span of its layer family on the way up to the root."""
        return s.parent < 0 or family(spans[s.parent]) != family(s)

    def builder_of(s: Span) -> str:
        while s.parent >= 0:
            s = spans[s.parent]
            if family(s) == "figures":
                return s.name.split(":")[1]
        return ""

    kernel_index = [i for i, s in enumerate(spans) if layer(s).startswith("fluctuations.k")]
    kernels = [spans[i] for i in kernel_index]
    points = {k: _total(s.units for s in kernels if layer(s) == f"fluctuations.{k}") for k in ("k0", "k1", "k2")}
    kernel_s = seconds(kernels)
    autocorr = [s for s in spans if family(s) == "autocorr" and outermost(s)]
    lags = _total(s.units for s in autocorr)
    autocorr_s = seconds(autocorr)
    simulate = [s for s in spans if layer(s) == "oracle.simulate"]
    welch = [s for s in spans if layer(s) == "oracle.welch"]
    simulate_s = seconds(simulate)
    growth = [
        w.extra["rss_after_mb"] - s.extra["rss_before_mb"]
        for s, w in zip(simulate, welch)
        if "rss_before_mb" in s.extra and "rss_after_mb" in w.extra
    ]
    writes = [s for s in spans if layer(s) == "output"]
    write_s = seconds(writes)
    written = _total(s.extra.get("bytes") for s in writes)
    ensemble = [s.extra.get("ensemble_bytes") for s in simulate]
    integral_calls = tracer.calls.get("integral", 0)
    integral_s = tracer.seconds.get("integral", 0.0)

    def needs(probes: tuple[str, ...], value):
        return None if any(p in missing for p in probes) else value

    warning = (".".join(WARNING_CLASS),)
    builders = tuple(f"{p.module}.{p.name}" for p in PROBES)
    return {
        "lorentz.integral_calls": needs(_INTEGRAL, integral_calls),
        "lorentz.integral_s": needs(_INTEGRAL, integral_s),
        "lorentz.integral_us": needs(_INTEGRAL, _per(integral_s, integral_calls, 1e6)),
        "lorentz.transform_calls": needs(_TRANSFORM, tracer.calls.get("transform", 0)),
        "lorentz.transform_s": needs(_TRANSFORM, tracer.seconds.get("transform", 0.0)),
        "lorentz.quadrature_calls": needs(_QUADRATURE, tracer.calls.get("quadrature", 0)),
        "lorentz.quadrature_s": needs(_QUADRATURE, tracer.seconds.get("quadrature", 0.0)),
        "lorentz.residue_share": needs(_INTEGRAL, _per(tracer.residue_results, integral_calls)),
        "lorentz.degenerate_warnings": needs(warning, tracer.warnings),
        "fluctuations.k0_points": needs(_KERNELS[:1], points["k0"]),
        "fluctuations.k1_points": needs(_KERNELS[1:2], points["k1"]),
        "fluctuations.k2_points": needs(_KERNELS[2:], points["k2"]),
        "fluctuations.kernel_s": needs(_KERNELS, kernel_s),
        "fluctuations.kernel_self_s": needs(
            _KERNELS + _INTEGRAL + _TRANSFORM + _QUADRATURE,
            float(sum(self_time(i) for i in kernel_index)),
        ),
        "fluctuations.kernel_us_per_point": needs(_KERNELS, _per(kernel_s, _total(points.values()), 1e6)),
        "autocorr.lags": needs(_AUTOCORR, lags),
        "autocorr.s": needs(_AUTOCORR, autocorr_s),
        "autocorr.us_per_lag": needs(_AUTOCORR, _per(autocorr_s, lags, 1e6)),
        "cavity.spectra_s": needs(
            _CAVITY, seconds(s for s in spans if family(s) == "cavity" and outermost(s))
        ),
        "oracle.simulate_s": needs(_ORACLE[:1], simulate_s),
        "oracle.welch_s": needs(_ORACLE[1:], seconds(welch)),
        "oracle.analytic_s": needs(_ANALYTIC, seconds(
            s for s in spans
            if family(s) == "fluctuations" and outermost(s) and builder_of(s) == "oracle"
        )),
        "oracle.steps_per_s": needs(
            _ORACLE[:1], _per(_total(s.extra.get("steps") for s in simulate), simulate_s)
        ),
        "oracle.ensemble_mb_computed": needs(
            _ORACLE[:1], None if None in ensemble else max(ensemble, default=0) / 1e6
        ),
        "oracle.rss_growth_mb": needs(_ORACLE, max(growth, default=0.0)),
        "figures.self_s": needs(
            builders, float(sum(self_time(i) for i, s in enumerate(spans) if family(s) == "figures"))
        ),
        "output.bytes": needs(_OUTPUT, written),
        "output.write_s": needs(_OUTPUT, write_s),
        "output.mb_per_s": needs(_OUTPUT, _per(written, write_s, 1e-6)),
    }
