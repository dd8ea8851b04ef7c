"""Command line and dataset emission: figures, formats, reproducibility."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fpinoise import (
    ConfigError,
    ConvergenceError,
    DegeneratePolesWarning,
    ParameterError,
    SourceParams,
    mean_photon_number,
    source_linewidth,
)
from fpinoise.autocorr import cavity_autocorr
from fpinoise.cavity import reflection_coefficient_hwhm, transmission_coefficient_hwhm
from fpinoise.cli import _build_parser, main
from fpinoise.config import PRODUCTS, SWEEP_POWERS, GridSpec, RunConfig, parse_config
from fpinoise.figures import (
    FIGURE_IDS,
    PRODUCT_BUILDERS,
    base_metadata,
    energy_split_fraction,
    run_figure,
    sweep_product,
)
from fpinoise.output import WRITERS, FigureDataset, format_float, write_dataset
from routes import exact_lorentz_integral


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def _read_csv(path):
    metadata = {}
    rows = []
    header = None
    with open(path, newline="") as handle:
        for line in handle:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(":")
                metadata[key.strip()] = value.strip()
                continue
            if header is None:
                header = line.strip().split(",")
                continue
            rows.append([float(tok) for tok in line.strip().split(",")])
    return metadata, header, np.array(rows)


# the alternative configuration of the preset checks: short grids, negative
# detuning, a narrower maximum linewidth and no absorption
_ALT_CFG = parse_config(
    "grid.omega = -10:15:201\ngrid.tau = 0:12:101\nfpi.delta = -3\n"
    "source.gamma_max = 1.2\nfpi.kappa0 = 0"
)


class TestFigureDatasets:
    def test_all_ids_build(self, tmp_path):
        cfg = parse_config("grid.omega = -10:15:201\ngrid.tau = 0:12:101")
        for figure_id in FIGURE_IDS:
            ds = run_figure(figure_id, cfg)
            assert ds.figure_id == figure_id
            lengths = {len(col) for col in ds.series.values()}
            assert len(lengths) == 1

    def test_unknown_id_rejected(self):
        from fpinoise.errors import ParameterError

        with pytest.raises(ParameterError, match="unknown figure id"):
            run_figure("fig99", RunConfig())

    def test_fig3b_columns(self):
        ds = run_figure("fig3b", RunConfig())
        assert list(ds.series) == [
            "delta",
            "reflection_finite",
            "transmission_finite",
            "reflection_mono",
            "transmission_mono",
        ]
        deltas = ds.series["delta"]
        assert deltas[0] == -15.0 and deltas[-1] == 15.0
        # finite-linewidth transmission is below the monochromatic one
        # near resonance
        mid = np.argmin(np.abs(deltas))
        assert ds.series["transmission_finite"][mid] < ds.series["transmission_mono"][mid]
        assert ds.series["reflection_finite"][mid] > ds.series["reflection_mono"][mid]
        # each column is its coefficient called per detuning, at both configs
        for cfg in (RunConfig(), _ALT_CFG):
            ds = run_figure("fig3b", cfg)
            g_finite = source_linewidth(SourceParams(p_in=1.0, gamma_max=cfg.source.gamma_max))
            assert ds.metadata["finite_line_hwhm"] == g_finite
            fpis = [replace(cfg.fpi, delta=float(d)) for d in ds.series["delta"]]
            for name, coefficient, g in (
                ("reflection_finite", reflection_coefficient_hwhm, g_finite),
                ("transmission_finite", transmission_coefficient_hwhm, g_finite),
                ("reflection_mono", reflection_coefficient_hwhm, 0.0),
                ("transmission_mono", transmission_coefficient_hwhm, 0.0),
            ):
                expected = [coefficient(fpi, g) for fpi in fpis]
                assert np.array_equal(ds.series[name], expected), name

    def test_fig3a_columns(self):
        for cfg in (RunConfig(), _ALT_CFG):
            ds = run_figure("fig3a", cfg)
            assert list(ds.series) == ["p_in", "photon_number", "gamma_l"]
            powers = ds.series["p_in"]
            assert np.array_equal(powers, np.linspace(0.0, 50.0, 501))
            sources = [SourceParams(p_in=p, gamma_max=cfg.source.gamma_max) for p in powers]
            photon = [mean_photon_number(cfg.fpi, src) for src in sources]
            assert np.array_equal(ds.series["photon_number"], photon)
            assert np.array_equal(ds.series["gamma_l"], [source_linewidth(s) for s in sources])

    def test_fig4b_drive_power(self):
        cfg = parse_config("grid.omega = -10:15:201")
        ds = run_figure("fig4b", cfg)
        assert ds.metadata["p_in"] == pytest.approx(1.5)
        assert ds.metadata["gamma_l"] == pytest.approx(1.2)
        assert set(ds.series) == {"omega", "reflected", "transmitted", "input"}

    def test_fig9_delta_weights_in_metadata_only(self):
        cfg = parse_config("grid.tau = 0:12:101")
        ds = run_figure("fig9", cfg)
        assert "tau" in ds.series
        for p in (0.1, 1.5, 5.0, 50.0):
            key = f"delta_weight_{p:g}"
            assert key in ds.metadata
        # normalized curves start at one
        for name, col in ds.series.items():
            if name != "tau":
                assert col[0] == pytest.approx(1.0, rel=1e-12)

    def test_fig8_normalization_metadata(self):
        cfg = parse_config("grid.tau = 0:12:101")
        ds = run_figure("fig8c", cfg)
        src = SourceParams(p_in=5.0)
        n = mean_photon_number(cfg.fpi, src)
        assert ds.metadata["normalization"] == pytest.approx(n * (n + 1), rel=1e-10)
        assert ds.series["total"][0] == pytest.approx(1.0, rel=1e-12)


# the figure presets spelled out as views of the CLI products: for each
# preset, {preset column: (product, p_in, product column)} and
# {preset metadata key: (product, p_in, product metadata key)}
_POWERS = (0.1, 1.5, 5.0, 50.0)
_PANEL_VIEWS = {
    "fig4": (
        "spectra",
        {"omega": "omega", "reflected": "reflected", "transmitted": "transmitted", "input": "input"},
        {"gamma_l": "source.gamma_l"},
    ),
    "fig6": (
        "fluct",
        {"omega": "omega", "total": "d2n_total", "classical": "d2n_classical",
         "quantum": "d2n_quantum"},
        {},
    ),
}
_SWEEP_VIEWS = {
    "fig5a": ("spectra", "omega", "n", "cavity", {}),
    "fig5b": ("fluct", "omega", "d2n", "d2n_total", {}),
    "fig7a": ("fluct", "omega", "d2pt", "d2pt_total", {"white_floor": "d2pt_white_floor"}),
    "fig7b": ("fluct", "omega", "d2pr", "d2pr_total", {"white_floor": "d2pr_white_floor"}),
    "fig9": (
        "autocorr", "tau", "d2pt_norm", "transmitted_norm",
        {"delta_weight": "transmitted_delta_weight"},
    ),
}


def _preset_views():
    views = {}
    for figure, (product, columns, meta) in _PANEL_VIEWS.items():
        for panel, p in zip("abcd", _POWERS):
            views[figure + panel] = (
                {key: (product, p, name) for key, name in columns.items()},
                {key: (product, p, name) for key, name in meta.items()},
                {"p_in": p},
            )
    for figure, (product, grid, label, column, meta) in _SWEEP_VIEWS.items():
        views[figure] = (
            {grid: (product, _POWERS[0], grid)}
            | {f"{label}_{p:g}": (product, p, column) for p in _POWERS},
            {f"{key}_{p:g}": (product, p, name) for p in _POWERS for key, name in meta.items()},
            {},
        )
    return views


class TestPresetViews:
    """Figures 4-9 carry the CLI products' numbers at the sweep powers, bit for bit."""

    CFG = _ALT_CFG
    VIEWS = _preset_views()

    @pytest.fixture(scope="class")
    def product_at(self):
        built = {}

        def build(product, p_in):
            if (product, p_in) not in built:
                src = SourceParams(p_in=p_in, gamma_max=self.CFG.source.gamma_max)
                built[product, p_in] = PRODUCT_BUILDERS[product](replace(self.CFG, source=src))
            return built[product, p_in]

        return build

    def test_every_preset_but_fig3_is_built_from_a_product(self):
        views = set(self.VIEWS) | {f"fig8{panel}" for panel in "abcd"}
        assert set(FIGURE_IDS) - views == {"fig3a", "fig3b"}

    @pytest.mark.parametrize("figure_id", list(_preset_views()))
    def test_preset_equals_its_products(self, figure_id, product_at):
        columns, meta, panel = self.VIEWS[figure_id]
        ds = run_figure(figure_id, self.CFG)
        assert list(ds.series) == list(columns)
        for key, (product, p_in, name) in columns.items():
            assert np.array_equal(ds.series[key], product_at(product, p_in).series[name]), key
        # the echo is that of the run configuration, not of the sweep source
        assert ds.metadata == base_metadata(self.CFG, **panel) | {
            key: product_at(product, p_in).metadata[name]
            for key, (product, p_in, name) in meta.items()
        }

    @pytest.mark.parametrize("panel, p_in", zip("abcd", _POWERS))
    def test_fig8_is_the_cavity_autocorr_over_its_zero_lag_value(self, panel, p_in, product_at):
        ds = run_figure(f"fig8{panel}", self.CFG)
        ac = product_at("autocorr", p_in)
        norm = ac.series["cavity_total"][0]
        assert norm > 0.0
        assert list(ds.series) == ["tau", "total", "classical", "quantum"]
        assert np.array_equal(ds.series["tau"], ac.series["tau"])
        for part in ("total", "classical", "quantum"):
            assert np.array_equal(ds.series[part], ac.series[f"cavity_{part}"] / norm), part
        assert ds.metadata == base_metadata(self.CFG, p_in=p_in, normalization=float(norm))

    @pytest.mark.parametrize("tau_grid", ["1:12:601", "2.5:12:601"])
    @pytest.mark.parametrize("panel, p_in", zip("abcd", _POWERS))
    def test_fig8_normalization_is_the_zero_lag_value_off_the_grid(self, tau_grid, panel, p_in):
        # the lag grid does not hold tau = 0: the first lag is no normalization
        cfg = parse_config(f"grid.tau = {tau_grid}")
        ds = run_figure(f"fig8{panel}", cfg)
        src = SourceParams(p_in=p_in, gamma_max=cfg.source.gamma_max)
        norm = ds.metadata["normalization"]
        assert norm == cavity_autocorr(cfg.fpi, src, 0.0).values[0]
        n = mean_photon_number(cfg.fpi, src)
        assert norm == pytest.approx(n * (n + 1), rel=1e-15, abs=0.0)
        ac = PRODUCT_BUILDERS["autocorr"](replace(cfg, source=src))
        assert np.array_equal(ds.series["total"], ac.series["cavity_total"] / norm)


class TestEnergySplit:
    def test_reference_fractions(self):
        cfg = RunConfig()
        for p, target in ((1.5, 0.48), (5.0, 0.70), (50.0, 0.95)):
            frac = energy_split_fraction(cfg.fpi, SourceParams(p_in=p))
            assert frac == pytest.approx(target, abs=0.02)

    @pytest.mark.parametrize("delta", ["0", "-3"])
    def test_split_is_nan_without_a_positive_detuning(self, delta):
        cfg = parse_config(f"fpi.delta = {delta}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(energy_split_fraction(cfg.fpi, SourceParams(p_in=1.5)))
            assert np.isnan(sweep_product(cfg).series["energy_split"]).all()

    def test_narrow_line_quadrature_failure_raises(self):
        # the true fraction is 0.9999658 (30-digit mpmath); quad returns 2.1e-5
        src = SourceParams(p_in=1.5, gamma_max=1e-4)
        with pytest.raises(ConvergenceError) as info:
            energy_split_fraction(RunConfig().fpi, src)
        assert info.value.error_bound > 0.0


class TestWriters:
    def test_csv_json_numeric_identity(self, tmp_path):
        cfg = parse_config("grid.omega = -10:15:101")
        ds = run_figure("fig5a", cfg)
        omega = ds.series["omega"]
        gaps = FigureDataset(
            ds.figure_id, {**ds.series, "gaps": np.where(omega > 0.0, np.nan, omega)}, ds.metadata
        )
        csv_path = write_dataset(gaps, tmp_path, "csv")
        json_path = write_dataset(gaps, tmp_path, "json")
        _, header, rows = _read_csv(csv_path)
        payload = json.loads(json_path.read_text(), parse_constant=_reject_constant)
        assert "nan" in csv_path.read_text()
        for j, name in enumerate(header):
            column = [None if np.isnan(x) else x for x in rows[:, j].tolist()]
            assert column == payload["series"][name]
        assert payload["series"]["gaps"].count(None) == np.count_nonzero(omega > 0.0)

    @pytest.mark.filterwarnings("ignore::fpinoise.errors.EstimatorVarianceWarning")
    @pytest.mark.parametrize("delta", ["5", "0"])
    def test_every_product_writes_strict_json(self, tmp_path, delta):
        # at delta = 0 the sweep's energy split is undefined (NaN)
        cfg_file = tmp_path / "small.cfg"
        cfg_file.write_text(
            f"fpi.delta = {delta}\ngrid.omega = -10:15:41\ngrid.tau = 0:12:41\n"
            "sim.n_steps = 16384\nsim.n_realizations = 2\nsim.burn_in = 1024\n"
        )
        out = tmp_path / "out"
        for product in PRODUCTS:
            argv = [product, "--config", str(cfg_file), "--out", str(out), "--format", "json"]
            assert main(argv) == 0
        paths = sorted(out.glob("*.json"))
        names = {path.stem for path in paths}
        assert names == set(PRODUCTS)
        for path in paths:
            json.loads(path.read_text(), parse_constant=_reject_constant)
        split = json.loads((out / "sweep.json").read_text())["series"]["energy_split"]
        assert (None in split) == (delta == "0")

    def test_unknown_format_raises_before_making_the_directory(self, tmp_path):
        # "xml" wrote JSON into coeffs.xml
        ds = PRODUCT_BUILDERS["coeffs"](RunConfig())
        with pytest.raises(ParameterError, match="unknown output format 'xml'"):
            write_dataset(ds, tmp_path / "o", "xml")
        assert not (tmp_path / "o").exists()

    def test_format_names_are_the_writer_table_keys(self):
        with pytest.raises(ConfigError, match=f"use one of {', '.join(WRITERS)}$"):
            parse_config("format = xml")
        assert [parse_config(f"format = {name}").format for name in WRITERS] == list(WRITERS)
        (sub,) = [a for a in _build_parser()._actions if a.dest == "command"]
        for command in sub.choices.values():
            (fmt,) = [a for a in command._actions if a.dest == "format"]
            assert list(fmt.choices) == list(WRITERS)

    @pytest.mark.filterwarnings("ignore::fpinoise.errors.EstimatorVarianceWarning")
    @pytest.mark.parametrize("fmt", list(WRITERS))
    def test_each_command_writes_one_file_named_after_its_dataset(self, tmp_path, capsys, fmt):
        cfg_file = tmp_path / "small.cfg"
        cfg_file.write_text(
            "grid.omega = -10:15:41\ngrid.tau = 0:12:41\n"
            "sim.n_steps = 16384\nsim.n_realizations = 2\nsim.burn_in = 1024\n"
        )
        for name, argv in [*((p, [p]) for p in PRODUCTS), ("fig5a", ["figure", "fig5a"])]:
            out = tmp_path / name
            assert main([*argv, "--config", str(cfg_file), "--out", str(out), "--format", fmt]) == 0
            assert [path.name for path in out.iterdir()] == [f"{name}.{fmt}"]
            assert capsys.readouterr().out == f"{out / name}.{fmt}\n"

    def test_metadata_echo_complete(self, tmp_path):
        cfg = parse_config("source.p_in = 50")
        ds = run_figure("fig5b", cfg)
        path = write_dataset(ds, tmp_path, "csv")
        metadata, _, _ = _read_csv(path)
        for key in (
            "fpi.kappa1",
            "fpi.kappa2",
            "fpi.kappa0",
            "fpi.delta",
            "source.p_in",
            "source.gamma_max",
            "sim.seed",
            "grid.omega",
            "kappa_l_rad_per_s",
        ):
            assert key in metadata

    def test_nine_significant_digits(self):
        from fpinoise.output import format_float

        assert format_float(1 / 3) == "3.33333333e-01"
        assert format_float(123456789.0) == "1.23456789e+08"

    def test_csv_rows_equal_per_cell_formatting(self):
        from fpinoise.output import FigureDataset, dataset_to_csv, format_float

        edge = np.array(
            [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
             np.finfo(float).max, 0.1 + 0.2, -1.0 / 3.0]
        )
        edge_ds = FigureDataset("edge", {"x": edge, "y": edge[::-1]})
        full_ds = run_figure("fig4a", RunConfig())
        assert len(full_ds.series["omega"]) == 2001
        for ds in (edge_ds, full_ds):
            names = list(ds.series)
            cells = np.column_stack([ds.series[name] for name in names])
            rows = [",".join(format_float(x) for x in row) for row in cells]
            text = dataset_to_csv(ds)
            assert text.endswith("\n".join([",".join(names), *rows]) + "\n")


class TestCliMain:
    def test_coeffs_roundtrip(self, tmp_path):
        out = tmp_path / "run"
        code = main(["coeffs", "--out", str(out)])
        assert code == 0
        metadata, header, rows = _read_csv(out / "coeffs.csv")
        cfg = RunConfig()
        assert header[0] == "gamma_l"
        assert rows[0][0] == pytest.approx(source_linewidth(cfg.source), rel=1e-8)

    def test_reruns_are_bit_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["figure", "fig3a", "--out", str(out_a)]) == 0
        assert main(["figure", "fig3a", "--out", str(out_b)]) == 0
        assert (out_a / "fig3a.csv").read_bytes() == (out_b / "fig3a.csv").read_bytes()

    def test_config_file_and_grid_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("source.p_in = 5\nformat = json\n")
        out = tmp_path / "out"
        code = main(
            ["spectra", "--config", str(cfg_file), "--out", str(out), "--grid-points", "101"]
        )
        assert code == 0
        payload = json.loads((out / "spectra.json").read_text())
        assert len(payload["series"]["omega"]) == 101
        assert payload["metadata"]["source.p_in"] == "5.00000000e+00"

    def test_bad_config_exits_2(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("fpi.kappa1 = -2\n")
        assert main(["coeffs", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        # a byte that is not UTF-8 is a configuration error, not a traceback
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_bytes(b"fpi.delta = 2\n\xff\n")
        assert main(["coeffs", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "byte 14 is not UTF-8" in err

    def test_config_with_a_byte_order_mark_runs(self, tmp_path):
        cfg_file = tmp_path / "bom.cfg"
        cfg_file.write_bytes(b"\xef\xbb\xbfsource.p_in = 5\n")
        assert main(["coeffs", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
        metadata, _, _ = _read_csv(tmp_path / "coeffs.csv")
        assert metadata["source.p_in"] == "5.00000000e+00"

    def test_empty_out_dir_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("empty.cfg").write_text("out_dir =\n")
        for argv in (["--config", "empty.cfg"], ["--out", ""]):
            assert main(["coeffs", *argv]) == 2
            assert capsys.readouterr().err.startswith("configuration error: out_dir: ")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["empty.cfg"]

    def test_grid_points_keeps_the_configured_bounds(self, tmp_path):
        cfg_file = tmp_path / "grid.cfg"
        cfg_file.write_text("grid.omega = -10:15.0000001:2001\n")
        out = tmp_path / "out"
        argv = ["coeffs", "--config", str(cfg_file), "--out", str(out), "--grid-points", "101"]
        assert main(argv) == 0
        metadata, _, _ = _read_csv(out / "coeffs.csv")
        assert GridSpec.parse(metadata["grid.omega"]) == GridSpec(-10.0, 15.0000001, 101)

    def test_config_setting_only_gamma_max_runs(self, tmp_path):
        cfg_file = tmp_path / "line.cfg"
        cfg_file.write_text("source.gamma_max = 2\n")
        assert main(["coeffs", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
        metadata, _, _ = _read_csv(tmp_path / "coeffs.csv")
        assert metadata["source.p_in"] == "1.50000000e+00"

    def test_non_finite_grid_exits_2_and_writes_nothing(self, tmp_path, capsys):
        cfg_file = tmp_path / "grid.cfg"
        cfg_file.write_text("grid.omega = -10:inf:5\n")
        out = tmp_path / "out"
        assert main(["spectra", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert "grid.omega" in capsys.readouterr().err
        assert not out.exists()

    def test_subcommands_are_the_products_plus_figure(self):
        assert PRODUCTS == tuple(PRODUCT_BUILDERS)
        (sub,) = [a for a in _build_parser()._actions if a.dest == "command"]
        assert list(sub.choices) == [*PRODUCTS, "figure"]

    def test_help_builds_without_docstrings(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        run = subprocess.run(
            [sys.executable, "-OO", "-m", "fpinoise", "--help"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert run.returncode == 0, run.stderr
        assert "sweep" in run.stdout

    def test_unreadable_config_exits_2_or_4(self, tmp_path):
        code = main(["coeffs", "--config", str(tmp_path / "missing.cfg")])
        assert code == 4

    def test_unknown_figure_id_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["figure", "fig99", "--out", str(tmp_path)])
        assert info.value.code == 2

    def test_oracle_subcommand(self, tmp_path):
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text(
            "sim.n_steps = 16384\nsim.n_realizations = 4\nsim.burn_in = 1024\n"
        )
        out = tmp_path / "out"
        code = main(
            ["oracle", "--config", str(cfg_file), "--out", str(out), "--seed", "7"]
        )
        assert code == 0
        metadata, header, rows = _read_csv(out / "oracle.csv")
        assert metadata["sim.seed"] == "7"
        assert {"omega", "estimated", "analytic_classical"} <= set(header)

    def test_fluct_at_near_coincident_poles_writes_the_true_k0(self, tmp_path):
        # delta = 0, gamma_l = kappa_t (1 + 1e-8): the residue sum of K0
        # cancels to 1.2e8 at w = 0; its bound sends every point to the
        # cluster sum, with no quadrature fallback
        cfg_file = tmp_path / "degenerate.cfg"
        cfg_file.write_text("fpi.delta = 0\nsource.gamma_max = 2.7500000275\ngrid.omega = -2:2:5\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegeneratePolesWarning)
            assert main(["fluct", "--config", str(cfg_file), "--out", str(out)]) == 0
        _, header, rows = _read_csv(out / "fluct.csv")
        (at_zero,) = rows[rows[:, header.index("omega")] == 0.0]
        assert at_zero[header.index("d2n_classical")] == pytest.approx(0.8731705975, rel=1e-9)

    def test_fluct_of_a_narrow_line_near_zero_writes_the_exact_k0(self, tmp_path):
        # adaptive quadrature of K0 gives 1.2e-5 at w = +-5e-12 here, next to 5.1e6 at w = 0
        cfg_file = tmp_path / "narrow.cfg"
        cfg_file.write_text("fpi.delta = 5e-7\nsource.gamma_max = 7.5e-7\ngrid.omega = -1e-11:1e-11:5\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegeneratePolesWarning)
            assert main(["fluct", "--config", str(cfg_file), "--out", str(out)]) == 0
        _, header, rows = _read_csv(out / "fluct.csv")
        cfg = parse_config(cfg_file.read_text())
        fpi, g = cfg.fpi, source_linewidth(cfg.source)
        a = cfg.source.p_in * fpi.coupling
        for w in (-5e-12, 5e-12):
            (row,) = rows[rows[:, header.index("omega")] == w]
            lines = [(w, g), (w + fpi.delta, fpi.kappa_t), (0.0, g), (fpi.delta, fpi.kappa_t)]
            # the file carries 9 digits: it holds the exact value, rounded
            exact = a * a * float(exact_lorentz_integral(lines)[0])
            assert row[header.index("d2n_classical")] == float(format_float(exact))

    def test_fluct_of_a_narrow_line_on_a_fine_grid_exits_0(self, tmp_path, capsys):
        # adaptive quadrature of K0 raises ConvergenceError at w = 5.3e-11 here
        cfg_file = tmp_path / "narrow.cfg"
        cfg_file.write_text(
            "fpi.delta = 0\nsource.p_in = 1\nsource.gamma_max = 2e-5\ngrid.omega = -1e-6:1e-6:2000\n"
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegeneratePolesWarning)
            assert main(["fluct", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_sweep_subcommand_emits_split(self, tmp_path):
        # the split is a column of sweep.csv; no energy_split.csv repeats it
        out = tmp_path / "out"
        code = main(["sweep", "--out", str(out)])
        assert code == 0
        assert [path.name for path in out.iterdir()] == ["sweep.csv"]
        _, header, rows = _read_csv(out / "sweep.csv")
        fpi = RunConfig().fpi
        written = [format_float(x) for x in rows[:, header.index("energy_split")]]
        assert written == [
            format_float(energy_split_fraction(fpi, SourceParams(p_in=p))) for p in SWEEP_POWERS
        ]

    def test_sweep_with_a_narrow_line_exits_3_and_writes_nothing(self, tmp_path, capsys):
        cfg_file = tmp_path / "narrow.cfg"
        cfg_file.write_text("source.gamma_max = 1e-4\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 3
        assert "energy split" in capsys.readouterr().err
        assert not out.exists()
