"""Command line and dataset emission: figures, formats, reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fpinoise import (
    ConvergenceError,
    DegeneratePolesWarning,
    SourceParams,
    mean_photon_number,
    source_linewidth,
)
from fpinoise.cli import _build_parser, main
from fpinoise.config import PRODUCTS, RunConfig, parse_config
from fpinoise.figures import (
    FIGURE_IDS,
    PRODUCT_BUILDERS,
    energy_split_fraction,
    energy_split_report,
    run_figure,
    sweep_product,
)
from fpinoise.output import FigureDataset, write_dataset


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


class TestEnergySplit:
    def test_reference_fractions(self):
        cfg = RunConfig()
        for p, target in ((1.5, 0.48), (5.0, 0.70), (50.0, 0.95)):
            frac = energy_split_fraction(cfg.fpi, SourceParams(p_in=p))
            assert frac == pytest.approx(target, abs=0.02)

    def test_report_dataset(self):
        ds = energy_split_report(sweep_product(RunConfig()))
        assert list(ds.series["p_in"]) == [1.5, 5.0, 50.0]

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
        assert names == set(PRODUCTS) | ({"energy_split"} if delta == "5" else set())
        for path in paths:
            json.loads(path.read_text(), parse_constant=_reject_constant)
        split = json.loads((out / "sweep.json").read_text())["series"]["energy_split"]
        assert (None in split) == (delta == "0")

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
        # cancels to 1.2e8 at w = 0; its bound sends every point to quadrature
        cfg_file = tmp_path / "degenerate.cfg"
        cfg_file.write_text("fpi.delta = 0\nsource.gamma_max = 2.7500000275\ngrid.omega = -2:2:5\n")
        out = tmp_path / "out"
        with pytest.warns(DegeneratePolesWarning):
            assert main(["fluct", "--config", str(cfg_file), "--out", str(out)]) == 0
        _, header, rows = _read_csv(out / "fluct.csv")
        (at_zero,) = rows[rows[:, header.index("omega")] == 0.0]
        assert at_zero[header.index("d2n_classical")] == pytest.approx(0.8731705975, rel=1e-9)

    def test_sweep_subcommand_emits_split(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", "--out", str(out)])
        assert code == 0
        assert (out / "sweep.csv").exists()
        assert (out / "energy_split.csv").exists()

    def test_sweep_with_a_narrow_line_exits_3_and_writes_nothing(self, tmp_path, capsys):
        cfg_file = tmp_path / "narrow.cfg"
        cfg_file.write_text("source.gamma_max = 1e-4\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 3
        assert "energy split" in capsys.readouterr().err
        assert not out.exists()
