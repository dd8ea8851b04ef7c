"""Configuration parsing, validation and the command-line shorthands."""

import re
from pathlib import Path

import numpy as np
import pytest

from fpinoise import ConfigError, FpiParams, ParameterError, SourceParams, parse_config
from fpinoise.cli import main
from fpinoise.config import _KEYS, GridSpec, RunConfig, config_echo, load_config, set_key
from fpinoise.oracle import SimConfig

KNOWN_KEYS = [
    "format", "fpi.delta", "fpi.kappa0", "fpi.kappa1", "fpi.kappa2", "grid.omega",
    "grid.tau", "out_dir", "seed", "sim.burn_in", "sim.dt",
    "sim.n_realizations", "sim.n_steps", "source.gamma_max", "source.p_in",
]


def _assert_exits_2_naming_first_key(tmp_path, capsys, command, text):
    """``command`` with the config ``text`` exits 2, and both errors start with its first key."""
    key = text.partition(" = ")[0]
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
        parse_config(text)
    cfg_file = tmp_path / "value.cfg"
    cfg_file.write_text(f"{text}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {key}: ")
    assert not out.exists()


class TestParse:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.fpi.kappa1 == 0.5
        assert cfg.fpi.kappa2 == 0.5
        assert cfg.fpi.kappa0 == 0.1
        assert cfg.fpi.delta == 5.0
        assert cfg.source.gamma_max == 3.0
        assert cfg.source.p_in == 1.5
        assert cfg.omega_grid == GridSpec(-10.0, 15.0, 2001)
        assert cfg.tau_grid == GridSpec(0.0, 12.0, 601)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nfpi.delta = 3.0  # trailing\n")
        assert cfg.fpi.delta == 3.0

    def test_nested_keys(self):
        text = """
        fpi.kappa1 = 0.4
        fpi.kappa2 = 0.3
        source.p_in = 50
        sim.n_steps = 4096
        seed = 99
        grid.omega = -20:20:401
        format = json
        out_dir = /tmp/somewhere
        """
        cfg = parse_config(text)
        assert cfg.fpi.kappa1 == 0.4
        assert cfg.source.p_in == 50.0
        assert cfg.sim.n_steps == 4096
        assert cfg.sim.seed == 99
        assert cfg.omega_grid == GridSpec(-20.0, 20.0, 401)
        assert cfg.format == "json"
        assert cfg.out_dir == "/tmp/somewhere"

    def test_unknown_key_lists_known_ones(self):
        with pytest.raises(ConfigError, match="unknown key 'fpi.kappa9'"):
            parse_config("fpi.kappa9 = 1.0")

    def test_invariant_violation_names_key_group(self):
        with pytest.raises(ConfigError, match="kappa1 must be positive"):
            parse_config("fpi.kappa1 = -1")

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="fpi.delta"):
            parse_config("fpi.delta = not-a-number")

    def test_bad_grid_spec_names_remedy(self):
        with pytest.raises(ConfigError, match="start:stop:count"):
            parse_config("grid.omega = 1:2")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("fpi.kappa1 0.5")

    def test_unknown_product_rejected(self):
        with pytest.raises(ConfigError, match="unknown product"):
            RunConfig(outputs=("spectra", "nonsense"))

    def test_outputs_is_not_a_config_key(self):
        # each command writes its own product; no command reads a product list
        with pytest.raises(ConfigError, match="unknown key 'outputs'"):
            parse_config("outputs = spectra")

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError, match="not supported"):
            parse_config("format = xml")

    def test_partial_record_keeps_its_other_defaults(self):
        cfg = parse_config("source.gamma_max = 2")
        assert cfg.source == SourceParams(p_in=1.5, gamma_max=2.0)

    @pytest.mark.parametrize(
        "text",
        [
            "fpi.delta = 3\nsim.n_realizations = 1",
            "source.p_in = 2\nsim.dt = -1",
        ],
    )
    def test_invariant_violation_names_the_failing_group(self, text):
        # the last line's key is the one that fails
        key = text.splitlines()[-1].partition(" = ")[0]
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            parse_config(text)

    @pytest.mark.parametrize(
        "key, spec",
        [
            ("grid.omega", "-10:inf:5"),
            ("grid.tau", "-inf:12:5"),
            # finite bounds whose span overflows: linspace built [nan, inf, inf, inf, 1e308]
            ("grid.omega", "-1e308:1e308:5"),
        ],
    )
    def test_non_finite_grid_bound_rejected(self, key, spec):
        with pytest.raises(ConfigError, match=rf"^{key}: .*finite"):
            parse_config(f"{key} = {spec}")

    @pytest.mark.parametrize(
        "command, text",
        [
            # spectra never reads the lag grid; autocorr named no key
            ("spectra", "grid.tau = -1:12:601"),
            # spectra wrote nan and inf rows; fluct named no key
            ("spectra", "grid.omega = -1e308:1e308:5"),
            ("fluct", "grid.omega = -1e308:1e308:5"),
        ],
    )
    def test_invalid_grid_exits_2_naming_its_key(self, tmp_path, capsys, command, text):
        _assert_exits_2_naming_first_key(tmp_path, capsys, command, text)

    @pytest.mark.parametrize(
        "command, text",
        [
            # coeffs wrote nan columns, sweep raised scipy's ValueError, fluct exited 3
            *[(c, "fpi.kappa1 = 1e308") for c in ("coeffs", "sweep", "fluct")],
            # spectra and fluct said "Lorentzian hwhm must be positive, got inf"
            *[(c, "fpi.kappa1 = 1e308\nfpi.kappa2 = 1e308") for c in ("coeffs", "sweep", "fluct")],
            # p_in**2 raised OverflowError
            ("fluct", "source.p_in = 1e160"),
            ("autocorr", "source.p_in = 1e160"),
        ],
    )
    def test_overflowing_value_exits_2_naming_its_key(self, tmp_path, capsys, command, text):
        _assert_exits_2_naming_first_key(tmp_path, capsys, command, text)

    def test_grid_count_must_be_an_integer(self):
        # 5.5 echoed as 0:1:5.5, which parse rejects, and build() raised TypeError
        with pytest.raises(ParameterError, match="^grid point count must be an integer"):
            GridSpec(0.0, 1.0, 5.5)
        assert GridSpec(0.0, 1.0, np.int64(5)).build().size == 5

    def test_known_keys(self):
        with pytest.raises(ConfigError) as info:
            parse_config("nonsense = 1")
        assert str(info.value).split("known keys: ")[1].split(", ") == KNOWN_KEYS

    def test_echo_parses_back_to_equal_records(self):
        cfg = RunConfig(
            fpi=FpiParams(kappa1=0.4, kappa2=0.3, kappa0=0.2, delta=-2.5),
            source=SourceParams(p_in=7.25, gamma_max=1.5),
            sim=SimConfig(dt=0.02, n_steps=4096, n_realizations=3, seed=2**64 - 1, burn_in=17),
            # bounds that 6 significant digits would round
            omega_grid=GridSpec(-10.0, 15.0000001, 2001),
            tau_grid=GridSpec(0.1234567891, 12.000000000000002, 601),
        )
        lines = []
        for key, value in config_echo(cfg).items():
            if key.startswith("grid."):
                lines.append(f"{key} = {value}")
            elif key.split(".")[0] in ("fpi", "source", "sim") and key != "source.gamma_l":
                lines.append(f"{'seed' if key == 'sim.seed' else key} = {value!r}")
        parsed = parse_config("\n".join(lines))
        assert (parsed.fpi, parsed.source, parsed.sim) == (cfg.fpi, cfg.source, cfg.sim)
        assert (parsed.omega_grid, parsed.tau_grid) == (cfg.omega_grid, cfg.tau_grid)

    def test_default_grid_echo_keeps_its_spelling(self):
        echo = config_echo(RunConfig())
        assert (echo["grid.omega"], echo["grid.tau"]) == ("-10:15:2001", "0:12:601")

    def test_strong_drive_linewidth_echo(self):
        cfg = parse_config("source.p_in = 50")
        echo = config_echo(cfg)
        assert echo["source.gamma_l"] == pytest.approx(0.058823529411764705, rel=1e-12)


class TestOverrides:
    def test_seed_and_grid_points(self, tmp_path):
        cfg = set_key(parse_config(""), "seed", "123")
        assert cfg.sim.seed == 123
        assert set_key(cfg, "grid.omega", "-10:15:501").omega_grid.count == 501
        argv = ["coeffs", "--out", str(tmp_path), "--seed", "123", "--grid-points", "501"]
        assert main(argv) == 0
        text = (tmp_path / "coeffs.csv").read_text()
        assert "# sim.seed: 123\n" in text and "# grid.omega: -10:15:501\n" in text

    def test_format_and_out(self, tmp_path):
        cfg = set_key(set_key(parse_config(""), "out_dir", "/tmp/x"), "format", "json")
        assert cfg.out_dir == "/tmp/x"
        assert cfg.format == "json"
        out = tmp_path / "x"
        assert main(["coeffs", "--out", str(out), "--format", "json"]) == 0
        assert [path.name for path in out.iterdir()] == ["coeffs.json"]

    def test_invalid_overrides(self, tmp_path, capsys):
        for key, text in (("format", "xml"), ("seed", "-1"), ("grid.omega", "-10:15:1")):
            with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
                set_key(parse_config(""), key, text)
        for flag, value, key in (("--seed", "-1", "seed"), ("--grid-points", "1", "grid.omega")):
            assert main(["coeffs", "--out", str(tmp_path), flag, value]) == 2
            assert capsys.readouterr().err.startswith(f"configuration error: {key}: ")
        assert not list(tmp_path.iterdir())


# one invalid value for every key
_INVALID = {
    "fpi.delta": "nan",
    "fpi.kappa0": "-1",
    "fpi.kappa1": "0",
    "fpi.kappa2": "-0.5",
    "source.p_in": "-1",
    "source.gamma_max": "0",
    "sim.dt": "0",
    "sim.n_steps": "1",
    "sim.n_realizations": "2.5",
    "seed": "-1",
    "sim.burn_in": "-1",
    "grid.omega": "1:2",
    "grid.tau": "0:1:1",
    "format": "xml",
    "out_dir": "",
}


class TestSetKey:
    @pytest.mark.parametrize("key", list(_KEYS))
    def test_every_key_names_itself(self, key):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            parse_config(f"fpi.delta = 3\n{key} = {_INVALID[key]}\nsource.p_in = 2")

    def test_seed_message_states_the_range(self):
        with pytest.raises(ConfigError, match=re.escape("seed: seed must be an integer in [0, 2**64)")):
            parse_config("seed = -1")

    def test_last_value_wins(self):
        cfg = parse_config("fpi.delta = 3\nseed = 7\nfpi.delta = -2")
        assert (cfg.fpi.delta, cfg.sim.seed) == (-2.0, 7)

    def test_each_line_is_checked_as_it_is_read(self):
        # a later line does not excuse an invalid earlier one
        with pytest.raises(ConfigError, match=r"^fpi\.kappa1: "):
            parse_config("fpi.kappa1 = -1\nfpi.kappa1 = 0.5")

    def test_only_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        text = b"source.p_in = 5\nfpi.delta = 2\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_config(str(marked)) == load_config(str(plain)) != RunConfig()
        marked.write_bytes(text + b"\xef\xbb\xbfseed = 5\n")
        with pytest.raises(ConfigError, match="unknown key '\ufeffseed'"):
            load_config(str(marked))
        # a bad byte is named by its offset in the file, the mark included
        marked.write_bytes(b"\xef\xbb\xbf" + text + b"\xff\n")
        with pytest.raises(ConfigError, match="byte 33 is not UTF-8"):
            load_config(str(marked))


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme.split("Configuration is a plain `key = value` file", 1)[1]
    block = after.split("```\n", 2)[1]
    lines = [line.split("#")[0] for line in block.splitlines()]
    keys = [line.split("=")[0].strip() for line in lines if line.strip()]
    assert keys and set(keys) <= set(_KEYS)
    parse_config(block)
