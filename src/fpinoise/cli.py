"""Command-line interface.

Subcommands::

    fpinoise spectra              field spectra on the frequency grid
    fpinoise fluct                fluctuation spectra with noise split
    fpinoise autocorr             lag autocorrelations
    fpinoise coeffs               reflection/transmission summary
    fpinoise figure <id>          one bundled figure preset (fig3a..fig9)
    fpinoise oracle               stochastic time-domain cross-check
    fpinoise sweep                drive-power sweep of scalar summaries

Shared flags: ``--config``, ``--out``, ``--format csv|json``, ``--seed``,
``--grid-points``.  ``--out``, ``--format`` and ``--seed`` are shorthands for
the keys ``out_dir``, ``format`` and ``seed``, and ``--grid-points N`` sets the
count of ``grid.omega``; they apply after the config file, through ``set_key``,
and every configuration error starts with its key.  Exit codes: 0 success,
2 configuration error, 3 convergence error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import FORMATS, load_config, set_key
from .errors import ConfigError, ConvergenceError, ParameterError
from .figures import FIGURE_IDS, PRODUCT_BUILDERS, energy_split_report, run_figure
from .output import write_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="key-value config file")
    shared.add_argument("--out", metavar="DIR", help="output directory (default: out)")
    shared.add_argument("--format", choices=FORMATS, help="output encoding")
    shared.add_argument("--seed", type=int, metavar="U64", help="simulation seed")
    shared.add_argument(
        "--grid-points", type=int, metavar="N", help="frequency grid point count"
    )

    parser = argparse.ArgumentParser(
        prog="fpinoise",
        description="Spectra and photon-noise calculator for a small two-mirror "
        "interferometer driven by finite-linewidth light.",
    )
    parser.add_argument("--version", action="version", version=f"fpinoise {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, build in PRODUCT_BUILDERS.items():
        # python -OO strips docstrings; the name then stands in as help
        sub.add_parser(name, parents=[shared], help=(build.__doc__ or name).splitlines()[0])
    fig = sub.add_parser(
        "figure", parents=[shared], help="emit one bundled figure preset"
    )
    fig.add_argument("figure_id", choices=FIGURE_IDS, metavar="ID")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        g, n = cfg.omega_grid, args.grid_points
        flags = (("out_dir", args.out), ("format", args.format), ("seed", args.seed),
                 ("grid.omega", None if n is None else f"{g.start!r}:{g.stop!r}:{n}"))
        for key, value in flags:
            if value is not None:
                cfg = set_key(cfg, key, str(value))
        if args.command == "figure":
            datasets = [run_figure(args.figure_id, cfg)]
        else:
            datasets = [PRODUCT_BUILDERS[args.command](cfg)]
            if args.command == "sweep" and cfg.fpi.delta > 0:
                datasets.append(energy_split_report(datasets[0]))
        for ds in datasets:
            path = write_dataset(ds, cfg.out_dir, cfg.format)
            print(path)
    except (ConfigError, ParameterError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
