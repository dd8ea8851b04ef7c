"""Figure presets, parameter sweeps and the CLI product builders.

The ``fig*`` ids reproduce the bundled reference study: mirror rates
0.5/0.5, absorption 0.1, detuning 5 and the drive-power sweep
p_in/kappa_l in {0.1, 1.5, 5, 50}, everything in kappa_l units.  Each
builder returns a :class:`~fpinoise.output.FigureDataset` whose
metadata echoes the full configuration.

Figures 4-9 are views of the ``spectra``, ``fluct`` and ``autocorr``
products, which compute each quantity once: a view takes its product
at one sweep power (panels a-d) or at each of them, and renames or
selects the product's columns and metadata; fig8 also divides by the
cavity curve's zero-lag value n(n+1).  Only fig3a/b compute their own curves.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__
from .autocorr import cavity_autocorr, reflected_autocorr, transmitted_autocorr
from .cavity import (
    FpiParams,
    absorbed_fraction,
    absorbed_spectrum,
    cavity_field_spectrum,
    commutator_spectrum,
    mean_photon_number,
    reflected_spectrum,
    reflection_coefficient,
    reflection_coefficient_hwhm,
    transmission_coefficient,
    transmission_coefficient_hwhm,
    transmitted_spectrum,
)
from .config import SWEEP_POWERS, RunConfig, config_echo
from .errors import ConvergenceError, ParameterError
from .fluctuations import cavity_fluct_components, fluct_spectra
from .lorentz import KAPPA_L_RAD_PER_SEC, TWO_PI
from .oracle import streamed_estimate
from .output import FigureDataset
from .source import SourceParams, input_spectrum, source_linewidth, source_regime

_PANEL_POWER = dict(zip("abcd", SWEEP_POWERS))


def base_metadata(cfg: RunConfig, **extra) -> dict[str, object]:
    meta: dict[str, object] = {
        "generator": f"fpinoise {__version__}",
        "kappa_l_rad_per_s": f"{KAPPA_L_RAD_PER_SEC:.3e}",
        "units": "frequencies and rates in kappa_l, times in 1/kappa_l",
    }
    meta.update(config_echo(cfg))
    meta["source.regime"] = source_regime(cfg.source)
    meta.update(extra)
    return meta


def _sweep_source(cfg: RunConfig, p_in: float) -> SourceParams:
    return SourceParams(p_in=p_in, gamma_max=cfg.source.gamma_max)


def energy_split_fraction(fpi: FpiParams, src: SourceParams) -> float:
    """Fraction of the transmitted energy below the inter-peak point delta/2.

    Quadrature of the transmitted density over (-inf, delta/2] against
    the closed-form total; requires a positive detuning so the split
    point separates the drive-line and mode peaks.  Raises
    :class:`ConvergenceError` when either quadrature reports failure,
    as it does for drive lines much narrower than the cavity.
    """
    from scipy.integrate import quad

    if not fpi.delta > 0.0:
        raise ParameterError("energy split needs a positive detuning")
    total = mean_photon_number(fpi, src)
    if total == 0.0:
        return 0.0

    def density(w: float) -> float:
        return cavity_field_spectrum(w, fpi, src) / TWO_PI

    cut = -40.0 * (fpi.kappa_t + source_linewidth(src) + abs(fpi.delta))
    tail = quad(density, -np.inf, cut, full_output=True)
    body = quad(density, cut, 0.5 * fpi.delta, points=[0.0], limit=200, full_output=True)
    fraction = (tail[0] + body[0]) / total
    failures = [out[3].strip() for out in (tail, body) if len(out) > 3]
    if failures:
        raise ConvergenceError(
            f"energy split quadrature did not converge: {'; '.join(failures)}",
            estimate=fraction,
            error_bound=(tail[1] + body[1]) / total,
        )
    return fraction


def energy_split_report(sweep: FigureDataset) -> FigureDataset:
    """Energy split fractions of a ``sweep`` dataset above p_in 0.5 (NaN unless delta > 0)."""
    keep = sweep.series["p_in"] > 0.5  # 1.5, 5, 50
    fractions = sweep.series["energy_split"][keep]
    return FigureDataset(
        "energy_split",
        {"p_in": sweep.series["p_in"][keep], "fraction_below_half_detuning": fractions},
        sweep.metadata,
    )


def _fig3a(cfg: RunConfig) -> FigureDataset:
    powers = np.linspace(0.0, 50.0, 501)
    sources = [_sweep_source(cfg, p) for p in powers]
    photon = np.array([mean_photon_number(cfg.fpi, src) for src in sources])
    widths = np.array([source_linewidth(src) for src in sources])
    return FigureDataset(
        "fig3a",
        {"p_in": powers, "photon_number": photon, "gamma_l": widths},
        base_metadata(cfg),
    )


def _fig3b(cfg: RunConfig) -> FigureDataset:
    deltas = np.linspace(-15.0, 15.0, 601)
    g_finite = source_linewidth(_sweep_source(cfg, 1.0))
    fpis = [replace(cfg.fpi, delta=float(d)) for d in deltas]
    columns = {
        f"{name}_{line}": np.array([coefficient(fpi, g) for fpi in fpis])
        for line, g in (("finite", g_finite), ("mono", 0.0))
        for name, coefficient in (
            ("reflection", reflection_coefficient_hwhm),
            ("transmission", transmission_coefficient_hwhm),
        )
    }
    return FigureDataset(
        "fig3b", {"delta": deltas, **columns}, base_metadata(cfg, finite_line_hwhm=g_finite)
    )


def _product_at(cfg: RunConfig, product: str, p_in: float) -> FigureDataset:
    return PRODUCT_BUILDERS[product](replace(cfg, source=_sweep_source(cfg, p_in)))


def _panel(figure_id: str, product: str, columns: dict, meta: dict, cfg: RunConfig):
    """The product at the drive power of panel a-d, its columns renamed."""
    p_in = _PANEL_POWER[figure_id[-1]]
    ds = _product_at(cfg, product, p_in)
    return FigureDataset(
        figure_id,
        {key: ds.series[name] for key, name in columns.items()},
        base_metadata(cfg, p_in=p_in, **{k: ds.metadata[name] for k, name in meta.items()}),
    )


def _sweep(figure_id: str, product: str, columns: dict, meta: dict, cfg: RunConfig):
    """The product's grid, then its columns and metadata at each sweep power, tagged."""
    series: dict[str, np.ndarray] = {}
    extra: dict[str, object] = {}
    for p in SWEEP_POWERS:
        ds = _product_at(cfg, product, p)
        grid = next(iter(ds.series))
        series[grid] = ds.series[grid]
        tag = f"{p:g}"
        series.update({f"{key}_{tag}": ds.series[name] for key, name in columns.items()})
        extra.update({f"{key}_{tag}": ds.metadata[name] for key, name in meta.items()})
    return FigureDataset(figure_id, series, base_metadata(cfg, **extra))


def _fig8(figure_id: str, cfg: RunConfig) -> FigureDataset:
    p_in = _PANEL_POWER[figure_id[-1]]
    ds = _product_at(cfg, "autocorr", p_in)
    norm = cavity_autocorr(cfg.fpi, _sweep_source(cfg, p_in), 0.0).values[0]
    parts = {part: ds.series[f"cavity_{part}"] / norm for part in ("total", "classical", "quantum")}
    return FigureDataset(
        figure_id,
        {"tau": ds.series["tau"], **parts},
        base_metadata(cfg, p_in=p_in, normalization=float(norm)),
    )


def _panels(build, figure: str, *view) -> dict:
    return {figure + panel: partial(build, figure + panel, *view) for panel in _PANEL_POWER}


_FIG4 = {"omega": "omega", "reflected": "reflected", "transmitted": "transmitted", "input": "input"}
_FIG6 = {
    "omega": "omega", "total": "d2n_total", "classical": "d2n_classical", "quantum": "d2n_quantum"
}

# a view names its product, {column: product column} and {metadata key:
# product metadata key}
_FIGURES = {
    "fig3a": _fig3a,
    "fig3b": _fig3b,
    **_panels(_panel, "fig4", "spectra", _FIG4, {"gamma_l": "source.gamma_l"}),
    "fig5a": partial(_sweep, "fig5a", "spectra", {"n": "cavity"}, {}),
    "fig5b": partial(_sweep, "fig5b", "fluct", {"d2n": "d2n_total"}, {}),
    **_panels(_panel, "fig6", "fluct", _FIG6, {}),
    "fig7a": partial(
        _sweep, "fig7a", "fluct", {"d2pt": "d2pt_total"}, {"white_floor": "d2pt_white_floor"}
    ),
    "fig7b": partial(
        _sweep, "fig7b", "fluct", {"d2pr": "d2pr_total"}, {"white_floor": "d2pr_white_floor"}
    ),
    **_panels(_fig8, "fig8"),
    "fig9": partial(
        _sweep, "fig9", "autocorr", {"d2pt_norm": "transmitted_norm"},
        {"delta_weight": "transmitted_delta_weight"},
    ),
}
FIGURE_IDS = tuple(_FIGURES)


def run_figure(figure_id: str, cfg: RunConfig) -> FigureDataset:
    """Build the dataset behind one bundled figure preset."""
    if figure_id not in _FIGURES:
        raise ParameterError(
            f"unknown figure id '{figure_id}'; choose from {', '.join(FIGURE_IDS)}"
        )
    return _FIGURES[figure_id](cfg)


def spectra_product(cfg: RunConfig) -> FigureDataset:
    """Field spectra (input, in-cavity, commutator, three output ports)."""
    omegas = cfg.omega_grid.build()
    src = cfg.source
    return FigureDataset(
        "spectra",
        {
            "omega": omegas,
            "input": input_spectrum(omegas, src),
            "cavity": cavity_field_spectrum(omegas, cfg.fpi, src),
            "commutator": commutator_spectrum(omegas, cfg.fpi),
            "transmitted": transmitted_spectrum(omegas, cfg.fpi, src),
            "absorbed": absorbed_spectrum(omegas, cfg.fpi, src),
            "reflected": reflected_spectrum(omegas, cfg.fpi, src),
        },
        base_metadata(cfg),
    )


def fluct_product(cfg: RunConfig) -> FigureDataset:
    """Fluctuation spectra of photon number and of the two output powers."""
    omegas = cfg.omega_grid.build()
    cav, tr, rf = fluct_spectra(omegas, cfg.fpi, cfg.source)
    return FigureDataset(
        "fluct",
        {
            "omega": omegas,
            "d2n_total": cav.total,
            "d2n_classical": cav.classical,
            "d2n_quantum": cav.quantum,
            "d2pt_total": tr.total,
            "d2pt_colored": tr.colored,
            "d2pr_total": rf.total,
            "d2pr_colored": rf.colored,
        },
        base_metadata(
            cfg,
            d2pt_white_floor=tr.white_floor,
            d2pr_white_floor=rf.white_floor,
        ),
    )


def autocorr_product(cfg: RunConfig) -> FigureDataset:
    """Lag autocorrelations for the cavity and the two output powers."""
    taus = cfg.tau_grid.build()
    cav = cavity_autocorr(cfg.fpi, cfg.source, taus)
    tr = transmitted_autocorr(cfg.fpi, cfg.source, taus)
    variance = tr.delta_weight**2  # the zero-lag value p_t^2
    rf = reflected_autocorr(cfg.fpi, cfg.source, taus)
    # rms deviation of the curve over p_r^2 from the self-beat e^{-2 gamma_l tau}
    rate = 2.0 * source_linewidth(cfg.source)
    v0 = rf.delta_weight**2
    rms = float(np.sqrt(np.mean((rf.values / v0 - np.exp(-rate * taus)) ** 2))) if v0 > 0.0 else 0.0
    return FigureDataset(
        "autocorr",
        {
            "tau": taus,
            "cavity_total": cav.values,
            "cavity_classical": cav.classical,
            "cavity_quantum": cav.quantum,
            "transmitted": tr.values,
            "transmitted_norm": tr.values / variance if variance > 0.0 else tr.values,
            "reflected": rf.values,
        },
        base_metadata(
            cfg,
            transmitted_delta_weight=tr.delta_weight,
            reflected_delta_weight=rf.delta_weight,
            reflected_exp_rate=rate,
            reflected_exp_rms=rms,
        ),
    )


def _coefficient_row(fpi: FpiParams, src: SourceParams) -> dict[str, float]:
    """The scalar columns shared by the ``coeffs`` and ``sweep`` products."""
    return {
        "gamma_l": source_linewidth(src),
        "photon_number": mean_photon_number(fpi, src),
        "reflection": reflection_coefficient(fpi, src),
        "transmission": transmission_coefficient(fpi, src),
        "absorbed_fraction": absorbed_fraction(fpi, src),
    }


def coeffs_product(cfg: RunConfig) -> FigureDataset:
    """Scalar summary: linewidth, photon number and the energy fractions."""
    row = _coefficient_row(cfg.fpi, cfg.source)
    return FigureDataset(
        "coeffs",
        {name: np.array([value]) for name, value in row.items()},
        base_metadata(cfg),
    )


def oracle_product(cfg: RunConfig) -> FigureDataset:
    """Stochastic estimate of the classical noise next to the analytic curve."""
    spec, (power_mean, power_err), (photon_mean, photon_err) = streamed_estimate(
        cfg.fpi, cfg.source, cfg.sim
    )
    analytic = cavity_fluct_components(spec.omegas, cfg.fpi, cfg.source)[0]
    mask = np.abs(spec.omegas) <= 10.0
    scale = math.sqrt(float(np.mean(analytic[mask] ** 2)))
    rms = (
        math.sqrt(float(np.mean((spec.values[mask] - analytic[mask]) ** 2))) / scale
        if scale > 0.0
        else 0.0
    )
    return FigureDataset(
        "oracle",
        {
            "omega": spec.omegas,
            "estimated": spec.values,
            "analytic_classical": analytic,
        },
        base_metadata(
            cfg,
            rms_deviation_central=rms,
            input_power_mean=power_mean,
            input_power_stderr=power_err,
            photon_number_mean=photon_mean,
            photon_number_stderr=photon_err,
            photon_number_analytic=mean_photon_number(cfg.fpi, cfg.source),
        ),
    )


def sweep_product(cfg: RunConfig) -> FigureDataset:
    """Scalar summaries over the standard drive-power sweep."""
    rows = []
    for p in SWEEP_POWERS:
        src = _sweep_source(cfg, p)
        split = energy_split_fraction(cfg.fpi, src) if cfg.fpi.delta > 0 else math.nan
        rows.append({"p_in": p, **_coefficient_row(cfg.fpi, src), "energy_split": split})
    return FigureDataset(
        "sweep",
        {name: np.array([row[name] for row in rows]) for name in rows[0]},
        base_metadata(cfg),
    )


PRODUCT_BUILDERS = {
    "spectra": spectra_product,
    "fluct": fluct_product,
    "autocorr": autocorr_product,
    "coeffs": coeffs_product,
    "oracle": oracle_product,
    "sweep": sweep_product,
}
