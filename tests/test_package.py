"""The package's public surface: ``__all__`` and the star import."""

import fpinoise
import fpinoise.autocorr
import fpinoise.lorentz
import fpinoise.oracle


def test_all_names_resolve_once():
    assert len(set(fpinoise.__all__)) == len(fpinoise.__all__)
    missing = [name for name in fpinoise.__all__ if not hasattr(fpinoise, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from fpinoise import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fpinoise.__all__)


def test_test_routes_are_not_in_the_package():
    # these helpers live in tests/routes.py; no production path calls them
    moved = ("dominant_oscillation_frequency", "stationary_input_power",
             "stationary_photon_number", "product")
    modules = (fpinoise, fpinoise.autocorr, fpinoise.oracle, fpinoise.lorentz)
    assert [(m.__name__, n) for m in modules for n in moved if hasattr(m, n)] == []
