"""The package's public surface: ``__all__`` and the star import."""

import fpinoise


def test_all_names_resolve_once():
    assert len(set(fpinoise.__all__)) == len(fpinoise.__all__)
    missing = [name for name in fpinoise.__all__ if not hasattr(fpinoise, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from fpinoise import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fpinoise.__all__)
