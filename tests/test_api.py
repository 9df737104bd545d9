"""The public API: every name in ``linesys.__all__`` is exported once and
resolves on the package, so a deleted name cannot linger as a stale
export."""

import linesys


def test_every_exported_name_resolves():
    missing = [name for name in linesys.__all__ if not hasattr(linesys, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(linesys.__all__) == len(set(linesys.__all__))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from linesys import *", namespace)
    assert set(linesys.__all__) <= namespace.keys()
