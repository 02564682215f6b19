"""The package's lazy exports: `import stokesbc` loads names on first access."""

import sys

import pytest

import stokesbc


def test_every_export_is_its_home_submodules_object():
    assert stokesbc.solve_mode is stokesbc.halfspace.solve_mode
    strays = []
    for name in stokesbc.__all__:
        obj = getattr(stokesbc, name)
        home = sys.modules[obj.__module__]
        if not home.__name__.startswith("stokesbc.") or getattr(home, name) is not obj:
            strays.append(name)
    assert strays == []


def test_dir_lists_every_export():
    assert set(stokesbc.__all__) <= set(dir(stokesbc))
    assert "__version__" in dir(stokesbc)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stokesbc.no_such_name  # noqa: B018


def test_star_import_binds_every_export():
    namespace = {}
    exec("from stokesbc import *", namespace)
    assert set(stokesbc.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(stokesbc, name) for name in stokesbc.__all__)
