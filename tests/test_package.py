"""The package namespace: every export loads from its home module on first use."""

import importlib

import coilbounds
import pytest

HOMES = {
    name: importlib.import_module(f"coilbounds.{module}")
    for module, names in coilbounds._EXPORTS.items()
    for name in names
}


@pytest.mark.parametrize("name", coilbounds.__all__)
def test_export_is_home_object(name):
    assert getattr(coilbounds, name) is getattr(HOMES[name], name)


@pytest.mark.parametrize("module", coilbounds._EXPORTS)
def test_exports_are_in_their_modules_all(module):
    home = importlib.import_module(f"coilbounds.{module}")
    if hasattr(home, "__all__"):
        assert set(coilbounds._EXPORTS[module]) <= set(home.__all__)


def test_dir_lists_every_export():
    listed = dir(coilbounds)
    assert set(coilbounds.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        coilbounds.no_such_name
    assert not hasattr(coilbounds, "no_such_name")


def test_star_import_binds_every_export():
    ns = {}
    exec("from coilbounds import *", ns)
    assert all(ns[name] is getattr(HOMES[name], name) for name in coilbounds.__all__)


def test_coilspec_has_one_home():
    from coilbounds import generators, slopes

    assert coilbounds.CoilSpec is slopes.CoilSpec is generators.CoilSpec
