"""The export surface: every name a module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import zonofit

MODULES = ["zonofit"] + [f"zonofit.{m.name}" for m in pkgutil.iter_modules(zonofit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []

