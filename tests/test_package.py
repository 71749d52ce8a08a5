"""Checks on the package surface itself."""

import importlib
import pkgutil

import pytest

import roylab

MODULES = sorted(info.name for info in pkgutil.iter_modules(roylab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # bench/layertrace.py looks up every __all__ name to wrap it
    module = importlib.import_module(f"roylab.{name}")
    for entry in getattr(module, "__all__", ()):
        assert hasattr(module, entry), f"roylab.{name}.__all__ names missing {entry!r}"
