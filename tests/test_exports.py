"""Every name a module exports resolves, so removing a public name cannot leave a stale export."""

import importlib

import pytest

MODULES = ["pointscatter"] + [
    f"pointscatter.{name}" for name in ("analysis", "cli", "connection", "dirac", "schrodinger")
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    namespace = importlib.import_module(module)
    assert [name for name in namespace.__all__ if not hasattr(namespace, name)] == []
