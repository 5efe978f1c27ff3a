"""Each module's __all__ names only what it defines, so a star import of
it cannot raise AttributeError."""

import importlib

import pytest

MODULES = ("rng", "linalg", "symmetric", "estimators", "protocol", "experiments", "oracles")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"dqipe.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
