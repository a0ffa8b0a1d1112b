"""Every name a module exports through __all__ exists."""

import importlib

import pytest

MODULES = ["todalab"] + [
    f"todalab.{name}"
    for name in ("cartan", "cpoly", "solution", "residual", "asymptotics", "mass",
                 "identities", "suites", "cli")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_exist(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
