import importlib
import pkgutil

import pytest

import multinoise

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(multinoise.__path__)
)


def test_package_all_resolves():
    missing = [n for n in multinoise.__all__ if not hasattr(multinoise, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"multinoise.{name}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert missing == []
