import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_quick_start_runs():
    # the python blocks run in order in one namespace, as a reader would
    # paste them, so a signature change cannot leave them stale
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```",
                        readme.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
