"""The package namespace: `import formatio` loads no module, and each public
name resolves, on first use, to the object of the library module that
defines it."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import formatio

LIBRARY = ("groups", "constructions", "structure", "classes", "subnormality",
           "regularity", "supernatural")
ROOT = Path(__file__).resolve().parents[1]


def _loaded_after(statement: str) -> list[str]:
    """The formatio modules a fresh interpreter holds after `statement`."""
    code = f"import sys\n{statement}\nprint(sorted(m for m in sys.modules if 'formatio' in m))"
    env = dict(os.environ, PYTHONPATH=str(Path(formatio.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_import_formatio_loads_no_module():
    assert _loaded_after("import formatio") == ["formatio"]


def test_a_submodule_by_name_loads_only_what_it_imports():
    assert _loaded_after("from formatio import supernatural") == [
        "formatio", "formatio.arith", "formatio.errors", "formatio.records",
        "formatio.supernatural"]


def _defined(module: types.ModuleType) -> list[str]:
    return [name for name, value in vars(module).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
            and getattr(value, "__module__", module.__name__) == module.__name__]


@pytest.mark.parametrize("module_name", LIBRARY)
def test_each_public_name_resolves_to_its_defining_module(module_name):
    module = importlib.import_module(f"formatio.{module_name}")
    names = _defined(module)
    assert names
    for name in names:
        assert getattr(formatio, name) is getattr(module, name), name


def test_gcd_is_the_supernatural_one():
    from formatio import gcd

    assert gcd is formatio.gcd is formatio.supernatural.gcd


@pytest.mark.parametrize("name", ["no_such_name", "_lattice", "math", "is_prime", "a.b"])
def test_unknown_name_raises_attribute_error(name):
    # structure defines _lattice, which is private; math and is_prime are
    # imported by library modules, not defined there
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(formatio, name)


def test_perfbench_imports_resolve():
    names = [alias.name for path in sorted((ROOT / "perfbench").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.module == "formatio"
             for alias in node.names]
    assert len(names) > 30
    assert [name for name in names if not hasattr(formatio, name)] == []
