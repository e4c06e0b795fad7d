"""What ``bench/work.py`` reads from the library still resolves.

The benchmark's child imports names from ``fishburn`` and its modules; one
that is gone makes every workload fail.  This reads those names from the
file's syntax tree, without running it.
"""

import ast
import importlib
import importlib.util
import pathlib
import types

import pytest

WORK = pathlib.Path(__file__).resolve().parent.parent / "bench" / "work.py"


def _library_imports(tree):
    """(module, name) for each ``from fishburn... import name``, and the
    local names bound to library modules."""
    pairs, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fishburn":
            pairs += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name.split(".")[0] == "fishburn"}
    return pairs, modules


def _resolve(module, name):
    """The value ``from module import name`` binds, or None."""
    value = getattr(importlib.import_module(module), name, None)
    if value is None and importlib.util.find_spec(f"{module}.{name}"):
        value = importlib.import_module(f"{module}.{name}")
    return value


TREE = ast.parse(WORK.read_text(), str(WORK))
IMPORTS, MODULE_NAMES = _library_imports(TREE)


def test_work_imports_from_the_library():
    # an empty parse would leave the tests below with nothing to check
    assert {module for module, _ in IMPORTS} >= {"fishburn", "fishburn.objects"}
    assert "fishburn" in MODULE_NAMES


@pytest.mark.parametrize("module, name", IMPORTS, ids=lambda x: x)
def test_imported_name_resolves(module, name):
    assert _resolve(module, name) is not None, f"from {module} import {name}"


def test_module_attributes_resolve():
    # fishburn.run_check, jsonio.encode and the like
    bound = {name: importlib.import_module(name) for name in MODULE_NAMES}
    for module, name in IMPORTS:
        value = _resolve(module, name)
        if isinstance(value, types.ModuleType):
            bound[name] = value
    missing = [f"{node.value.id}.{node.attr}" for node in ast.walk(TREE)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in bound and not hasattr(bound[node.value.id], node.attr)]
    assert not missing
