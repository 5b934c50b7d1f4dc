"""No module of the package reaches into another module's private names.

A name with a leading underscore belongs to its module; a sibling that
needs it is asking for a public name.  Attribute reads on values, such as
a weight's ``_terms``, are not module names and are not checked here.
"""

import ast
from pathlib import Path

import pytest

import spinpaths

PACKAGE = Path(spinpaths.__file__).parent
SIBLINGS = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _sibling(node: ast.ImportFrom) -> str | None:
    """The sibling module a `from ... import` reads from, if any."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("spinpaths."):
        return node.module.split(".", 1)[1]
    return None


def private_uses(source: str) -> list[str]:
    """Each `from .mod import _name` and each `mod._name`, with mod a sibling
    module bound by an import, as 'mod._name'."""
    tree = ast.parse(source)
    modules = {}   # local name -> sibling module
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        mod = _sibling(node)
        for alias in node.names:
            if mod is None and node.level == 1 and alias.name in SIBLINGS:
                modules[alias.asname or alias.name] = alias.name
            elif mod in SIBLINGS and _private(alias.name):
                found.append(f"{mod}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and _private(node.attr):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_a_siblings_private_name(path):
    assert private_uses(path.read_text()) == []


def test_the_check_sees_both_forms():
    source = ("from . import partition, spin as s\n"
              "from .qpoly import _coerce, pack\n"
              "from spinpaths.lattice import _step\n"
              "partition._sweep(s._positions, s.norm_squared, value._terms, __name__)\n")
    assert sorted(private_uses(source)) == ["lattice._step", "partition._sweep",
                                            "qpoly._coerce", "spin._positions"]
