"""Module layering: the solver and the harness use only the public names of
the modules below them, so the power diagram's integer format stays inside
`polyhedra` and the solver's state inside `solver`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nama"

# module file -> the nama modules whose private names it may not use
RULES = {
    "solver.py": ("polyhedra",),
    "harness.py": ("polyhedra", "solver"),
}


def private_uses(source: str, modules) -> list:
    """Private names of `modules` that the source imports or reads as an
    attribute of a module alias (`from . import polyhedra as pg`)."""
    tree = ast.parse(source)
    aliases, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None and a.name in modules:
                    aliases[a.asname or a.name] = a.name
                elif node.module in modules and a.name.startswith("_"):
                    found.append(f"{node.module}.{a.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
        ):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return sorted(set(found))


@pytest.mark.parametrize("name", sorted(RULES))
def test_no_private_names_across_modules(name):
    assert private_uses((SRC / name).read_text(encoding="utf-8"), RULES[name]) == []


def test_the_check_sees_aliases_and_imports():
    source = "from . import polyhedra as pg\nfrom .solver import _state, solve\nx = pg._cut, pg.clip\n"
    assert private_uses(source, ("polyhedra", "solver")) == ["polyhedra._cut", "solver._state"]
