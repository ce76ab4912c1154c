"""Module layering: each nama module uses only the public names of the
others, so the power diagram's integer format stays inside `polyhedra`,
the solver's state inside `solver` and the file format inside
`instance_io`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nama"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))

# module file -> the private names of other nama modules it may use.
# `toric` lifts its potentials' points onto the integer core that
# `polyhedra` shares with it: a 1-D point as its 2-D embedding
# (`_planar`) and the lower hull of integer lifted points (`_lower_hull`).
ALLOWED = {
    "toric.py": ["polyhedra._lower_hull", "polyhedra._planar"],
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


@pytest.mark.parametrize("name", [f"{m}.py" for m in MODULES])
def test_no_private_names_across_modules(name):
    used = private_uses((SRC / name).read_text(encoding="utf-8"), MODULES)
    assert used == ALLOWED.get(name, [])


def test_the_check_sees_aliases_and_imports():
    source = "from . import polyhedra as pg\nfrom .solver import _state, solve\nx = pg._cut, pg.clip\n"
    assert private_uses(source, ("polyhedra", "solver")) == ["polyhedra._cut", "solver._state"]
