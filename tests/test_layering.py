"""Module layering: each nama module uses only the public names of the
others, so the power diagram's integer format stays inside `polyhedra`
(others hand it `IntegerSites`, made by its `integer_sites` or, from
literal integers, by the parser), the solver's state and its Newton step
inside `solver` and the file format inside `instance_io`; and nothing is
defined that only the tests use."""

import ast
from pathlib import Path

import pytest
from test_trace_layers import _layers

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


def unreferenced(sources: dict, traced: dict) -> list:
    """The top-level functions and classes of `sources` (module -> source)
    whose name no module but `__init__` reads, as a name or an attribute,
    and the methods, properties and class-level names (`values =
    cached_property(...)`) of those classes other than dunders that no
    module but `__init__` reads as an attribute (a local variable of the
    same name does not read them); a read inside a function of the same
    name, such as a wrapper calling its namesake in another module, does
    not count.  What `traced`
    (module -> names, as in the tracer's LAYERS, a method as
    "Class.method") lists, is left out."""
    defined, names, attributes = [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                members = [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
                members += [
                    t.id for item in node.body if isinstance(item, ast.Assign) for t in item.targets
                    if isinstance(t, ast.Name)
                ]
                defined += [(module, f"{node.name}.{name}", name) for name in members if not name.startswith("__")]
        stack = [(tree, ())] if module != "__init__" else []
        while stack:
            node, inside = stack.pop()
            if isinstance(node, ast.FunctionDef):
                inside += (node.name,)
            if isinstance(node, ast.Name) and node.id not in inside:
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr not in inside:
                attributes.add(node.attr)
            stack += [(child, inside) for child in ast.iter_child_nodes(node)]
    return [
        f"{m}.{qual}"
        for m, qual, name in defined
        if name not in attributes and (name != qual or name not in names) and qual not in traced.get(m, ())
    ]


def test_every_definition_is_read_in_the_package_or_traced():
    """A function, class, method or property that only the tests and
    `nama.__init__` name belongs in the tests; the benchmark's tracer may
    name kernels that nama itself does not call."""
    sources = {m: (SRC / f"{m}.py").read_text(encoding="utf-8") for m in MODULES}
    assert unreferenced(sources, _layers()) == []


def test_the_reference_check_skips_init_and_traced_names():
    sources = {
        "__init__": "from .toric import lonely\nlonely()\n",
        "toric": "def f(): pass\ndef g(): return f()\ndef lonely(): pass\ndef traced(): pass\n",
        "polyhedra": "class Cell:\n    pass\n",
        "solver": "x = pg.Cell\n",
    }
    assert unreferenced(sources, {"toric": ["traced"]}) == ["toric.g", "toric.lonely"]


def test_the_reference_check_skips_reads_in_a_namesake():
    """A wrapper that calls its namesake in another module, or a function
    that calls itself, keeps neither alive; a read elsewhere keeps both."""
    sources = {
        "toric": "def support_value(d, y):\n    return pg.support_value(d.body, y)\n",
        "polyhedra": "def support_value(p, y):\n    return support_value(p, y[1:]) if y else 0\n",
        "harness": "def gen(d):\n    return d\n",
        "solver": "x = gen(1)\n",
    }
    assert unreferenced(sources, {}) == ["toric.support_value", "polyhedra.support_value"]
    sources["harness"] = "def gen(d):\n    return tc.support_value(d, ())\n"
    assert unreferenced(sources, {}) == []


def test_the_reference_check_sees_methods_and_properties():
    sources = {
        "__init__": "from .toric import Psh\nPsh().unread()\n",
        "toric": (
            "class Psh:\n"
            "    def __init__(self): self.read()\n"
            "    def read(self): pass\n"
            "    @property\n"
            "    def view(self): pass\n"
            "    def unread(self): pass\n"
            "    def traced(self): pass\n"
        ),
        "solver": "x = Psh()\n",
    }
    assert unreferenced(sources, {"toric": ["Psh.traced"]}) == ["toric.Psh.view", "toric.Psh.unread"]
    sources["solver"] = "view = Psh()\nx = view\n"  # a variable named like the unread property
    assert unreferenced(sources, {"toric": ["Psh.traced"]}) == ["toric.Psh.view", "toric.Psh.unread"]


def test_the_reference_check_sees_class_level_views():
    """A view assigned in a class body (`values = cached_property(...)`)
    is a definition like a method: unread, it is reported; a dunder
    assignment is not."""
    sources = {
        "curves": (
            "class Fn:\n"
            "    __slots__ = ()\n"
            "    read = property(lambda self: 0)\n"
            "    unread = property(lambda self: 1)\n"
        ),
        "cli": "x = Fn().read\nunread = 2\n",
    }
    assert unreferenced(sources, {}) == ["curves.Fn.unread"]
