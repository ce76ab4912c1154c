"""Every name the benchmark's tracer wraps must still exist in nama.

`bench/tracing.py` patches each name in its LAYERS table when a traced
benchmark run starts, and a name that a change deleted makes that run
crash.  This test reads the table, without installing the tracer, and
resolves each name the way the tracer does.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


SPANS = [(layer, name) for layer, names in _layers().items() for name in names]


@pytest.mark.parametrize("layer, name", SPANS, ids=[f"{l}.{n}" for l, n in SPANS])
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"nama.{layer}")
    if "." in name:  # Class.method: a method defined on the class itself
        cls_name, method = name.split(".")
        cls = getattr(module, cls_name, None)
        assert inspect.isclass(cls), f"nama.{layer}.{cls_name} is not a class"
        assert inspect.isfunction(cls.__dict__.get(method)), f"{name} is not a method of its own"
        return
    obj = getattr(module, name, None)
    assert obj is not None, f"nama.{layer} has no {name}"
    if inspect.isclass(obj):  # traced through its own constructor
        assert inspect.isfunction(obj.__dict__.get("__init__")), f"{name} has no __init__"
    else:
        assert inspect.isfunction(obj), f"nama.{layer}.{name} is not a function"
