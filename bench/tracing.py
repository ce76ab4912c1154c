"""Span tracing of nama's layers, installed from outside the package.

The tracer replaces each public function listed in LAYERS, at every
module attribute that holds it, with a wrapper that records a span
(name, start, end, parent, op id).  Classes are traced through their
``__init__`` (construction) and listed methods.  Spans live on a
thread-local stack; a span opened on a thread with an empty stack (a
``run_suite`` worker) nests under the innermost open ``harness.run_suite``
span.  ``Fraction.__new__`` is wrapped to count the rationals created.

Nothing in ``src/`` is edited: ``install`` patches the imported modules
and ``uninstall`` restores every original attribute.
"""

from __future__ import annotations

import fractions
import itertools
import json
import sys
import threading
import time
from typing import Dict, List, Tuple

# Layer -> traced names.  "Class" traces construction, "Class.method" a
# method; anything else is a module-level function.
LAYERS = {
    "polyhedra": ["clip", "hull", "lower_hull", "volume", "moment", "minkowski_sum"],
    "toric": [
        "ToricPsh",
        "ma_measure",
        "legendre_energy",
        "energy_via_mixed",
        "mixed_ma",
        "affine_combination",
        "max_combine",
        "difference_range",
        "lattice_envelope",
    ],
    "solver": ["solve"],
    "curves": [
        "green",
        "solve_poisson",
        "subdivide",
        "ddc",
        "energy_graph",
        "PoissonSolver",
        "PoissonSolver.solve",
    ],
    "linalg": ["solve_exact", "ExactLinearSolver", "ExactLinearSolver.solve"],
    "harness": ["run_suite"],
    "instance_io": ["parse_instance", "dumps_canonical"],
    "cli": ["main"],
}

SPAN_NAMES = [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]

# Counters that are not span call counts; all must repeat exactly.
COUNTERS = [
    "solver.objective_evals",
    "solver.iterations",
    "solver.not_converged",
    "harness.cases",
    "fractions.created",
]


class _Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op


class Tracer:
    """Records spans and counters while installed; see module docstring."""

    def __init__(self):
        self.spans: List[_Span] = []
        self.op = None  # index of the running op; Fractions count only inside one
        self._local = threading.local()
        self._pool_parent = None
        self._patches = []  # (owner, attribute, original)
        self._fractions = itertools.count()
        self._solves: List[Tuple[int, bool]] = []  # (iterations, converged)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "nama" or n.startswith("nama.")]
        for layer, names in LAYERS.items():
            mod = sys.modules[f"nama.{layer}"]
            for name in names:
                span = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, meth, self._wrap(span, cls.__dict__[meth]))
                    continue
                obj = getattr(mod, name)
                if isinstance(obj, type):
                    self._patch(obj, "__init__", self._wrap(span, obj.__dict__["__init__"]))
                    continue
                wrapped = self._wrap(span, obj)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is obj:
                            self._patch(m, attr, wrapped)
        original_new = fractions.Fraction.__new__
        counter = self._fractions
        tracer = self

        def counted_new(cls, *args, **kwargs):
            if tracer.op is not None:
                next(counter)
            return original_new(cls, *args, **kwargs)

        self._patch(fractions.Fraction, "__new__", staticmethod(counted_new))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        is_solve = name == "solver.solve"
        is_suite = name == "harness.run_suite"
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._pool_parent
            span = _Span(name, time.perf_counter(), parent, tracer.op)
            tracer.spans.append(span)
            stack.append(span)
            if is_suite:
                outer, tracer._pool_parent = tracer._pool_parent, span
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if is_solve and hasattr(exc, "solution"):
                    tracer._solves.append((exc.solution.iterations, False))
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if is_suite:
                    tracer._pool_parent = outer
            if is_solve:
                tracer._solves.append((result.iterations, True))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def counts(self, cases: int) -> Dict[str, int]:
        """Exact counters: span calls plus the COUNTERS."""
        out = {f"{n}.calls": 0 for n in SPAN_NAMES}
        evals = 0
        for s in self.spans:
            out[f"{s.name}.calls"] += 1
            if s.name == "toric.ToricPsh" and s.parent is not None:
                if s.parent.name == "solver.solve":
                    evals += 1
        out["solver.objective_evals"] = evals
        out["solver.iterations"] = sum(n for n, _ in self._solves)
        out["solver.not_converged"] = sum(1 for _, ok in self._solves if not ok)
        out["harness.cases"] = cases
        out["fractions.created"] = _peek(self._fractions)
        return out

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        children: Dict[int, List[_Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        out = {f"{n}.self_s": 0.0 for n in SPAN_NAMES}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[f"{s.name}.self_s"] += (s.end - s.start) - covered
        return out

    def dump(self, path, label: str) -> None:
        """Append the spans as JSON lines (times relative to the first span)."""
        if not self.spans:
            return
        t0 = self.spans[0].start
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "a", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "pass": label,
                    "id": i,
                    "name": s.name,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "parent": ids.get(id(s.parent)),
                    "op": s.op,
                }
                fh.write(json.dumps(rec) + "\n")


def _peek(counter) -> int:
    """Current value of an itertools.count without advancing it (the
    count is the lock-free way to count from several threads)."""
    return int(repr(counter)[6:-1])
