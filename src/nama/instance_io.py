"""Instance and result file formats: strict JSON-syntax text with
string-encoded rationals.

Rational mode never round-trips through binary floats: rationals are
serialized as "p/q" or decimal strings and any bare JSON float in a
rational-mode instance is rejected.  Unknown fields are rejected
everywhere so that typos fail loudly instead of being ignored.  A
literal is read in one pass to integers in lowest terms (`_ratio`).
Curve fields, polytope vertices and envelope constraints keep them over
one denominator per field, and results are written from their integers
(`_rendered`); the canonical writer puts str and int leaves inline.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from . import curves as cv
from . import polyhedra as pg
from . import solver as sv
from . import toric as tc
from .errors import ArityMismatch, MassMismatch, ParseError, ValidationError

FORMAT_VERSION = 1

KINDS = ("toric-dirac", "toric-envelope", "curve-poisson", "curve-green")
MODES = ("rational", "float")

# Most points of the 1/lattice_m grid in Delta's bounding box that a
# lattice envelope may enumerate.
MAX_LATTICE_POINTS = 100_000


def dumps_canonical(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\\n" for str-keyed objects,
    written by one direct recursion: json's indenting encoder runs in pure Python."""
    return _json(obj, "\n") + "\n"


def _json(obj, nl: str) -> str:
    """obj's canonical text, its nested lines indented past `nl`; a str or
    int member is written inline in its container's comprehension."""
    inner = nl + "  "
    if isinstance(obj, dict):
        items = [
            _quote(k) + ": "
            + (_quote(v) if v.__class__ is str else repr(v) if v.__class__ is int else _json(v, inner))
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_quote(v) if v.__class__ is str else repr(v) if v.__class__ is int else _json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"  # json's spellings
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_quote = json.encoder.encode_basestring_ascii


def _document(text: str, kinds=None):
    """Decode an instance or result file: a JSON object, whose kind is
    checked first when `kinds` is given, then its mode.  Whatever the
    text, a failure is a ParseError or a ValidationError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from None
    except (RecursionError, ValueError) as exc:  # nested too deep; an integer too long
        raise ParseError(str(exc)) from None
    if not isinstance(obj, dict):
        raise ParseError("top-level value must be an object")
    if kinds is not None and obj.get("kind") not in kinds:
        raise ValidationError("kind", f"expected one of {', '.join(kinds)}")
    mode = obj.get("mode", "rational")
    if mode not in MODES:
        raise ValidationError("mode", "expected 'rational' or 'float'")
    return obj, mode


# --------------------------------------------------------------------------
# Scalars and points under the two modes.
# --------------------------------------------------------------------------


_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")
_RATIO_RE = re.compile(r"^([+-]?\d+)\s*/\s*(\d+)$")


def _ratio(value, mode: str, field: str) -> Tuple[int, int]:
    """A JSON integer, a "p/q" or decimal string, or (float mode only) a
    finite JSON float, as (p, q) in lowest terms, q > 0, never through
    float rounding in rational mode.  The common literal, ASCII digits
    after an optional minus sign with at most one slash between them, is
    read by int() alone; any other string goes through the regular
    expressions, which word every refusal."""
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        try:  # int() refuses strings of more than sys.get_int_max_str_digits() digits
            if not (value.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
                m = _RATIO_RE.match(s := value.strip())
                if not m and _DECIMAL_RE.match(s):
                    return Fraction(s).as_integer_ratio()
                if not m:
                    raise ValidationError(field, f"not a rational literal: {value!r}")
                num, den = m.groups()
            p, q = int(num), int(den or 1)
        except ValueError as exc:
            raise ValidationError(field, str(exc)) from None
        if q == 0:
            raise ValidationError(field, f"zero denominator in {value!r}")
        g = math.gcd(p, q)
        return p // g, q // g
    if isinstance(value, bool):
        raise ValidationError(field, f"not a number: {value!r}")
    if isinstance(value, float) and mode == "rational":
        raise ValidationError(field, "binary floats are not allowed in rational mode; use 'p/q' strings")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(field, f"not a finite number: {value!r}")
    if not isinstance(value, (int, float)):
        raise ValidationError(field, f"not a rational literal: {value!r}")
    return value.as_integer_ratio()


def _scalar(value, mode: str, field: str) -> Fraction:
    """A literal as one Fraction, made from the integers `_ratio` reads in
    one pass (one split and int() for the common forms, no regex); dirac
    sites and weights, solver settings and atom positions are kept as
    Fractions."""
    return Fraction(*_ratio(value, mode, field))


def _over_one(pairs) -> Tuple[list, int]:
    """(p, q) pairs as integers over their least common denominator."""
    den = math.lcm(*[q for _, q in pairs])
    return [p * (den // q) for p, q in pairs], den


def _is_int(value) -> bool:
    """A JSON integer; JSON true/false decode to bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _list(obj, field: str) -> list:
    if not isinstance(obj, list):
        raise ValidationError(field, "expected a list")
    return obj


def _point(value, mode: str, field: str, dim: Optional[int] = None):
    """A coordinate list as its coordinates' (p, q) pairs."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(field, "expected a coordinate list")
    pt = tuple([_ratio(c, mode, f"{field}[{i}]") for i, c in enumerate(value)])
    if dim is not None and len(pt) != dim:
        raise ValidationError(field, f"expected {dim} coordinates, got {len(pt)}")
    return pt


def _render(x: Fraction, mode: str):
    return float(x) if mode == "float" else str(x)


def _rendered(xs, d: int, mode: str) -> list:
    """Each x / d as `_render` writes Fraction(x, d), with no Fraction made."""
    if mode == "float":
        return [x / d for x in xs]
    return [str(x // g) if (g := math.gcd(x, d)) == d else f"{x // g}/{d // g}" for x in xs]


def _check_keys(obj, allowed, required: Tuple[str, ...], field: str):
    """Reject unknown fields, then name the first missing one in the
    order of `required`."""
    if not isinstance(obj, dict):
        raise ValidationError(field, "expected an object")
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{field}.{key}" if field else key, "unknown field")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{field}.{key}" if field else key, "missing field")


# --------------------------------------------------------------------------
# Domain-object encodings (shared by instances, results, and witnesses).
# --------------------------------------------------------------------------


def encode_polytope(delta: tc.NewtonPolytope, mode: str = "rational"):
    return {"vertices": [_rendered((x, y)[: delta.dim], w, mode) for x, y, w in delta.body.loop]}


def decode_polytope(obj, mode: str, field: str) -> tc.NewtonPolytope:
    _check_keys(obj, {"vertices"}, ("vertices",), field)
    verts = obj["vertices"]
    if not isinstance(verts, list) or not verts:
        raise ValidationError(f"{field}.vertices", "expected a non-empty list")
    pts = [_point(v, mode, f"{field}.vertices[{i}]") for i, v in enumerate(verts)]
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise ValidationError(f"{field}.vertices", "mixed dimensions")
    try:
        return tc.NewtonPolytope(pg.hull_over(dims.pop(), *_over_one([c for p in pts for c in p])))
    except Exception as exc:
        raise ValidationError(f"{field}.vertices", str(exc)) from None


def _sites(f: tc.ToricPsh, mode: str) -> list:
    """A potential's sites, written from `integer_generators`."""
    (xs, d, _, _), n = f.integer_generators, f.delta.dim
    return [_rendered(x[:n], d, mode) for x in xs]


def encode_generators(f: tc.ToricPsh, mode: str = "rational"):
    return [{"site": x, "value": t} for x, t in zip(_sites(f, mode), _rendered(*f.integer_generators[2:], mode))]


def decode_generators(objs, mode: str, field: str, n: int) -> pg.IntegerSites:
    """The (site, value) pairs of a list of {"site", "value"} objects with
    sites in dimension n, on integers: an envelope's constraints or a
    result's generators."""
    sites, values = [], []
    for i, g in enumerate(_list(objs, field)):
        gf = f"{field}[{i}]"
        _check_keys(g, {"site", "value"}, ("site", "value"), gf)
        sites.append(_point(g["site"], mode, f"{gf}.site", n))
        values.append(_ratio(g["value"], mode, f"{gf}.value"))
    coords, d = _over_one([c for x in sites for c in x])
    xs = list(zip(coords[0::2], coords[1::2])) if n == 2 else [(x, 0) for x in coords]
    return pg.IntegerSites(xs, d, *_over_one(values))


def encode_test_function(f: tc.TestFunction, mode: str = "rational"):
    return {"branches": [encode_generators(b, mode) for b in f.branches]}


def encode_measure(f: tc.ToricPsh, mode: str = "rational"):
    """MA(f) as `ma_measure` reads it: at each site its cell's kept mass."""
    return [{"point": x, "weight": w} for x, w in zip(_sites(f, mode), _rendered(*f.masses, mode))]


def encode_graph(graph: cv.MetricGraph, mode: str = "rational"):
    edges = [[u, v, _render(l, mode)] for u, v, l in graph.edges]
    return {"vertex_count": graph.vertex_count, "edges": edges}


def decode_graph(obj, mode: str, field: str) -> cv.MetricGraph:
    _check_keys(obj, {"vertex_count", "edges"}, ("vertex_count", "edges"), field)
    count = obj["vertex_count"]
    if not _is_int(count) or count < 1:
        raise ValidationError(f"{field}.vertex_count", "expected a positive integer")
    edges = obj["edges"]
    if not isinstance(edges, list) or not edges:
        raise ValidationError(f"{field}.edges", "expected a non-empty list")
    parsed = []
    for i, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 3:
            raise ValidationError(f"{field}.edges[{i}]", "expected [u, v, length]")
        parsed.append((e[0], e[1], *_ratio(e[2], mode, f"{field}.edges[{i}].length")))
    try:  # MetricGraph checks the endpoints, the lengths and the connectivity
        return cv.MetricGraph(count, integer_edges=tuple(parsed))
    except ValueError as exc:
        raise ValidationError(f"{field}.edges", str(exc)) from None


def decode_graph_measure(obj, graph: cv.MetricGraph, mode: str, field: str) -> cv.GraphMeasure:
    if not isinstance(obj, list):
        raise ValidationError(field, "expected a list of atoms")
    n, m, atoms = graph.vertex_count, len(graph.integer_edges), []  # (vertex or edge, position or None, p, q)
    for i, atom in enumerate(obj):
        af = f"{field}[{i}]"
        if not isinstance(atom, dict):
            raise ValidationError(af, "expected an object")
        keys = ("vertex", "weight") if "vertex" in atom else ("edge", "pos", "weight")
        _check_keys(atom, set(keys), keys, af)
        k = atom[keys[0]]
        if not _is_int(k) or not (0 <= k < (m if "pos" in keys else n)):
            raise ValidationError(f"{af}.{keys[0]}", f"{keys[0]} index out of range")
        pos = _scalar(atom["pos"], mode, f"{af}.pos") if "pos" in keys else None
        atoms.append((k, pos, *_ratio(atom["weight"], mode, f"{af}.weight")))
    den = math.lcm(*[q for *_, q in atoms])
    vw, per_edge = [0] * n, [[] for _ in range(m)]
    for i, pos, p, q in atoms:
        if pos is None:
            vw[i] += p * (den // q)
        else:
            per_edge[i].append((pos, p * (den // q)))
    try:  # GraphMeasure checks the positions
        return cv.GraphMeasure.on(graph, vw, per_edge, den)
    except ValueError as exc:
        raise ValidationError(field, str(exc)) from None


def encode_graph_measure(mu: cv.GraphMeasure, mode: str = "rational"):
    vertex, edges = mu.split(_rendered(*mu.integers, mode))
    out = [{"vertex": v, "weight": w} for v, (w, x) in enumerate(zip(vertex, mu.integers[0])) if x]
    return out + [{"edge": e, "pos": _render(p, mode), "weight": w} for e, atoms in enumerate(edges) for p, w in atoms]


# --------------------------------------------------------------------------
# Instances.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceFile:
    kind: str
    mode: str
    data: Dict[str, Any]
    solver: sv.SolverConfig
    sha256: str  # of the canonical text


# kind -> (the fields an instance may have, the fields it must have)
_TOP_KEYS = {
    "toric-dirac": ({"kind", "mode", "polytope", "sites", "weights", "solver"}, ("polytope", "sites", "weights")),
    "toric-envelope": ({"kind", "mode", "polytope", "constraints", "lattice_m", "solver"}, ("polytope",)),
    "curve-poisson": ({"kind", "mode", "graph", "omega", "mu", "solver"}, ("graph", "omega", "mu")),
    "curve-green": ({"kind", "mode", "graph", "x", "y", "solver"}, ("graph", "x", "y")),
}


def _parse_solver_block(obj, mode: str) -> sv.SolverConfig:
    if obj is None:
        return sv.SolverConfig(mode=mode)
    _check_keys(obj, {"tol", "max_iter"}, (), "solver")
    tol = _scalar(obj["tol"], mode, "solver.tol") if "tol" in obj else None
    if tol is not None and tol < 0:
        raise ValidationError("solver.tol", "tol must be nonnegative")
    max_iter = obj.get("max_iter", 10_000)
    if not _is_int(max_iter) or max_iter < 1:
        raise ValidationError("solver.max_iter", "expected a positive integer")
    return sv.SolverConfig(tol=tol, max_iter=max_iter, mode=mode)


def _weights(obj, mode: str):
    """A toric-dirac file's weights, each read when it is iterated."""
    for i, w in enumerate(_list(obj, "weights")):
        yield _scalar(w, mode, f"weights[{i}]")


def parse_instance(text: str) -> InstanceFile:
    """Strict parse: unknown fields are rejected and every structural
    invariant (mass balance, distinct sites, connectivity) is validated."""
    obj, mode = _document(text, KINDS)
    kind = obj["kind"]
    _check_keys(obj, *_TOP_KEYS[kind], "")
    solver_cfg = _parse_solver_block(obj.get("solver"), mode)
    data: Dict[str, Any] = {}

    if kind in ("toric-dirac", "toric-envelope"):
        delta = decode_polytope(obj["polytope"], mode, "polytope")
        data["delta"] = delta
        n = delta.dim
        if kind == "toric-dirac":
            sites = tuple([tuple([Fraction(*c) for c in _point(s, mode, f"sites[{i}]", n)])
                           for i, s in enumerate(_list(obj["sites"], "sites"))])
            try:  # DiracProblem owns the rules, and reads the weights only once the sites pass
                data["problem"] = sv.DiracProblem(delta, sites, _weights(obj["weights"], mode))
            except (ValueError, ArityMismatch, MassMismatch) as exc:
                raise ValidationError("sites" if str(exc) == "sites must be distinct" else "weights", str(exc)) from None
        else:
            cons = decode_generators(obj.get("constraints", []), mode, "constraints", n)
            if not cons.ts:
                raise ValidationError("constraints", "need at least one constraint")
            data["constraints"] = cons
            if "lattice_m" in obj:
                m = obj["lattice_m"]
                if not _is_int(m) or m < 1:
                    raise ValidationError("lattice_m", "expected a positive integer")
                # stop - start, as len() of a range past sys.maxsize raises OverflowError
                if math.prod(r.stop - r.start for r in tc.lattice_box(delta, m)) > MAX_LATTICE_POINTS:
                    raise ValidationError(
                        "lattice_m", f"the 1/{m} grid over Delta has more than {MAX_LATTICE_POINTS} points"
                    )
                data["lattice_m"] = m
    else:
        graph = decode_graph(obj["graph"], mode, "graph")
        data["graph"] = graph
        if kind == "curve-poisson":
            omega = decode_graph_measure(obj["omega"], graph, mode, "omega")
            mu = decode_graph_measure(obj["mu"], graph, mode, "mu")
            try:  # curves owns the rules; each message names omega or mu first
                cv.check_poisson_measures(omega, mu)
            except (ValueError, MassMismatch) as exc:
                raise ValidationError(*str(exc).split(": ", 1)) from None
            data["omega"], data["mu"] = omega, mu
        else:
            for key in ("x", "y"):
                v = obj[key]
                if not _is_int(v) or not (0 <= v < graph.vertex_count):
                    raise ValidationError(key, "vertex index out of range")
            if obj["x"] == obj["y"]:
                raise ValidationError("y", "x and y must differ")
            data["x"], data["y"] = obj["x"], obj["y"]

    sha256 = hashlib.sha256(dumps_canonical(obj).encode("utf-8")).hexdigest()
    return InstanceFile(kind, mode, data, solver_cfg, sha256)


# --------------------------------------------------------------------------
# Results.
# --------------------------------------------------------------------------


def result_file(inst: InstanceFile, payload, with_timestamp: bool = True) -> Dict[str, Any]:
    """The result file of every command: the instance's kind, mode and
    hash around the command's payload, with the time unless suppressed."""
    out = {
        "format_version": FORMAT_VERSION,
        "kind": inst.kind,
        "mode": inst.mode,
        "instance_sha256": inst.sha256,
        "solution": payload,
    }
    if with_timestamp:
        import datetime

        out["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return out


def solution_payload(inst: InstanceFile, solution: sv.Solution) -> Dict[str, Any]:
    mode = inst.mode
    p = solution.problem
    return {
        "polytope": encode_polytope(p.delta, mode),
        "sites": [[_render(c, mode) for c in x] for x in p.sites],
        "t": [_render(t, mode) for t in solution.t],
        "generators": encode_generators(solution.potential, mode),
        "atoms": encode_measure(solution.potential, mode),
        "energy": _render(solution.energy, mode),
        "objective": _render(solution.objective, mode),
        "residual": _render(solution.residual, mode),
        "iterations": solution.iterations,
    }


def envelope_payload(inst: InstanceFile, f: tc.ToricPsh) -> Dict[str, Any]:
    """The total mass is vol(Delta), which the masses are certified to sum
    to; the energy is reported only over the instance's own polytope, not
    over the smaller one of a lattice envelope."""
    mode = inst.mode
    payload = {
        "polytope": encode_polytope(f.delta, mode),
        "generators": encode_generators(f, mode),
        "atoms": encode_measure(f, mode),
        "total_mass": _render(f.delta.volume, mode),
    }
    if f.delta == inst.data["delta"]:
        payload["energy"] = _render(tc.energy(f, tc.g_delta(f.delta)), mode)
    return payload


def graph_function_payload(inst: InstanceFile, f: cv.GraphFunction) -> Dict[str, Any]:
    values, bps = f.split(_rendered(*f.integers, inst.mode))
    return {"values": values, "breakpoints": [[[_render(p, inst.mode), x] for p, x in b] for b in bps]}


def energy_payload(inst: InstanceFile, values: Dict[str, Fraction]) -> Dict[str, Any]:
    """The `energy` command's named rationals, in the instance's mode."""
    return {name: _render(x, inst.mode) for name, x in values.items()}


# --------------------------------------------------------------------------
# CSV export of Laguerre cells.
# --------------------------------------------------------------------------


def export_cells(text: str) -> str:
    """One row per (cell, vertex) of the Laguerre diagram of a toric
    result file's solution, lexicographically ordered, with exact p/q
    columns in rational mode."""
    result, mode = _document(text)
    sol = result.get("solution")
    if not isinstance(sol, dict) or "generators" not in sol:
        raise ValidationError("solution", "not a toric result file with generators")
    if "polytope" not in sol:
        raise ValidationError("solution.polytope", "missing field")
    delta = decode_polytope(sol["polytope"], mode, "solution.polytope")
    gens = decode_generators(sol["generators"], mode, "solution.generators", delta.dim)
    f = tc.ToricPsh(delta, gens)
    (ms, md), axes, exact = f.masses, range(1, delta.dim + 1), mode == "rational"
    cols = [*(f"site_x{k}" for k in axes), "weight", *(f"vertex_x{k}" for k in axes)]
    lines = [",".join(["cell_id", *cols, *([f"{c}_exact" for c in cols] if exact else [])])]
    for cell_id, ((site, _), cell, m) in enumerate(zip(f.generators, f.cells, ms)):
        for v in sorted(cell.vertices):
            row = [*site, Fraction(m, md), *v]
            exact_row = map(str, row) if exact else ()
            lines.append(",".join([str(cell_id), *(repr(float(c)) for c in row), *exact_row]))
    return "\n".join(lines) + "\n"
