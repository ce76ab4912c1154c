"""The curve case: metric graphs, the dd^c operator, Green functions and
the Poisson equation omega + dd^c(phi) = mu, all in exact rationals.

Functions are piecewise affine in arc length: values at vertices plus
optional interior breakpoints per edge.  Measures sit at vertices and
optionally at edge-interior points.  Every operator works on the graph
as given: `ddc` reads slopes along each edge, and `solve_poisson`
eliminates interior points in closed form (Kron reduction: a point on an
edge is a degree-2 vertex of the electrical network), so the only linear
solve is on the original vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from operator import add
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .errors import MassMismatch, NotPsh, SameVertex
from .linalg import ExactLinearSolver, integers, solve_exact

_ZERO = Fraction(0)

EdgeAtom = Tuple[Fraction, Fraction]  # (position in (0,1), weight/value)


@dataclass(frozen=True)
class MetricGraph:
    """Connected multigraph with positive rational edge lengths.

    Parallel edges are allowed, self-loops are not.
    """

    vertex_count: int
    edges: Tuple[Tuple[int, int, Fraction], ...]

    def __post_init__(self):
        for idx, (u, v, _) in enumerate(self.edges):
            if not all(isinstance(e, int) and not isinstance(e, bool) for e in (u, v)):
                raise ValueError(f"edge {idx} endpoints must be integers")
        edges = tuple((u, v, Fraction(l)) for u, v, l in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        adj = [[] for _ in range(self.vertex_count)]
        for idx, (u, v, l) in enumerate(edges):
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge {idx} endpoint out of range")
            if u == v:
                raise ValueError(f"edge {idx} is a self-loop")
            if l <= 0:
                raise ValueError(f"edge {idx} has non-positive length")
            adj[u].append(v)
            adj[v].append(u)
        seen, stack = {0}, [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != self.vertex_count:
            raise ValueError("graph is not connected")


def _norm_edge_items(graph: MetricGraph, per_edge) -> Tuple[Tuple[EdgeAtom, ...], ...]:
    per_edge = tuple(per_edge) if per_edge else ((),) * len(graph.edges)
    if len(per_edge) != len(graph.edges):
        raise ValueError("per-edge data must match the edge list")
    out = []
    for items in per_edge:
        items = tuple((Fraction(p), Fraction(x)) for p, x in items)
        for p, _ in items:
            if not (0 < p < 1):
                raise ValueError(f"interior position {p} outside (0,1)")
        if len({p for p, _ in items}) != len(items):
            raise ValueError("duplicate interior positions on one edge")
        out.append(tuple(sorted(items)))
    return tuple(out)


@dataclass(frozen=True)
class GraphFunction:
    """Continuous piecewise-affine function: vertex values plus optional
    interior breakpoints (position, value) per edge."""

    values: Tuple[Fraction, ...]
    breakpoints: Tuple[Tuple[EdgeAtom, ...], ...] = ()

    @staticmethod
    def on(graph: MetricGraph, values, breakpoints=None) -> "GraphFunction":
        values = tuple(Fraction(v) for v in values)
        if len(values) != graph.vertex_count:
            raise ValueError("one value per vertex required")
        return GraphFunction(values, _norm_edge_items(graph, breakpoints))

    def profile(self, graph: MetricGraph, e: int) -> List[EdgeAtom]:
        """Positions and values along edge e, endpoints included."""
        u, v, _ = graph.edges[e]
        bps = self.breakpoints[e] if e < len(self.breakpoints) else ()
        return [(_ZERO, self.values[u]), *bps, (Fraction(1), self.values[v])]

    def value_on_edge(self, graph: MetricGraph, e: int, pos: Fraction) -> Fraction:
        pos = Fraction(pos)
        prof = self.profile(graph, e)
        for (p0, x0), (p1, x1) in zip(prof, prof[1:]):
            if p0 <= pos <= p1:
                return x0 + (x1 - x0) * (pos - p0) / (p1 - p0)
        raise ValueError(f"position {pos} outside [0,1]")

    def shift(self, c) -> "GraphFunction":
        c = Fraction(c)
        return GraphFunction(
            tuple(v + c for v in self.values),
            tuple(tuple((p, x + c) for p, x in bps) for bps in self.breakpoints),
        )


@dataclass(frozen=True)
class GraphMeasure:
    """Atomic measure: vertex weights plus optional edge-interior atoms.

    Weights may be signed (dd^c outputs are); inputs to the Poisson
    solver are validated to be positive where required.
    """

    vertex_weights: Tuple[Fraction, ...]
    edge_atoms: Tuple[Tuple[EdgeAtom, ...], ...] = ()

    @staticmethod
    def on(graph: MetricGraph, vertex_weights, edge_atoms=None) -> "GraphMeasure":
        w = tuple(Fraction(x) for x in vertex_weights)
        if len(w) != graph.vertex_count:
            raise ValueError("one weight per vertex required")
        return GraphMeasure(w, _norm_edge_items(graph, edge_atoms))

    @cached_property
    def total_mass(self) -> Fraction:
        """Computed on first read and kept: parsing and solving read it often."""
        return sum((x for bps in self.edge_atoms for _, x in bps), sum(self.vertex_weights, _ZERO))

    def is_positive(self) -> bool:
        return all(w >= 0 for w in self.vertex_weights) and all(
            x >= 0 for bps in self.edge_atoms for _, x in bps
        )

    def canonical(self) -> "GraphMeasure":
        """Drop zero-weight interior atoms (vertex entries stay in place)."""
        return GraphMeasure(
            self.vertex_weights, tuple(tuple((p, x) for p, x in bps if x != 0) for bps in self.edge_atoms)
        )


# --------------------------------------------------------------------------
# Operators.
# --------------------------------------------------------------------------


def ddc(graph: MetricGraph, f: GraphFunction) -> GraphMeasure:
    """Sum of outgoing slopes at every vertex and breakpoint: the metric
    graph Laplacian as a signed measure of total mass zero.  It is the
    graph Laplacian of the subdivision at f's breakpoints, computed with
    f's values over one common denominator d and the conductances
    1 / (l (p1 - p0)) of the segments over another, k."""
    n, bps = graph.vertex_count, f.breakpoints or ((),) * len(graph.edges)
    xs, d = integers([*f.values, *(x for b in bps for _, x in b)])
    segments, m = [], n  # (node, node, conductance num / den); breakpoints are nodes n, n + 1, ...
    for (u, v, l), b in zip(graph.edges, bps):
        prof = [(0, 1, u), *((p.numerator, p.denominator, i) for i, (p, _) in enumerate(b, m)), (1, 1, v)]
        m += len(b)
        segments += [(i, j, l.denominator * q0 * q1, l.numerator * (p1 * q0 - p0 * q1))
                     for (p0, q0, i), (p1, q1, j) in zip(prof, prof[1:])]
    k = lcm(*(den for *_, den in segments))
    weights = [0] * m
    for i, j, num, den in segments:
        slope = num * (k // den) * (xs[j] - xs[i])
        weights[i] += slope
        weights[j] -= slope
    if sum(weights) != 0:
        raise AssertionError("dd^c lost mass")  # structurally impossible
    kd, atoms = k * d, iter(weights[n:])
    return GraphMeasure(
        tuple(Fraction(w, kd) for w in weights[:n]),
        tuple(tuple((p, Fraction(w, kd)) for (p, _), w in zip(b, atoms) if w) for b in bps),
    )


def green(graph: MetricGraph, x: int, y: int) -> GraphFunction:
    """The potential with dd^c(g) = delta_x - delta_y and g(y) = 0."""
    if x == y:
        raise SameVertex("green function needs distinct poles")
    rhs = [0] * graph.vertex_count
    rhs[y], rhs[x] = 1, -1
    return GraphFunction(tuple(_grounded_laplace_solve(graph, rhs, y)))


def solve_poisson(graph: MetricGraph, omega: GraphMeasure, mu: GraphMeasure) -> GraphFunction:
    """Solve omega + dd^c(phi) = mu exactly, normalized to sup(phi) = 0.

    Both measures must be positive with the same positive total mass.
    A net charge c = omega-atom - mu-atom at position p of edge (u, v, l)
    is split between the end vertices as c (1 - p) and c p, the graph is
    solved once, and the edge is filled in closed form:
    phi(s) = (1 - s) phi(u) + s phi(v) + l sum_i c_i min(s, p_i) (1 - max(s, p_i)).
    The result has a breakpoint wherever either measure has a nonzero
    atom, a net-zero charge included.
    """
    if not omega.is_positive() or not mu.is_positive():
        raise ValueError("omega and mu must be positive measures")
    if omega.total_mass != mu.total_mass:
        raise MassMismatch(
            f"mass(omega) = {omega.total_mass} differs from mass(mu) = {mu.total_mass}"
        )
    if omega.total_mass <= 0:
        raise MassMismatch("total mass must be positive")
    rhs = [a - b for a, b in zip(omega.vertex_weights, mu.vertex_weights)]
    charges: List[Dict[Fraction, Fraction]] = [{} for _ in graph.edges]
    for m, sign in ((omega, 1), (mu, -1)):
        for (u, v, _), bps, q in zip(graph.edges, m.edge_atoms, charges):
            for p, x in bps:
                if x != 0:
                    q[p] = q.get(p, _ZERO) + sign * x
                    rhs[u] += sign * x * (1 - p)
                    rhs[v] += sign * x * p
    vals = _grounded_laplace_solve(graph, rhs, 0)
    bps = [
        [(s, (1 - s) * vals[u] + s * vals[v]
          + l * sum(c * min(s, p) * (1 - max(s, p)) for p, c in q.items())) for s in sorted(q)]
        for (u, v, l), q in zip(graph.edges, charges)
    ]
    top = max(vals + [x for b in bps for _, x in b])
    return GraphFunction(tuple(vals), tuple(map(tuple, bps))).shift(-top)


def _conductances(graph: MetricGraph):
    return [(u, v, 1 / l) for u, v, l in graph.edges]


def _grounded_laplace_solve(graph: MetricGraph, rhs, ground: int) -> List[Fraction]:
    """Solve L phi = rhs with phi(ground) = 0; rhs must sum to zero."""
    if sum(rhs, _ZERO) != 0:
        raise MassMismatch("laplace right-hand side must have total mass zero")
    return solve_exact(graph.vertex_count, _conductances(graph), ground, rhs)


def curvature(graph: MetricGraph, omega: GraphMeasure, phi: GraphFunction) -> GraphMeasure:
    """omega + dd^c(phi) as one measure; its interior atoms sit at the
    union of omega's atoms and phi's breakpoints, zero atoms dropped."""
    rho = ddc(graph, phi)
    atoms = []
    for omega_atoms, rho_atoms in zip_longest(omega.edge_atoms, rho.edge_atoms, fillvalue=()):
        merged = dict(rho_atoms)
        for p, x in omega_atoms:
            merged[p] = merged.get(p, _ZERO) + x
        atoms.append(tuple(sorted((p, x) for p, x in merged.items() if x)))
    return GraphMeasure(tuple(map(add, omega.vertex_weights, rho.vertex_weights)), tuple(atoms))


def energy_graph(graph: MetricGraph, phi: GraphFunction, omega: GraphMeasure) -> Fraction:
    """E(phi) = (int phi d omega + int phi d(omega + dd^c phi)) / 2.

    Raises NotPsh (with a witness) when omega + dd^c(phi) has a negative
    atom, i.e. phi is not omega-psh.
    """
    rho = curvature(graph, omega, phi)
    interior = (((e, p), w) for e, bps in enumerate(rho.edge_atoms) for p, w in bps)
    for where, w in [*enumerate(rho.vertex_weights), *interior]:
        if w < 0:
            raise NotPsh(where, w)
    return (integrate_graph(graph, phi, omega) + integrate_graph(graph, phi, rho)) / 2


def integrate_graph(graph: MetricGraph, f: GraphFunction, m: GraphMeasure) -> Fraction:
    total = sum((w * x for w, x in zip(m.vertex_weights, f.values) if w), _ZERO)
    atoms = (w * f.value_on_edge(graph, e, p) for e, bps in enumerate(m.edge_atoms) for p, w in bps if w)
    return sum(atoms, total)


class PoissonSolver:
    """Factor the grounded Laplacian once, then solve many vertex-supported
    right-hand sides (used by the verification suites)."""

    def __init__(self, graph: MetricGraph, ground: int = 0):
        self.solver = ExactLinearSolver(graph.vertex_count, _conductances(graph), ground)

    def solve(self, omega_weights, mu_weights) -> GraphFunction:
        rhs = [a - b for a, b in zip(omega_weights, mu_weights)]
        if sum(rhs, _ZERO) != 0:
            raise MassMismatch("masses differ")
        vals = self.solver.solve(rhs)
        return GraphFunction(tuple(vals)).shift(-max(vals))


class Subdivision(NamedTuple):
    graph: MetricGraph
    inserted: Tuple[Tuple[int, Fraction, int], ...]  # (edge, pos, new vertex id)


def subdivide(graph: MetricGraph, positions: Sequence[Sequence[Fraction]]) -> Subdivision:
    """Insert a vertex at each requested interior position.  No operator
    needs it: it is the reference construction the tests check `ddc` and
    `solve_poisson` against, and the benchmark's tracer names it."""
    next_id, edges, inserted = graph.vertex_count, [], []
    for e, (u, v, l) in enumerate(graph.edges):
        pos = sorted(set(Fraction(p) for p in positions[e])) if e < len(positions) else []
        prev, prev_pos = u, _ZERO
        for p in pos:
            edges.append((prev, next_id, l * (p - prev_pos)))
            inserted.append((e, p, next_id))
            prev, prev_pos = next_id, p
            next_id += 1
        edges.append((prev, v, l * (1 - prev_pos)))
    return Subdivision(MetricGraph(next_id, tuple(edges)), tuple(inserted))
