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
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import MassMismatch, NotPsh, SameVertex
from .linalg import ExactLinearSolver, solve_exact

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
        edges = tuple(
            (int(u), int(v), Fraction(l)) for u, v, l in self.edges
        )
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
        seen = [False] * self.vertex_count
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        if not all(seen):
            raise ValueError("graph is not connected")


def _norm_edge_items(graph: MetricGraph, per_edge) -> Tuple[Tuple[EdgeAtom, ...], ...]:
    out = []
    e = len(graph.edges)
    per_edge = tuple(per_edge) if per_edge else tuple(() for _ in range(e))
    if len(per_edge) != e:
        raise ValueError("per-edge data must match the edge list")
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
                if p0 == p1:
                    return x0
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

    @property
    def total_mass(self) -> Fraction:
        return sum(self.vertex_weights, _ZERO) + sum(
            (x for bps in self.edge_atoms for _, x in bps), _ZERO
        )

    def is_positive(self) -> bool:
        return all(w >= 0 for w in self.vertex_weights) and all(
            x >= 0 for bps in self.edge_atoms for _, x in bps
        )

    def canonical(self) -> "GraphMeasure":
        """Drop zero-weight interior atoms (vertex entries stay in place)."""
        return GraphMeasure(
            self.vertex_weights,
            tuple(
                tuple((p, x) for p, x in bps if x != 0) for bps in self.edge_atoms
            ),
        )


def add_measures(a: GraphMeasure, b: GraphMeasure) -> GraphMeasure:
    vw = tuple(x + y for x, y in zip(a.vertex_weights, b.vertex_weights))
    e = max(len(a.edge_atoms), len(b.edge_atoms))
    atoms = []
    for i in range(e):
        merged: Dict[Fraction, Fraction] = {}
        for src in (a.edge_atoms, b.edge_atoms):
            if i < len(src):
                for p, x in src[i]:
                    merged[p] = merged.get(p, _ZERO) + x
        atoms.append(tuple(sorted(merged.items())))
    return GraphMeasure(vw, tuple(atoms))


# --------------------------------------------------------------------------
# Operators.
# --------------------------------------------------------------------------


def ddc(graph: MetricGraph, f: GraphFunction) -> GraphMeasure:
    """Sum of outgoing slopes at every vertex and breakpoint: the metric
    graph Laplacian as a signed measure of total mass zero, read from the
    slopes along each edge's profile."""
    weights = [_ZERO] * graph.vertex_count
    atoms = []
    for e, (u, v, l) in enumerate(graph.edges):
        prof = f.profile(graph, e)
        slopes = [(x1 - x0) / (l * (p1 - p0)) for (p0, x0), (p1, x1) in zip(prof, prof[1:])]
        weights[u] += slopes[0]
        weights[v] -= slopes[-1]
        jumps = ((p, b - a) for (p, _), a, b in zip(prof[1:-1], slopes, slopes[1:]))
        atoms.append(tuple((p, x) for p, x in jumps if x != 0))
    if sum(weights, _ZERO) + sum((x for a in atoms for _, x in a), _ZERO) != 0:
        raise AssertionError("dd^c lost mass")  # structurally impossible
    return GraphMeasure(tuple(weights), tuple(atoms))


def green(graph: MetricGraph, x: int, y: int) -> GraphFunction:
    """The potential with dd^c(g) = delta_x - delta_y and g(y) = 0."""
    if x == y:
        raise SameVertex("green function needs distinct poles")
    rhs = [_ZERO] * graph.vertex_count
    rhs[y] += 1
    rhs[x] -= 1
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
        for e, bps in enumerate(m.edge_atoms):
            u, v, _ = graph.edges[e]
            for p, x in bps:
                if x != 0:
                    charges[e][p] = charges[e].get(p, _ZERO) + sign * x
                    rhs[u] += sign * x * (1 - p)
                    rhs[v] += sign * x * p
    vals = _grounded_laplace_solve(graph, rhs, 0)
    bps = [
        [(s, (1 - s) * vals[u] + s * vals[v]
          + l * sum(c * min(s, p) * (1 - max(s, p)) for p, c in q.items())) for s in sorted(q)]
        for (u, v, l), q in zip(graph.edges, charges)
    ]
    top = max(vals + [x for b in bps for _, x in b])
    return GraphFunction(
        tuple(x - top for x in vals),
        tuple(tuple((s, x - top) for s, x in b) for b in bps),
    )


def _conductances(graph: MetricGraph):
    return [(u, v, 1 / l) for u, v, l in graph.edges]


def _grounded_laplace_solve(graph: MetricGraph, rhs, ground: int) -> List[Fraction]:
    """Solve L phi = rhs with phi(ground) = 0; rhs must sum to zero."""
    if sum(rhs, _ZERO) != 0:
        raise MassMismatch("laplace right-hand side must have total mass zero")
    return solve_exact(graph.vertex_count, _conductances(graph), ground, rhs)


def curvature(graph: MetricGraph, omega: GraphMeasure, phi: GraphFunction) -> GraphMeasure:
    """omega + dd^c(phi) as one measure; its interior atoms sit at the
    union of omega's atoms and phi's breakpoints."""
    return add_measures(omega, ddc(graph, phi)).canonical()


def energy_graph(graph: MetricGraph, phi: GraphFunction, omega: GraphMeasure) -> Fraction:
    """E(phi) = (int phi d omega + int phi d(omega + dd^c phi)) / 2.

    Raises NotPsh (with a witness) when omega + dd^c(phi) has a negative
    atom, i.e. phi is not omega-psh.
    """
    rho = curvature(graph, omega, phi)
    for v, w in enumerate(rho.vertex_weights):
        if w < 0:
            raise NotPsh(v, w)
    for e, bps in enumerate(rho.edge_atoms):
        for p, w in bps:
            if w < 0:
                raise NotPsh((e, p), w)
    return (integrate_graph(graph, phi, omega) + integrate_graph(graph, phi, rho)) / 2


def integrate_graph(graph: MetricGraph, f: GraphFunction, m: GraphMeasure) -> Fraction:
    total = _ZERO
    for v, w in enumerate(m.vertex_weights):
        if w != 0:
            total += w * f.values[v]
    for e, bps in enumerate(m.edge_atoms):
        for p, w in bps:
            if w != 0:
                total += w * f.value_on_edge(graph, e, p)
    return total


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
        top = max(vals)
        return GraphFunction(tuple(v - top for v in vals))


@dataclass(frozen=True)
class Subdivision:
    graph: MetricGraph
    inserted: Tuple[Tuple[int, Fraction, int], ...]  # (edge, pos, new vertex id)


def subdivide(graph: MetricGraph, positions: Sequence[Sequence[Fraction]]) -> Subdivision:
    """Insert a vertex at each requested interior position.  No operator
    needs it: it is the reference construction the tests check `ddc` and
    `solve_poisson` against, and the benchmark's tracer names it."""
    next_id = graph.vertex_count
    edges: List[Tuple[int, int, Fraction]] = []
    inserted = []
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
