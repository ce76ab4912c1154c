"""The curve case: metric graphs, the dd^c operator, Green functions and
the Poisson equation omega + dd^c(phi) = mu, all in exact rationals.

Functions are piecewise affine in arc length: values at vertices plus
optional interior breakpoints per edge.  Measures sit at vertices and
optionally at edge-interior points.  Both keep their numbers once, as
integers over one denominator, and make their Fraction views only when
read.  Every operator works on the graph as given: `ddc` reads slopes
along each edge, and `solve_poisson` eliminates interior points in
closed form (Kron reduction: a point on an edge is a degree-2 vertex of
the electrical network), so the only linear solve is on the original
vertices.  The operators read and return those integers, and build
tuples from lists, not generators, which fill CPython's tuple free
lists.  Parsed lengths and weights arrive as integers."""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import List, Sequence, Tuple

from .errors import MassMismatch, NotPsh, SameVertex
from .linalg import ExactLinearSolver, integers

class MetricGraph:
    """Connected multigraph with positive rational (int or Fraction) edge
    lengths.  Parallel edges are allowed, self-loops are not.  The edges
    (u, v, length) are kept as `integer_edges` (u, v, p, q), length p / q
    in lowest terms, q > 0, which the parser hands over instead; `edges`
    is then made only when read."""

    def __init__(self, vertex_count: int, edges=None, *, integer_edges=None):
        if integer_edges is None:
            self.edges = edges
            integer_edges = tuple([(u, v, l.numerator, l.denominator) for u, v, l in edges])
        self.vertex_count, self.integer_edges = vertex_count, integer_edges
        n, edges = vertex_count, integer_edges
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if n > len(edges) + 1:  # before anything of size n is built
            raise ValueError(f"graph is not connected: {n} vertices but {len(edges)} edges")
        adj = [[] for _ in range(n)]
        for idx, (u, v, p, _) in enumerate(edges):
            if not (isinstance(u, int) and isinstance(v, int)) or isinstance(u, bool) or isinstance(v, bool):
                raise ValueError(f"edge {idx} endpoints must be integers")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {idx} endpoint out of range")
            if u == v:
                raise ValueError(f"edge {idx} is a self-loop")
            if p <= 0:
                raise ValueError(f"edge {idx} has non-positive length")
            adj[u].append(v)
            adj[v].append(u)
        seen, stack = {0}, [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != n:
            raise ValueError("graph is not connected")

    @cached_property
    def edges(self) -> Tuple[Tuple[int, int, Fraction], ...]:
        return tuple([(u, v, Fraction(p, q)) for u, v, p, q in self.integer_edges])

    @cached_property
    def conductances(self) -> Tuple[Tuple[Tuple[int, int, int], ...], int]:
        """(((u, v, c), ...), k): each edge (u, v, p, q) conducts q / p = c / k,
        k the lcm of the lengths' numerators; computed on first read, kept."""
        k = lcm(*[p for _, _, p, _ in self.integer_edges])
        return tuple([(u, v, q * (k // p)) for u, v, p, q in self.integer_edges]), k


class _OnGraph:
    """Numbers at a graph's vertices, then at interior points of its edges,
    kept once: `integers` (xs, d), the vertex entries and then the interior
    ones in edge order as xs / d in lowest terms, and `positions`, each
    edge's sorted interior positions, or () when there are none at all.
    `split` cuts a per-entry list along them; the vertex view is made when read."""

    def __init__(self, xs, d: int, positions=()):
        g = gcd(d, *xs)
        self.integers = tuple(xs) if g == 1 else tuple([x // g for x in xs]), d // g
        self.positions = positions

    @classmethod
    def on(cls, graph: MetricGraph, per_vertex, per_edge=None, den=None):
        """Entries per vertex and (position, entry) lists per edge, checked
        against graph; the entries are rationals, or integers over den as
        the parser reads them."""
        m = len(graph.integer_edges)
        per_edge = [sorted(items) for items in per_edge] if per_edge else [()] * m
        if len(per_vertex) != graph.vertex_count or len(per_edge) != m:
            raise ValueError("one entry per vertex and one list per edge required")
        for items in per_edge:
            for p, _ in items:
                if not (0 < p < 1):
                    raise ValueError(f"interior position {p} outside (0,1)")
            if len({p for p, _ in items}) != len(items):
                raise ValueError("duplicate interior positions on one edge")
        entries = [*per_vertex, *[x for items in per_edge for _, x in items]]
        xs, d = integers(entries) if den is None else (entries, den)
        return cls(xs, d, tuple([tuple([p for p, _ in items]) for items in per_edge]))

    def split(self, items: Sequence):
        """items, one per entry, as (vertex part, per edge its (position, item) list)."""
        n = len(items) - sum(map(len, self.positions))
        interior = iter(items[n:])
        return items[:n], [list(zip(ps, interior)) for ps in self.positions]

    def _vertex_view(self) -> Tuple[Fraction, ...]:
        xs, d = self.integers
        return tuple([Fraction(x, d) for x in self.split(xs)[0]])

    def __eq__(self, other) -> bool:
        """Lowest terms make equal views exactly equal integers and positions."""
        return type(other) is type(self) and (self.integers, self.positions) == (other.integers, other.positions)


class GraphFunction(_OnGraph):
    """Continuous piecewise-affine function: vertex values plus optional
    interior breakpoints (position, value) per edge."""

    values = cached_property(_OnGraph._vertex_view)


class GraphMeasure(_OnGraph):
    """Atomic measure: vertex weights plus optional edge-interior atoms.
    Weights may be signed (dd^c outputs are); inputs to the Poisson
    solver are validated to be positive where required."""

    vertex_weights = cached_property(_OnGraph._vertex_view)

    @cached_property
    def total_mass(self) -> Fraction:
        return Fraction(sum(self.integers[0]), self.integers[1])

    def is_positive(self) -> bool:
        return min(self.integers[0]) >= 0


# --------------------------------------------------------------------------
# Operators.
# --------------------------------------------------------------------------


def _ddc(graph: MetricGraph, f: GraphFunction):
    """(xs, d, ws, den): f's values xs / d and outgoing slope sums ws / den
    at the vertices, then at f's breakpoints in edge order.  A segment
    from a0/q0 to a1/q1 of an edge conducting c / k conducts
    c q0 q1 / (k (a1 q0 - a0 q1))."""
    bps = f.positions or ((),) * len(graph.integer_edges)
    (xs, d), (cs, k), segments, m = f.integers, graph.conductances, [], graph.vertex_count
    for (u, v, c), b in zip(cs, bps):  # breakpoints are nodes n, n + 1, ...
        prof = [(0, 1, u), *((p.numerator, p.denominator, i) for i, p in enumerate(b, m)), (1, 1, v)]
        m += len(b)
        segments += [(i, j, c * q0 * q1, a1 * q0 - a0 * q1) for (a0, q0, i), (a1, q1, j) in zip(prof, prof[1:])]
    s, ws = lcm(*[den for *_, den in segments]), [0] * m
    for i, j, num, den in segments:
        slope = num * (s // den) * (xs[j] - xs[i])
        ws[i] += slope
        ws[j] -= slope
    if sum(ws) != 0:
        raise AssertionError("dd^c lost mass")  # structurally impossible
    return xs, d, ws, k * s * d


def _curvature(graph: MetricGraph, omega, f: GraphFunction, ws, k):
    """omega + dd^c(f), given dd^c(f) = ws / k from `_ddc`, as vertex weights,
    per edge sorted nonzero (position, weight) atoms, and their denominator."""
    n, blank = graph.vertex_count, ((),) * len(graph.integer_edges)
    os, e = omega.integers if omega else ([0] * n, 1)
    f_atoms, o_atoms, atoms = iter(ws[n:]), iter(os[n:]), []
    for b, a in zip(f.positions or blank, omega and omega.positions or blank):
        merged = {p: w * e for p, w in zip(b, f_atoms)}
        for p, x in zip(a, o_atoms):
            merged[p] = merged.get(p, 0) + x * k
        atoms.append(sorted((p, x) for p, x in merged.items() if x))
    return [w * e + x * k for w, x in zip(ws, os[:n])], atoms, k * e


def ddc(graph: MetricGraph, f: GraphFunction) -> GraphMeasure:
    """Sum of outgoing slopes at every vertex and breakpoint: the graph
    Laplacian of the subdivision at f's breakpoints, a measure of mass zero."""
    return curvature(graph, None, f)


def curvature(graph: MetricGraph, omega: GraphMeasure, phi: GraphFunction) -> GraphMeasure:
    """omega + dd^c(phi) as one measure (dd^c(phi) when omega is None); its
    interior atoms sit at the union of omega's atoms and phi's
    breakpoints, zero atoms dropped."""
    rho, atoms, den = _curvature(graph, omega, phi, *_ddc(graph, phi)[2:])
    positions = tuple([tuple([p for p, _ in a]) for a in atoms])
    return GraphMeasure([*rho, *[x for a in atoms for _, x in a]], den, positions)


class PoissonSolver:
    """Factor the grounded Laplacian once, then solve many right-hand sides:
    the one graph solve behind green, solve_poisson and the suites."""

    def __init__(self, graph: MetricGraph, ground: int = 0):
        edges, self.k = graph.conductances  # so the factor is of k L
        self.graph, self.solver = graph, ExactLinearSolver(graph.vertex_count, edges, ground, 1)

    def solve_over(self, rhs: List[int], den: int) -> Tuple[List[int], int]:
        """(x, d): L x / d = rhs / den, x = 0 at the ground; rhs must sum to zero."""
        if sum(rhs) != 0:
            raise MassMismatch("laplace right-hand side must have total mass zero")
        x, d = self.solver.solve_over(rhs, den)
        return [v * self.k for v in x], d

    def solve(self, omega: GraphMeasure, mu: GraphMeasure) -> GraphFunction:
        """`solve_poisson` on this factor, unchecked.  Weights over w, positions
        over s, lengths over b and phi(u) = x_u / d: phi is shifted over d s^2 w b."""
        n, edges = self.graph.vertex_count, self.graph.integer_edges
        (ow, od), (mw, md) = omega.integers, mu.integers
        w, charges = lcm(od, md), [{} for _ in edges]  # per edge: position -> net charge over w
        for m, ws, scale in ((omega, ow, w // od), (mu, mw, -(w // md))):
            for (q, p), c in zip([(q, p) for q, ps in zip(charges, m.positions) for p in ps], ws[n:]):
                if c:
                    q[p] = q.get(p, 0) + c * scale
        s = lcm(*[p.denominator for q in charges for p in q])
        at = {p: p.numerator * (s // p.denominator) for q in charges for p in q}  # position -> p s
        rhs = [(a * (w // od) - b * (w // md)) * s for a, b in zip(ow[:n], mw[:n])]
        for (u, v, *_), q in zip(edges, charges):
            for p, c in q.items():
                rhs[u] += c * (s - at[p])
                rhs[v] += c * at[p]
        xs, d = self.solve_over(rhs, w * s)
        positions = tuple([tuple(sorted(q)) for q in charges])
        if at:
            lb = lcm(*[q for *_, q in edges])  # lengths over lb
            g = s * w * lb
            interior = [
                ((s - at[p]) * xs[u] + at[p] * xs[v]) * g
                + l * (lb // ql) * d * sum(c * min(at[p], at[r]) * (s - max(at[p], at[r])) for r, c in q.items())
                for (u, v, l, ql), q, ps in zip(edges, charges, positions) for p in ps
            ]
            xs, d = [x * s * g for x in xs] + interior, d * s * g
        top = max(xs)
        return GraphFunction([x - top for x in xs], d, positions)


def green(graph: MetricGraph, x: int, y: int) -> GraphFunction:
    """The potential with dd^c(g) = delta_x - delta_y and g(y) = 0."""
    if x == y:
        raise SameVertex("green function needs distinct poles")
    rhs = [0] * graph.vertex_count
    rhs[y], rhs[x] = 1, -1
    return GraphFunction(*PoissonSolver(graph, y).solve_over(rhs, 1))


def check_poisson_measures(omega: GraphMeasure, mu: GraphMeasure) -> None:
    """The rules omega + dd^c(phi) = mu puts on its measures, in order:
    omega, then mu, has no negative weight (else ValueError) and a positive
    total mass (else MassMismatch), then the two masses are equal (else
    MassMismatch).  Each message is the measure at fault, ": ", the rule."""
    for name, m in (("omega", omega), ("mu", mu)):
        if not m.is_positive():
            raise ValueError(f"{name}: must be a positive measure")
        if m.total_mass <= 0:
            raise MassMismatch(f"{name}: must be a positive measure")
    if omega.total_mass != mu.total_mass:
        raise MassMismatch(f"mu: mass {mu.total_mass} must equal mass(omega) = {omega.total_mass}")


def solve_poisson(graph: MetricGraph, omega: GraphMeasure, mu: GraphMeasure) -> GraphFunction:
    """Solve omega + dd^c(phi) = mu exactly, normalized to sup(phi) = 0.

    The measures must pass `check_poisson_measures`.  A net charge
    c = omega-atom - mu-atom at position p of edge (u, v, l) is split
    between the end vertices as c (1 - p) and c p, the graph is solved
    once, and the edge is filled in closed form:
    phi(s) = (1 - s) phi(u) + s phi(v) + l sum_i c_i min(s, p_i) (1 - max(s, p_i)).
    The result has a breakpoint wherever either measure has a nonzero
    atom, a net-zero charge included.
    """
    check_poisson_measures(omega, mu)
    return PoissonSolver(graph).solve(omega, mu)


def energy_graph(graph: MetricGraph, phi: GraphFunction, omega: GraphMeasure) -> Fraction:
    """E(phi) = (int phi d omega + int phi d(omega + dd^c phi)) / 2
    = int phi d omega - 1/2 sum (phi_j - phi_i)^2 / l_ij over the segments
    of the subdivision at phi's breakpoints (int phi d(dd^c phi) by parts).

    Raises NotPsh (with a witness) when omega + dd^c(phi) has a negative
    atom, i.e. phi is not omega-psh.
    """
    xs, d, ws, k = _ddc(graph, phi)
    rho, atoms, den = _curvature(graph, omega, phi, ws, k)
    interior = (((e, p), x) for e, a in enumerate(atoms) for p, x in a)
    for where, x in [*enumerate(rho), *interior]:
        if x < 0:
            raise NotPsh(where, Fraction(x, den))
    return integrate_graph(graph, phi, omega) + Fraction(sum(map(mul, xs, ws)), 2 * d * k)


def integrate_graph(graph: MetricGraph, f: GraphFunction, m: GraphMeasure) -> Fraction:
    """int f dm on integers: an atom at a vertex or at one of f's breakpoints
    (every atom, when f solves a Poisson equation in m) meets f's entry there,
    and only an atom between two breakpoints takes f's interpolated value."""
    (xs, d), (ws, dm), n = f.integers, m.integers, graph.vertex_count
    total, at = sum(map(mul, xs, ws[:n])), f.split(range(len(xs)))[1] if len(ws) > n else []
    for w, (e, p) in zip(ws[n:], ((e, p) for e, ps in enumerate(m.positions) for p in ps)):
        u, v, *_ = graph.integer_edges[e]
        prof = [(0, u), *(at[e] if at else ()), (1, v)]  # (position, index into xs) along edge e
        (p0, i), (p1, j) = next(seg for seg in zip(prof, prof[1:]) if p <= seg[1][0])
        total += w * xs[j] if p == p1 else w * (xs[i] * (p1 - p) + xs[j] * (p - p0)) / (p1 - p0)
    return Fraction(total, d * dm)


def subdivide(graph: MetricGraph, positions: Sequence[Sequence[Fraction]]):
    """(the subdivided graph, its new vertices as (edge, pos, vertex id)):
    a vertex at each requested interior position.  No operator needs it:
    it is the reference construction the tests check `ddc` and
    `solve_poisson` against, and the benchmark's tracer names it."""
    next_id, edges, inserted = graph.vertex_count, [], []
    for e, (u, v, l) in enumerate(graph.edges):
        pos = sorted(set(Fraction(p) for p in positions[e])) if e < len(positions) else []
        prev, prev_pos = u, 0
        for p in pos:
            edges.append((prev, next_id, l * (p - prev_pos)))
            inserted.append((e, p, next_id))
            prev, prev_pos = next_id, p
            next_id += 1
        edges.append((prev, v, l * (1 - prev_pos)))
    return MetricGraph(next_id, tuple(edges)), tuple(inserted)
