"""Exact solves of grounded weighted graph Laplacians.

Every exact graph computation in nama is one linear system L x = b: L
is the Laplacian of a graph with positive edge weights and x(ground) = 0.
The metric-graph solves of `curves` are such systems, and so is the toric
solver's Newton step on the walls between Laguerre cells.  Without its
ground row and column a connected graph's Laplacian is positive definite,
so elimination meets a positive pivot in every order.  The order is
minimum degree, ties broken by vertex index: a tree reduces leaf by leaf
with no fill (George-Liu, Computer Solution of Large Sparse Positive
Definite Systems, 1981).

Factor and solves run on integers: the weights over their least common
denominator (`integers`), or over the denominator the caller already
has them over.  Eliminating pivot p replaces each neighbour's
row by (s row_j - t row_p) / c, s and t the pivot and row j's entry over
their gcd and c the gcd of the new row (integer-preserving elimination,
Bareiss, Math. Comp. 1968).  Each row stays a positive multiple of its
Schur complement row, so no pivot changes sign.  A solve replays these
steps on the right-hand side, integers over one denominator in and out
(`solve_over`; `solve` is its Fraction view).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import List, Optional, Tuple


def integers(values) -> Tuple[List[int], int]:
    """Rationals as integers over their least common denominator."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = lcm(*[v.denominator for v in values])  # a list: a generator would grow a tuple (see curves)
    return [v.numerator * (den // v.denominator) for v in values], den


def _put(b, den, i, num, q):
    """Set b[i] = num / q, num and b over den, scaling b and den up when q
    does not divide num; return the new den."""
    if num % q:
        k = q // gcd(num, q)
        b[:] = [x * k for x in b]
        den, num = den * k, num * k
    b[i] = num // q
    return den


class ExactLinearSolver:
    """Factor the grounded Laplacian of `weighted_edges` (u, v, weight)
    once, then solve many right-hand sides.

    Parallel edges add up.  With `den`, the weights are already integers
    over den and are used as they are.  Raises ValueError when a pivot is
    not positive: the grounded matrix is then not positive definite, as
    when the edges do not connect every vertex to `ground`.
    """

    def __init__(self, vertex_count: int, weighted_edges, ground: int, den: Optional[int] = None):
        if not 0 <= ground < vertex_count:
            raise ValueError(f"ground {ground} outside 0..{vertex_count - 1}")
        edges = list(weighted_edges)
        weights = [w for _, _, w in edges]
        weights, self._scale = integers(weights) if den is None else (weights, den)
        rows = [{p: 0} for p in range(vertex_count)]  # row p holds its diagonal
        for (u, v, _), w in zip(edges, weights):
            rows[u][u] += w
            rows[v][v] += w
            if ground not in (u, v):
                rows[u][v] = rows[v][u] = rows[u].get(v, 0) - w
        heap = [(len(row), p) for p, row in enumerate(rows) if p != ground]
        heapify(heap)
        # One (vertex, pivot, [(j, row_p[j], s, t, c)]) per elimination.
        self._steps = []
        while heap:
            degree, p = heappop(heap)
            row = rows[p]
            if row is None or degree != len(row):
                continue
            pivot = row.pop(p)
            if pivot <= 0:
                raise ValueError(
                    "grounded Laplacian is not positive definite: not every vertex reaches the ground"
                )
            rows[p], col = None, []
            for j, a in row.items():
                ajp = rows[j].pop(p)
                g = gcd(pivot, ajp)
                s, t = pivot // g, ajp // g
                rj = {k: s * x for k, x in rows[j].items()}
                for k, x in row.items():
                    rj[k] = rj.get(k, 0) - t * x
                c = gcd(*rj.values())
                rows[j] = {k: x // c for k, x in rj.items()} if c > 1 else rj
                col.append((j, a, s, t, c))
            for j in row:
                heappush(heap, (len(rows[j]), j))
            self._steps.append((p, pivot, col))
        self.vertex_count, self.ground = vertex_count, ground

    def solve_over(self, rhs: List[int], den: int) -> Tuple[List[int], int]:
        """(x, d): L x / d = rhs / den off the ground, x(ground) = 0; rhs is kept."""
        if len(rhs) != self.vertex_count:
            raise ValueError("one right-hand side entry per vertex required")
        b = list(rhs)
        for p, _, col in self._steps:
            for j, _, s, t, c in col:
                den = _put(b, den, j, s * b[j] - t * b[p], c)
        b[self.ground] = 0
        for p, pivot, col in reversed(self._steps):
            den = _put(b, den, p, b[p] - sum(a * b[j] for j, a, *_ in col), pivot)
        return [x * self._scale for x in b], den  # the factor is of scale * L

    def solve(self, rhs) -> List[Fraction]:
        """The x with L x = rhs off the ground and x(ground) = 0."""
        x, den = self.solve_over(*integers(rhs))
        return [Fraction(v, den) for v in x]


def solve_exact(vertex_count: int, weighted_edges, ground: int, rhs) -> List[Fraction]:
    """One-shot ExactLinearSolver(vertex_count, weighted_edges, ground).solve(rhs)."""
    return ExactLinearSolver(vertex_count, weighted_edges, ground).solve(rhs)
