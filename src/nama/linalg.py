"""Exact solves of grounded weighted graph Laplacians.

Every exact graph computation in nama is one linear system: L x = b,
where L is the Laplacian of a graph with positive edge weights and
x(ground) = 0.  The metric-graph solves of `curves` are such systems, and
so is the toric solver's Newton step, on the graph of walls between
Laguerre cells.  Dropping the ground row and column of a connected
graph's Laplacian leaves a symmetric positive definite matrix, so
Gaussian elimination meets a positive pivot in every vertex order and
needs no pivot search.  The order is minimum degree, ties broken by
vertex index: a tree then reduces leaf by leaf with no fill, and each
independent cycle adds little (George-Liu, Computer Solution of Large
Sparse Positive Definite Systems, 1981).  Factor and solves run on
plain Fractions held in one dict per row, so results are exact.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import List

_ZERO = Fraction(0)


class ExactLinearSolver:
    """Factor the grounded Laplacian of `weighted_edges` (u, v, weight)
    once, then solve many right-hand sides.

    Parallel edges add up.  Raises ValueError when a pivot is not
    positive: the grounded matrix is then not positive definite, as when
    the edges do not connect every vertex to `ground`.
    """

    def __init__(self, vertex_count: int, weighted_edges, ground: int):
        if not 0 <= ground < vertex_count:
            raise ValueError(f"ground {ground} outside 0..{vertex_count - 1}")
        diag = [_ZERO] * vertex_count
        rows = [{} for _ in range(vertex_count)]
        for u, v, w in weighted_edges:
            w = Fraction(w)
            diag[u] += w
            diag[v] += w
            if ground not in (u, v):
                rows[u][v] = rows[v][u] = rows[u].get(v, _ZERO) - w
        heap = [(len(row), p) for p, row in enumerate(rows) if p != ground]
        heapify(heap)
        done = [False] * vertex_count
        # One (vertex, pivot, [(neighbour, entry / pivot)]) per elimination.
        self._steps = []
        while heap:
            degree, p = heappop(heap)
            row = rows[p]
            if done[p] or degree != len(row):
                continue
            pivot = diag[p]
            if pivot <= 0:
                raise ValueError(
                    "grounded Laplacian is not positive definite: not every vertex reaches the ground"
                )
            done[p] = True
            col = [(j, a / pivot) for j, a in row.items()]
            for i, (j, lj) in enumerate(col):
                rj = rows[j]
                del rj[p]
                diag[j] -= row[j] * lj
                for k, lk in col[i + 1:]:
                    rj[k] = rows[k][j] = rj.get(k, _ZERO) - row[j] * lk
            for j, _ in col:
                heappush(heap, (len(rows[j]), j))
            self._steps.append((p, pivot, col))
        self.vertex_count = vertex_count

    def solve(self, rhs) -> List[Fraction]:
        """The x with L x = rhs off the ground and x(ground) = 0."""
        if len(rhs) != self.vertex_count:
            raise ValueError("one right-hand side entry per vertex required")
        b = [Fraction(x) for x in rhs]
        for p, _, col in self._steps:
            bp = b[p]
            if bp:
                for j, lj in col:
                    b[j] -= lj * bp
        x = [_ZERO] * self.vertex_count
        for p, pivot, col in reversed(self._steps):
            x[p] = b[p] / pivot - sum((lj * x[j] for j, lj in col), _ZERO)
        return x


def solve_exact(vertex_count: int, weighted_edges, ground: int, rhs) -> List[Fraction]:
    """One-shot ExactLinearSolver(vertex_count, weighted_edges, ground).solve(rhs)."""
    return ExactLinearSolver(vertex_count, weighted_edges, ground).solve(rhs)
