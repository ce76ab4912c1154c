"""Variational solver for MA(phi) = sum w_i delta_{x_i} on a Newton polytope.

The concave dual objective F(t) = E(envelope(t)) - sum w_i t_i has gradient
(cell masses - target weights), so maximizing it solves the equation: it is
semi-discrete optimal transport from the uniform measure on Delta.  Both
modes run one damped Newton loop from a start with no empty cell.  Each
iterate and line-search trial reads the masses and walls of one power
diagram (`polyhedra.laguerre_cells`), one Fraction per cell mass and per
wall weight of the Laplacian whose negative is the Hessian, so each
Newton direction is one exact grounded Laplace solve (`linalg.solve_exact`).
Polytopes are built once, for the returned potential.  The geometry is
exact; only the iterate is rounded: to floats in float mode, to bounded
denominators in rational mode, whose residual is then certified exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import linalg
from . import polyhedra as pg
from . import toric as tc
from .errors import ArityMismatch, ConsistencyError, MassMismatch, NotConverged
from .polyhedra import Point, dot, sub
from .toric import AtomicMeasure, NewtonPolytope, ToricPsh

_ZERO = Fraction(0)
_MAX_DENOMINATOR = 10**12  # keeps rational iterates small; far below float spacing


@dataclass(frozen=True)
class DiracProblem:
    """Target measure sum w_i delta_{x_i} with total mass vol(Delta)."""

    delta: NewtonPolytope
    sites: Tuple[Point, ...]
    weights: Tuple[Fraction, ...]

    def __post_init__(self):
        sites = tuple(tuple(Fraction(c) for c in x) for x in self.sites)
        weights = tuple(Fraction(w) for w in self.weights)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "weights", weights)
        if len(sites) != len(weights):
            raise ArityMismatch("one weight per site required")
        if not sites:
            raise ArityMismatch("need at least one site")
        if len(set(sites)) != len(sites):
            raise ValueError("sites must be distinct")
        for x in sites:
            if len(x) != self.delta.dim:
                raise ArityMismatch(f"site {x} vs dimension {self.delta.dim}")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        if sum(weights) != self.delta.volume:
            raise MassMismatch(f"total weight {sum(weights)} differs from vol(Delta) = {self.delta.volume}")

    def barycenter(self) -> Point:
        n = self.delta.dim
        total = sum(self.weights)
        return tuple(
            sum((w * x[k] for x, w in zip(self.sites, self.weights)), _ZERO) / total
            for k in range(n)
        )

    def reference(self) -> ToricPsh:
        """Canonical reference potential: the envelope pinned at the
        weighted barycenter (the exact solution of the one-site problem)."""
        return tc.envelope(self.delta, [(self.barycenter(), _ZERO)])


@dataclass(frozen=True)
class SolverConfig:
    tol: Optional[Fraction] = None  # None: 0 in rational mode, 1e-10 in float
    max_iter: int = 10_000
    mode: str = "float"
    init: Optional[Tuple[Fraction, ...]] = None


@dataclass(frozen=True)
class IterationRecord:
    """One accepted solver step, described at the iterate it reached."""

    residual: Fraction  # max |mass_i - w_i|
    grad_norm: float  # Euclidean norm of (masses - weights)
    step: Fraction  # accepted step length 2^-k
    min_mass: Fraction  # smallest cell mass
    trials: int  # states evaluated by the line search


@dataclass(frozen=True)
class Solution:
    problem: DiracProblem
    t: Tuple[Fraction, ...]
    potential: ToricPsh
    masses: AtomicMeasure
    residual: Fraction
    iterations: int
    objective: Fraction
    trace: Tuple[IterationRecord, ...] = ()  # one record per iteration

    @property
    def energy(self) -> Fraction:
        """E(potential, problem.reference()), exact: the objective is that
        energy minus sum w_i t_i."""
        return self.objective + sum((w * ti for w, ti in zip(self.problem.weights, self.t)), _ZERO)

    def mass_vector(self) -> Tuple[Fraction, ...]:
        return tuple(self.masses.weight_at(x) for x in self.problem.sites)


def dual_objective(p: DiracProblem, t: Sequence, mode: str = "rational"):
    """Value and gradient of F(t) = E(envelope(t)) - sum w_i t_i, on the
    solver's own `_state` and `_solution` at t.

    The gradient is exactly (Laguerre masses - weights); pruned sites get
    gradient -w_i.  In rational mode the value is computed both through
    the mixed-measure energy and through the Legendre integral, and the
    two must agree exactly.
    """
    if len(t) != len(p.sites):
        raise ArityMismatch(f"expected {len(p.sites)} potentials, got {len(t)}")
    t = tuple(Fraction(x) for x in t)
    diagram, grad = _state(p, t)
    s = _solution(p, t, [], diagram, grad)
    if mode == "rational":
        via_mixed = tc.energy_via_mixed(s.potential, p.reference())
        if via_mixed != s.energy:
            raise ConsistencyError(f"energy routes disagree: {via_mixed} vs {s.energy}")
        return s.objective, tuple(grad)
    return float(s.objective), tuple(float(g) for g in grad)


def _solution(p: DiracProblem, t, trace, diagram, grad) -> Solution:
    """The Solution at t from its `_state`: the potential's cells are the
    diagram's cells, the measure its masses."""
    pairs = [((x, ti), cell) for x, ti, cell in zip(p.sites, t, diagram.cells) if cell is not None]
    phi = ToricPsh._from_cells(p.delta, sorted(pairs, key=lambda pair: pair[0][0]))
    return Solution(
        problem=p,
        t=tuple(t),
        potential=phi,
        masses=AtomicMeasure.from_items(zip(p.sites, diagram.masses)),
        residual=max(abs(g) for g in grad),
        iterations=len(trace),
        objective=tc.legendre_energy(phi, p.reference()) - sum(w * ti for w, ti in zip(p.weights, t)),
        trace=tuple(trace),
    )


def _solve_1d_exact(p: DiracProblem) -> Tuple[Fraction, ...]:
    """Closed-form 1-D solution: slopes of the potential jump by w_i at
    x_i, starting at the left endpoint of Delta."""
    alpha = p.delta.body.vertices[0][0]
    order = sorted(range(len(p.sites)), key=lambda i: p.sites[i])
    t = [None] * len(p.sites)
    t[order[0]] = _ZERO
    slope = alpha + p.weights[order[0]]
    for prev, cur in zip(order, order[1:]):
        t[cur] = t[prev] + slope * (p.sites[cur][0] - p.sites[prev][0])
        slope += p.weights[cur]
    return tuple(t)


def _state(p: DiracProblem, t) -> Tuple[pg.PowerDiagram, List[Fraction]]:
    """The power diagram at t, its masses certified to sum to vol(Delta),
    and grad = masses - weights."""
    diagram = pg.laguerre_cells(p.delta.body, p.sites, t)
    if sum(diagram.masses) != p.delta.volume:
        raise ConsistencyError(f"cells cover mass {sum(diagram.masses)}, expected {p.delta.volume}")
    return diagram, [h - w for h, w in zip(diagram.masses, p.weights)]


def start_potentials(p: DiracProblem) -> Tuple[Fraction, ...]:
    """t_i = q(x_i) - q(xbar), q(x) = <x, c> + h |x - c|^2 / 2 with c the
    centroid of Delta and h = 1 / 2^k the largest with every c + h (x_i - c)
    in Delta: h <= room = min (b - <a, c>) / <a, x_i - c> over facets
    <a, m> <= b with <a, x_i - c> > 0.  The cells are then the Voronoi cells
    of those points in Delta, so none is empty."""
    body = p.delta.body
    c = pg.centroid(body)
    slopes = [(b - dot(a, c), dot(a, sub(x, c))) for a, b in body.facets for x in p.sites]
    room = min((gap / s for gap, s in slopes if s > 0), default=Fraction(1))
    h = Fraction(1, 2 ** (math.ceil(1 / room) - 1).bit_length())

    def q(x):
        y = sub(x, c)
        return dot(x, c) + h * dot(y, y) / 2

    q_bar = q(p.barycenter())
    return tuple(q(x) - q_bar for x in p.sites)


def _rounder(mode: str):
    """How an iterate is rounded: to floats, or to bounded denominators."""
    if mode == "float":
        return lambda t: [Fraction(float(x)) for x in t]
    return lambda t: [Fraction(x).limit_denominator(_MAX_DENOMINATOR) for x in t]


def solve(p: DiracProblem, config: SolverConfig = SolverConfig()) -> Solution:
    """Maximize the dual objective; returns a Solution whose Laguerre
    masses match the target weights within tol * vol(Delta).

    Both modes run the damped Newton of Kitagawa-Merigot-Thibert (JEMS
    2019; global convergence, quadratic near the solution) from
    `start_potentials`, or from `init` moved toward it until no cell is
    empty; 1-D rational instances start from their closed-form solution.
    Each iterate is one `_state` call on integer loops, no Polytope.  The
    direction d solves L d = masses - weights, L the state's Laplacian
    grounded at the last site.  A step is the first 2^-k whose
    rounded iterate keeps every mass >= eps (half the smallest weight or
    starting mass) and cuts |grad|_2 by (1 - step / 2), tested exactly on
    squared norms, so a step that rounds back to the same iterate never
    passes.  Rational mode, rounding to denominators at most 10^12,
    succeeds at its default tol 0 only on exact stationarity.  The loop is
    monotone, so NotConverged carries the last iterate; Polytopes are
    built for the Solution's potential alone, from its state.
    """
    mode = config.mode
    if mode not in ("rational", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    default_tol = _ZERO if mode == "rational" else Fraction(1, 10**10)
    tol = Fraction(default_tol if config.tol is None else config.tol)
    vol = p.delta.volume
    n = len(p.sites)
    rnd = _rounder(mode)

    if config.init is not None:
        if len(config.init) != n:
            raise ArityMismatch("init vector has wrong length")
        t = rnd(config.init)
    elif mode == "rational" and p.delta.dim == 1:
        t = list(_solve_1d_exact(p))
    else:
        t = rnd(start_potentials(p))

    diagram, grad = _state(p, t)
    if min(diagram.masses) == 0:
        init, start = t, rnd(start_potentials(p))
        for k in range(10, -1, -1):
            s = Fraction(1, 2**k)
            t = rnd((1 - s) * a + s * b for a, b in zip(init, start))
            diagram, grad = _state(p, t)
            if min(diagram.masses) > 0:
                break
    eps = min(min(p.weights), min(diagram.masses)) / 2
    norm2 = sum(g * g for g in grad)
    trace = []

    for _ in range(config.max_iter):
        if max(abs(g) for g in grad) <= tol * vol:
            return _solution(p, t, trace, diagram, grad)
        try:
            d = linalg.solve_exact(n, diagram.walls, n - 1, grad)
        except ValueError:  # a cell with no path of walls to the grounded site
            break
        step = Fraction(1)
        for trials in range(1, 61):
            trial = rnd(ti + step * di for ti, di in zip(t, d))
            new, new_grad = _state(p, trial)
            norm2_trial = sum(g * g for g in new_grad)
            if min(new.masses) >= eps and norm2_trial <= (1 - step / 2) ** 2 * norm2:
                break
            step /= 2
        else:
            break
        t, diagram, grad, norm2 = trial, new, new_grad, norm2_trial
        trace.append(IterationRecord(max(map(abs, grad)), math.sqrt(norm2), step, min(diagram.masses), trials))

    solution = _solution(p, t, trace, diagram, grad)
    if solution.residual <= tol * vol:
        return solution
    raise NotConverged(solution, len(trace))


def normalize(s: Solution) -> Solution:
    """Shift t by a constant so the potential's maximum over the sites
    (hence over the hull of sites and atoms) is exactly 0.  The cells,
    masses and objective do not change; the energy moves with sum w_i t_i
    because the weights sum to vol(Delta).  phi(x_a) = t_a at a retained
    site, so only pruned sites are evaluated."""
    t = dict(s.potential.generators)
    shift = max(t[x] if x in t else s.potential.value(x) for x in s.problem.sites)
    if shift == 0:
        return s
    return replace(s, t=tuple(ti - shift for ti in s.t), potential=s.potential.shift(-shift))


def cl_measure(f: ToricPsh) -> AtomicMeasure:
    """Chambert-Loir normalization: every MA weight times n!, so the
    total mass is n! vol(Delta) = deg L."""
    return tc.ma_measure(f).scaled(math.factorial(f.delta.dim))
