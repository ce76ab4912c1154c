"""Variational solver for MA(phi) = sum w_i delta_{x_i} on a Newton polytope.

The concave dual objective F(t) = E(envelope(t)) - sum w_i t_i has gradient
(cell masses - target weights), so maximizing it solves the equation: it is
semi-discrete optimal transport from the uniform measure on Delta.  Both
modes run one damped Newton loop from a start with no empty cell.  Each
iterate and line-search trial is one `polyhedra.laguerre_cells` call: the
cell volumes are the masses and its walls the edges of the Laplacian whose
negative is the Hessian, with exact rational weights, so each Newton
direction is one exact grounded Laplace solve (`linalg.solve_exact`).  The
potential and its measure are built once, for the returned solution.  The
cell geometry at each iterate is exact; only the iterate is rounded: to
floats in float mode, to bounded denominators in rational mode, whose
residual is then certified exactly.
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
from .polyhedra import Point, cross, dot, sub
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
            raise MassMismatch(
                f"total weight {sum(weights)} differs from vol(Delta) = {self.delta.volume}"
            )

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
    damping: Fraction = Fraction(1, 2)
    mode: str = "float"
    init: Optional[Tuple[Fraction, ...]] = None


@dataclass(frozen=True)
class IterationRecord:
    """One accepted solver step, described at the iterate it reached."""

    residual: Fraction  # max |mass_i - w_i|
    grad_norm: float  # Euclidean norm of (masses - weights)
    step: Fraction  # accepted step length damping^k
    min_mass: Fraction  # smallest cell mass
    trials: int  # envelopes evaluated by the line search


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


def _envelope_at(p: DiracProblem, t) -> ToricPsh:
    return tc.envelope(p.delta, list(zip(p.sites, t)))


def _value_legendre(p: DiracProblem, phi: ToricPsh, t, ref: ToricPsh) -> Fraction:
    return tc.legendre_energy(phi, ref) - sum(
        (w * Fraction(ti) for w, ti in zip(p.weights, t)), _ZERO
    )


def dual_objective(p: DiracProblem, t: Sequence, mode: str = "rational"):
    """Value and gradient of F(t) = E(envelope(t)) - sum w_i t_i.

    The gradient is exactly (Laguerre masses - weights); pruned sites get
    gradient -w_i.  In rational mode the value is computed both through
    the mixed-measure energy and through the Legendre integral, and the
    two must agree exactly.
    """
    if len(t) != len(p.sites):
        raise ArityMismatch(f"expected {len(p.sites)} potentials, got {len(t)}")
    t = tuple(Fraction(x) for x in t)
    phi = _envelope_at(p, t)
    ref = p.reference()
    mu = tc.ma_measure(phi)
    grad = tuple(mu.weight_at(x) - w for x, w in zip(p.sites, p.weights))
    value = _value_legendre(p, phi, t, ref)
    if mode == "rational":
        via_mixed = tc.energy_via_mixed(phi, ref) - sum(
            (w * ti for w, ti in zip(p.weights, t)), _ZERO
        )
        if via_mixed != value:
            raise ConsistencyError(f"energy routes disagree: {via_mixed} vs {value}")
        return value, grad
    return float(value), tuple(float(g) for g in grad)


def _solution(p: DiracProblem, t, trace) -> Solution:
    """The Solution at t: its potential and MA measure are built here."""
    phi = _envelope_at(p, t)
    mu = tc.ma_measure(phi)
    residual = max(abs(mu.weight_at(x) - w) for x, w in zip(p.sites, p.weights))
    return Solution(
        problem=p,
        t=tuple(t),
        potential=phi,
        masses=mu,
        residual=residual,
        iterations=len(trace),
        objective=_value_legendre(p, phi, t, p.reference()),
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
        gap = p.sites[cur][0] - p.sites[prev][0]
        t[cur] = t[prev] + slope * gap
        slope += p.weights[cur]
    return tuple(t)


def _state(p: DiracProblem, t):
    """One `laguerre_cells` call at t: the cell masses in site order (0 for
    a missing cell), certified to sum to vol(Delta), the gradient masses -
    weights, and the walls between the cells."""
    cells, walls = pg.laguerre_cells(p.delta.body, p.sites, t)
    masses = [_ZERO if cell is None else pg.volume(cell) for cell in cells]
    if sum(masses) != p.delta.volume:
        raise ConsistencyError(f"cells cover mass {sum(masses)}, expected {p.delta.volume}")
    return masses, [h - w for h, w in zip(masses, p.weights)], walls


def _conductances(p: DiracProblem, walls) -> List[Tuple[int, int, Fraction]]:
    """Weighted edges (i, j, w) on site indices of the Laplacian whose
    negative is d(masses)/dt, one per wall (i, j, v_0, v_1) of
    `_state`: w = |wall| |x_i - x_j| / |x_i - x_j|^2.  The wall is
    perpendicular to x_i - x_j, so |wall| |x_i - x_j| =
    |cross(x_i - x_j, v_1 - v_0)| in 2-D and |x_i - x_j| in 1-D, and w is
    exact."""
    edges = []
    for i, j, v0, v1 in walls:
        normal = sub(p.sites[i], p.sites[j])
        scaled = abs(normal[0]) if len(normal) == 1 else abs(cross(normal, sub(v1, v0)))
        edges.append((i, j, scaled / dot(normal, normal)))
    return edges


def start_potentials(p: DiracProblem) -> Tuple[Fraction, ...]:
    """t_i = q(x_i) - q(xbar), q(x) = <x, c> + h |x - c|^2 / 2 with c the
    centroid of Delta, halving h from 1 until every c + h (x_i - c) lies in
    Delta.  The cells are then the Voronoi cells of those points in Delta,
    so none is empty."""
    body = p.delta.body
    c = pg.centroid(body)
    h = Fraction(1)
    while not all(body.contains(tuple(ck + h * (xk - ck) for xk, ck in zip(x, c))) for x in p.sites):
        h /= 2

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
    Each iterate is one `_state` call: masses and walls, no potential.
    The direction d solves L d = masses - weights, L the Laplacian of
    `_conductances` grounded at the last site.  A step is the first
    damping^k whose rounded iterate keeps every mass >= eps (half the
    smallest weight or starting mass) and cuts |grad|_2 by (1 - step / 2),
    tested exactly on squared norms, so a step that rounds back to the
    same iterate never passes.  Rational mode, rounding to denominators at
    most 10^12, succeeds at its default tol 0 only on exact stationarity.
    The loop is monotone, so NotConverged carries the last iterate; the
    potential and measure of the Solution are built for it alone.
    """
    mode = config.mode
    if mode not in ("rational", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    tol = config.tol
    if tol is None:
        tol = _ZERO if mode == "rational" else Fraction(1, 10**10)
    tol = Fraction(tol)
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

    masses, grad, walls = _state(p, t)
    if min(masses) == 0:
        init, start = t, rnd(start_potentials(p))
        for k in range(10, -1, -1):
            s = Fraction(1, 2**k)
            t = rnd((1 - s) * a + s * b for a, b in zip(init, start))
            masses, grad, walls = _state(p, t)
            if min(masses) > 0:
                break
    eps = min(min(p.weights), min(masses)) / 2
    norm2 = sum(g * g for g in grad)
    trace = []

    for _ in range(config.max_iter):
        if max(abs(g) for g in grad) <= tol * vol:
            return _solution(p, t, trace)
        try:
            d = linalg.solve_exact(n, _conductances(p, walls), n - 1, grad)
        except ValueError:  # a cell with no path of walls to the grounded site
            break
        step = Fraction(1)
        for trials in range(1, 61):
            trial = rnd(ti + step * di for ti, di in zip(t, d))
            masses2, grad2, walls2 = _state(p, trial)
            norm2_trial = sum(g * g for g in grad2)
            if min(masses2) >= eps and norm2_trial <= (1 - step / 2) ** 2 * norm2:
                break
            step *= config.damping
        else:
            break
        t, masses, walls, grad, norm2 = trial, masses2, walls2, grad2, norm2_trial
        residual = max(abs(g) for g in grad)
        trace.append(IterationRecord(residual, math.sqrt(norm2), step, min(masses), trials))

    solution = _solution(p, t, trace)
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
    t = tuple(ti - shift for ti in s.t)
    return replace(s, t=t, potential=s.potential.shift(-shift))


def cl_measure(f: ToricPsh) -> AtomicMeasure:
    """Chambert-Loir normalization: every MA weight times n!, so the
    total mass is n! vol(Delta) = deg L."""
    n = f.delta.dim
    return tc.ma_measure(f).scaled(math.factorial(n))
