"""Variational solver for MA(phi) = sum w_i delta_{x_i} on a Newton polytope.

The concave dual objective F(t) = E(envelope(t)) - sum w_i t_i has gradient
(cell masses - target weights), so maximizing it solves the equation: it is
semi-discrete optimal transport from the uniform measure on Delta.  Both
modes run one damped Newton loop on integers over common denominators, from
a start with no empty cell.  Each iterate and line-search trial is a `_State`:
the power diagram of the problem's `polyhedra.IntegerSites` at t, with masses
and wall weights over one denominator each.  The walls weigh the Laplacian
whose negative is the Hessian, so the Newton direction is one exact grounded
Laplace solve (`_State.direction`), which the loop steps along and
`newton_corrected` adds to a Solution.  The objective is read in closed form
off the moment sums the final masses took; Fractions and Polytopes are made
only for the Solution.  The geometry is exact; only the iterate is rounded:
to floats in float mode, to bounded denominators in rational mode, whose
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
from .polyhedra import Point, dot, sub
from .toric import NewtonPolytope, ToricPsh

_ZERO = Fraction(0)
_rational = lambda c: c if isinstance(c, Fraction) else Fraction(c)
_MAX_DENOMINATOR = 10**12  # keeps rational iterates small; far below float spacing


@dataclass(frozen=True)
class DiracProblem:
    """Target measure sum w_i delta_{x_i} with total mass vol(Delta).  Owns
    its rules: distinct sites, then, with the weights read only after them,
    one weight per site, positive weights and the mass balance.  `_integers`
    holds the sites with the weights as their values, `polyhedra.IntegerSites`."""

    delta: NewtonPolytope
    sites: Tuple[Point, ...]
    weights: Tuple[Fraction, ...]

    def __post_init__(self):
        sites = tuple([tuple([_rational(c) for c in x]) for x in self.sites])
        object.__setattr__(self, "sites", sites)
        if len(set(sites)) != len(sites):
            raise ValueError("sites must be distinct")
        for x in sites:
            if len(x) != self.delta.dim:
                raise ArityMismatch(f"site {x} vs dimension {self.delta.dim}")
        weights = tuple([_rational(w) for w in self.weights])
        object.__setattr__(self, "weights", weights)
        if len(sites) != len(weights):
            raise ArityMismatch("one weight per site required")
        object.__setattr__(self, "_integers", pg.integer_sites(zip(sites, weights)))
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        if sum(weights) != self.delta.volume:
            raise MassMismatch(f"total weight {sum(weights)} must equal vol(Delta) = {self.delta.volume}")

    def barycenter(self) -> Point:
        (xs, d, ws, wd), vol = self._integers, self.delta.volume  # the weights sum to vol(Delta)
        sums = [sum(w * x[k] for x, w in zip(xs, ws)) * vol.denominator for k in range(self.delta.dim)]
        return tuple([Fraction(s, d * wd * vol.numerator) for s in sums])

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
    """A solve's iterate t and the potential it gives.  The solution's measure
    is that potential's, `toric.ma_measure(potential)`: an atom at each site
    that keeps a cell, weighing the cell's volume."""

    problem: DiracProblem
    t: Tuple[Fraction, ...]
    potential: ToricPsh
    residual: Fraction
    iterations: int
    objective: Fraction
    trace: Tuple[IterationRecord, ...] = ()  # one record per iteration

    @property
    def energy(self) -> Fraction:
        """E(potential, problem.reference()), exact: the closed-form
        objective of `_solution` plus sum w_i t_i."""
        return self.objective + sum((w * ti for w, ti in zip(self.problem.weights, self.t)), _ZERO)


def dual_objective(p: DiracProblem, t: Sequence, mode: str = "rational"):
    """Value and gradient of F(t) = E(envelope(t)) - sum w_i t_i, on the
    solver's own state and `_solution` at t.

    The gradient is exactly (Laguerre masses - weights); pruned sites get
    gradient -w_i.  In rational mode the value is computed both through the
    mixed-measure energy and in `_solution`'s closed form, which must agree.
    """
    if mode not in ("rational", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(t) != len(p.sites):
        raise ArityMismatch(f"expected {len(p.sites)} potentials, got {len(t)}")
    s = _solution(p, state := _State(p, *linalg.integers(t)), [])
    grad = tuple(Fraction(g, state.den) for g in state.g)
    if mode == "rational":
        via_mixed = tc.energy_via_mixed(s.potential, p.reference())
        if via_mixed != s.energy:
            raise ConsistencyError(f"energy routes disagree: {via_mixed} vs {s.energy}")
        return s.objective, grad
    return float(s.objective), tuple(float(g) for g in grad)


def _solution(p: DiracProblem, s: "_State", trace) -> Solution:
    """The Solution at the state s, its potential built on the diagram's cells, and the
    objective sum_a w_a <x_a, c> - sum_a <x_a, int_{cell_a} m dm> + sum_a t_a (mass_a - w_a),
    c the centroid of Delta: the reference's u = <xbar, m> integrates to vol(Delta) <xbar, c>."""
    xs, d, _, _ = p._integers
    t, cells = tuple([Fraction(x, s.e) for x in s.t]), s.diagram.cells
    kept = sorted([a for a, cell in enumerate(cells) if cell is not None], key=xs.__getitem__)
    sites = pg.IntegerSites([xs[a] for a in kept], d, [s.t[a] for a in kept], s.e)
    phi = ToricPsh._from_cells(p.delta, sites, [cells[a] for a in kept])
    moments = pg.integral_over([cells[a].moment_sums for a in kept], p.delta.dim, [(*xs[a], 0) for a in kept], d)
    objective = p.delta.volume * dot(p.barycenter(), pg.centroid(p.delta.body)) - Fraction(*moments)
    objective += Fraction(sum(ti * g for ti, g in zip(s.t, s.g)), s.e * s.den)
    return Solution(p, t, phi, Fraction(max(map(abs, s.g)), s.den), len(trace), objective, tuple(trace))


def _solve_1d_exact(p: DiracProblem) -> Tuple[Fraction, ...]:
    """Closed-form 1-D solution: slopes of the potential jump by w_i at
    x_i, starting at the left endpoint of Delta."""
    order = sorted(range(len(p.sites)), key=p.sites.__getitem__)
    t, slope = {order[0]: _ZERO}, p.delta.body.vertices[0][0] + p.weights[order[0]]
    for prev, cur in zip(order, order[1:]):
        t[cur] = t[prev] + slope * (p.sites[cur][0] - p.sites[prev][0])
        slope += p.weights[cur]
    return tuple(t[i] for i in range(len(p.sites)))


class _State:
    """An iterate t / e, its power diagram, whose masses `power_diagram` certified to sum
    to vol(Delta), and grad = masses - weights = g / den, |grad|^2 = norm2 / den^2."""

    def __init__(self, p: DiracProblem, t: List[int], e: int):
        xs, d, ws, wd = p._integers
        self.t, self.e, self.diagram = t, e, pg.power_diagram(p.delta.body, pg.IntegerSites(xs, d, t, e))
        ms, md = self.diagram.integer_masses
        self.den = den = math.lcm(md, wd)
        self.g = [m * (den // md) - w * (den // wd) for m, w in zip(ms, ws)]
        self.norm2 = sum(x * x for x in self.g)

    def direction(self) -> Tuple[List[int], int]:
        """d / dd with L d = grad, L the Laplacian of the diagram's walls grounded at the
        last site; ValueError when a cell has no path of walls to that site."""
        (walls, wd), n = self.diagram.integer_walls, len(self.t)
        return linalg.ExactLinearSolver(n, walls, n - 1, wd).solve_over(self.g, self.den)


def newton_corrected(s: Solution) -> Tuple[Fraction, ...]:
    """t + d, d the Newton direction at the potential's values at the sites (a pruned
    site keeps no cell): the raw t of two converged solves may differ by the residual
    times L's inverse, which no fixed multiple of tol bounds."""
    p = s.problem
    d, dd = _State(p, *linalg.integers([s.potential.value(x) for x in p.sites])).direction()
    return tuple([t + Fraction(x, dd) for t, x in zip(s.t, d)])


def _start(p: DiracProblem) -> Tuple[List[int], int]:
    """The start t_i = q(x_i) - q(xbar), q(x) = <x, c> + h |x - c|^2 / 2, over one
    denominator: c is the centroid of Delta and h = 1 / 2^k the largest with every
    c + h (x_i - c) in Delta, h <= room = min (b - <a, c>) / <a, x_i - c> over the
    facets <a, m> <= b with <a, x_i - c> > 0.  The cells are then the Voronoi cells
    of those points in Delta, so none is empty.  With c, xbar, x_i over L as C, B, X_i
    and Delta's `integer_facets` (A, F), 1 / room = max <A, X_i - C> / (F L - <A, C>)
    and t_i = (2^(k+1) <X_i - B, C> + |X_i - C|^2 - |B - C|^2) / (2^(k+1) L^2)."""
    n, body = p.delta.dim, p.delta.body
    coords, big = linalg.integers([*pg.centroid(body), *p.barycenter(), *(c for x in p.sites for c in x)])
    c, b, xs = coords[:n], coords[n : 2 * n], [coords[i : i + n] for i in range(2 * n, len(coords), n)]
    top = 1  # ceil(1 / room), 1 when no site moves toward a facet
    for a0, a1, f in body.integer_facets:
        a = (a0, a1)[:n]
        gap = f * big - dot(a, c)
        top = max([top] + [-(-s // gap) for s in (dot(a, sub(x, c)) for x in xs) if s > 0])
    two, bc = 2 ** ((top - 1).bit_length() + 1), sub(b, c)  # 2^(k+1), h = 1 / 2^k
    return [two * dot(sub(x, b), c) + dot(sub(x, c), sub(x, c)) - dot(bc, bc) for x in xs], two * big * big


def _rounded(t: List[int], e: int, mode: str) -> Tuple[List[int], int]:
    """The iterate t / e rounded to floats or to denominators at most
    10^12, over one denominator.  Int true division is correctly rounded,
    so a float entry is exactly Fraction(float(Fraction(t_i, e)))."""
    if mode == "rational":
        return linalg.integers([Fraction(x, e).limit_denominator(_MAX_DENOMINATOR) for x in t])
    pairs = [(x / e).as_integer_ratio() for x in t]
    den = max(q for _, q in pairs)  # powers of two
    return [x * (den // q) for x, q in pairs], den


def solve(p: DiracProblem, config: SolverConfig = SolverConfig()) -> Solution:
    """Maximize the dual objective; returns a Solution whose Laguerre
    masses match the target weights within tol * vol(Delta).

    Both modes run the damped Newton of Kitagawa-Merigot-Thibert (JEMS
    2019; global convergence, quadratic near the solution) from `_start`,
    or from `init` moved toward it until no cell is empty; 1-D rational
    instances start from their closed-form solution.
    At each iterate, a `_State`, d is its `direction`.  A step is the first
    2^-k whose rounded iterate keeps every mass >= eps (half the smallest
    weight or starting mass) and cuts |grad|_2 by (1 - step / 2), both
    tested on cross-multiplied integers, so a step that rounds back to the
    same iterate never passes.  Rational mode, rounding to denominators at
    most 10^12, succeeds at its default tol 0 only on exact stationarity.
    The loop is monotone, so NotConverged carries the last iterate."""
    mode = config.mode
    if mode not in ("rational", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    default_tol = _ZERO if mode == "rational" else Fraction(1, 10**10)
    bound = Fraction(default_tol if config.tol is None else config.tol) * p.delta.volume

    if config.init is not None:
        if len(config.init) != len(p.sites):
            raise ArityMismatch("init vector has wrong length")
        s = _State(p, *_rounded(*linalg.integers(config.init), mode))
    elif mode == "rational" and p.delta.dim == 1:
        s = _State(p, *linalg.integers(_solve_1d_exact(p)))
    else:
        s = _State(p, *_rounded(*_start(p), mode))

    if min(s.diagram.integer_masses[0]) == 0:
        init, (start, es) = s, _rounded(*_start(p), mode)
        for k in range(10, -1, -1):  # (1 - 2^-k) init + 2^-k start
            mix = [((1 << k) - 1) * a * es + b * init.e for a, b in zip(init.t, start)]
            s = _State(p, *_rounded(mix, init.e * es << k, mode))
            if min(s.diagram.integer_masses[0]) > 0:
                break
    ms, md = s.diagram.integer_masses
    eps = min(min(p.weights), Fraction(min(ms), md)) / 2
    trace = []

    for _ in range(config.max_iter):
        if max(map(abs, s.g)) * bound.denominator <= bound.numerator * s.den:
            break
        try:
            d, dd = s.direction()
        except ValueError:  # a cell with no path of walls to the grounded site
            break
        for k in range(60):  # t + d / 2^k = (t dd 2^k + d e) / (e dd 2^k)
            new = _State(p, *_rounded([(ti * dd << k) + di * s.e for ti, di in zip(s.t, d)], s.e * dd << k, mode))
            ms, md = new.diagram.integer_masses
            decrease = new.norm2 * s.den**2 << 2 * k + 2 <= ((2 << k) - 1) ** 2 * s.norm2 * new.den**2
            if decrease and min(ms) * eps.denominator >= eps.numerator * md:
                break
        else:
            break
        s = new
        residual, norm = Fraction(max(map(abs, s.g)), s.den), math.sqrt(s.norm2 / s.den**2)
        trace.append(IterationRecord(residual, norm, Fraction(1, 1 << k), Fraction(min(ms), md), k + 1))

    solution = _solution(p, s, trace)
    if solution.residual <= bound:
        return solution
    raise NotConverged(solution, len(trace))


def normalize(s: Solution) -> Solution:
    """Shift t by a constant so the potential's maximum over the sites (hence
    over the hull of sites and atoms) is exactly 0.  The cells, hence the
    potential's measure, and the objective do not change; the energy moves
    with sum w_i t_i because the weights sum to vol(Delta).  phi(x_a) = t_a
    at a retained site."""
    shift = max(s.potential.value(x) for x in s.problem.sites)
    if shift == 0:
        return s
    return replace(s, t=tuple(ti - shift for ti in s.t), potential=s.potential.shift(-shift))

