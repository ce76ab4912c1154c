"""Toric potentials: convex piecewise-affine functions with slopes in a
Newton polytope, their envelopes, Monge-Ampere measures and energy.

The canonical representation is dual: a potential is stored through its
envelope generators (site, value), so that the dual function on the
polytope is u(m) = max_a(<x_a, m> - t_a) and the potential itself is
f(y) = sup_{m in Delta}(<m, y> - u(m)).  Monge-Ampere masses are then
exact cell volumes of the induced subdivision of Delta, and envelopes are
closure operations on generator lists.  All arithmetic is rational;
integers carry it where it is hot.  A potential keeps its generators and
the table of its pieces on integers, so `value` is one integer max; sums,
maxima and lattice envelopes take theirs from the integer lower hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from . import polyhedra as pg
from .errors import (
    ConsistencyError,
    DegenerateSpan,
    DeltaMismatch,
    DimensionMismatch,
    EmptyInput,
    EmptyLattice,
    NotDominated,
    WrongArity,
)
from .linalg import integers
from .polyhedra import Point, Polytope, sub

_ZERO = Fraction(0)


class NewtonPolytope:
    """A full-dimensional rational polytope carrying the reference class.

    Its volume, the total Monge-Ampere mass of every potential below, and g_Delta are computed once.
    """

    def __init__(self, body: Polytope):
        if not body.is_full_dimensional:
            raise EmptyInput("a Newton polytope must be full-dimensional")
        self.body = body

    @cached_property
    def volume(self) -> Fraction:
        return pg.volume(self.body)

    @cached_property
    def reference(self) -> "ToricPsh":
        """g_Delta: the generator (0, 0), whose cell is all of Delta."""
        return ToricPsh._from_cells(self, pg.IntegerSites([(0, 0)], 1, [0], 1), [self.body])

    @property
    def dim(self) -> int:
        return self.body.dim

    def __eq__(self, other):
        return isinstance(other, NewtonPolytope) and self.body == other.body

    def __hash__(self):
        return hash(self.body)

    def __repr__(self):
        return f"NewtonPolytope({list(self.body.vertices)})"


def newton_polytope(vertices, dim: Optional[int] = None) -> NewtonPolytope:
    return NewtonPolytope(pg.hull(vertices, dim))


def support_value(delta: NewtonPolytope, y: Point) -> Fraction:
    """Value of the support function g_Delta(y) = max_{m in Delta} <m, y>."""
    if len(y) != delta.dim:
        raise DimensionMismatch(f"direction {y} vs dimension {delta.dim}")
    return pg.support_value(delta.body, tuple(Fraction(c) for c in y))


def _dual_forms(gens: pg.IntegerSites, d: int) -> Tuple[List[Tuple[int, int, int]], int]:
    """The affine functions <x_a, m> - t_a of generators (x_a, t_a) at
    points m = K / d on integers: forms (A, B, C) and a denominator E, a
    multiple of d, with <x_a, m> - t_a = (A K_0 + B K_1 - C) / E."""
    xs, dx, ts, dt = gens
    return [(dt * x, dt * y, d * dx * t) for (x, y), t in zip(xs, ts)], d * dx * dt


def _lowest(sites: pg.IntegerSites) -> pg.IntegerSites:
    """The sites and the values each over their least denominator, as
    `integer_sites` gives them."""
    xs, d, ts, e = sites
    g, h = gcd(d, *[c for x in xs for c in x]), gcd(e, *ts)
    if g == h == 1:
        return sites
    return pg.IntegerSites([(x // g, y // g) for x, y in xs], d // g, [t // h for t in ts], e // h)


def _common_tables(f: "ToricPsh", g: "ToricPsh"):
    """The piece rows of f and of g over one common denominator D."""
    (df, rf), (dg, rg) = f.table, g.table
    den = lcm(df, dg)
    scale = lambda rows, s: [(a * s, b * s, c * s) for a, b, c in rows]
    return den, scale(rf, den // df), scale(rg, den // dg)


class ToricPsh:
    """A semipositive toric potential in canonical envelope form.

    Construction canonicalizes: the generators are sorted, and those
    without a full-dimensional cell in Delta are pruned (they carry no mass
    and do not change the function), as are the copies of a repeated site
    that `power_diagram` passes over for its lowest value.  After that,
    f(x_a) = t_a holds for every generator.  The generators are kept once,
    as `integer_generators`, sites and values each in lowest terms; their
    Fraction view `generators`, the table and the MA measure are made on
    first read.
    """

    __slots__ = ("delta", "integer_generators", "cells", "_generators", "_table", "_measure")

    def __init__(self, delta: NewtonPolytope, generators):
        n = delta.dim
        xs, d, ts, e = pg.integer_sites(generators, n)
        if not ts:
            raise EmptyInput("a potential needs at least one generator")
        gens = sorted(zip(xs, ts))
        cells = pg.power_diagram(delta.body, pg.IntegerSites([x for x, _ in gens], d, [t for _, t in gens], e)).cells
        kept = [(x, t, cell) for (x, t), cell in zip(gens, cells) if cell is not None]
        self.delta, self._generators, self._table, self._measure = delta, None, None, None
        self.integer_generators = _lowest(pg.IntegerSites([x for x, _, _ in kept], d, [t for _, t, _ in kept], e))
        self.cells = tuple([cell for _, _, cell in kept])

    @classmethod
    def _from_cells(cls, delta: NewtonPolytope, sites: pg.IntegerSites, cells) -> "ToricPsh":
        """A potential from its generators, sorted by site, and the cells
        known to be their Laguerre cells; nothing is clipped."""
        out = object.__new__(cls)
        out.delta, out.integer_generators, out.cells = delta, _lowest(sites), tuple(cells)
        out._generators, out._table, out._measure = None, None, None
        return out

    @property
    def generators(self) -> Tuple[Tuple[Point, Fraction], ...]:
        """The Fraction view of `integer_generators`: (site, value) pairs."""
        if self._generators is None:
            (xs, d, ts, e), n = self.integer_generators, self.delta.dim
            self._generators = tuple([(tuple([Fraction(c, d) for c in x[:n]]), Fraction(t, e)) for x, t in zip(xs, ts)])
        return self._generators

    @property
    def sites(self) -> Tuple[Point, ...]:
        return tuple(x for x, _ in self.generators)

    @property
    def table(self) -> Tuple[int, List[Tuple[int, int, int]]]:
        """The pieces on integers, built on first read: (D, sorted rows
        (V_0, V_1, U)), a slope V / D (V_1 = 0 in 1-D) and its dual value
        u = U / D, read off any generator (x, t) whose cell has the slope.
        The slopes are the cells' loop points over the lcm of their W."""
        if self._table is None:
            dv = lcm(*(w for cell in self.cells for _, _, w in cell.loop))
            forms, e = _dual_forms(self.integer_generators, dv)
            cells = zip(forms, self.cells)
            pts = [(g, x * (dv // w), y * (dv // w)) for g, cell in cells for x, y, w in cell.loop]
            u = {(x, y): a * x + b * y - c for (a, b, c), x, y in pts}
            s = e // dv
            self._table = e, [(x * s, y * s, h) for (x, y), h in sorted(u.items())]
        return self._table

    @property
    def pieces(self) -> Tuple[Tuple[Point, Fraction], ...]:
        """Affine pieces of f as (slope, dual value at the slope).

        The slopes are exactly the vertices of the regular subdivision of
        Delta induced by lifting m to u(m), i.e. all cell vertices.
        """
        (den, rows), n = self.table, self.delta.dim
        return tuple((tuple(Fraction(c, den) for c in r[:n]), Fraction(r[2], den)) for r in rows)

    def value(self, y: Point) -> Fraction:
        """f(y) = sup_{m in Delta}(<m, y> - u(m)), exact: with y = Y / D_y,
        one integer max of V_0 Y_0 + V_1 Y_1 - U D_y over the table rows."""
        if len(y) != self.delta.dim:
            y = tuple(Fraction(c) for c in y)
            raise DimensionMismatch(f"point {y} vs dimension {self.delta.dim}")
        (y0, y1), dy = integers(pg._planar(y))
        den, rows = self.table
        return Fraction(max(a * y0 + b * y1 - c * dy for a, b, c in rows), den * dy)

    def shift(self, c) -> "ToricPsh":
        """f + c, c = p / q: the values t_a + c over e q.  A constant added
        to every value moves no wall, so the cells are kept, not rebuilt."""
        (xs, d, ts, e), ((p,), q) = self.integer_generators, integers([c])
        return ToricPsh._from_cells(self.delta, pg.IntegerSites(xs, d, [t * q + p * e for t in ts], e * q), self.cells)

    def subdifferential(self, y: Point) -> Polytope:
        """The polytope of maximizing slopes at y (a cell of the dual
        subdivision; full-dimensional exactly at the MA atoms)."""
        fy = self.value(y)
        halfspaces = [(sub(x, y), t - fy) for x, t in self.generators]
        return pg.clip(self.delta.body, halfspaces)

    def __eq__(self, other):
        return (
            isinstance(other, ToricPsh)
            and self.delta == other.delta
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.delta, self.generators))

    def __repr__(self):
        return f"ToricPsh(delta={self.delta!r}, generators={list(self.generators)})"


def envelope(delta: NewtonPolytope, constraints) -> ToricPsh:
    """Largest convex function with slopes in Delta and f(x_a) <= t_a.

    A repeated site counts at its lowest value.  The result interpolates:
    f(x_a) = t_a for every retained generator.
    """
    return ToricPsh(delta, constraints)


def g_delta(delta: NewtonPolytope) -> ToricPsh:
    """The reference potential, the support function of Delta, built once per polytope."""
    return delta.reference


class TestFunction:
    """A finite minimum of toric potentials; the computable dense class of
    continuous functions used for envelope and orthogonality checks."""

    __slots__ = ("delta", "branches")

    def __init__(self, branches: Sequence[ToricPsh]):
        branches = tuple(branches)
        if not branches:
            raise EmptyInput("a test function needs at least one branch")
        delta = branches[0].delta
        for b in branches[1:]:
            if b.delta != delta:
                raise DeltaMismatch("test function branches over different polytopes")
        self.delta = delta
        self.branches = branches

    def value(self, y: Point) -> Fraction:
        return min(b.value(y) for b in self.branches)

    def shift(self, c) -> "TestFunction":
        return TestFunction([b.shift(c) for b in self.branches])

    def generator_sites(self) -> Tuple[Point, ...]:
        out = []
        for b in self.branches:
            out.extend(b.sites)
        return tuple(sorted(set(out)))

    def __eq__(self, other):
        return isinstance(other, TestFunction) and self.branches == other.branches

    def __hash__(self):
        return hash(self.branches)


def psh_envelope(f: TestFunction) -> ToricPsh:
    """Largest potential below f: the envelope over the union of all
    branch generators (conjugating a min gives the max of the duals)."""
    constraints = []
    for b in f.branches:
        constraints.extend(b.generators)
    return envelope(f.delta, constraints)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many distinct rational points with positive weights."""

    atoms: Tuple[Tuple[Point, Fraction], ...]

    @staticmethod
    def from_items(items) -> "AtomicMeasure":
        merged: Dict[Point, Fraction] = {}
        for p, w in items:
            p = tuple(Fraction(c) for c in p)
            merged[p] = merged.get(p, _ZERO) + Fraction(w)
        atoms = tuple(sorted((p, w) for p, w in merged.items() if w != 0))
        for _, w in atoms:
            if w < 0:
                raise ValueError("atomic measures here are positive")
        return AtomicMeasure(atoms)

    @cached_property
    def total_mass(self) -> Fraction:
        return sum((w for _, w in self.atoms), _ZERO)

    @cached_property
    def _weights(self) -> Dict[Point, Fraction]:
        return dict(self.atoms)

    def weight_at(self, p: Point) -> Fraction:
        return self._weights.get(tuple(p), _ZERO)

    def points(self) -> Tuple[Point, ...]:
        return tuple(p for p, _ in self.atoms)


def ma_measure(f: ToricPsh) -> AtomicMeasure:
    """Monge-Ampere measure: an atom at each generator site whose weight
    is the exact volume of its cell in Delta.  Total mass = vol(Delta),
    certified by `polyhedra.certified_volumes` on the cells' kept moment sums
    when it is first computed, the check every power diagram passes; the
    potential keeps it.  A potential's sites are sorted and distinct, its
    cells full-dimensional."""
    if f._measure is None:
        ms, md = pg.certified_volumes([cell.moment_sums for cell in f.cells], f.delta.body)
        f._measure = measure = AtomicMeasure(tuple([(x, Fraction(m, md)) for (x, _), m in zip(f.generators, ms)]))
        measure.__dict__["total_mass"] = f.delta.volume  # the certified sum
    return f._measure


def integrate(g, mu: AtomicMeasure) -> Fraction:
    """Exact pairing sum of weight * g(point) over the atoms."""
    return sum((w * g.value(p) for p, w in mu.atoms), _ZERO)


# --------------------------------------------------------------------------
# Pointwise max and pointwise affine combinations.
# --------------------------------------------------------------------------


def max_combine(f: ToricPsh, g: ToricPsh) -> ToricPsh:
    """Pointwise maximum, rebuilt exactly through one Legendre round trip.

    The dual of max(f, g) is the convex envelope of min(u_f, u_g), i.e.
    the lower hull of both functions' lifted pieces.
    """
    if f.delta != g.delta:
        raise DeltaMismatch("max of potentials over different polytopes")
    den, rf, rg = _common_tables(f, g)
    return _from_hull(f.delta, pg._lower_hull(f.delta.dim, rf + rg, den, den))


def _from_hull(delta: NewtonPolytope, hull: pg.LowerHull) -> ToricPsh:
    """The potential whose dual function is a lower hull over Delta: each
    hull cell, where its affine function is the max, is the Laguerre cell
    of its generator."""
    return ToricPsh._from_cells(delta, hull.generators, hull.cells)


def scale_potential(f: ToricPsh, s) -> ToricPsh:
    """The potential s*f for s > 0; its slope polytope is s*Delta and its
    cells are s times the cells of f."""
    s = Fraction(s)
    if s <= 0:
        raise ValueError("scaling coefficient must be positive")
    delta = NewtonPolytope(f.delta.body.scaled(s))
    xs, d, ts, e = f.integer_generators
    gens = pg.IntegerSites(xs, d, [t * s.numerator for t in ts], e * s.denominator)
    return ToricPsh._from_cells(delta, gens, [cell.scaled(s) for cell in f.cells])


def _pair_sum(f: ToricPsh, g: ToricPsh) -> ToricPsh:
    """Pointwise sum, read off the lower hull of the pairwise sums of both
    functions' lifted pieces (the infimal convolution of u_f and u_g): each
    hull cell gives a generator of f + g, the gradient y as the site and
    minus the offset, (f + g)(y), as the value.  Its cell is df(y) + dg(y),
    a cell of the mixed subdivision of the base, Delta_f + Delta_g.
    """
    if f.delta.dim != g.delta.dim:
        raise DimensionMismatch("sum of potentials in different dimensions")
    den, rf, rg = _common_tables(f, g)
    lifted = [(a0 + b0, a1 + b1, a2 + b2) for a0, a1, a2 in rf for b0, b1, b2 in rg]
    hull = pg._lower_hull(f.delta.dim, lifted, den, den)
    return _from_hull(NewtonPolytope(hull.base), hull)


def affine_combination(terms) -> ToricPsh:
    """Pointwise combination sum(c_i * f_i) with positive rational c_i."""
    terms = [(Fraction(c), f) for c, f in terms]
    if not terms:
        raise EmptyInput("empty combination")
    out = None
    for c, f in terms:
        scaled = scale_potential(f, c)
        out = scaled if out is None else _pair_sum(out, scaled)
    return out


def convex_path(f: ToricPsh, g: ToricPsh, t) -> ToricPsh:
    """(1-t) * f + t * g pointwise, for rational t in [0, 1]."""
    t = Fraction(t)
    if t == 0:
        return f
    if t == 1:
        return g
    return affine_combination([(1 - t, f), (t, g)])


def mixed_ma(fs: Sequence[ToricPsh]) -> AtomicMeasure:
    """Polarized Monge-Ampere measure of n potentials.

    In 2-D it is (MA(f + g) - MA(f) - MA(g)) / 2: the atom at y carries
    (vol(df(y) + dg(y)) - MA(f)(y) - MA(g)(y)) / 2, with f + g read off the
    lower hull of the summed pieces; every atom of MA(f) or MA(g) is at one
    of its sites.  Symmetric, multilinear, and of total mass vol(Delta).
    """
    fs = list(fs)
    if not fs:
        raise WrongArity("mixed measure of zero potentials")
    delta = fs[0].delta
    n = delta.dim
    if len(fs) != n:
        raise WrongArity(f"need exactly {n} potentials, got {len(fs)}")
    for f in fs[1:]:
        if f.delta != delta:
            raise DeltaMismatch("mixed measure over different polytopes")
    if n == 1:
        return ma_measure(fs[0])
    f, g = fs
    if f == g:
        return ma_measure(f)
    mf, mg = ma_measure(f)._weights, ma_measure(g)._weights
    acc = {y: (w - mf.get(y, _ZERO) - mg.get(y, _ZERO)) / 2 for y, w in ma_measure(_pair_sum(f, g)).atoms}
    for p, w in acc.items():
        if w < 0:
            raise ConsistencyError(f"negative mixed mass {w} at {p}")
    measure = AtomicMeasure.from_items(acc.items())
    if measure.total_mass != delta.volume:
        raise ConsistencyError("mixed measure lost mass")
    return measure


# --------------------------------------------------------------------------
# Energy.
# --------------------------------------------------------------------------


def legendre_energy(f: ToricPsh, ref: ToricPsh) -> Fraction:
    """Energy as the exact integral of (u_ref - u_f) over Delta, linear in
    u: each integral is a sum of affine moments over that potential's own
    cells, on their `moment_sums` and its integer generators over one
    denominator.  Agrees with the mixed-measure energy sum."""
    if f.delta != ref.delta:
        raise DeltaMismatch("energy of potentials over different polytopes")
    n = f.delta.dim
    integral = lambda p: pg.integral_over([c.moment_sums for c in p.cells], n, *_dual_forms(p.integer_generators, 1))
    (nr, dr), (nf, df) = integral(ref), integral(f)
    return Fraction(nr * df - nf * dr, dr * df)


def energy_via_mixed(f: ToricPsh, ref: ToricPsh) -> Fraction:
    """Energy as 1/(n+1) sum_j of the pairing of (f - ref) against the
    mixed measures with j copies of f; the defining formula."""
    if f.delta != ref.delta:
        raise DeltaMismatch("energy of potentials over different polytopes")
    n = f.delta.dim
    total = _ZERO
    for j in range(n + 1):
        mu = mixed_ma([f] * j + [ref] * (n - j))
        total += integrate(f, mu) - integrate(ref, mu)
    return total / (n + 1)


def energy(f: ToricPsh, ref: ToricPsh) -> Fraction:
    """E(f, ref): the primitive of the Monge-Ampere operator, exact.

    The Legendre-integral form is used, one moment per cell of each
    potential; `energy_via_mixed` computes the same value through the
    mixed-measure sum, and the suites assert that the two agree.
    """
    return legendre_energy(f, ref)


# --------------------------------------------------------------------------
# Lattice envelopes (finite slope sets) and orthogonality defects.
# --------------------------------------------------------------------------


def lattice_box(delta: NewtonPolytope, m: int) -> List[range]:
    """For each coordinate k, the integers K with K / m between Delta's
    extremes in k, read off its integer loop points (X, Y, W): the
    (1/m)-lattice of Delta's bounding box."""
    loop = delta.body.loop
    return [range(min(-(-p[k] * m // p[2]) for p in loop), max(p[k] * m // p[2] for p in loop) + 1)
            for k in range(delta.dim)]


def _lattice_points(delta: NewtonPolytope, m: int) -> List[Tuple[int, int]]:
    """The points q of Delta on the (1/m)-lattice as integer pairs m q
    (second entry 0 in dimension 1), row by row in the second entry K_1
    and along each row in the first: a row's range of K_0 is cut from
    Delta's `integer_facets` (A0, A1, B), A0 K_0 <= B m - A1 K_1, by
    integer floor and ceiling.  A facet with A0 = 0 is a bottom or top
    edge, which no row of the box crosses."""
    facets = delta.body.integer_facets
    points = []
    for ky in lattice_box(delta, m)[1] if delta.dim == 2 else (0,):
        cuts = [(a0, b * m - a1 * ky) for a0, a1, b in facets if a0]
        lo = max(-(r // -a0) for a0, r in cuts if a0 < 0)
        hi = min(r // a0 for a0, r in cuts if a0 > 0)
        points += [(kx, ky) for kx in range(lo, hi + 1)]
    return points


def lattice_envelope(delta: NewtonPolytope, constraints, m: int) -> ToricPsh:
    """Envelope with slopes restricted to Delta intersected with the
    (1/m)-integer lattice.

    Always below the exact envelope.  When the lattice hull is a proper
    full-dimensional subpolytope of Delta the result is returned over that
    smaller Newton polytope (the restricted potential has smaller total
    mass); a degenerate lattice hull raises EmptyLattice.  The lattice hull
    is the base of the lower hull of the lifted lattice points.
    """
    if m < 1:
        raise ValueError("lattice order must be >= 1")
    constraints = pg.integer_sites(constraints, delta.dim)
    if not constraints.ts:
        raise EmptyInput("need at least one constraint")
    points = _lattice_points(delta, m)
    if not points:
        raise EmptyLattice(f"Delta contains no point of the 1/{m} lattice")
    forms, e = _dual_forms(constraints, m)  # the max over forms takes a repeated site's lowest value
    lifted = [(k0, k1, max(a * k0 + b * k1 - c for a, b, c in forms)) for k0, k1 in points]
    try:
        hull = pg._lower_hull(delta.dim, lifted, m, e)
    except DegenerateSpan:
        raise EmptyLattice(
            f"the 1/{m} lattice points of Delta do not span; no representable envelope"
        ) from None
    return _from_hull(delta if hull.base == delta.body else NewtonPolytope(hull.base), hull)


def orthogonality_defect(f: TestFunction, phi: ToricPsh) -> Fraction:
    """The pairing of (f - phi) against MA(phi), exact and >= 0.

    Requires phi <= f, checked at the MA atoms and at all branch
    generator sites; the envelope of f has defect exactly 0.
    """
    measure = ma_measure(phi)
    checkpoints = set(measure.points()) | set(f.generator_sites())
    for p in sorted(checkpoints):
        if phi.value(p) > f.value(p):
            raise NotDominated(f"phi exceeds f at {p}")
    return integrate(f, measure) - integrate(phi, measure)


# --------------------------------------------------------------------------
# Extremes of differences (used for capacity normalization).
# --------------------------------------------------------------------------


def difference_range(f: ToricPsh, g: ToricPsh):
    """Exact (min, max) of the bounded function f - g over the whole space.

    f - g is affine on the common refinement of the two complexes and
    constant along recession directions, so the extremes are attained at
    refinement vertices.  Those are the sites of f and g, and the
    crossings of an f-edge with a g-edge, where f - g is strictly concave
    along the f-edge and strictly convex along the g-edge, so no crossing
    is a strict extreme: the sites alone give the range.
    """
    if f.delta != g.delta:
        raise DeltaMismatch("difference of potentials over different polytopes")
    vals = [f.value(y) - g.value(y) for y in f.sites + g.sites]
    return min(vals), max(vals)
