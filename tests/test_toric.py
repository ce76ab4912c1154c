"""Toric potential tests: envelopes, measures, duality, energy."""

import math
import random
import sys
import time
from fractions import Fraction as F

import pytest

from nama import harness as hx
from nama import polyhedra as pg
from nama import solver as sv
from nama import toric as tc
from nama.errors import ArityMismatch, ConsistencyError, DeltaMismatch, EmptyLattice, NotDominated
from test_polyhedra import contains, eager_facets, support_value


def cross(a, b):
    """The 2-D cross product a_0 b_1 - a_1 b_0."""
    return a[0] * b[1] - a[1] * b[0]


def interval(a, b):
    return tc.newton_polytope([(a,), (b,)], 1)


def square(side=1):
    return tc.newton_polytope([(0, 0), (side, 0), (side, side), (0, side)], 2)


def triangle():
    return tc.newton_polytope([(0, 0), (1, 0), (0, 1)], 2)


UNIT = interval(0, 1)
SQ = square()
TRI = triangle()


def pieces(f):
    """Affine pieces of f as (slope, dual value at the slope), the Fraction
    view of its integer `table`.

    The slopes are exactly the vertices of the regular subdivision of
    Delta induced by lifting m to u(m), i.e. all cell vertices.
    """
    (den, rows), n = f.table, f.delta.dim
    return tuple((tuple(F(c, den) for c in r[:n]), F(r[2], den)) for r in rows)


def to_pieces(f):
    """Primal view: (slope, intercept) pairs with f = max(<slope, y> + c)."""
    return tuple((v, -uv) for v, uv in pieces(f))


class TestSupportValue:
    """g_Delta is the support function of Delta."""

    def test_interval(self):
        assert tc.g_delta(UNIT).value((-2,)) == 0
        assert tc.g_delta(UNIT).value((3,)) == 3

    def test_square(self):
        assert tc.g_delta(SQ).value((2, -1)) == 2

    def test_triangle(self):
        assert tc.g_delta(TRI).value((3, 5)) == 5


class TestEnvelope:
    def test_single_constraint_is_translated_support_function(self):
        for delta, x in [(UNIT, (F(1, 3),)), (SQ, (F(1, 2), F(-1, 4))), (TRI, (0, 2))]:
            f = tc.envelope(delta, [(x, 0)])
            rng = random.Random(1)
            for _ in range(25):
                y = tuple(F(rng.randint(-8, 8), 4) for _ in range(delta.dim))
                shifted = tuple(a - F(b) for a, b in zip(y, x))
                assert f.value(y) == support_value(delta.body, shifted)

    def test_g_delta_on_interval(self):
        f = tc.g_delta(UNIT)
        assert f.value((-3,)) == 0
        assert f.value((2,)) == 2

    def test_two_sites_one_pruned(self):
        f = tc.envelope(UNIT, [((0,), 0), ((1,), 0)])
        # The site at 0 has a zero-length cell; only the site at 1 carries mass.
        assert f.sites == ((F(1),),)
        assert f.value((F(1, 2),)) == 0
        assert f.value((3,)) == 2

    def test_interpolation_invariant(self):
        f = tc.envelope(SQ, [((0, 0), 0), ((2, 0), F(1, 2)), ((0, 2), F(1, 2))])
        for x, t in f.generators:
            assert f.value(x) == t

    def test_against_dense_affine_minorant_oracle(self):
        delta = UNIT
        f = tc.envelope(delta, [((F(-1),), F(0)), ((F(1),), F(-1, 2))])
        rng = random.Random(5)
        grid = [F(k, 100) for k in range(101)]
        for _ in range(40):
            y = (F(rng.randint(-12, 12), 3),)
            # u(m) = max(<x,m> - t) over constraints x=-1,t=0 and x=1,t=-1/2
            dense = max(m * y[0] - max(-m, m + F(1, 2)) for m in grid)
            assert f.value(y) >= dense
            # Lipschitz gap of the grid approximation: slopes within 1/100.
            assert f.value(y) - dense <= F(1, 100) * abs(y[0]) + F(1, 100)


class TestPshEnvelope:
    def test_identity_on_convex_branch(self):
        f = tc.envelope(SQ, [((0, 0), 0), ((1, 1), F(1, 3))])
        tf = tc.TestFunction([f])
        assert tc.psh_envelope(tf) == f

    def test_dominating_branch_dropped(self):
        g = tc.g_delta(UNIT)
        high = tc.envelope(UNIT, [((F(1, 2),), F(10))])
        tf = tc.TestFunction([g, high])
        env = tc.psh_envelope(tf)
        assert env == g

    def test_below_and_contact(self):
        b1 = tc.g_delta(SQ).shift(F(1, 2))
        b2 = tc.envelope(SQ, [((1, 0), 0)])
        tf = tc.TestFunction([b1, b2])
        env = tc.psh_envelope(tf)
        rng = random.Random(9)
        for _ in range(50):
            y = (F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2))
            assert env.value(y) <= tf.value(y)
        assert any(env.value(x) == tf.value(x) for x in env.sites)


@pytest.mark.parametrize(
    "delta",
    [UNIT, interval(F(-1, 3), F(5, 2)), SQ, TRI, tc.newton_polytope([(0, 0), (F(7, 2), 0), (5, 3), (2, F(9, 2)), (0, 3)], 2)],
)
def test_g_delta_is_the_envelope_of_the_origin_at_zero(delta):
    """g_Delta and the potential built from the one generator (0, 0) agree
    in generators, cells, table, values and measure; its one cell is Delta."""
    g, f = tc.g_delta(delta), tc.ToricPsh(delta, [(tuple([F(0)] * delta.dim), F(0))])
    assert g.generators == f.generators == ((tuple([F(0)] * delta.dim), F(0)),)
    assert g.cells == f.cells == (delta.body,)
    assert g.table == f.table
    rng = random.Random(delta.dim)
    for _ in range(20):
        y = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(delta.dim))
        assert g.value(y) == f.value(y) == support_value(delta.body, y)
    assert tc.ma_measure(g) == tc.ma_measure(f)


class TestPieces:
    def test_g_delta_pieces(self):
        assert pieces(tc.g_delta(UNIT)) == (((F(0),), F(0)), ((F(1),), F(0)))

    def test_translate_pieces(self):
        x = (F(1, 3),)
        f = tc.envelope(UNIT, [(x, 0)])
        assert pieces(f) == (((F(0),), F(0)), ((F(1),), F(1, 3)))

    def test_to_pieces_intercepts(self):
        x = (F(1, 3),)
        f = tc.envelope(UNIT, [(x, 0)])
        assert to_pieces(tc.g_delta(UNIT)) == (((F(0),), F(0)), ((F(1),), F(0)))
        assert to_pieces(f) == (((F(0),), F(0)), ((F(1),), F(-1, 3)))

    def test_to_pieces_self_consistency(self):
        rng = random.Random(8)
        f = tc.envelope(
            SQ,
            [
                ((F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2)), F(rng.randint(-4, 4), 3))
                for _ in range(4)
            ],
        )
        pieces = to_pieces(f)
        for _ in range(100):
            y = (F(rng.randint(-9, 9), 2), F(rng.randint(-9, 9), 2))
            assert f.value(y) == max(pg.dot(v, y) + c for v, c in pieces)

    def test_max_over_pieces_matches_value(self):
        rng = random.Random(3)
        f = tc.envelope(
            SQ, [((F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2)), F(rng.randint(-4, 4), 3)) for _ in range(5)]
        )
        for _ in range(100):
            y = (F(rng.randint(-9, 9), 2), F(rng.randint(-9, 9), 2))
            assert f.value(y) == max(pg.dot(v, y) - uv for v, uv in pieces(f))


class TestMaxCombine:
    def test_idempotent(self):
        f = tc.envelope(SQ, [((0, 0), 0), ((1, 1), 1)])
        assert tc.max_combine(f, f) == f

    def test_absorbs_lower_constant(self):
        f = tc.envelope(SQ, [((0, 0), 0), ((1, 1), 1)])
        assert tc.max_combine(f, f.shift(-1)) == f

    def test_pointwise_max(self):
        rng = random.Random(17)
        for delta in (UNIT, SQ):
            n = delta.dim
            mk = lambda: tc.envelope(
                delta,
                [
                    (tuple(F(rng.randint(-4, 4), 2) for _ in range(n)), F(rng.randint(-3, 3), 2))
                    for _ in range(3)
                ],
            )
            f, g = mk(), mk()
            h = tc.max_combine(f, g)
            for _ in range(100):
                y = tuple(F(rng.randint(-9, 9), 2) for _ in range(n))
                assert h.value(y) == max(f.value(y), g.value(y))

    def test_delta_mismatch(self):
        with pytest.raises(DeltaMismatch):
            tc.max_combine(tc.g_delta(SQ), tc.g_delta(TRI))


class TestMaMeasure:
    def test_g_delta_dirac_at_origin(self):
        for delta in (UNIT, SQ, TRI, square(3)):
            mu = tc.ma_measure(tc.g_delta(delta))
            origin = tuple(F(0) for _ in range(delta.dim))
            assert mu.atoms == ((origin, delta.volume),)

    def test_translate_dirac(self):
        x = (F(2, 3), F(-1, 2))
        mu = tc.ma_measure(tc.envelope(SQ, [(x, 0)]))
        assert mu.atoms == ((x, F(1)),)

    def test_1d_slope_jump_oracle(self):
        rng = random.Random(29)
        for _ in range(20):
            sites = sorted({F(rng.randint(-6, 6), 2) for _ in range(4)})
            gens = [((s,), F(rng.randint(-4, 4), 3)) for s in sites]
            f = tc.envelope(UNIT, gens)
            mu = tc.ma_measure(f)
            # Slope-jump oracle: one-sided exact slopes around each atom.
            eps = F(1, 10**6)
            for (p, w) in mu.atoms:
                left = (f.value((p[0],)) - f.value((p[0] - eps,))) / eps
                right = (f.value((p[0] + eps,)) - f.value((p[0],))) / eps
                assert right - left == w

    def test_mass_conservation_random(self):
        rng = random.Random(31)
        for delta in (UNIT, SQ, TRI):
            n = delta.dim
            for _ in range(15):
                gens = [
                    (tuple(F(rng.randint(-8, 8), 4) for _ in range(n)), F(rng.randint(-6, 6), 4))
                    for _ in range(5)
                ]
                f = tc.envelope(delta, gens)
                assert tc.ma_measure(f).total_mass == delta.volume


class TestMixedMa:
    def test_equal_arguments(self):
        f = tc.envelope(SQ, [((0, 0), 0), ((1, 0), F(1, 2))])
        assert tc.mixed_ma([f, f]) == tc.ma_measure(f)

    def test_symmetry(self):
        f = tc.envelope(SQ, [((0, 0), 0), ((1, 0), F(1, 2))])
        g = tc.envelope(SQ, [((0, 1), 0), ((-1, 0), F(1, 3))])
        assert tc.mixed_ma([f, g]) == tc.mixed_ma([g, f])

    def test_wrong_arity(self):
        f = tc.g_delta(SQ)
        with pytest.raises(ArityMismatch):
            tc.mixed_ma([f])

    def test_against_mixed_volume_oracle(self):
        """Atom weights are mixed volumes V(A,B) = (vol(A+B)-vol(A)-vol(B))/2
        of the subdifferential cells, computed independently."""
        rng = random.Random(41)
        for _ in range(8):
            mk = lambda: tc.envelope(
                SQ,
                [
                    (tuple(F(rng.randint(-4, 4), 2) for _ in range(2)), F(rng.randint(-3, 3), 2))
                    for _ in range(3)
                ],
            )
            f, g = mk(), mk()
            mixed = tc.mixed_ma([f, g])
            for p, w in mixed.atoms:
                A = f.subdifferential(p)
                B = g.subdifferential(p)
                volsum = pg.volume(pg.minkowski_sum(A, B))
                oracle = (volsum - pg.volume(A) - pg.volume(B)) / 2
                assert w == oracle

    def test_gdelta_pair_on_square(self):
        f = tc.g_delta(SQ)
        g = tc.envelope(SQ, [((1, 0), 0)])
        mixed = tc.mixed_ma([f, g])
        assert mixed.total_mass == 1
        # Subdifferentials are the full square at each site; the mixed mass
        # splits between the two sites by mixed volumes of square vs point.
        assert set(mixed.points()) <= {(F(0), F(0)), (F(1), F(0))}


# The edge-crossing construction of sums that the summed-pieces lower hull
# replaced, kept as an independent reference: candidates are the sites of
# both functions plus the crossings of their y-space edges, each one kept
# when its subdifferential sum is full-dimensional.


def ref_intersect_edges(p0, d0, r0, p1, d1, r1):
    """Transversal crossing of two edges {p + s d : 0 <= s <= r} (r None
    for a ray), as a list of zero or one point."""
    det = cross(d0, d1)
    if det == 0:
        return []
    rhs = pg.sub(p1, p0)
    s = cross(rhs, d1) / det
    t = cross(rhs, d0) / det
    if s < 0 or (r0 is not None and s > r0):
        return []
    if t < 0 or (r1 is not None and t > r1):
        return []
    return [pg.add(p0, tuple(s * c for c in d0))]


def ref_dual_edges(f):
    """Site-to-site segments of adjacent cells and rays along the normal of
    each Delta-facet a cell touches, as (origin, direction, reach)."""
    edges = []
    gens, cells = f.generators, f.cells
    for i, (xi, ti) in enumerate(gens):
        for xj, tj in gens[i + 1:]:
            wall = pg.clip(cells[i], [(pg.sub(xi, xj), ti - tj)])
            if wall.affine_dim == f.delta.dim - 1:
                edges.append((xi, pg.sub(xj, xi), F(1)))
        for a, b in eager_facets(f.delta.body):
            face = pg.clip(cells[i], [(tuple(-c for c in a), -b)])
            if face.affine_dim == f.delta.dim - 1:
                edges.append((xi, a, None))
    return edges


def ref_candidates(f, g):
    pts = set(f.sites) | set(g.sites)
    if f.delta.dim == 2:
        for p0, d0, r0 in ref_dual_edges(f):
            for p1, d1, r1 in ref_dual_edges(g):
                pts.update(ref_intersect_edges(p0, d0, r0, p1, d1, r1))
    return sorted(pts)


def ref_pair_sum(f, g):
    delta = tc.NewtonPolytope(pg.minkowski_sum(f.delta.body, g.delta.body))
    gens, total = [], F(0)
    for w in ref_candidates(f, g):
        vol = pg.volume(pg.minkowski_sum(f.subdifferential(w), g.subdifferential(w)))
        if vol > 0:
            gens.append((w, f.value(w) + g.value(w)))
            total += vol
    assert total == delta.volume
    return tc.ToricPsh(delta, gens)


def parts(f):
    return (f.delta, f.generators, f.cells)


def ref_affine_combination(terms):
    out = None
    for c, f in terms:
        scaled = tc.scale_potential(f, c)
        out = scaled if out is None else ref_pair_sum(out, scaled)
    return out


def ref_mixed_ma(f, g):
    """2-D mixed measure from the midpoint: 2 MA((f+g)/2) - MA(f)/2 - MA(g)/2."""
    if f == g:
        return tc.ma_measure(f)
    h = ref_affine_combination([(F(1, 2), f), (F(1, 2), g)])
    acc = {}
    for mu, c in ((tc.ma_measure(h), 2), (tc.ma_measure(f), F(-1, 2)), (tc.ma_measure(g), F(-1, 2))):
        for p, w in mu.atoms:
            acc[p] = acc.get(p, F(0)) + c * w
    return tc.AtomicMeasure.from_items(acc.items())


def ref_difference_range(f, g):
    vals = [f.value(p) - g.value(p) for p in ref_candidates(f, g)]
    return min(vals), max(vals)


def hull_difference_range(f, g):
    """f - g at every vertex of the common refinement: the sites of f + g,
    the cell gradients of the summed-pieces lower hull."""
    vals = [f.value(y) - g.value(y) for y in tc._pair_sum(f, g).sites]
    return min(vals), max(vals)


def _seeded_pairs(dim, seeds):
    for seed in seeds:
        cfg = hx.GenConfig(seed=seed, dimension=dim, function_complexity=6)
        rng = hx.SplitMix64(seed)
        delta = hx.gen_polytope(rng, dim, cfg.polytope_complexity)
        yield hx.gen_psh(rng, delta, cfg), hx.gen_psh(rng, delta, cfg)


def _special_pairs():
    """Coincidences of the two complexes, each over the unit square."""
    f = tc.envelope(SQ, [((0, 0), 0), ((2, 0), 1)])  # y-edge (0,0)-(2,0)
    yield "site of g on an edge of f", f, tc.envelope(SQ, [((1, 0), 0), ((1, 2), 1)])
    cross = tc.envelope(SQ, [((-1, 0), 0), ((1, 0), 1)])  # y-edge through the origin
    yield "edges crossing at a site", cross, tc.envelope(SQ, [((0, 0), 0), ((0, 2), 1)])
    yield "collinear overlapping edges", f, tc.envelope(SQ, [((1, 0), 0), ((3, 0), 1)])
    g = tc.envelope(SQ, [((0, 0), 0), ((1, 1), F(1, 2)), ((-1, 2), F(3, 4))])
    yield "f and a shift of f", g, g.shift(F(5, 3))
    yield "g_delta", g, tc.g_delta(SQ)
    yield "g_delta twice", tc.g_delta(SQ), tc.g_delta(SQ)


class TestSumsAgainstEdgeCrossingReference:
    """affine_combination, mixed_ma and difference_range against the
    edge-crossing construction, with generators and cells compared
    exactly (the reference clips its cells again)."""

    def cases(self):
        for f, g in _seeded_pairs(2, range(40)):
            yield "seeded 2-D", f, g
        yield from _special_pairs()

    def test_sums(self):
        for name, f, g in self.cases():
            for terms in ([(1, f), (1, g)], [(F(1, 2), f), (F(1, 2), g)], [(F(1, 3), f), (2, g)]):
                got = tc.affine_combination(terms)
                want = ref_affine_combination(terms)
                assert parts(got) == parts(want), name

    def test_three_term_sums(self):
        pairs = list(_seeded_pairs(2, range(8)))
        for (f, g), (h, _) in zip(pairs, pairs[1:]):
            terms = [(F(1, 3), f), (F(1, 3), g), (F(1, 3), h)]
            got, want = tc.affine_combination(terms), ref_affine_combination(terms)
            assert parts(got) == parts(want)

    def test_sums_over_different_polytopes(self):
        f = tc.envelope(SQ, [((0, 0), 0), ((2, 1), F(1, 2))])
        g = tc.envelope(TRI, [((1, -1), 0), ((0, 2), F(1, 3)), ((-2, 0), F(1, 4))])
        for terms in ([(1, f), (1, g)], [(F(2, 3), f), (F(5, 2), g)]):
            got, want = tc.affine_combination(terms), ref_affine_combination(terms)
            assert parts(got) == parts(want)

    def test_mixed_measures(self):
        for name, f, g in self.cases():
            assert tc.mixed_ma([f, g]) == ref_mixed_ma(f, g), name

    def test_difference_ranges(self):
        for name, f, g in self.cases():
            got = tc.difference_range(f, g)
            assert got == ref_difference_range(f, g) == hull_difference_range(f, g), name

    def test_one_dimensional_pairs(self):
        pairs = list(_seeded_pairs(1, range(40)))
        pairs.append((tc.envelope(UNIT, [((F(1, 3),), 0), ((2,), 1)]), tc.g_delta(UNIT)))
        for f, g in pairs:
            for terms in ([(1, f), (1, g)], [(F(1, 3), f), (2, g)]):
                got, want = tc.affine_combination(terms), ref_affine_combination(terms)
                assert parts(got) == parts(want)
            got = tc.difference_range(f, g)
            assert got == ref_difference_range(f, g) == hull_difference_range(f, g)


class TestCarriedCellsAgainstReclipping:
    """Maxima, scalings, shifts and lattice envelopes keep cells they did
    not clip; each must equal the Laguerre cells that envelope clips for
    the same generators."""

    def assert_carried(self, out):
        want = tc.ToricPsh(out.delta, out.generators)
        assert (out.generators, out.cells) == (want.generators, want.cells)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_max_scale_and_shift(self, dim):
        for f, g in _seeded_pairs(dim, range(30)):
            self.assert_carried(tc.max_combine(f, g))
            self.assert_carried(tc.max_combine(f, g.shift(F(-1, 2))))
            self.assert_carried(tc.scale_potential(f, F(7, 3)))
            self.assert_carried(tc.scale_potential(g, F(1, 5)))
            self.assert_carried(f.shift(F(-2, 3)))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_lattice_envelopes(self, dim):
        rng = random.Random(71 + dim)
        for seed in range(12):
            delta = hx.gen_polytope(hx.SplitMix64(seed), dim, 6)
            constraints = [
                (tuple(F(rng.randint(-8, 8), 4) for _ in range(dim)), F(rng.randint(-6, 6), 5))
                for _ in range(1 + rng.randrange(5))
            ]
            for m in (1, 2, 3):
                self.assert_carried(tc.lattice_envelope(delta, constraints, m))

    def test_lattice_envelopes_over_a_smaller_hull(self):
        triangle = tc.newton_polytope([(0, 0), (F(3, 2), 0), (0, 1)], 2)
        segment = tc.newton_polytope([(F(1, 3),), (F(7, 2),)], 1)
        for delta, constraints in [
            (triangle, [((F(1, 4), F(1, 4)), 0), ((1, -1), 1)]),
            (segment, [((F(1, 4),), 0), ((2,), F(3, 2))]),
        ]:
            lat = tc.lattice_envelope(delta, constraints, 1)
            assert lat.delta != delta
            self.assert_carried(lat)


def test_hull_potentials_make_no_fraction_until_their_generators_are_read(monkeypatch):
    """`max_combine` and `lattice_envelope` hand the lower hull's integer
    generators to the potential: building one makes no Fraction and
    converts nothing through `integer_sites`, and reading `generators`
    then makes three Fractions per generator."""
    import fractions

    f = tc.envelope(SQ, [((F(0), F(0)), F(0)), ((F(1), F(1)), F(1, 2)), ((F(1, 3), F(2)), F(1, 5))])
    g = tc.envelope(SQ, [((F(1, 2), F(-1)), F(1, 7)), ((F(2), F(1, 2)), F(3, 4))])
    cons = pg.integer_sites([((F(1, 4), F(1, 3)), F(0)), ((F(1), F(-1)), F(1, 2)), ((F(-1), F(2)), F(2, 3))])
    created, converted, new, integer_sites = [], [], fractions.Fraction.__new__, pg.integer_sites

    def counted(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    def converting(pairs, n=None):
        if not isinstance(pairs, pg.IntegerSites):
            converted.append(pairs)
        return integer_sites(pairs, n)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counted))
    monkeypatch.setattr(pg, "integer_sites", converting)
    built = [tc.max_combine(f, g), tc.lattice_envelope(SQ, cons, 4)]
    assert (created, converted) == ([], [])
    gens = []
    for h in built:
        del created[:]
        gens.append(h.generators)
        assert len(created) == 3 * len(gens[-1])
    monkeypatch.undo()
    assert converted == [] and all(len(g) > 1 for g in gens)
    for h, hg in zip(built, gens):
        assert list(hg) == sorted(hg) and all(h.value(x) == t for x, t in hg)


def test_ma_measure_rejects_a_forged_cell():
    """A cell that is not its Laguerre cell loses mass: the integer mass-sum
    certificate raises where a complex is built, the one step that makes
    the masses a potential keeps and `ma_measure` reads."""
    f = tc.envelope(SQ, [((F(0), F(0)), F(0)), ((F(1), F(1)), F(1, 2))])
    shrunk = pg.clip(f.cells[0], [((F(1), F(0)), F(1, 4))])
    assert tc.ma_measure(f).total_mass == SQ.volume
    with pytest.raises(ConsistencyError, match="cells cover mass"):
        pg.certified_volumes([shrunk.moment_sums, f.cells[1].moment_sums], SQ.body)


def test_one_certificate_per_complex(monkeypatch):
    """`power_diagram` and `_lower_hull` each run the mass-sum certificate
    once, and a potential keeps the masses it returned: `ma_measure` runs
    none, and `mixed_ma` and `energy_via_mixed` only the one of each pair
    sum they build."""
    callers = []
    certify = pg.certified_volumes

    def counted(sums, body):
        callers.append(sys._getframe(1).f_code.co_name)
        return certify(sums, body)

    def runs(build):
        del callers[:]
        out = build()
        return out, list(callers)

    monkeypatch.setattr(pg, "certified_volumes", counted)
    sites = pg.IntegerSites([(0, 0), (2, 1), (1, 3), (1, 1)], 2, [0, 1, 2, 0], 3)
    assert runs(lambda: pg.power_diagram(SQ.body, sites))[1] == ["power_diagram"]
    assert runs(lambda: pg.lower_hull([((0, 0), 0), ((1, 0), 1), ((0, 1), 1), ((1, 1), 0)]))[1] == ["_lower_hull"]
    f, made = runs(lambda: tc.envelope(SQ, [((0, 0), 0), ((1, 1), F(1, 2)), ((-1, 2), F(3, 4))]))
    g, made_g = runs(lambda: tc.envelope(SQ, [((1, 0), 0), ((0, 2), F(1, 3))]))
    assert made == made_g == ["power_diagram"]
    h, made = runs(lambda: tc.max_combine(f, g))
    assert made == ["_lower_hull"]
    potentials = [f, g, h, f.shift(F(2, 3)), tc.scale_potential(h, F(3, 2)), tc._pair_sum(f, g), tc.g_delta(SQ)]
    potentials.append(tc.lattice_envelope(SQ, [((0, 0), 0), ((1, 1), F(1, 2))], 3))
    potentials.append(tc.lattice_envelope(UNIT, [((F(1, 2),), 0), ((2,), 1)], 4))
    for p in potentials:
        assert runs(lambda: tc.ma_measure(p))[1] == []
    assert runs(lambda: tc.mixed_ma([f, g]))[1] == ["_lower_hull"]
    assert runs(lambda: tc.mixed_ma([h, h]))[1] == []
    assert runs(lambda: tc.energy_via_mixed(f, g))[1] == ["_lower_hull"]


class TestKeptMassesAreCellVolumes:
    """Each `ma_measure` weight is `polyhedra.volume` of the matching cell,
    on every route that makes a potential: an independent reference for
    the masses a potential is handed where its complex is built, which
    would catch masses left in face order after the hull's sort by site or
    a scaling by s instead of s^n."""

    def assert_volumes(self, f):
        assert tc.ma_measure(f).atoms == tuple(zip(f.sites, map(pg.volume, f.cells)))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_constructors(self, dim):
        for f in _derived_potentials(dim, range(12)):
            self.assert_volumes(f)
        for f, g in _seeded_pairs(dim, range(6)):
            self.assert_volumes(tc.affine_combination([(F(1, 3), f), (2, g), (F(5, 4), f)]))
            self.assert_volumes(tc.scale_potential(tc.max_combine(f, g), F(2, 7)).shift(F(9, 5)))

    def test_references(self):
        for delta in (UNIT, SQ, TRI, interval(F(-1, 3), 2), square(F(3, 2))):
            self.assert_volumes(tc.g_delta(delta))
            self.assert_volumes(tc.scale_potential(tc.g_delta(delta), F(3, 2)))

    def test_solutions(self):
        problems = [
            (sv.DiracProblem(SQ, ((F(1, 4), F(1, 4)), (F(3, 4), F(1, 4)), (F(1, 2), F(3, 4))), (F(1, 3),) * 3), "float"),
            (sv.DiracProblem(interval(0, 2), ((F(1, 4),), (F(3, 2),), (F(7, 4),)), (F(1, 2), 1, F(1, 2))), "rational"),
        ]
        for p, mode in problems:
            s = sv.solve(p, sv.SolverConfig(mode=mode))
            self.assert_volumes(s.potential)
            self.assert_volumes(sv.normalize(s).potential)


def ref_legendre_energy(f, ref):
    """The integral of u_ref - u_f over the common refinement of both
    subdivisions: each cell of f clipped to each cell of ref, one affine
    moment per piece."""
    total = F(0)
    for (xa, ta), cell in zip(f.generators, f.cells):
        for xb, tb in ref.generators:
            walls = [(pg.sub(xc, xb), tc_ - tb) for xc, tc_ in ref.generators if xc != xb]
            piece = pg.clip(cell, walls)
            if piece.is_full_dimensional:
                total += pg.moment(piece, pg.sub(xb, xa), ta - tb)
    return total


def _seeded_triples(dim, seeds):
    for seed in seeds:
        cfg = hx.GenConfig(seed=seed, dimension=dim, function_complexity=6)
        rng = hx.SplitMix64(seed)
        delta = hx.gen_polytope(rng, dim, cfg.polytope_complexity)
        yield tuple(hx.gen_psh(rng, delta, cfg) for _ in range(3))


class TestEnergy:
    def test_zero_at_reference(self):
        ref = tc.g_delta(SQ)
        assert tc.energy(ref, ref) == 0

    def test_constant_shift(self):
        ref = tc.g_delta(SQ)
        f = tc.envelope(SQ, [((1, 1), F(1, 2)), ((0, 0), 0)])
        c = F(7, 3)
        assert tc.energy(f.shift(c), ref) == tc.energy(f, ref) + c * SQ.volume

    def test_legendre_identity_1d(self):
        ref = tc.g_delta(UNIT)
        x = (F(2, 5),)
        f = tc.envelope(UNIT, [(x, 0)])
        # Independent closed form: integral of (0 - x*m) over [0,1].
        assert tc.energy(f, ref) == -x[0] / 2
        assert tc.energy_via_mixed(f, ref) == -x[0] / 2

    def test_mixed_equals_legendre_random(self):
        rng = random.Random(43)
        for delta in (UNIT, SQ, TRI):
            n = delta.dim
            ref = tc.g_delta(delta)
            for _ in range(8):
                gens = [
                    (tuple(F(rng.randint(-4, 4), 2) for _ in range(n)), F(rng.randint(-3, 3), 2))
                    for _ in range(3)
                ]
                f = tc.envelope(delta, gens)
                assert tc.legendre_energy(f, ref) == tc.energy_via_mixed(f, ref)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_multi_generator_references(self, dim):
        multi = 0
        for f, g, h in _seeded_triples(dim, range(30)):
            multi += len(g.generators) > 1
            assert tc.legendre_energy(f, g) == ref_legendre_energy(f, g)
            assert tc.legendre_energy(g, h) == ref_legendre_energy(g, h)
            # The cocycle identity E(f, ref) = E(f, g) + E(g, ref).
            assert tc.energy(f, h) == tc.energy(f, g) + tc.energy(g, h)
        assert multi >= 10

    def test_multi_generator_references_against_mixed_measures(self):
        for f, g, _ in _seeded_triples(2, range(6)):
            assert tc.legendre_energy(f, g) == tc.energy_via_mixed(f, g)


class TestIntegrate:
    def test_constant_shift_integrates_to_mass(self):
        mu = tc.AtomicMeasure.from_items([((F(0), F(0)), F(2)), ((F(1), F(1)), F(3))])
        f = tc.envelope(SQ, [((0, 0), 0), ((1, 1), 1)])
        assert tc.integrate(f.shift(F(5)), mu) - tc.integrate(f, mu) == 5 * mu.total_mass

    def test_dirac(self):
        f = tc.envelope(SQ, [((0, 0), 0), ((1, 1), 1)])
        x = (F(1, 3), F(2, 3))
        mu = tc.AtomicMeasure.from_items([(x, F(1))])
        assert tc.integrate(f, mu) == f.value(x)

    def test_reevaluation_oracle(self):
        rng = random.Random(47)
        f = tc.envelope(SQ, [((0, 0), 0), ((1, 0), F(1, 2)), ((0, 1), F(-1, 3))])
        atoms = [
            ((F(rng.randint(-4, 4), 3), F(rng.randint(-4, 4), 3)), F(rng.randint(1, 5), 2))
            for _ in range(6)
        ]
        mu = tc.AtomicMeasure.from_items(atoms)
        expected = sum(w * f.value(p) for p, w in mu.atoms)
        assert tc.integrate(f, mu) == expected


class TestLatticeEnvelope:
    def test_interval_m1_exact(self):
        x = (F(1, 3),)
        constraints = [(x, 0)]
        exact = tc.envelope(UNIT, constraints)
        lat = tc.lattice_envelope(UNIT, constraints, 1)
        assert lat == exact  # slopes {0,1} already realize the envelope

    def test_below_exact_envelope(self):
        rng = random.Random(53)
        constraints = [((F(rng.randint(-4, 4), 4), F(rng.randint(-4, 4), 4)), F(rng.randint(-2, 2), 3)) for _ in range(3)]
        exact = tc.envelope(SQ, constraints)
        for m in (1, 2, 4):
            lat = tc.lattice_envelope(SQ, constraints, m)
            for _ in range(100):
                y = (F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2))
                assert lat.value(y) <= exact.value(y)

    def test_refinement_monotone(self):
        rng = random.Random(59)
        constraints = [((F(1, 3), F(-1, 5)), F(0)), ((F(-1, 2), F(1, 2)), F(1, 4))]
        prev = None
        for m in (1, 2, 4, 8):
            lat = tc.lattice_envelope(SQ, constraints, m)
            if prev is not None:
                for _ in range(60):
                    y = (F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2))
                    assert prev.value(y) <= lat.value(y)
            prev = lat

    def test_order_64_on_the_square_within_budget(self):
        """4,225 lifted lattice points; the Fraction gift-wrap took 3.6 s on
        2 cores."""
        constraints = [
            ((F(1, 3), F(-1, 5)), F(0)),
            ((F(-1, 2), F(1, 2)), F(1, 4)),
            ((F(2, 7), F(5, 9)), F(1, 3)),
        ]
        start = time.perf_counter()
        lat = tc.lattice_envelope(SQ, constraints, 64)
        assert time.perf_counter() - start < 2
        assert lat.delta == SQ
        assert tc.ma_measure(lat).total_mass == 1

    def test_empty_lattice(self):
        small = tc.newton_polytope([(F(1, 3),), (F(2, 5),)], 1)
        with pytest.raises(EmptyLattice):
            tc.lattice_envelope(small, [((0,), 0)], 1)

    def test_degenerate_lattice_span_rejected(self):
        thin = tc.newton_polytope([(0, 0), (F(1, 2), 0), (0, F(1, 2))], 2)
        with pytest.raises(EmptyLattice):
            tc.lattice_envelope(thin, [((0, 0), 0)], 1)

    def test_proper_sublattice_hull_shrinks_delta(self):
        delta = tc.newton_polytope([(0, 0), (F(3, 2), 0), (0, 1)], 2)
        lat = tc.lattice_envelope(delta, [((F(1, 4), F(1, 4)), 0)], 1)
        # The 1-lattice points of Delta span only the unit corner triangle,
        # so the restricted envelope lives over that smaller polytope.
        assert lat.delta != delta
        assert lat.delta.volume == F(1, 2)
        assert tc.ma_measure(lat).total_mass == F(1, 2)


class TestOrthogonalityDefect:
    def test_envelope_has_zero_defect(self):
        rng = random.Random(61)
        for delta in (UNIT, SQ):
            n = delta.dim
            mk = lambda: tc.envelope(
                delta,
                [
                    (tuple(F(rng.randint(-4, 4), 2) for _ in range(n)), F(rng.randint(-3, 3), 2))
                    for _ in range(3)
                ],
            )
            tf = tc.TestFunction([mk(), mk()])
            env = tc.psh_envelope(tf)
            assert tc.orthogonality_defect(tf, env) == 0

    def test_constant_shift_defect(self):
        tf = tc.TestFunction([tc.g_delta(SQ), tc.envelope(SQ, [((1, 0), 0)])])
        env = tc.psh_envelope(tf)
        c = F(3, 7)
        assert tc.orthogonality_defect(tf, env.shift(-c)) == c * SQ.volume

    def test_not_dominated(self):
        tf = tc.TestFunction([tc.g_delta(SQ)])
        env = tc.psh_envelope(tf)
        with pytest.raises(NotDominated):
            tc.orthogonality_defect(tf, env.shift(F(1)))

    def test_lattice_defect_ladder_2d(self):
        delta = tc.newton_polytope([(0, 0), (2, 0), (0, 2)], 2)
        constraints = [((F(1, 3), F(-1, 5)), F(0)), ((F(-1, 2), F(1, 2)), F(1, 4))]
        tf = tc.TestFunction([tc.envelope(delta, [c]) for c in constraints])
        defects = []
        for m in (1, 2, 4, 8):
            lat = tc.lattice_envelope(delta, constraints, m)
            d = tc.orthogonality_defect(tf, lat)
            assert d >= 0
            defects.append(d)
        assert defects[-1] <= defects[0]
        assert defects[-1] < defects[1] or defects[-1] == 0

    def test_lattice_defect_ladder_1d(self):
        delta = interval(0, 2)
        constraints = [((F(1, 3),), F(0)), ((F(-2, 3),), F(1, 5))]
        tf = tc.TestFunction(
            [tc.envelope(delta, [c]) for c in constraints]
        )
        exact = tc.psh_envelope(tf)
        defects = []
        for m in (1, 2, 4, 8, 16):
            lat = tc.lattice_envelope(delta, constraints, m)
            d = tc.orthogonality_defect(tf, lat)
            assert d >= 0
            defects.append(d)
        assert defects[-1] <= defects[0] / 8
        assert tc.orthogonality_defect(tf, exact) == 0


# --------------------------------------------------------------------------
# The integer piece table and lattice heights against the Fraction routes
# they replaced.
# --------------------------------------------------------------------------


def ref_pieces(f):
    """The Fraction construction of the pieces: u(v) = <x, v> - t at each
    vertex v of a cell, read from the first cell that has v."""
    seen = {}
    for (x, t), cell in zip(f.generators, f.cells):
        for v in cell.vertices:
            if v not in seen:
                seen[v] = pg.dot(x, v) - t
    return tuple(sorted(seen.items()))


def _derived_potentials(dim, seeds):
    """Seeded potentials from every constructor that makes one."""
    rng = random.Random(211 + dim)
    for f, g in _seeded_pairs(dim, seeds):
        yield f
        yield f.shift(F(-7, 3))
        yield tc.scale_potential(g, F(5, 3))
        yield tc._pair_sum(f, g)
        yield tc.max_combine(f, g.shift(F(1, 4)))
        constraints = [
            (tuple(F(rng.randint(-8, 8), 4) for _ in range(dim)), F(rng.randint(-6, 6), 5))
            for _ in range(1 + rng.randrange(4))
        ]
        yield tc.lattice_envelope(f.delta, constraints, rng.choice((1, 2, 3, 5)))


class TestIntegerPiecesAgainstFractions:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_pieces_and_values(self, dim):
        rng = random.Random(223 + dim)
        for f in _derived_potentials(dim, range(12)):
            want = ref_pieces(f)
            assert pieces(f) == want
            assert all(type(c) is F for v, u in want for c in v + (u,))
            points = [
                tuple(rng.randint(-9, 9) for _ in range(dim)),
                tuple(F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(dim)),
                tuple(F(rng.randint(-10**15, 10**15), rng.randint(1, 10**12)) for _ in range(dim)),
            ]
            points += [x for x, _ in f.generators]
            for y in points:
                got = f.value(y)
                assert type(got) is F
                assert got == max(pg.dot(v, y) - uv for v, uv in want)

    def test_generators_interpolate(self):
        for dim in (1, 2):
            for f in _derived_potentials(dim, range(6)):
                assert all(f.value(x) == t for x, t in f.generators)

    def test_shift_adds_the_constant(self):
        f = tc.envelope(SQ, [((0, 0), 0), ((1, 1), F(1, 2)), ((-1, 2), F(3, 4))])
        for c in (F(5, 3), F(-1, 7), 2):
            g = f.shift(c)
            assert pieces(g) == tuple((v, u - c) for v, u in pieces(f)) == ref_pieces(g)
            for y in ((0, 0), (F(1, 3), F(-5, 2)), (7, F(10**12 + 1, 10**9))):
                assert g.value(y) == f.value(y) + c

    def test_shifted_and_scaled_values_are_in_lowest_terms(self):
        """shift and scale_potential keep their sites and values in lowest
        terms, as the potential built from the same generators does."""
        for dim in (1, 2):
            for f, _ in _seeded_pairs(dim, range(6)):
                for c in (F(-7, 3), F(1, 4), F(5, 6)):
                    shifted = [(x, t + c) for x, t in f.generators]
                    assert f.shift(c).integer_generators == tc.ToricPsh(f.delta, shifted).integer_generators
                g = tc.scale_potential(f, F(5, 3))
                assert g.integer_generators == tc.ToricPsh(g.delta, g.generators).integer_generators


    def test_cell_vertices_stay_an_unbuilt_view(self):
        """Envelope, measure, energy and table read the cells' integer
        loops; no cell's Fraction vertices are made on the way."""
        delta = tc.newton_polytope([(0, 0), (2, 0), (3, 2), (1, 3), (0, 1)], 2)
        f = tc.envelope(delta, [((0, 0), 0), ((F(1, 2), F(-1, 3)), F(1, 4)), ((-1, F(1, 2)), F(3, 5))])
        ref = tc.g_delta(delta)
        tc.ma_measure(f), tc.energy(f, ref), f.table, ref.table
        assert all("vertices" not in cell.__dict__ for p in (f, ref) for cell in p.cells)
        assert f.cells[0].vertices and "vertices" in f.cells[0].__dict__


class TestLatticeDualHeights:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_against_fraction_route(self, dim):
        """Every height for m <= 16, a sample of 300 for m = 32 and 64."""
        rng = random.Random(227 + dim)
        for seed in range(4):
            delta = hx.gen_polytope(hx.SplitMix64(seed), dim, 6)
            constraints = [
                (tuple(F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(dim)), F(rng.randint(-6, 6), 7))
                for _ in range(1 + rng.randrange(5))
            ]
            for m in (1, 2, 3, 5, 8, 16, 32, 64):
                points = tc._lattice_points(delta, m)
                forms, e = tc._dual_forms(pg.integer_sites(constraints), m)
                if m > 16:
                    points = rng.sample(points, min(300, len(points)))
                for k0, k1 in points:
                    q = (F(k0, m), F(k1, m))[:dim]
                    assert contains(delta.body, q)
                    h = max(a * k0 + b * k1 - c for a, b, c in forms)
                    assert F(h, e) == max(pg.dot(x, q) - t for x, t in constraints)

    def test_degenerate_lattices_raise_empty_lattice(self):
        """One lattice point in 1-D and three collinear ones in 2-D: no
        span, the same EmptyLattice message as the hull of row ends gave."""
        for delta, m in ((tc.newton_polytope([(F(1, 3),), (F(3, 2),)], 1), 1), (tc.newton_polytope([(0, 0), (F(5, 2), 0), (0, F(1, 2))], 2), 1)):
            with pytest.raises(EmptyLattice, match=f"the 1/{m} lattice points of Delta do not span"):
                tc.lattice_envelope(delta, [(tuple(0 for _ in range(delta.dim)), 0)], m)

    def test_proper_sublattice_hull_is_the_lattice_hull(self):
        delta = tc.newton_polytope([(0, 0), (F(5, 2), 0), (F(1, 2), F(7, 4)), (0, F(3, 2))], 2)
        for m in (1, 2, 3):
            lat = tc.lattice_envelope(delta, [((F(1, 4), F(1, 3)), 0), ((1, -1), F(1, 2))], m)
            q = [(F(k0, m), F(k1, m)) for k0, k1 in tc._lattice_points(delta, m)]
            assert lat.delta.body == pg.hull(q, 2) != delta.body
            assert tc.ma_measure(lat).total_mass == lat.delta.volume < delta.volume


def test_lattice_points_are_the_box_points_delta_contains():
    """`_lattice_points` against a scan of Delta's 1/m bounding box,
    row by row in the second entry, filtered by `contains`, at m = 1..12
    on 1-D and 2-D polytopes with rational and negative vertices."""
    rng = random.Random(239)
    coord = lambda: F(rng.randint(-6, 6), rng.randint(1, 4))
    deltas = [tc.newton_polytope([(F(-7, 3), F(-1, 2)), (F(5, 4), F(-1, 2)), (F(5, 4), F(2, 3)), (F(-7, 3), F(2, 3))], 2)]
    for dim in (1, 2):
        while len(deltas) < 6 * dim:
            body = pg.hull([tuple(coord() for _ in range(dim)) for _ in range(rng.randint(2, 6))], dim)
            if body.is_full_dimensional:
                deltas.append(tc.NewtonPolytope(body))
    for delta in deltas:
        n, v = delta.dim, delta.body.vertices
        for m in range(1, 13):
            box = [range(math.ceil(min(q[k] for q in v) * m), math.floor(max(q[k] for q in v) * m) + 1) for k in range(n)]
            rows = box[1] if n == 2 else [0]
            want = [(kx, ky) for ky in rows for kx in box[0] if contains(delta.body, (F(kx, m), F(ky, m))[:n])]
            assert tc._lattice_points(delta, m) == want


class TestWeightAt:
    def test_against_a_scan_of_the_atoms(self):
        for dim in (1, 2):
            for f in _derived_potentials(dim, range(4)):
                mu = tc.ma_measure(f)
                scan = lambda p: next((w for q, w in mu.atoms if q == tuple(map(F, p))), F(0))
                probes = [p for p, _ in mu.atoms] + [tuple(range(dim)), tuple(F(1, 7) for _ in range(dim))]
                probes += [tuple(int(c) for c in p) for p, _ in mu.atoms if all(c.denominator == 1 for c in p)]
                for p in probes:
                    assert mu.weight_at(p) == scan(p)


class TestEquality:
    """A potential's identity is its polytope and its canonical generators:
    equal potentials built by different routes compare and hash equal."""

    @staticmethod
    def routes(f):
        c = F(-7, 3)
        yield "shift there and back", f.shift(c).shift(-c)
        yield "max with itself", tc.max_combine(f, f)
        yield "scaled by 2, then by 1/2", tc.scale_potential(tc.scale_potential(f, 2), F(1, 2))
        yield "envelope of its generators", tc.envelope(f.delta, f.generators)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_routes_to_one_potential(self, dim):
        for f, g in [*_seeded_pairs(dim, range(10)), (tc.g_delta(SQ if dim == 2 else UNIT),) * 2]:
            for name, h in self.routes(f):
                assert h == f and hash(h) == hash(f), name
            assert (g == f) == (g.generators == f.generators)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_value_changed_is_unequal(self, dim):
        for f, _ in _seeded_pairs(dim, range(10)):
            for a, (x, t) in enumerate(f.generators):
                gens = list(f.generators)
                gens[a] = (x, t - F(1, 5))
                assert tc.envelope(f.delta, gens) != f
        assert tc.g_delta(SQ).shift(1) != tc.g_delta(SQ) != tc.g_delta(TRI)

    def test_comparing_makes_no_fraction(self, monkeypatch):
        """Equality and hashing read `integer_generators`: comparing two
        built potentials makes no Fraction."""
        import fractions

        pairs = [(f, h) for f, g in _seeded_pairs(2, range(4)) for h in (g, tc.max_combine(f, f))]
        created, new = [], fractions.Fraction.__new__
        monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(lambda cls, *a, **k: created.append(a) or new(cls, *a, **k)))
        outcomes = [(f == h, hash(f) == hash(h)) for f, h in pairs]
        monkeypatch.undo()
        assert created == []
        assert outcomes == [(False, False), (True, True)] * 4
