"""Property-based invariants over randomized structures (hypothesis)."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from nama import curves as cv
from nama import harness as hx
from nama import polyhedra as pg
from nama import toric as tc
from test_polyhedra import support_value


def fractions(bound=3, den=6):
    return st.builds(F, st.integers(-bound * den, bound * den), st.just(den))


@st.composite
def deltas(draw):
    dim = draw(st.integers(1, 2))
    if dim == 1:
        a = draw(st.integers(-2, 0))
        b = draw(st.integers(a + 1, 3))
        return tc.newton_polytope([(a,), (b,)], 1)
    corners = [
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(0, 0), (2, 0), (0, 1)],
        [(-1, -1), (1, 0), (2, 2), (-1, 1)],
    ]
    return tc.newton_polytope(corners[draw(st.integers(0, 2))], 2)


@st.composite
def potentials(draw, delta=None):
    if delta is None:
        delta = draw(deltas())
    n = delta.dim
    count = draw(st.integers(1, 4))
    gens = []
    for _ in range(count):
        site = tuple(draw(fractions()) for _ in range(n))
        value = draw(fractions(2, 4))
        gens.append((site, value))
    return tc.envelope(delta, gens)


@st.composite
def potential_pairs(draw):
    delta = draw(deltas())
    return draw(potentials(delta=delta)), draw(potentials(delta=delta))


@st.composite
def generated_deltas(draw):
    """Intervals and polygons from the harness's own generator."""
    rng = hx.SplitMix64(draw(st.integers(0, 2**64 - 1)))
    return hx.gen_polytope(rng, draw(st.integers(1, 2)), draw(st.integers(3, 8)))


@settings(max_examples=80, deadline=None)
@given(generated_deltas(), st.lists(st.builds(F, st.integers(-10**9, 10**9), st.integers(1, 10**6)), min_size=2, max_size=2))
def test_g_delta_is_the_support_function(delta, coords):
    """g_Delta(y) = max over the vertices m of Delta of <m, y>, in Fractions."""
    y = tuple(coords[: delta.dim])
    assert tc.g_delta(delta).value(y) == support_value(delta.body, y)


@settings(max_examples=60, deadline=None)
@given(potentials())
def test_mass_is_polytope_volume(f):
    assert tc.ma_measure(f).total_mass == f.delta.volume


@settings(max_examples=60, deadline=None)
@given(potentials())
def test_generators_are_interpolated(f):
    for x, t in f.generators:
        assert f.value(x) == t


@settings(max_examples=40, deadline=None)
@given(potential_pairs(), st.builds(F, st.integers(1, 12), st.just(4)))
def test_kept_masses_are_cell_volumes(pair, s):
    f, g = pair
    for h in (f, f.shift(s), tc.max_combine(f, g), tc.affine_combination([(s, f), (1, g)])):
        assert [w for _, w in tc.ma_measure(h).atoms] == [pg.volume(c) for c in h.cells]


@settings(max_examples=40, deadline=None)
@given(potential_pairs(), fractions(2, 3))
def test_envelope_commutes_with_constants(pair, c):
    f, _ = pair
    tf = tc.TestFunction([f])
    assert tc.psh_envelope(tf.shift(c)) == tc.psh_envelope(tf).shift(c)


@settings(max_examples=40, deadline=None)
@given(potential_pairs(), st.lists(fractions(), min_size=2, max_size=6))
def test_max_combine_pointwise(pair, coords):
    f, g = pair
    h = tc.max_combine(f, g)
    n = f.delta.dim
    pts = [tuple(coords[i : i + n]) for i in range(0, len(coords) - n + 1, n)]
    for y in pts:
        assert h.value(y) == max(f.value(y), g.value(y))


@settings(max_examples=30, deadline=None)
@given(potential_pairs())
def test_energy_difference_formula(pair):
    f, g = pair
    ref = tc.g_delta(f.delta)
    n = f.delta.dim
    lhs = tc.legendre_energy(g, ref) - tc.legendre_energy(f, ref)
    rhs = F(0)
    for j in range(n + 1):
        mu = tc.mixed_ma([f] * j + [g] * (n - j))
        rhs += sum((w * (g.value(q) - f.value(q)) for q, w in mu.atoms), F(0))
    assert lhs == rhs / (n + 1)


@settings(max_examples=30, deadline=None)
@given(potential_pairs())
def test_comparison_principle(pair):
    f, g = pair
    mu_f, mu_g = tc.ma_measure(f), tc.ma_measure(g)
    lhs = sum((w for p, w in mu_g.atoms if f.value(p) < g.value(p)), F(0))
    rhs = sum((w for p, w in mu_f.atoms if f.value(p) < g.value(p)), F(0))
    assert lhs <= rhs


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 8))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.append((u, v, F(draw(st.integers(1, 6)), draw(st.integers(1, 3)))))
    extra = draw(st.integers(0, 3))
    for _ in range(extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.append((u, v, F(draw(st.integers(1, 6)), 2)))
    return cv.MetricGraph(n, tuple(edges))


@settings(max_examples=50, deadline=None)
@given(graphs(), st.data())
def test_ddc_mass_zero(g, data):
    vals = [
        data.draw(fractions(4, 4), label=f"value{v}") for v in range(g.vertex_count)
    ]
    f = cv.GraphFunction.on(g, vals)
    assert cv.ddc(g, f).total_mass == 0


@settings(max_examples=40, deadline=None)
@given(graphs(), st.data())
def test_poisson_round_trip(g, data):
    n = g.vertex_count
    w1 = [F(data.draw(st.integers(0, 4), label=f"o{v}")) for v in range(n)]
    w2 = [F(data.draw(st.integers(0, 4), label=f"m{v}")) for v in range(n)]
    if sum(w1) == 0:
        w1[0] = F(1)
    if sum(w2) == 0:
        w2[0] = F(1)
    w2 = [x * sum(w1) / sum(w2) for x in w2]
    omega = cv.GraphMeasure.on(g, w1)
    mu = cv.GraphMeasure.on(g, w2)
    phi = cv.solve_poisson(g, omega, mu)
    assert cv.curvature(g, omega, phi).vertex_weights == tuple(w2)
    assert max(phi.values) == 0
