"""Metric graph tests: dd^c, Green functions, Poisson, energy."""

import random
from operator import mul
from fractions import Fraction as F

import pytest

from nama import curves as cv
from nama import harness as hx
from nama.errors import MassMismatch, NotPsh, SameVertex
from nama.linalg import ExactLinearSolver, integers, solve_exact


def path2():
    return cv.MetricGraph(2, ((0, 1, F(1)),))


def cycle3():
    return cv.MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1)), (2, 0, F(1))))


def star(leaves=3):
    return cv.MetricGraph(
        leaves + 1, tuple((0, i + 1, F(1, i + 1)) for i in range(leaves))
    )


def random_graph(rng, max_vertices=12):
    n = rng.randint(2, max_vertices)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, F(rng.randint(1, 8), rng.randint(1, 4))))
    for _ in range(rng.randint(0, n // 2)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, F(rng.randint(1, 8), rng.randint(1, 4))))
    return cv.MetricGraph(n, tuple(edges))


def reference_grounded_solve(n, weighted_edges, ground, rhs):
    """Dense Fraction Gaussian elimination with partial pivoting on the
    grounded Laplacian, built straight from the edge list."""
    keep = [v for v in range(n) if v != ground]
    index = {v: i for i, v in enumerate(keep)}
    m = len(keep)
    a = [[F(0)] * m + [F(rhs[v])] for v in keep]
    for u, v, w in weighted_edges:
        for p, q in ((u, v), (v, u)):
            if p != ground:
                a[index[p]][index[p]] += w
                if q != ground:
                    a[index[p]][index[q]] -= w
    for c in range(m):
        r = max(range(c, m), key=lambda r: abs(a[r][c]))
        if a[r][c] == 0:
            raise ValueError("singular")
        a[c], a[r] = a[r], a[c]
        for r in range(c + 1, m):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    x = [F(0)] * m
    for r in reversed(range(m)):
        x[r] = (a[r][m] - sum((a[r][k] * x[k] for k in range(r + 1, m)), F(0))) / a[r][r]
    out = [F(0)] * n
    for v, i in index.items():
        out[v] = x[i]
    return out


def grounded_solve(g, rhs, ground):
    """x with L x = rhs and x(ground) = 0, through PoissonSolver.solve_over."""
    x, d = cv.PoissonSolver(g, ground).solve_over(*integers(rhs))
    return [F(v, d) for v in x]


def built(cls, per_vertex, per_edge=()):
    """A GraphFunction or GraphMeasure from Fraction entries per vertex and
    sorted (position, entry) lists per edge, () for no lists, unchecked."""
    xs, d = integers([*per_vertex, *(x for items in per_edge for _, x in items)])
    return cls(xs, d, tuple(tuple(p for p, _ in items) for items in per_edge))


def on_edges(x):
    """A GraphFunction's breakpoints or a GraphMeasure's interior atoms as
    Fractions: per edge, its (position, entry) pairs; () for no lists."""
    xs, d = x.integers
    return tuple(tuple((p, F(v, d)) for p, v in items) for items in x.split(xs)[1])


def shift(f, c):
    """f + c, breakpoints included."""
    bps = tuple(tuple((p, x + c) for p, x in b) for b in on_edges(f))
    return built(cv.GraphFunction, [v + c for v in f.values], bps)


def profile(graph, f, e):
    """Positions and values of f along edge e, endpoints included."""
    u, v, _ = graph.edges[e]
    bps = on_edges(f)
    return [(F(0), f.values[u]), *(bps[e] if bps else ()), (F(1), f.values[v])]


def value_on_edge(graph, f, e, pos):
    """f at position pos of edge e, interpolated in Fractions along its profile."""
    prof = profile(graph, f, e)
    for (p0, x0), (p1, x1) in zip(prof, prof[1:]):
        if p0 <= pos <= p1:
            return x0 + (x1 - x0) * (pos - p0) / (p1 - p0)


def max_graph(graph, f, g):
    """Pointwise maximum; transversal crossings become breakpoints."""
    values = tuple(max(a, b) for a, b in zip(f.values, g.values))
    out_bps = [[] for _ in graph.edges]
    for e in range(len(graph.edges)):
        pf = profile(graph, f, e)
        pgr = profile(graph, g, e)
        pos = sorted({p for p, _ in pf} | {p for p, _ in pgr})
        for p0, p1 in zip(pos, pos[1:]):
            a0 = value_on_edge(graph, f, e, p0) - value_on_edge(graph, g, e, p0)
            a1 = value_on_edge(graph, f, e, p1) - value_on_edge(graph, g, e, p1)
            if p0 != 0:
                fv = value_on_edge(graph, f, e, p0)
                gv = value_on_edge(graph, g, e, p0)
                out_bps[e].append((p0, max(fv, gv)))
            if (a0 < 0 < a1) or (a1 < 0 < a0):
                t = a0 / (a0 - a1)
                pc = p0 + t * (p1 - p0)
                out_bps[e].append((pc, value_on_edge(graph, f, e, pc)))
    return built(cv.GraphFunction, values, [sorted(set(b)) for b in out_bps])


def harness_graphs(seed=41):
    """Seeded harness graphs of 2..30 vertices; every third one gains a
    parallel edge."""
    rng = hx.SplitMix64(seed)
    graphs = []
    for max_vertices in range(2, 31):
        g = hx.gen_graph(rng, max_vertices)
        if max_vertices % 3 == 0:
            u, v, _ = g.edges[-1]
            g = cv.MetricGraph(g.vertex_count, g.edges + ((v, u, F(5, 3)),))
        graphs.append(g)
    assert any(len({frozenset(e[:2]) for e in g.edges}) < len(g.edges) for g in graphs)
    return graphs


def conductances(g):
    return [(u, v, 1 / l) for u, v, l in g.edges]


def random_rhs(rng, n):
    return [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]


def ref_ddc(g, f):
    """dd^c on the subdivision at f's breakpoints: the vertex stencil,
    with the inserted vertices' weights read back as interior atoms."""
    sub, inserted = cv.subdivide(g, [[p for p, _ in bps] for bps in on_edges(f)])
    vals = list(f.values) + [value_on_edge(g, f, e, p) for e, p, _ in inserted]
    weights = [F(0)] * sub.vertex_count
    for u, v, l in sub.edges:
        weights[u] += (vals[v] - vals[u]) / l
        weights[v] -= (vals[v] - vals[u]) / l
    atoms = [[] for _ in g.edges]
    for e, p, vid in inserted:
        if weights[vid] != 0:
            atoms[e].append((p, weights[vid]))
    return built(cv.GraphMeasure, weights[: g.vertex_count], atoms)


def ref_solve_poisson(g, omega, mu):
    """Poisson on the subdivision at every nonzero atom of either measure,
    with the inserted vertices' values read back as breakpoints."""
    positions = [set() for _ in g.edges]
    for m in (omega, mu):
        for e, bps in enumerate(on_edges(m)):
            positions[e].update(p for p, x in bps if x != 0)
    sub, inserted = cv.subdivide(g, positions)
    vid = {(e, p): i for e, p, i in inserted}
    rhs = [a - b for a, b in zip(omega.vertex_weights, mu.vertex_weights)]
    rhs += [F(0)] * len(inserted)
    for m, sign in ((omega, 1), (mu, -1)):
        for e, bps in enumerate(on_edges(m)):
            for p, x in bps:
                if x != 0:
                    rhs[vid[(e, p)]] += sign * x
    vals = solve_exact(sub.vertex_count, conductances(sub), 0, rhs)
    top = max(vals)
    bps = [[] for _ in g.edges]
    for e, p, i in inserted:
        bps[e].append((p, vals[i] - top))
    return built(cv.GraphFunction, [x - top for x in vals[: g.vertex_count]], bps)


class TestLinalg:
    def test_solve_exact(self):
        rng = random.Random(2)
        for g in harness_graphs():
            n = g.vertex_count
            for ground in (0, n - 1):
                b = random_rhs(rng, n)
                want = reference_grounded_solve(n, conductances(g), ground, b)
                assert solve_exact(n, conductances(g), ground, b) == want

    def test_exact_solver_matches(self):
        rng = random.Random(3)
        for g in harness_graphs(43):
            n = g.vertex_count
            for ground in (0, n - 1):
                fact = ExactLinearSolver(n, conductances(g), ground)
                for _ in range(4):
                    b = random_rhs(rng, n)
                    assert fact.solve(b) == reference_grounded_solve(n, conductances(g), ground, b)

    def test_coprime_weights_parallel_edges_every_ground(self):
        """Weights over many coprime denominators, as the toric solver's
        walls have, with parallel edges, every vertex as the ground and
        several right-hand sides, integer and rational, on one factor."""
        rng = random.Random(5)
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        for n in range(2, 11):
            edges = [(v, rng.randrange(v), F(rng.randint(1, 40), rng.choice(primes))) for v in range(1, n)]
            u, v, _ = edges[-1]
            edges.append((v, u, F(rng.randint(1, 40), rng.choice(primes))))
            for _ in range(n):
                u, v = rng.sample(range(n), 2)
                edges.append((u, v, F(rng.randint(1, 40), rng.choice(primes) * rng.choice(primes))))
            for ground in range(n):
                fact = ExactLinearSolver(n, edges, ground)
                for b in (random_rhs(rng, n), random_rhs(rng, n), [rng.randint(-9, 9) for _ in range(n)]):
                    assert fact.solve(b) == reference_grounded_solve(n, edges, ground, b)

    def test_weights_already_over_one_denominator(self):
        """Weights handed over as integers over their denominator give the
        same factor and solves as the same weights as rationals."""
        rng = random.Random(27)
        for n in range(2, 9):
            edges = [(v, rng.randrange(v), F(rng.randint(1, 40), rng.randint(1, 12))) for v in range(1, n)]
            edges += [(*rng.sample(range(n), 2), F(rng.randint(1, 40), rng.randint(1, 12))) for _ in range(n)]
            ws, den = integers([w for *_, w in edges])
            over = [(u, v, w) for (u, v, _), w in zip(edges, ws)]
            for ground in (0, n - 1):
                fact, whole = ExactLinearSolver(n, over, ground, den), ExactLinearSolver(n, edges, ground)
                for b in (random_rhs(rng, n), [rng.randint(-9, 9) for _ in range(n)]):
                    assert fact.solve_over(*integers(b)) == whole.solve_over(*integers(b))
                    assert fact.solve(b) == reference_grounded_solve(n, edges, ground, b)

    def test_integer_right_hand_side_with_a_rational_solution(self):
        """Integer weights and right-hand sides whose solutions are not
        integral: the solve has to scale its common denominator up, in the
        elimination (the triangle) or in the back substitution (the path)."""
        triangle = [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1)]
        path = [(1, 0, 2), (2, 1, 2)]
        for edges, b in ((triangle, [-1, 1, 0, 0]), (triangle, [0, 1, 0, 0]), (path, [-1, 0, 1])):
            n = len(b)
            got = solve_exact(n, edges, 0, b)
            assert got == reference_grounded_solve(n, edges, 0, b)
            assert any(x.denominator > 1 for x in got)

    def test_singular(self):
        """Edge sets that leave a vertex unconnected to the ground."""
        split = [(0, 1, F(1)), (2, 3, F(2))]
        isolated = [(0, 1, F(1)), (1, 2, F(1, 2))]
        for n, edges in ((4, split), (4, isolated)):
            for ground in range(n):
                with pytest.raises(ValueError):
                    solve_exact(n, edges, ground, [F(0)] * n)
                with pytest.raises(ValueError):
                    ExactLinearSolver(n, edges, ground)


class TestGraphBasics:
    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            cv.MetricGraph(3, ((0, 1, F(1)),))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            cv.MetricGraph(2, ((0, 0, F(1)),))

    @pytest.mark.parametrize("edge", [(0, 1.5, 1), (0, F(1), 1), (False, True, 1), ("0", 1, 1)])
    def test_non_integer_endpoint_rejected(self, edge):
        with pytest.raises(ValueError, match="edge 1 endpoints must be integers"):
            cv.MetricGraph(2, ((0, 1, F(1)), edge))

    def test_more_vertices_than_edges_plus_one_rejected(self):
        with pytest.raises(ValueError, match="graph is not connected: 1000000000 vertices but 1 edges"):
            cv.MetricGraph(10**9, ((0, 1, F(1)),))

    def test_parallel_edges_allowed(self):
        g = cv.MetricGraph(2, ((0, 1, F(1)), (0, 1, F(2))))
        assert len(g.edges) == 2

    def test_a_function_never_equals_a_measure_with_the_same_numbers(self):
        g = path2()
        f = cv.GraphFunction.on(g, [F(1), F(-1, 2)], [((F(1, 2), F(3)),)])
        m = cv.GraphMeasure.on(g, [F(1), F(-1, 2)], [((F(1, 2), F(3)),)])
        assert f == cv.GraphFunction.on(g, [F(1), F(-1, 2)], [((F(1, 2), F(3)),)])
        assert m == cv.GraphMeasure.on(g, [F(1), F(-1, 2)], [((F(1, 2), F(3)),)])
        assert f != m and m != f


class TestDdc:
    def test_constant_function(self):
        g = cycle3()
        f = cv.GraphFunction.on(g, [F(3)] * 3)
        m = cv.ddc(g, f)
        assert m.vertex_weights == (0, 0, 0)
        assert m.total_mass == 0

    def test_two_vertex_path(self):
        g = path2()
        f = cv.GraphFunction.on(g, [F(0), F(-1)])
        m = cv.ddc(g, f)
        assert m.vertex_weights == (F(-1), F(1))

    def test_total_mass_zero_and_stencil_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(rng)
            f = cv.GraphFunction.on(
                g, [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(g.vertex_count)]
            )
            m = cv.ddc(g, f)
            assert m.total_mass == 0
            # Independent stencil recomputation.
            for v in range(g.vertex_count):
                acc = F(0)
                for u, w, l in g.edges:
                    if u == v:
                        acc += (f.values[w] - f.values[v]) / l
                    elif w == v:
                        acc += (f.values[u] - f.values[v]) / l
                assert m.vertex_weights[v] == acc

    def test_breakpoint_function(self):
        g = path2()
        f = cv.GraphFunction.on(g, [F(0), F(0)], [((F(1, 2), F(-1)),)])
        m = cv.ddc(g, f)
        # Kink at the midpoint: slopes -2 then +2, so the atom carries +4
        # and each endpoint -2.
        assert m.vertex_weights == (F(-2), F(-2))
        assert on_edges(m)[0] == ((F(1, 2), F(4)),)
        assert m.total_mass == 0


class TestGreen:
    def test_defining_property_round_trip(self):
        rng = random.Random(13)
        for _ in range(15):
            g = random_graph(rng)
            x, y = rng.randrange(g.vertex_count), rng.randrange(g.vertex_count)
            if x == y:
                continue
            gf = cv.green(g, x, y)
            m = cv.ddc(g, gf)
            expect = [F(0)] * g.vertex_count
            expect[x] += 1
            expect[y] -= 1
            assert list(m.vertex_weights) == expect
            assert gf.values[y] == 0

    def test_antisymmetry_up_to_constant(self):
        g = cycle3()
        a = cv.green(g, 0, 2)
        b = cv.green(g, 2, 0)
        s = [x + y for x, y in zip(a.values, b.values)]
        assert len(set(s)) == 1

    def test_same_vertex(self):
        with pytest.raises(SameVertex):
            cv.green(cycle3(), 1, 1)

    def test_3_cycle_against_dense_solve(self):
        g = cycle3()
        gf = cv.green(g, 0, 1)
        want = reference_grounded_solve(3, conductances(g), 1, [F(-1), F(1), F(0)])
        assert list(gf.values) == want

    def test_green_against_reference(self):
        rng = random.Random(5)
        for g in harness_graphs(47):
            n = g.vertex_count
            for x, y in ((n - 1, 0), (0, n - 1), (rng.randrange(n), rng.randrange(n))):
                if x == y:
                    continue
                rhs = [F(0)] * n
                rhs[y] += 1
                rhs[x] -= 1
                want = reference_grounded_solve(n, conductances(g), y, rhs)
                assert list(cv.green(g, x, y).values) == want


class TestPoisson:
    def test_identity_measure(self):
        g = cycle3()
        w = cv.GraphMeasure.on(g, [F(1), F(1), F(1)])
        phi = cv.solve_poisson(g, w, w)
        assert set(phi.values) == {F(0)}

    def test_mass_mismatch(self):
        g = cycle3()
        w1 = cv.GraphMeasure.on(g, [F(1), F(0), F(0)])
        w2 = cv.GraphMeasure.on(g, [F(0), F(2), F(0)])
        with pytest.raises(MassMismatch):
            cv.solve_poisson(g, w1, w2)

    def test_round_trip_exact(self):
        rng = random.Random(17)
        for _ in range(15):
            g = random_graph(rng)
            n = g.vertex_count
            w1 = [F(rng.randint(0, 5)) for _ in range(n)]
            w2 = [F(rng.randint(0, 5)) for _ in range(n)]
            if sum(w1) == 0 or sum(w2) == 0:
                continue
            scale = F(sum(w1), sum(w2))
            w2 = [x * scale for x in w2]
            omega = cv.GraphMeasure.on(g, w1)
            mu = cv.GraphMeasure.on(g, w2)
            phi = cv.solve_poisson(g, omega, mu)
            got = cv.curvature(g, omega, phi)
            assert got.vertex_weights == mu.vertex_weights
            assert all(not bp for bp in on_edges(got))
            assert max(phi.values) == 0

    def test_star_green_superposition(self):
        g = star(3)
        omega = cv.GraphMeasure.on(g, [F(3), F(0), F(0), F(0)])
        mu = cv.GraphMeasure.on(g, [F(0), F(1), F(1), F(1)])
        phi = cv.solve_poisson(g, omega, mu)
        acc = [F(0)] * 4
        for leaf in (1, 2, 3):
            gf = cv.green(g, leaf, 0)
            acc = [a + b for a, b in zip(acc, gf.values)]
        shift = max(acc)
        expected = tuple(a - shift for a in acc)
        assert phi.values == expected

    def test_uniqueness_different_ground(self):
        rng = random.Random(19)
        g = random_graph(rng)
        n = g.vertex_count
        w1 = [F(rng.randint(1, 4)) for _ in range(n)]
        w2 = [F(rng.randint(1, 4)) for _ in range(n)]
        scale = F(sum(w1), sum(w2))
        w2 = [x * scale for x in w2]
        rhs = [a - b for a, b in zip(w1, w2)]
        v0, v1 = grounded_solve(g, rhs, 0), grounded_solve(g, rhs, n - 1)
        diffs = {a - b for a, b in zip(v0, v1)}
        assert len(diffs) == 1

    def test_poisson_solver_against_reference(self):
        rng = hx.SplitMix64(7)
        for g in harness_graphs(53):
            n = g.vertex_count
            for ground in (0, n - 1):
                solver = cv.PoissonSolver(g, ground)
                for _ in range(3):
                    omega = hx.gen_graph_measure(rng, n, F(n))
                    mu = hx.gen_graph_measure(rng, n, F(n))
                    rhs = [a - b for a, b in zip(omega, mu)]
                    want = reference_grounded_solve(n, conductances(g), ground, rhs)
                    top = max(want)
                    assert solver.solve(cv.GraphMeasure.on(g, omega), cv.GraphMeasure.on(g, mu)).values == tuple(
                        v - top for v in want
                    )

    def test_interior_atom_subdivision(self):
        g = path2()
        omega = cv.GraphMeasure.on(g, [F(1), F(1)])
        mu = cv.GraphMeasure.on(g, [F(0), F(0)], [((F(1, 2), F(2)),)])
        phi = cv.solve_poisson(g, omega, mu)
        rho = cv.curvature(g, omega, phi)
        assert rho.vertex_weights == (F(0), F(0))
        assert on_edges(rho)[0] == ((F(1, 2), F(2)),)


def balanced(g, wo, ao, wm, am):
    """omega and mu from vertex weights and per-edge {position: weight}
    dicts, mu scaled to omega's total mass."""
    omega = cv.GraphMeasure.on(g, wo, [sorted(a.items()) for a in ao])
    s = omega.total_mass / (sum(wm) + sum(x for a in am for x in a.values()))
    mu = cv.GraphMeasure.on(
        g, [x * s for x in wm], [sorted((p, x * s) for p, x in a.items()) for a in am]
    )
    return omega, mu


def seeded_atom_instances(seed=59, count=40):
    """Harness graphs with 0-3 interior atoms per measure on random edges;
    every third instance puts a mu atom at one of omega's positions."""
    rng = hx.SplitMix64(seed)
    for k in range(count):
        g = hx.gen_graph(rng, 2 + k % 12)
        n, edges = g.vertex_count, len(g.edges)

        def atoms():
            out = [{} for _ in range(edges)]
            for _ in range(rng.below(4)):
                out[rng.below(edges)][F(rng.int_between(1, 7), 8)] = F(rng.int_between(1, 3))
            return out

        ao, am = atoms(), atoms()
        if k % 3 == 0 and any(ao):
            e = next(i for i, a in enumerate(ao) if a)
            am[e][min(ao[e])] = F(1)
        wo = hx.gen_graph_measure(rng, n, F(n))
        wm = hx.gen_graph_measure(rng, n, F(n))
        yield g, *balanced(g, wo, ao, wm, am)


class TestAgainstSubdivisionReference:
    """solve_poisson and ddc on the graph itself against the same
    operators on the subdivided graph, compared exactly."""

    def check(self, g, omega, mu):
        phi = cv.solve_poisson(g, omega, mu)
        assert phi == ref_solve_poisson(g, omega, mu)
        assert cv.ddc(g, phi) == ref_ddc(g, phi)
        nonzero = tuple(tuple((p, x) for p, x in b if x) for b in on_edges(mu))
        assert cv.curvature(g, omega, phi) == built(cv.GraphMeasure, mu.vertex_weights, nonzero)
        return phi

    def test_seeded_interior_atoms(self):
        with_atoms = 0
        for g, omega, mu in seeded_atom_instances():
            phi = self.check(g, omega, mu)
            with_atoms += any(on_edges(phi))
        assert with_atoms >= 20

    def test_net_zero_charge_keeps_its_breakpoint(self):
        g = cycle3()
        third = F(1, 3)
        for extra in (F(0), F(1)):
            omega, mu = balanced(
                g, [F(1), F(1), F(0)], [{third: F(2)}, {}, {}],
                [F(0), F(1), F(1)], [{third: F(2) + extra}, {}, {}],
            )
            phi = self.check(g, omega, mu)
            assert [p for p, _ in on_edges(phi)[0]] == [third]

    def test_zero_weight_atoms_add_no_breakpoint(self):
        g = cycle3()
        omega, mu = balanced(
            g, [F(1), F(1), F(1)], [{F(1, 2): F(0)}, {}, {F(1, 4): F(1)}],
            [F(1), F(0), F(2)], [{}, {F(1, 4): F(0)}, {}],
        )
        phi = self.check(g, omega, mu)
        assert on_edges(phi) == ((), (), ((F(1, 4), value_on_edge(g, phi, 2, F(1, 4))),))

    def test_atoms_on_parallel_edges(self):
        g = cv.MetricGraph(3, ((0, 1, F(1)), (1, 0, F(2, 3)), (1, 2, F(1, 2)), (0, 1, F(5))))
        omega, mu = balanced(
            g, [F(1), F(0), F(1)], [{F(1, 2): F(1)}, {F(1, 2): F(1)}, {}, {F(1, 5): F(1)}],
            [F(0), F(2), F(0)], [{}, {F(1, 2): F(1)}, {F(3, 4): F(1)}, {F(1, 2): F(1)}],
        )
        self.check(g, omega, mu)

    def test_ddc_of_green_poisson_and_max(self):
        rng = hx.SplitMix64(61)
        for g, omega, mu in seeded_atom_instances(67, 30):
            n = g.vertex_count
            x, y = rng.below(n), rng.below(n)
            gf = cv.green(g, x, y) if x != y else cv.GraphFunction.on(g, [F(0)] * n)
            phi = cv.solve_poisson(g, omega, mu)
            for f in (gf, phi, max_graph(g, gf, phi), max_graph(g, phi, shift(gf, -1))):
                assert cv.ddc(g, f) == ref_ddc(g, f)


class TestEnergy:
    def test_closed_form_agrees_with_the_curvature_route(self):
        """On vertex-supported harness instances the closed form equals
        (int phi d omega + int phi d(omega + dd^c phi)) / 2, and a potential
        that is not omega-psh raises NotPsh at the first negative vertex
        of omega + dd^c phi, with its weight."""
        rng = hx.SplitMix64(71)
        outcomes = set()
        for _ in range(60):
            g = hx.gen_graph(rng, 12)
            n = g.vertex_count
            omega = cv.GraphMeasure.on(g, hx.gen_graph_measure(rng, n, F(n)))
            mu = cv.GraphMeasure.on(g, hx.gen_graph_measure(rng, n, F(n)))
            psi = cv.GraphFunction.on(g, [F(rng.int_between(-6, 6), rng.int_between(1, 3)) for _ in range(n)])
            for phi in (cv.solve_poisson(g, omega, mu), psi):
                rho = cv.curvature(g, omega, phi)
                negative = [(v, w) for v, w in enumerate(rho.vertex_weights) if w < 0]
                outcomes.add(bool(negative))
                if negative:
                    with pytest.raises(NotPsh) as exc:
                        cv.energy_graph(g, phi, omega)
                    assert (exc.value.witness, exc.value.value) == negative[0]
                else:
                    route = (cv.integrate_graph(g, phi, omega) + cv.integrate_graph(g, phi, rho)) / 2
                    assert cv.energy_graph(g, phi, omega) == route
        assert outcomes == {False, True}

    def test_zero_function(self):
        g = cycle3()
        omega = cv.GraphMeasure.on(g, [F(1), F(1), F(1)])
        phi = cv.GraphFunction.on(g, [F(0)] * 3)
        assert cv.energy_graph(g, phi, omega) == 0

    def test_constant_shift(self):
        g = cycle3()
        omega = cv.GraphMeasure.on(g, [F(1), F(2), F(0)])
        phi = cv.GraphFunction.on(g, [F(0), F(-1, 2), F(-1, 3)])
        c = F(5, 7)
        e0 = cv.energy_graph(g, phi, omega)
        e1 = cv.energy_graph(g, shift(phi, c), omega)
        assert e1 == e0 + c * omega.total_mass

    def test_not_psh_witness(self):
        g = path2()
        omega = cv.GraphMeasure.on(g, [F(1, 4), F(1, 4)])
        phi = cv.GraphFunction.on(g, [F(0), F(-1)])  # ddc = (-1, +1)
        with pytest.raises(NotPsh) as exc:
            cv.energy_graph(g, phi, omega)
        assert exc.value.witness == 0

    def test_not_psh_edge_witness(self):
        g = path2()
        omega = cv.GraphMeasure.on(g, [F(3), F(3)])
        phi = cv.GraphFunction.on(g, [F(0), F(0)], [((F(1, 2), F(1)),)])  # ddc = (2, 2), -4 at 1/2
        with pytest.raises(NotPsh) as exc:
            cv.energy_graph(g, phi, omega)
        assert exc.value.witness == (0, F(1, 2))
        assert exc.value.value == -4
        assert str(exc.value) == "negative curvature mass -4 at edge 0 at position 1/2"

    def test_poisson_maximizes_variational_functional(self):
        rng = random.Random(23)
        g = random_graph(rng, 8)
        n = g.vertex_count
        omega_w = [F(1)] * n
        mu_w = [F(rng.randint(0, 3)) for _ in range(n)]
        if sum(mu_w) == 0:
            mu_w[0] = F(1)
        mu_w = [x * F(n, sum(mu_w)) for x in mu_w]
        omega = cv.GraphMeasure.on(g, omega_w)
        mu = cv.GraphMeasure.on(g, mu_w)
        phi = cv.solve_poisson(g, omega, mu)
        best = cv.energy_graph(g, phi, omega) - cv.integrate_graph(g, phi, mu)
        solver = cv.PoissonSolver(g)
        for _ in range(100):
            nu = [F(rng.randint(0, 4)) for _ in range(n)]
            if sum(nu) == 0:
                continue
            nu = [x * F(n, sum(nu)) for x in nu]
            psi = solver.solve(omega, cv.GraphMeasure.on(g, nu))
            val = cv.energy_graph(g, psi, omega) - cv.integrate_graph(g, psi, mu)
            assert val <= best


class TestMaxAndLocality:
    def test_max_crossing_breakpoint(self):
        g = path2()
        f = cv.GraphFunction.on(g, [F(0), F(-1)])
        h = cv.GraphFunction.on(g, [F(-1), F(0)])
        m = max_graph(g, f, h)
        assert m.values == (F(0), F(0))
        assert (F(1, 2), F(-1, 2)) in on_edges(m)[0]

    def test_locality_on_strict_region(self):
        rng = random.Random(29)
        for _ in range(10):
            g = random_graph(rng, 8)
            n = g.vertex_count
            omega = cv.GraphMeasure.on(g, [F(2)] * n)
            solver = cv.PoissonSolver(g)

            def random_psh():
                nu = [F(rng.randint(0, 4)) for _ in range(n)]
                if sum(nu) == 0:
                    nu[0] = F(1)
                nu = [x * F(2 * n, sum(nu)) for x in nu]
                return solver.solve(omega, cv.GraphMeasure.on(g, nu))

            phi, psi = random_psh(), random_psh()
            h = max_graph(g, phi, psi)
            rho_h = cv.curvature(g, omega, h)
            rho_phi = cv.curvature(g, omega, phi)
            for v in range(n):
                if phi.values[v] > psi.values[v]:
                    assert rho_h.vertex_weights[v] == rho_phi.vertex_weights[v]

    def test_comparison_principle(self):
        rng = random.Random(31)
        for _ in range(10):
            g = random_graph(rng, 8)
            n = g.vertex_count
            omega_w = [F(2)] * n
            omega = cv.GraphMeasure.on(g, omega_w)
            solver = cv.PoissonSolver(g)

            def random_psh():
                nu = [F(rng.randint(0, 4)) for _ in range(n)]
                if sum(nu) == 0:
                    nu[0] = F(1)
                nu = [x * F(2 * n, sum(nu)) for x in nu]
                return solver.solve(omega, cv.GraphMeasure.on(g, nu))

            phi, psi = random_psh(), random_psh()
            rho_phi = cv.curvature(g, omega, phi)
            rho_psi = cv.curvature(g, omega, psi)
            region = [v for v in range(n) if phi.values[v] < psi.values[v]]
            lhs = sum(rho_psi.vertex_weights[v] for v in region)
            rhs = sum(rho_phi.vertex_weights[v] for v in region)
            assert lhs <= rhs


def test_the_operators_make_no_fraction_until_values_are_read(monkeypatch):
    """green, ddc and curvature read and return integers; solve_poisson
    makes only the two total masses its check reads, and reading a
    function's values makes one Fraction per vertex."""
    import fractions

    g = star()
    omega = cv.GraphMeasure.on(g, [F(1)] * 4)
    mu = cv.GraphMeasure.on(g, [F(0), F(1), F(1), F(0)], [((F(1, 3), F(2)),), (), ()])
    created, new = [], fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counted))
    cv.ddc(g, cv.green(g, 1, 2))
    assert created == []
    phi = cv.solve_poisson(g, omega, mu)
    assert len(created) == 2
    rho = cv.curvature(g, omega, phi)
    assert len(created) == 2
    values = phi.values
    assert len(created) == 2 + 4
    monkeypatch.undo()
    assert rho == mu and max(values) == 0 and len(on_edges(phi)[0]) == 1


def test_pairing_off_the_breakpoints_interpolates_exactly():
    """An atom that is not at one of f's breakpoints pairs with f's value
    interpolated along its edge.  A Green function has no breakpoints, so
    every interior atom is such an atom; a Poisson solution has its
    breakpoints at its own atoms, and a second measure puts one atom on
    and one off them.  Each pairing equals the Fraction route through
    `value_on_edge`, and for the Green function the linear interpolation
    of its vertex values."""
    for g in harness_graphs()[::4]:
        n, m = g.vertex_count, len(g.edges)
        off = cv.GraphMeasure.on(
            g, [F(v % 3, 2) for v in range(n)], [[(F(1, 5), F(e - 2, 3)), (F(3, 4), F(1, 2))] for e in range(m)]
        )
        gf = cv.green(g, 0, n - 1)
        omega = cv.GraphMeasure.on(g, [F(1)] * n)
        mu = cv.GraphMeasure.on(g, [F(0)] * (n - 1) + [F(n - 1)], [[(F(1, 5), F(1, m))]] * m)
        phi = cv.solve_poisson(g, omega, mu)
        assert all(len(b) == 1 for b in on_edges(phi))
        for f in (gf, phi):
            values = [value_on_edge(g, f, e, p) for e, atoms in enumerate(on_edges(off)) for p, _ in atoms]
            weights = [w for atoms in on_edges(off) for _, w in atoms]
            route = sum(w * x for w, x in zip(off.vertex_weights, f.values)) + sum(map(mul, weights, values))
            assert cv.integrate_graph(g, f, off) == route
        linear = sum(w * x for w, x in zip(off.vertex_weights, gf.values)) + sum(
            w * ((1 - p) * gf.values[u] + p * gf.values[v])
            for (u, v, _), atoms in zip(g.edges, on_edges(off)) for p, w in atoms
        )
        assert cv.integrate_graph(g, gf, off) == linear
