"""Dual-objective and solver tests for the Dirac Monge-Ampere problem."""

import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nama import cli
from nama import harness as hx
from nama import linalg
from nama import polyhedra as pg
from nama import solver as sv
from nama import toric as tc
from nama.errors import ArityMismatch, MassMismatch, NotConverged
from test_polyhedra import contains, fraction_masses, fraction_walls


def mass_vector(s):
    """The Laguerre mass of each site of a Solution's problem, 0 for a pruned one."""
    return tuple(tc.ma_measure(s.potential).weight_at(x) for x in s.problem.sites)


def interval(a, b):
    return tc.newton_polytope([(a,), (b,)], 1)


def square(side=1):
    return tc.newton_polytope([(0, 0), (side, 0), (side, side), (0, side)], 2)


UNIT = interval(0, 1)
SQ = square()
TRI = tc.newton_polytope([(0, 0), (1, 0), (0, 1)], 2)


class TestProblem:
    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            sv.DiracProblem(SQ, ((F(0), F(0)),), (F(2),))

    def test_distinct_sites(self):
        with pytest.raises(ValueError):
            sv.DiracProblem(SQ, ((F(0), F(0)), (F(0), F(0))), (F(1, 2), F(1, 2)))


class TestDualObjective:
    def test_single_site_zero_gradient(self):
        p = sv.DiracProblem(SQ, ((F(1, 3), F(1, 5)),), (F(1),))
        value, grad = sv.dual_objective(p, (F(0),))
        assert grad == (F(0),)
        assert value == 0

    def test_gradient_is_masses_minus_weights(self):
        rng = random.Random(3)
        for delta in (UNIT, SQ):
            n = delta.dim
            sites = []
            while len(sites) < 3:
                x = tuple(F(rng.randint(-4, 4), 2) for _ in range(n))
                if x not in sites:
                    sites.append(x)
            raw = [F(rng.randint(1, 5)) for _ in sites]
            tot = sum(raw)
            weights = [w * delta.volume / tot for w in raw]
            weights[-1] = delta.volume - sum(weights[:-1])
            p = sv.DiracProblem(delta, tuple(sites), tuple(weights))
            for _ in range(5):
                t = tuple(F(rng.randint(-3, 3), 4) for _ in sites)
                value, grad = sv.dual_objective(p, t)
                phi = tc.envelope(delta, list(zip(sites, t)))
                mu = tc.ma_measure(phi)
                for i, x in enumerate(sites):
                    assert grad[i] == mu.weight_at(x) - weights[i]

    def test_translation_gauge(self):
        p = sv.DiracProblem(SQ, ((F(0), F(0)), (F(1), F(1))), (F(1, 2), F(1, 2)))
        t = (F(1, 3), F(-1, 7))
        c = F(5, 2)
        v1, g1 = sv.dual_objective(p, t)
        v2, g2 = sv.dual_objective(p, tuple(ti + c for ti in t))
        assert v1 == v2
        assert g1 == g2

    def test_float_finite_differences(self):
        p = sv.DiracProblem(
            SQ,
            ((F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1))),
            (F(1, 4), F(1, 4), F(1, 2)),
        )
        t0 = [0.05, -0.02, 0.01]
        value, grad = sv.dual_objective(p, t0, mode="float")
        h = 1e-6
        for i in range(3):
            tp = list(t0)
            tm = list(t0)
            tp[i] += h
            tm[i] -= h
            vp, _ = sv.dual_objective(p, tp, mode="float")
            vm, _ = sv.dual_objective(p, tm, mode="float")
            fd = (vp - vm) / (2 * h)
            scale = max(1.0, abs(grad[i]))
            assert abs(fd - grad[i]) / scale <= 1e-4

    def test_arity(self):
        p = sv.DiracProblem(SQ, ((F(0), F(0)),), (F(1),))
        with pytest.raises(ArityMismatch):
            sv.dual_objective(p, (F(0), F(0)))
        with pytest.raises(ValueError, match="unknown mode 'exact'"):
            sv.dual_objective(p, (F(0),), mode="exact")

    def test_concavity_along_segments(self):
        p = sv.DiracProblem(
            SQ, ((F(0), F(0)), (F(1), F(0)), (F(0), F(1))), (F(1, 3), F(1, 3), F(1, 3))
        )
        rng = random.Random(11)
        for _ in range(10):
            t1 = tuple(F(rng.randint(-4, 4), 4) for _ in range(3))
            t2 = tuple(F(rng.randint(-4, 4), 4) for _ in range(3))
            v1, _ = sv.dual_objective(p, t1)
            v2, _ = sv.dual_objective(p, t2)
            for lam in (F(1, 4), F(1, 2), F(3, 4)):
                tm = tuple(lam * a + (1 - lam) * b for a, b in zip(t1, t2))
                vm, _ = sv.dual_objective(p, tm)
                assert vm >= lam * v1 + (1 - lam) * v2


class TestSolve:
    def test_single_site_exact(self):
        for delta in (UNIT, SQ, TRI):
            n = delta.dim
            x = tuple(F(3, 7) for _ in range(n))
            p = sv.DiracProblem(delta, (x,), (delta.volume,))
            for mode in ("rational", "float"):
                s = sv.solve(p, sv.SolverConfig(mode=mode))
                assert s.potential == tc.envelope(delta, [(x, 0)])
                assert s.residual == 0
                assert s.iterations <= 1

    def test_1d_two_sites_rational_exact(self):
        p = sv.DiracProblem(
            UNIT, ((F(-1, 2),), (F(1, 3),)), (F(1, 4), F(3, 4))
        )
        s = sv.solve(p, sv.SolverConfig(mode="rational"))
        assert s.residual == 0
        assert mass_vector(s) == (F(1, 4), F(3, 4))
        # Slope structure: 0 left of x1, w1 between, 1 right of x2.
        f = s.potential
        eps = F(1, 100)
        x1, x2 = F(-1, 2), F(1, 3)
        left = (f.value((x1,)) - f.value((x1 - eps,))) / eps
        mid = (f.value((x2,)) - f.value((x1,))) / (x2 - x1)
        right = (f.value((x2 + eps,)) - f.value((x2,))) / eps
        assert left == 0
        assert mid == F(1, 4)
        assert right == 1

    def test_1d_random_family_rational(self):
        rng = random.Random(19)
        delta = interval(-1, 2)
        for _ in range(10):
            k = rng.randint(2, 5)
            sites = sorted({F(rng.randint(-8, 8), 3) for _ in range(k)})
            raw = [F(rng.randint(1, 6)) for _ in sites]
            weights = [r * delta.volume / sum(raw) for r in raw]
            weights[-1] = delta.volume - sum(weights[:-1])
            p = sv.DiracProblem(delta, tuple((s,) for s in sites), tuple(weights))
            s = sv.solve(p, sv.SolverConfig(mode="rational"))
            assert s.residual == 0
            assert mass_vector(s) == tuple(weights)

    def test_2d_two_site_split(self):
        p = sv.DiracProblem(SQ, ((F(0), F(0)), (F(1), F(0))), (F(1, 2), F(1, 2)))
        s = sv.solve(p, sv.SolverConfig(mode="float"))
        # Brute-force analysis: the split is the vertical line m1 = 1/2,
        # forced by t2 - t1 = 1/2 along the one-parameter family.
        d = s.t[1] - s.t[0]
        assert abs(float(d) - 0.5) < 1e-8
        assert float(s.residual) <= 1e-10

    def test_2d_two_site_rational_exact(self):
        # The README's two-site square: the wall is the line m1 = 1/2.  The
        # single-site example is `test_single_site_exact`.
        p = sv.DiracProblem(SQ, ((F(0), F(0)), (F(1), F(0))), (F(1, 2), F(1, 2)))
        s = sv.solve(p, sv.SolverConfig(mode="rational"))
        assert s.residual == 0
        assert s.t[1] - s.t[0] == F(1, 2)
        assert mass_vector(s) == p.weights

    def test_2d_float_random_and_uniqueness(self):
        rng = random.Random(23)
        for _ in range(3):
            sites = []
            while len(sites) < 5:
                x = (F(rng.randint(-6, 6), 3), F(rng.randint(-6, 6), 3))
                if x not in sites:
                    sites.append(x)
            raw = [F(rng.randint(1, 9)) for _ in sites]
            weights = [r * SQ.volume / sum(raw) for r in raw]
            weights[-1] = SQ.volume - sum(weights[:-1])
            p = sv.DiracProblem(SQ, tuple(sites), tuple(weights))
            cfg = sv.SolverConfig(mode="float", tol=F(1, 10**10))
            s1 = sv.solve(p, cfg)
            assert float(s1.residual) <= 1e-10
            init2 = tuple(F(1, 2) + ti for ti in s1.t[::-1][: len(sites)])
            init2 = tuple(F(rng.randint(-2, 2), 4) for _ in sites)
            s2 = sv.solve(p, sv.SolverConfig(mode="float", tol=F(1, 10**10), init=init2))
            diffs = [float(a - b) for a, b in zip(s1.t, s2.t)]
            assert max(diffs) - min(diffs) <= 1e-8

    def test_monotone_objective_and_not_converged(self):
        p = _found_problem()
        with pytest.raises(NotConverged) as exc:
            sv.solve(p, sv.SolverConfig(mode="rational", max_iter=3))
        best = exc.value.solution
        assert best.residual > 0
        assert len(best.t) == 3
        assert mass_vector(best) == tuple(_masses(p, best.t))
        # The monotone quantity of the damped Newton path is |grad|_2.
        norms = [rec.grad_norm for rec in best.trace]
        assert len(norms) == 3 and norms == sorted(norms, reverse=True)


def _found_problem():
    """Three sites on the unit square whose stationary t is irrational."""
    return sv.DiracProblem(
        SQ,
        ((F(0), F(0)), (F(1), F(0)), (F(1, 3), F(7, 8))),
        (F(1, 2), F(1, 3), F(1, 6)),
    )


def test_cells_are_built_only_for_the_returned_potential(monkeypatch):
    """The `DIRAC_8` instance of the regression oracle (five Newton steps,
    seven states): the iterates and trials stay on integer loops, so
    `_from_loop` runs once per cell of the returned potential, 8 times
    (64 when every state and the returned potential built their cells)."""
    delta = tc.newton_polytope([(0, 0), (3, 0), (4, 2), (2, 4), (0, 3)], 2)
    sites = [(F(1, 2), F(1, 2)), (F(5, 2), F(1, 3)), (F(3), F(2)), (F(2), F(3)),
             (F(1, 3), F(5, 2)), (F(3, 2), F(3, 2)), (F(-1, 2), F(1)), (F(9, 4), F(-1, 4))]
    weights = [F(2), F(4, 3), F(2, 3), F(4, 3), F(2), F(8, 3), F(2, 3), F(4, 3)]
    calls = []
    from_loop = pg._from_loop
    monkeypatch.setattr(pg, "_from_loop", lambda *args: calls.append(args) or from_loop(*args))
    s = sv.solve(sv.DiracProblem(delta, tuple(sites), tuple(weights)))
    assert s.iterations == 5 and len(s.potential.cells) == 8
    assert len(calls) == 8


class TestBoundedEnd:
    """Solves that cannot reach their tolerance end in NotConverged within
    seconds at the default max_iter of 10,000."""

    @pytest.mark.parametrize("mode, tol", [("rational", None), ("float", F(0))])
    def test_found_instance_ends_in_not_converged(self, mode, tol):
        p = _found_problem()
        start = time.monotonic()
        with pytest.raises(NotConverged) as exc:
            sv.solve(p, sv.SolverConfig(mode=mode, tol=tol))
        assert time.monotonic() - start < 5
        best = exc.value.solution
        assert 0 < best.residual < F(1, 10**12)
        # No accepted step rounds back to the iterate it started from.
        norms = [math.inf] + [rec.grad_norm for rec in best.trace]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        if mode == "rational":
            assert all(ti.denominator <= 10**12 for ti in best.t)

    @pytest.mark.parametrize("mode, solver", [("rational", {}), ("float", {"tol": "0"})])
    def test_found_instance_exits_3_through_the_cli(self, tmp_path, mode, solver):
        doc = {
            "kind": "toric-dirac",
            "mode": mode,
            "polytope": {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]},
            "sites": [["0", "0"], ["1", "0"], ["1/3", "7/8"]],
            "weights": ["1/2", "1/3", "1/6"],
            "solver": solver,
        }
        inst, out = tmp_path / "found.json", tmp_path / "out.json"
        inst.write_text(json.dumps(doc))
        start = time.monotonic()
        assert cli.main(["solve", str(inst), "-o", str(out), "--no-timestamp"]) == 3
        assert time.monotonic() - start < 5
        assert out.exists()


class TestOptimality:
    def test_solution_maximizes_over_random_perturbations(self):
        p = sv.DiracProblem(
            SQ,
            ((F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1))),
            (F(1, 4), F(1, 4), F(1, 2)),
        )
        s = sv.normalize(sv.solve(p, sv.SolverConfig(mode="float")))
        v_star, _ = sv.dual_objective(p, s.t)
        rng = random.Random(37)
        eps = F(1, 100)
        for _ in range(100):
            v = [F(rng.randint(-8, 8), 8) for _ in range(3)]
            t2 = tuple(ti + eps * vi for ti, vi in zip(s.t, v))
            val, _ = sv.dual_objective(p, t2)
            assert val <= v_star


class TestNormalize:
    def test_shift_inverse_and_mass_invariance(self):
        p = sv.DiracProblem(SQ, ((F(0), F(0)), (F(1), F(0))), (F(1, 2), F(1, 2)))
        s = sv.solve(p, sv.SolverConfig(mode="float"))
        ns = sv.normalize(s)
        assert max(ns.potential.value(x) for x in p.sites) == 0
        assert sv.normalize(ns).t == ns.t
        assert tc.ma_measure(ns.potential) == tc.ma_measure(s.potential)
        shifted = sv.Solution(
            problem=s.problem,
            t=tuple(ti + 5 for ti in ns.t),
            potential=tc.envelope(SQ, list(zip(p.sites, (ti + 5 for ti in ns.t)))),
            residual=s.residual,
            iterations=s.iterations,
            objective=s.objective,
        )
        assert sv.normalize(shifted).t == ns.t


    @staticmethod
    def assert_matches_max_over_value(s):
        shift = max(s.potential.value(x) for x in s.problem.sites)
        ns = sv.normalize(s)
        assert ns.t == tuple(ti - shift for ti in s.t)
        assert ns.potential == s.potential.shift(-shift)
        assert ns.potential.pieces == tc.envelope(s.problem.delta, list(zip(s.problem.sites, ns.t))).pieces

    def test_against_max_over_value_on_seeded_solves(self):
        rng = random.Random(41)
        for k in range(6):
            delta = SQ if k % 2 else hx.gen_polytope(hx.SplitMix64(k), 2, 5)
            sites = sorted({(F(rng.randint(-6, 6), 4), F(rng.randint(-6, 6), 4)) for _ in range(3)})
            p = _problem(delta, sites, [rng.randint(1, 4) for _ in sites])
            self.assert_matches_max_over_value(sv.solve(p, sv.SolverConfig(mode="float")))

    def test_against_max_over_value_with_a_pruned_site(self):
        p = sv.DiracProblem(SQ, ((F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1, 2))), (F(1, 4), F(1, 4), F(1, 2)))
        for t in ((F(1, 3), F(-1, 2), F(5)), (F(0), F(0), F(7, 3))):
            phi = tc.envelope(p.delta, list(zip(p.sites, t)))
            assert len(phi.generators) < len(p.sites)
            self.assert_matches_max_over_value(sv._solution(p, sv._State(p, *linalg.integers(t)), []))


def cl_measure(f):
    """Chambert-Loir normalization: every MA weight times n!, so the
    total mass is n! vol(Delta) = deg L."""
    s = math.factorial(f.delta.dim)
    return tc.AtomicMeasure.from_items((p, s * w) for p, w in tc.ma_measure(f).atoms)


class TestClMeasure:
    def test_factor_matches_dimension(self):
        f2 = tc.g_delta(SQ)
        cl = cl_measure(f2)
        assert cl.total_mass == 2 * SQ.volume
        f1 = tc.g_delta(UNIT)
        assert cl_measure(f1) == tc.ma_measure(f1)

    def test_g_delta_dirac(self):
        cl = cl_measure(tc.g_delta(SQ))
        assert cl.atoms == (((F(0), F(0)), F(2)),)


def _problem(delta, sites, raw):
    weights = [r * delta.volume / sum(raw) for r in raw]
    weights[-1] = delta.volume - sum(weights[:-1])
    return sv.DiracProblem(delta, tuple(sites), tuple(weights))


def _diagram(p, t):
    """The solver's power diagram at t, its masses certified to sum to vol(Delta)."""
    return sv._State(p, *linalg.integers(t)).diagram


def start_potentials(p):
    """The solver's start `_start` as Fractions."""
    t, den = sv._start(p)
    return tuple(F(x, den) for x in t)


def _rounded_start(p):
    return [F(float(x)) for x in start_potentials(p)]


def _masses(p, t):
    phi = tc.envelope(p.delta, list(zip(p.sites, t)))
    mu = tc.ma_measure(phi)
    return [mu.weight_at(x) for x in p.sites]


def _criterion_8_problems():
    """The 50 problems of acceptance criterion 8, drawn the same way."""
    rng = hx.SplitMix64(20260811 + 8)
    cfg = hx.GenConfig(seed=20260811 + 8, dimension=2)
    problems = []
    for k in range(50):
        delta = SQ if k % 2 else hx.gen_polytope(rng, 2, 5)
        p = hx.gen_dirac_problem(rng, delta, cfg, max_sites=8)
        for _ in p.sites:  # the criterion's init jitter
            rng.int_between(-2, 2)
        problems.append(p)
    return problems


def reference_wall_weights(p, phi):
    """Squared wall weights {(i, j): (|wall| / |x_i - x_j|)^2}, i < j, with
    every wall cut out of cell i by `clip` and rebuilt by `hull`."""
    gens = dict(zip(phi.sites, range(len(phi.sites))))
    dim = p.delta.dim
    out = {}
    for i, j in combinations(range(len(p.sites)), 2):
        xi, xj = p.sites[i], p.sites[j]
        if xi not in gens or xj not in gens:
            continue
        ti = phi.generators[gens[xi]][1]
        tj = phi.generators[gens[xj]][1]
        normal = pg.sub(xi, xj)
        cut = pg.clip(phi.cells[gens[xi]], [(normal, ti - tj)])
        if cut.is_empty:
            continue
        wall = pg.hull(cut.vertices, dim)
        if wall.affine_dim != dim - 1:
            continue
        if dim == 1:
            measure2 = F(1)
        else:
            a, b = wall.vertices
            measure2 = pg.dot(pg.sub(b, a), pg.sub(b, a))
        out[(i, j)] = measure2 / pg.dot(normal, normal)
    return out


class TestWallHessian:
    def check(self, p, t):
        """The weights of the solver's diagram's walls against the reference,
        and its masses against `ma_measure`."""
        phi = tc.envelope(p.delta, list(zip(p.sites, t)))
        diagram = _diagram(p, t)
        assert fraction_masses(diagram) == _masses(p, t)
        edges = {}
        for i, j, w in fraction_walls(diagram):
            assert w > 0 and i < j and (i, j) not in edges
            edges[(i, j)] = w * w
        assert edges == reference_wall_weights(p, phi)
        return edges

    def test_wall_across_a_degenerate_cell(self):
        """The middle cell is a segment: the outer cells share its wall,
        with weight |wall| / |x_0 - x_2| = 1/2."""
        p = _problem(SQ, [(F(0), F(0)), (F(1), F(0)), (F(2), F(0))], [F(1)] * 3)
        t = [F(0), F(1, 2), F(1)]
        diagram = _diagram(p, t)
        assert fraction_masses(diagram) == [F(1, 2), F(0), F(1, 2)]
        ends = [(i, j, pg._from_homogeneous(u, 2), pg._from_homogeneous(v, 2)) for i, j, u, v in diagram._ends]
        assert ends == [(0, 2, (F(1, 2), F(0)), (F(1, 2), F(1)))]
        assert fraction_walls(diagram) == [(0, 2, F(1, 2))]
        assert self.check(p, t) == {(0, 2): F(1, 4)}
        p = _problem(interval(-1, 2), [(F(0),), (F(1),), (F(2),)], [F(1)] * 3)
        diagram = _diagram(p, t)
        assert fraction_masses(diagram) == [F(3, 2), F(0), F(3, 2)]
        assert fraction_walls(diagram) == [(0, 2, F(1, 2))]
        assert self.check(p, t) == {(0, 2): F(1, 4)}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3)),
            min_size=1,
            max_size=10,
            unique_by=lambda q: q[:2],
        ),
        st.booleans(),
    )
    def test_small_grids_property(self, points, one_dimensional):
        """The solver's diagram on sites of a small grid, in both dimensions: masses
        equal `ma_measure` and squared edge weights the reference's."""
        if one_dimensional:
            points = list({x: (x, h) for x, _, h in points}.values())
            delta, sites = interval(F(-3, 2), F(5, 2)), [(F(x),) for x, _ in points]
        else:
            delta = tc.newton_polytope([(F(-3, 2), F(-1)), (F(2), F(-3, 2)), (F(1), F(2)), (F(-2), F(1))], 2)
            sites = [(F(x), F(y)) for x, y, _ in points]
        p = _problem(delta, sites, [F(1)] * len(sites))
        self.check(p, [F(h, 2) for *_, h in points])

    def test_random_2d_instances(self):
        rng = random.Random(41)
        nonzero = 0
        for delta in (SQ, TRI, square(2)):
            for _ in range(15):
                k = rng.randint(2, 7)
                sites = list({(F(rng.randint(-6, 12), 6), F(rng.randint(-6, 12), 6)) for _ in range(k)})
                p = _problem(delta, sites, [F(rng.randint(1, 5)) for _ in sites])
                t = [F(rng.randint(-12, 12), rng.randint(1, 12)) for _ in sites]
                nonzero += len(self.check(p, t))
        assert nonzero > 0

    def test_sliver_cells_and_collinear_sites(self):
        # Three collinear sites: the middle cell is a strip of width 1/1000.
        p = _problem(SQ, [(F(0), F(0)), (F(1), F(0)), (F(2), F(0))], [F(1)] * 3)
        edges = self.check(p, [F(0), F(1, 2), F(1001, 1000)])
        assert set(edges) == {(0, 1), (1, 2)}
        # Collinear sites on a diagonal, walls through corners of Delta.
        p = _problem(SQ, [(F(i, 2), F(i, 2)) for i in range(4)], [F(1)] * 4)
        self.check(p, [F(0), F(1, 4), F(3, 4), F(3, 2)])
        self.check(p, start_potentials(p))
        # A wall that only touches the cell at a vertex of Delta.
        p = _problem(SQ, [(F(0), F(0)), (F(1), F(1)), (F(1), F(0))], [F(1)] * 3)
        self.check(p, [F(0), F(1), F(1, 2)])
        # Sliver cells from values close to a tie.
        rng = random.Random(43)
        for _ in range(10):
            sites = list({(F(rng.randint(0, 4), 4), F(rng.randint(0, 4), 4)) for _ in range(5)})
            p = _problem(SQ, sites, [F(1)] * len(sites))
            base = start_potentials(p)
            self.check(p, [ti + F(rng.randint(-1, 1), 10**6) for ti in base])

    def test_1d_instances(self):
        rng = random.Random(47)
        delta = interval(-1, 2)
        for _ in range(15):
            sites = sorted({F(rng.randint(-8, 8), 3) for _ in range(rng.randint(2, 5))})
            p = _problem(delta, [(x,) for x in sites], [F(rng.randint(1, 6)) for _ in sites])
            self.check(p, [F(rng.randint(-6, 6), 4) for _ in sites])


def test_import_nama_cli_loads_no_numpy():
    code = "import sys, nama.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sv.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def halving_start_potentials(p):
    """(h, t) of `start_potentials` with h halved from 1 until every
    c + h (x_i - c) lies in Delta, tested by `Polytope.contains`: the
    reference for its closed-form h."""
    body = p.delta.body
    c = pg.centroid(body)
    h = F(1)
    while not all(contains(body, tuple(ck + h * (xk - ck) for xk, ck in zip(x, c))) for x in p.sites):
        h /= 2

    def q(x):
        y = pg.sub(x, c)
        return pg.dot(x, c) + h * pg.dot(y, y) / 2

    q_bar = q(p.barycenter())
    return h, tuple(q(x) - q_bar for x in p.sites)


def test_start_potentials_match_the_halving_loop():
    """On 400 seeded 1-D and 2-D problems, and on sites whose points
    c + h (x_i - c) land exactly on a facet at h = 1 or 1/2 or never leave
    Delta."""
    problems = [
        _problem(SQ, [(F(3, 2), F(1, 2)), (F(0), F(0))], [F(1), F(1)]),
        _problem(SQ, [(F(1), F(1)), (F(1, 4), F(0))], [F(1), F(1)]),
        _problem(SQ, [(F(1, 2), F(1, 2))], [F(1)]),
        _problem(interval(-1, 2), [(F(7),), (F(-5, 2),)], [F(1), F(2)]),
    ]
    for dim in (1, 2):
        rng = hx.SplitMix64(dim)
        cfg = hx.GenConfig(seed=dim, dimension=dim)
        for _ in range(200):
            problems.append(hx.gen_dirac_problem(rng, hx.gen_polytope(rng, dim, 5), cfg, max_sites=8))
    hs = set()
    for p in problems:
        h, want = halving_start_potentials(p)
        assert start_potentials(p) == want
        hs.add(h)
    assert {F(1), F(1, 2), F(1, 4), F(1, 8)} <= hs


def test_integer_rounding_matches_the_fraction_rounding():
    """`_rounded` rounds t / e on integers exactly as Fractions would:
    Fraction(float(Fraction(t_i, e))) in float mode, whose int true
    division is correctly rounded, and limit_denominator(10^12) in
    rational mode."""
    big = 2**53
    assert float(F(big + 1)) == big and float(F(big + 3)) == big + 4  # ties to even
    assert float(F(1, 2**1075)) == 0 and float(F(3, 2**1075)) == 2 * 2.0**-1074  # subnormal ties
    cases = [
        (big + 1, 1), (big + 3, 1), (-(big + 1), 1), (3 * (big + 1), 3), (2 * big + 2, 2),  # ties to even
        (2**80 + 1, 3), (-(7 * 2**70 + 5), 11), (10**30 + 1, 10**12 + 39),  # above 2^53
        (1, 2**1074), (1, 2**1075), (3, 2**1075), (-3, 2**1075), (5, 3 * 2**1072),  # subnormal
        (1, 2**1076), (-1, 10**400), (0, 7),  # round to 0
        (1, 3), (-2, 3), (22, 7), (-355, 113), (10**12 + 1, 10**13 + 7),
    ]
    rng = random.Random(59)
    cases += [(rng.getrandbits(600) - 2**599, rng.getrandbits(600) | 1) for _ in range(40)]
    cases += [(rng.getrandbits(600) - 2**599, rng.getrandbits(80) | 1) for _ in range(20)]
    cases += [(rng.randint(-(10**9), 10**9), rng.randint(1, 10**9)) for _ in range(100)]
    for n, d in cases:
        for mode, want in (
            ("float", F(float(F(n, d)))),
            ("rational", F(n, d).limit_denominator(10**12)),
        ):
            t, e = sv._rounded([n], d, mode)
            assert F(t[0], e) == want, (n, d, mode)
    nums = [n for n, _ in cases[-30:]]
    for d in (7, 2**1075, 3**400):  # several entries come back over one denominator
        t, e = sv._rounded(nums, d, "float")
        assert [F(x, e) for x in t] == [F(float(F(n, d))) for n in nums]
        t, e = sv._rounded(nums, d, "rational")
        assert [F(x, e) for x in t] == [F(n, d).limit_denominator(10**12) for n in nums]


class TestNewtonPath:
    def test_default_start_leaves_no_empty_cell_on_criterion_8(self):
        for p in _criterion_8_problems():
            assert min(_masses(p, start_potentials(p))) > 0
            assert min(_masses(p, _rounded_start(p))) > 0

    def test_trace_records_every_iteration_and_the_kmt_decrease(self):
        for p in _criterion_8_problems()[:12]:
            cfg = sv.SolverConfig(mode="float", tol=F(1, 10**10))
            s = sv.solve(p, cfg)
            assert len(s.trace) == s.iterations
            t0 = _rounded_start(p)
            masses0 = _masses(p, t0)
            eps = min(min(p.weights), min(masses0)) / 2
            norm = math.sqrt(sum(float(h - w) ** 2 for h, w in zip(masses0, p.weights)))
            for rec in s.trace:
                assert rec.step == F(1, 2) ** (rec.trials - 1)
                assert rec.grad_norm <= (1 - float(rec.step) / 2) * norm
                assert rec.min_mass >= eps
                norm = rec.grad_norm
            if s.trace:
                assert s.trace[-1].residual == s.residual

    def test_init_with_an_empty_cell_reaches_the_same_solution(self):
        p = _problem(
            SQ,
            [(F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1)), (F(1, 3), F(1, 3))],
            [F(3), F(2), F(4), F(1)],
        )
        init = (F(0), F(0), F(0), F(5))
        assert min(_masses(p, init)) == 0
        tol = F(1, 10**10)
        s1 = sv.solve(p, sv.SolverConfig(mode="float", tol=tol))
        s2 = sv.solve(p, sv.SolverConfig(mode="float", tol=tol, init=init))
        assert float(s2.residual) <= 1e-10
        diffs = [float(a - b) for a, b in zip(s1.t, s2.t)]
        assert max(diffs) - min(diffs) <= 1e-8

    def test_max_iter_carries_the_last_iterate(self):
        p = _problem(
            SQ,
            [(F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1)), (F(1, 3), F(1, 3))],
            [F(3), F(2), F(4), F(1)],
        )
        with pytest.raises(NotConverged) as exc:
            sv.solve(p, sv.SolverConfig(mode="float", max_iter=1))
        best = exc.value.solution
        assert exc.value.iterations == best.iterations == len(best.trace) == 1
        assert best.residual == best.trace[0].residual > F(1, 10**10)
        assert mass_vector(best) == tuple(_masses(p, best.t))


def _reference_objective(p, t, phi):
    """The objective through the reference envelope: E(phi, p.reference()) - sum w_i t_i."""
    return tc.legendre_energy(phi, p.reference()) - sum(w * x for w, x in zip(p.weights, t))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", ["rational", "float"])
def test_closed_form_objective_is_the_reference_energy(dim, mode):
    """`_solution` takes the objective in closed form from the final cells;
    it equals the Legendre energy against `p.reference()` minus sum w_i t_i,
    at the solution or, for solves stopped after three steps, at the last
    iterate."""
    rng, cfg = hx.SplitMix64(2700 + dim), hx.GenConfig(seed=2700 + dim, dimension=dim)
    for _ in range(8):
        p = hx.gen_dirac_problem(rng, hx.gen_polytope(rng, dim, 5), cfg, max_sites=5)
        try:
            s = sv.solve(p, sv.SolverConfig(mode=mode, max_iter=3))
        except NotConverged as exc:
            s = exc.solution
        assert s.objective == _reference_objective(p, s.t, s.potential)
        assert s.energy == tc.legendre_energy(s.potential, p.reference())


@pytest.mark.parametrize("dim", [1, 2])
def test_dual_objective_with_a_site_without_cell(dim):
    """At a t where sites have no cell, `dual_objective` equals the
    reference energy of envelope(t) minus sum w_i t_i in both modes."""
    if dim == 1:
        delta, sites = interval(0, 2), [(F(1, 2),), (F(3, 2),), (F(1),)]
    else:
        delta, sites = square(2), [(F(0), F(0)), (F(2), F(0)), (F(1), F(2)), (F(1), F(1, 2))]
    p = _problem(delta, sites, [F(1)] * len(sites))
    t = [F(0)] * (len(sites) - 1) + [F(5)]
    phi = tc.envelope(delta, list(zip(p.sites, t)))
    assert len(phi.generators) < len(sites)
    want = _reference_objective(p, t, phi)
    assert sv.dual_objective(p, t) == (want, tuple(tc.ma_measure(phi).weight_at(x) - w for x, w in zip(p.sites, p.weights)))
    assert sv.dual_objective(p, t, mode="float")[0] == float(want)


# The Newton-corrected iterate t + d that the uniqueness suite compares, d
# the solver's next Newton step on the walls at the potential's values at
# the sites, pinned on seeded float solves, a rational 1-D solve, a state
# with a pruned site (no wall reaches it, so the grounded Laplacian is
# singular) and a planted gap (t moved without the potential).
def _seeded_solution(dim, seed, mode="float"):
    rng = hx.SplitMix64(seed)
    delta = hx.gen_polytope(rng, dim, 5)
    p = hx.gen_dirac_problem(rng, delta, hx.GenConfig(dimension=dim))
    return sv.solve(p, sv.SolverConfig(mode=mode, tol=F(1, 10**10) if mode == "float" else None))


def _pruned_site():
    p = sv.DiracProblem(SQ, ((F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1, 2))), (F(1, 4), F(1, 4), F(1, 2)))
    return sv._solution(p, sv._State(p, *linalg.integers((F(1, 3), F(-1, 2), F(5)))), [])


def _planted_gap():
    s = _seeded_solution(2, 2)
    return dataclasses.replace(s, t=(s.t[0] + F(1, 10**6),) + s.t[1:])


NEWTON_CASES = {
    **{f"{dim}d-{seed}": (lambda dim=dim, seed=seed: _seeded_solution(dim, seed)) for dim in (1, 2) for seed in range(4)},
    "1d-rational": lambda: _seeded_solution(1, 5, "rational"),
    "pruned-site": _pruned_site,
    "planted-gap": _planted_gap,
}
NEWTON_DIGESTS = {
    "1d-0": "8ef2f9d26ab5d5625a846c5c841773a7a8acffad3cf91f66359b7fbf3770502c",
    "1d-1": "03c87613b3cf53db7e6eb982ef3befe2b82a7924c4e9d79a68f9a170ec1e3c72",
    "1d-2": "41829d683e531a0230e2895da22d691d90b56ca07b59380cf6619821fcbbd353",
    "1d-3": "d4a6d3ee9d21370c802950919a18b64bda8bbcc86481ad23258d96f32d0bee0e",
    "1d-rational": "3564b2bcd74f8a1674e1be13b91c281933c0a8472b12eb76ad2d9cd95b1b065a",
    "2d-0": "fea1e36023b37c0e870d257a5ee4b4958d070c162a5ffefac1930b3bc75750e9",
    "2d-1": "5c437da56781938e8435c407cd75e0884e9e8ac42e8da46f17a9ba36796c9141",
    "2d-2": "5651115ae7e8c0379712fd122ee55e40095658540a8fc05223201748657104a5",
    "2d-3": "9169be45193ecfd87aab75a47dd058215297da0606d16ffa91c70b1091c6e4ad",
    "planted-gap": "1318b92159273d2d8f0f4914d21f0026d7e0c46485dba0fc6a9bb63ad513240b",
    "pruned-site": "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
}


@pytest.mark.parametrize("name", sorted(NEWTON_CASES))
def test_newton_corrected_is_pinned(name):
    try:
        out = repr(tuple(sv.newton_corrected(NEWTON_CASES[name]())))
    except ValueError:
        out = "ValueError"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == NEWTON_DIGESTS[name]


def test_a_solve_sums_each_loop_once(monkeypatch):
    """A work counter free of timing noise: over one solve, `_moment_sums`
    runs once per loop of each objective evaluation's power diagram, since
    the final cells keep the sums their masses took."""
    p = _problem(square(2), [(F(1, 4), F(1, 3)), (F(3, 2), F(1, 2)), (F(1), F(7, 4)), (F(1, 2), F(1))], [1, 2, 3, 4])
    diagrams, sums = [], []
    power_diagram, moment_sums = pg.power_diagram, pg._moment_sums
    monkeypatch.setattr(pg, "power_diagram", lambda *args: diagrams.append(power_diagram(*args)) or diagrams[-1])
    monkeypatch.setattr(pg, "_moment_sums", lambda *args: sums.append(args) or moment_sums(*args))
    s = sv.solve(p, sv.SolverConfig(mode="float"))
    loops = [loop for diagram in diagrams for loop in diagram._loops if loop is not None]
    assert len(diagrams) == 1 + sum(r.trials for r in s.trace) > 3  # the start, then each line-search trial
    assert sorted(tuple(loop) for loop, _ in sums) == sorted(tuple(loop) for loop in loops)
