"""Acceptance criteria: one test per criterion, at the stated scale and
tolerance, with one printed pass line each.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from fractions import Fraction as F

from nama import curves as cv
from nama import harness as hx
from nama import solver as sv
from nama import toric as tc
from nama.linalg import integers
from nama.polyhedra import sub

BASE_SEED = 20260811


def _report(name, budget_s, start):
    elapsed = time.monotonic() - start
    print(f"acceptance {name}: PASS in {elapsed:.2f}s (budget {budget_s}s)")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def _deltas():
    return [
        tc.newton_polytope([(0,), (1,)], 1),
        tc.newton_polytope([(0, 0), (1, 0), (1, 1), (0, 1)], 2),
        tc.newton_polytope([(0, 0), (1, 0), (0, 1)], 2),
    ]


def test_criterion_01_dirac_solution():
    """Single-site problems are solved by the translated support function,
    exactly and immediately."""
    start = time.monotonic()
    rng = hx.SplitMix64(BASE_SEED + 1)
    for delta in _deltas():
        n = delta.dim
        for _ in range(20):
            x = tuple(rng.fraction(2, 6) for _ in range(n))
            p = sv.DiracProblem(delta, (x,), (delta.volume,))
            s = sv.solve(p, sv.SolverConfig(mode="rational"))
            assert s.potential == tc.envelope(delta, [(x, 0)])
            assert s.residual == 0
            assert s.iterations <= 1
    _report("1 (dirac solution)", 1.0, start)


def test_criterion_02_mass_conservation():
    """500 seeded potentials in n = 1 and 2: total MA mass is vol(Delta)."""
    start = time.monotonic()
    for k in range(500):
        cfg = hx.GenConfig(seed=hx.case_seed(BASE_SEED + 2, k), dimension=1 + k % 2)
        rng = hx.SplitMix64(cfg.seed)
        delta = hx.gen_polytope(rng, cfg.dimension, cfg.polytope_complexity)
        f = hx.gen_psh(rng, delta, cfg)
        assert tc.ma_measure(f).total_mass == delta.volume
    _report("2 (mass conservation, 500 cases)", 30.0, start)


def test_criterion_03_support_function_dirac():
    """MA(g_Delta) is exactly vol(Delta) times the Dirac mass at 0."""
    start = time.monotonic()
    rng = hx.SplitMix64(BASE_SEED + 3)
    polytopes = _deltas()
    while len(polytopes) < 10:
        polytopes.append(hx.gen_polytope(rng, 1 + len(polytopes) % 2, 6))
    for delta in polytopes:
        mu = tc.ma_measure(tc.g_delta(delta))
        origin = tuple(F(0) for _ in range(delta.dim))
        assert mu.atoms == ((origin, delta.volume),)
    _report("3 (MA of the support function)", 1.0, start)


def test_criterion_04_orthogonality():
    """Zero defect of the psh envelope on 200 seeded test functions."""
    start = time.monotonic()
    for dim in (1, 2):
        rep = hx.run_suite(
            "orthogonality", hx.GenConfig(seed=BASE_SEED + 4 + dim, dimension=dim), 100
        )
        assert rep.passed, [f.assertion for f in rep.failures]
    _report("4 (orthogonality, 200 cases)", 60.0, start)


def test_criterion_05_differentiability():
    """Exact dual-objective gradient = Laguerre masses - weights on 200
    seeded (problem, t) pairs; float finite differences within 1e-4."""
    start = time.monotonic()
    fd_step = 1e-6
    for k in range(200):
        seed = hx.case_seed(BASE_SEED + 5, k)
        cfg = hx.GenConfig(seed=seed, dimension=1 + k % 2)
        rng = hx.SplitMix64(seed)
        delta = hx.gen_polytope(rng, cfg.dimension, cfg.polytope_complexity)
        p = hx.gen_dirac_problem(rng, delta, cfg)
        t = tuple(rng.fraction(2, cfg.coefficient_bound) for _ in p.sites)

        # Rational mode: exact identity (the call also cross-checks the
        # two exact energy routes against each other).
        _value, grad = sv.dual_objective(p, t)
        phi = tc.envelope(delta, list(zip(p.sites, t)))
        mu = tc.ma_measure(phi)
        for i, x in enumerate(p.sites):
            assert grad[i] == mu.weight_at(x) - p.weights[i]

        # Float mode: central finite differences, relative 1e-4.
        if k % 10 == 0:
            tf = [float(v) for v in t]
            _vf, gf = sv.dual_objective(p, tf, mode="float")
            for i in range(len(p.sites)):
                tp, tm = list(tf), list(tf)
                tp[i] += fd_step
                tm[i] -= fd_step
                vp, _ = sv.dual_objective(p, tp, mode="float")
                vm, _ = sv.dual_objective(p, tm, mode="float")
                fd = (vp - vm) / (2 * fd_step)
                assert abs(fd - gf[i]) / max(1.0, abs(gf[i])) <= 1e-4
    _report("5 (differentiability, 200 cases)", 60.0, start)


def test_criterion_06_locality_and_comparison():
    """500 seeded pairs: atomwise locality on {phi > psi}, mass comparison
    on {phi < psi}; both sides exact."""
    start = time.monotonic()
    for dim in (1, 2):
        cfg = hx.GenConfig(seed=BASE_SEED + 6 + dim, dimension=dim)
        rep_loc = hx.run_suite("locality", cfg, 250)
        rep_cmp = hx.run_suite("comparison", cfg, 250)
        assert rep_loc.passed, [f.assertion for f in rep_loc.failures]
        assert rep_cmp.passed, [f.assertion for f in rep_cmp.failures]
    _report("6 (locality and comparison, 500 pairs)", 60.0, start)


def test_criterion_07_energy_identities():
    """200 seeded pairs: the difference formula, the first-derivative
    polynomial identity, concavity, and the exact agreement of the
    Legendre-integral energy with the mixed-measure energy."""
    start = time.monotonic()
    for dim in (1, 2):
        rep = hx.run_suite(
            "energy_identities",
            hx.GenConfig(seed=BASE_SEED + 7 + dim, dimension=dim),
            100,
        )
        assert rep.passed, [f.assertion for f in rep.failures]
    _report("7 (energy identities, 200 pairs)", 60.0, start)


def test_criterion_08_solver_existence_uniqueness():
    """50 seeded 2-D problems with up to 8 sites at float tolerance 1e-10:
    convergence within 1e4 iterations and init-independence within 1e-8;
    plus the 1-D family solved exactly with slope-jump verification."""
    start = time.monotonic()
    rng = hx.SplitMix64(BASE_SEED + 8)
    cfg = hx.GenConfig(seed=BASE_SEED + 8, dimension=2)
    tol = F(1, 10**10)
    square = tc.newton_polytope([(0, 0), (1, 0), (1, 1), (0, 1)], 2)
    for k in range(50):
        delta = square if k % 2 else hx.gen_polytope(rng, 2, 5)
        p = hx.gen_dirac_problem(rng, delta, cfg, max_sites=8)
        s1 = sv.solve(p, sv.SolverConfig(mode="float", tol=tol))
        assert s1.iterations <= 10_000
        assert float(s1.residual) <= 1e-10 * float(delta.volume)
        xbar = p.barycenter()
        base = [tc.support_value(delta, sub(x, xbar)) for x in p.sites]
        init2 = tuple(ti + F(rng.int_between(-2, 2), 8) for ti in base)
        s2 = sv.solve(p, sv.SolverConfig(mode="float", tol=tol, init=init2))
        diffs = [float(a - b) for a, b in zip(s1.t, s2.t)]
        assert max(diffs) - min(diffs) <= 1e-8

    # 1-D family, exact rational with independent slope-jump verification.
    for k in range(20):
        seed = hx.case_seed(BASE_SEED + 80, k)
        rng1 = hx.SplitMix64(seed)
        cfg1 = hx.GenConfig(seed=seed, dimension=1)
        delta = hx.gen_polytope(rng1, 1, 4)
        p = hx.gen_dirac_problem(rng1, delta, cfg1, max_sites=5)
        s = sv.solve(p, sv.SolverConfig(mode="rational"))
        assert s.residual == 0
        order = sorted(range(len(p.sites)), key=lambda i: p.sites[i])
        alpha = delta.body.vertices[0][0]
        running = alpha
        eps = F(1, 10**9)
        f = s.potential
        for idx in order:
            x = p.sites[idx][0]
            left = (f.value((x,)) - f.value((x - eps,))) / eps
            assert left == running
            running += p.weights[idx]
            right = (f.value((x + eps,)) - f.value((x,))) / eps
            assert right == running
    _report("8 (solver existence and uniqueness)", 300.0, start)


def test_criterion_09_zariski_lattice_defect():
    """50 seeded constraint sets: defects along m = 1,2,4,...,64 are
    nonnegative, decay by at least 8x, and vanish whenever the exact
    envelope's slopes lie in the slope lattice."""
    start = time.monotonic()
    rep = hx.run_suite(
        "zariski_defect", hx.GenConfig(seed=BASE_SEED + 9, dimension=1), 50
    )
    assert rep.passed, [f.assertion for f in rep.failures]
    _report("9 (lattice-envelope defects, 50 sets)", 120.0, start)


def test_criterion_10_curve_suite():
    """200 seeded graphs with up to 30 vertices: Green round trip exact,
    Poisson round trip exact, uniqueness up to constant, and the
    variational inequality against 100 random competitors each."""
    start = time.monotonic()
    for k in range(200):
        seed = hx.case_seed(BASE_SEED + 10, k)
        rng = hx.SplitMix64(seed)
        graph = hx.gen_graph(rng, 30)
        n = graph.vertex_count

        x, y = rng.below(n), rng.below(n)
        if x == y:
            y = (x + 1) % n
        gf = cv.green(graph, x, y)
        m = cv.ddc(graph, gf)
        expect = [F(0)] * n
        expect[x] += 1
        expect[y] -= 1
        assert list(m.vertex_weights) == expect and gf.values[y] == 0

        omega_w = hx.gen_graph_measure(rng, n, F(n))
        mu_w = hx.gen_graph_measure(rng, n, F(n))
        omega = cv.GraphMeasure.on(graph, omega_w)
        mu = cv.GraphMeasure.on(graph, mu_w)
        phi = cv.solve_poisson(graph, omega, mu)
        assert cv.curvature(graph, omega, phi).vertex_weights == tuple(mu_w)
        assert max(phi.values) == 0

        rhs, den = integers([a - b for a, b in zip(omega_w, mu_w)])
        (x0, d0), (x1, d1) = (cv.PoissonSolver(graph, g).solve_over(rhs, den) for g in (0, n - 1))
        assert len({F(a, d0) - F(b, d1) for a, b in zip(x0, x1)}) == 1

        best = cv.energy_graph(graph, phi, omega) - cv.integrate_graph(graph, phi, mu)
        solver = cv.PoissonSolver(graph)
        for _ in range(100):
            nu = hx.gen_graph_measure(rng, n, F(n))
            psi = solver.solve(omega, cv.GraphMeasure.on(graph, nu))
            val = cv.energy_graph(graph, psi, omega) - cv.integrate_graph(graph, psi, mu)
            assert val <= best
    _report("10 (curve suite, 200 graphs)", 60.0, start)


def test_criterion_11_capacity():
    """200 seeded instances of the implication-safe capacity estimates,
    including the exact u/M-injection chain."""
    start = time.monotonic()
    for dim in (1, 2):
        rep = hx.run_suite(
            "capacity", hx.GenConfig(seed=BASE_SEED + 11 + dim, dimension=dim), 100
        )
        assert rep.passed, [f.assertion for f in rep.failures]
    _report("11 (capacity estimates, 200 cases)", 60.0, start)
