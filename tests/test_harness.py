"""Generator determinism, suite behavior, capacity, mutation tests."""

import dataclasses
from fractions import Fraction as F

import pytest

from nama import harness as hx
from nama import toric as tc
from nama.errors import CandidateOutOfRange, UnknownSuite
from test_polyhedra import contains


def gen_toric_instance(cfg: hx.GenConfig):
    """Deterministic-in-seed toric instance: a full-dimensional Newton
    polytope, potentials, test functions, and a measure whose total mass
    equals vol(Delta) (the Dirac-problem constraint)."""
    rng = hx.SplitMix64(cfg.seed)
    delta = hx.gen_polytope(rng, cfg.dimension, cfg.polytope_complexity)
    phis = [hx.gen_psh(rng, delta, cfg) for _ in range(3)]
    tfs = [hx.gen_test_function(rng, delta, cfg) for _ in range(2)]
    sites = hx.gen_sites(rng, delta, cfg, 1 + rng.below(4))
    measure = hx.gen_dirac_measure(rng, delta, sites)
    return delta, phis, tfs, measure


class TestRng:
    def test_splitmix_reference_values(self):
        # First outputs for seed 0 of the documented splitmix64 transition.
        rng = hx.SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_streams_disjoint(self):
        assert hx.case_seed(7, 0) != hx.case_seed(7, 1)


class TestGenerators:
    def test_same_seed_identical_instances(self):
        cfg = hx.GenConfig(seed=42, dimension=2)
        a = gen_toric_instance(cfg)
        b = gen_toric_instance(cfg)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2] == b[2]
        assert a[3] == b[3]

    def test_dimension_and_complexity_bounds(self):
        cfg = hx.GenConfig(seed=5, dimension=1, function_complexity=2)
        delta, phis, tfs, mu = gen_toric_instance(cfg)
        assert delta.dim == 1
        for f in phis:
            assert len(f.generators) <= 2

    def test_canonical_form_validator_many_seeds(self):
        """Generated potentials pass canonical-form validation: retained
        generators are interpolated exactly, cells are full-dimensional,
        and the measure mass equals vol(Delta)."""
        for seed in range(300):
            cfg = hx.GenConfig(seed=seed, dimension=1 + seed % 2)
            delta, phis, tfs, mu = gen_toric_instance(cfg)
            assert mu.total_mass == delta.volume
            for f in phis:
                assert tc.ma_measure(f).total_mass == delta.volume
                for x, t in f.generators:
                    assert f.value(x) == t
                hull_body = delta.body
                for v, _uv in f.pieces:
                    assert contains(hull_body, v)


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            hx.run_suite("nope", hx.GenConfig(seed=0), 1)

    @pytest.mark.parametrize("name", hx.SUITE_NAMES)
    def test_suites_pass_briefly(self, name):
        for dim in (1, 2):
            rep = hx.run_suite(name, hx.GenConfig(seed=100 + dim, dimension=dim), 2)
            assert rep.passed, [f.assertion for f in rep.failures]

    # Case 4454381521061418421 of `check --suite uniqueness --dimension 2
    # --seed 1`: both float solves converge, but their raw t differ by
    # 1.06e-9 up to a constant, over the 10 * tol gap.
    UNIQUENESS_CASE = 4454381521061418421

    def test_uniqueness_2d_converged_solves_agree(self):
        cfg = hx.GenConfig(seed=1, dimension=2)
        assert hx._suite_uniqueness(hx.SplitMix64(self.UNIQUENESS_CASE), cfg) == []

    def test_uniqueness_2d_reports_planted_gap(self, monkeypatch):
        solve = hx.sv.solve

        def solve_with_gap(p, config):
            s = solve(p, config)
            if config.init is None:
                return s
            return dataclasses.replace(s, t=(s.t[0] + F(1, 10**6),) + s.t[1:])

        monkeypatch.setattr(hx.sv, "solve", solve_with_gap)
        cfg = hx.GenConfig(seed=1, dimension=2)
        failures = hx._suite_uniqueness(hx.SplitMix64(self.UNIQUENESS_CASE), cfg)
        assert [a for a, _ in failures] == ["uniqueness:constant-gap"]

    # Planted faults in the inputs of the check-suites assertions, on cases
    # k of `check --dimension 2 --seed 1` (case seed case_seed(1, k)).  Each
    # case passes unplanted; planted, it reports the exact failure list.
    CFG_2D = hx.GenConfig(seed=1, dimension=2)

    def _planted(self, monkeypatch, suite, k, patches):
        rng = lambda: hx.SplitMix64(hx.case_seed(1, k))
        assert suite(rng(), self.CFG_2D) == []
        for owner, name, value in patches:
            monkeypatch.setattr(owner, name, value)
        return [a for a, _ in suite(rng(), self.CFG_2D)]

    def test_graph_uniqueness_reports_planted_shift(self, monkeypatch):
        class Shifted(hx.cv.PoissonSolver):
            """Moves the last vertex's value of every solve grounded there."""

            def __init__(self, graph, ground=0):
                super().__init__(graph, ground)
                self.faulty = ground == graph.vertex_count - 1

            def solve(self, omega, mu):
                g = super().solve(omega, mu)
                if not self.faulty:
                    return g
                return hx.cv.GraphFunction.on(self.graph, g.values[:-1] + (g.values[-1] + F(1, 7),))

        found = self._planted(monkeypatch, hx._suite_graph, 0, [(hx.cv, "PoissonSolver", Shifted)])
        assert found == ["graph:uniqueness"]

    def _mixed_fault(self, target):
        """gen_psh and mixed_ma replacements: the energy suite draws phi,
        psi, chi, eta (0-3) in that order, and MA(h, chi) of the target-th
        comes back with its first atom's weight tripled."""
        drawn, gen_psh, mixed_ma = [], hx.gen_psh, hx.tc.mixed_ma

        def record(*args):
            drawn.append(gen_psh(*args))
            return drawn[-1]

        def faulty(fs):
            m = mixed_ma(fs)
            if len(drawn) > max(target, 2) and fs[0] is drawn[target] and fs[1] is drawn[2]:
                (p, w), *rest = m.atoms
                return tc.AtomicMeasure(((p, 3 * w), *rest))
            return m

        return [(hx, "gen_psh", record), (hx.tc, "mixed_ma", faulty)]

    def test_energy_cauchy_schwarz_reports_planted_mixed_mass(self, monkeypatch):
        # MA(phi, chi) enters both pairings of the symmetry check too.
        found = self._planted(monkeypatch, hx._suite_energy_identities, 11, self._mixed_fault(0))
        assert found == ["energy:cauchy-schwarz", "energy:ibp-symmetry"]

    def test_energy_ibp_symmetry_reports_planted_mixed_mass(self, monkeypatch):
        found = self._planted(monkeypatch, hx._suite_energy_identities, 11, self._mixed_fault(3))
        assert found == ["energy:ibp-symmetry"]

    @pytest.mark.parametrize(
        "k, expected",
        [
            (3, ["capacity:sublevel:t=1/4", "capacity:sublevel:t=1/2", "capacity:sublevel:t=1/2"]),
            (6, ["capacity:sublevel:t=1/4", "capacity:sublevel:t=1/2"]),
        ],
    )
    def test_capacity_sublevel_reports_planted_mass_loss(self, monkeypatch, k, expected):
        """MA(phi') at 1/64 of its weights shrinks both right-hand sides, so
        some of the six (candidate, t) checks fail; with the two sides'
        t swapped, case 6 would report t = 1/2 alone."""
        drawn, normalized, ma_measure = [], hx.normalized_candidate, hx.tc.ma_measure

        def record(f):  # the third candidate, phi', psi'
            drawn.append(normalized(f))
            return drawn[-1]

        def faulty(f):
            m = ma_measure(f)
            if len(drawn) > 1 and f is drawn[1]:
                return tc.AtomicMeasure(tuple((p, w / 64) for p, w in m.atoms))
            return m

        patches = [(hx, "normalized_candidate", record), (hx.tc, "ma_measure", faulty)]
        assert self._planted(monkeypatch, hx._suite_capacity, k, patches) == expected

    def test_report_deterministic(self):
        cfg = hx.GenConfig(seed=9, dimension=1)
        a = hx.run_suite("locality", cfg, 5)
        b = hx.run_suite("locality", cfg, 5)
        assert a == b  # elapsed_ms excluded from equality
        assert a.to_dict(with_timing=False) == b.to_dict(with_timing=False)

    def test_witnesses_serialize_as_json(self):
        cfg = hx.GenConfig(seed=31, dimension=2)
        delta, phis, tfs, _ = gen_toric_instance(cfg)
        env = tc.psh_envelope(tfs[0])
        measure = tc.ma_measure(env)
        corrupted = tc.AtomicMeasure.from_items(
            [(p, w + F(1, 1000)) for p, w in measure.atoms]
        )
        failures = hx.check_orthogonality(tfs[0], env, corrupted)
        assert failures
        from nama import instance_io as io

        report = hx.CheckReport(
            suite="orthogonality",
            cases=1,
            failures=tuple(hx.Failure(31, a, w) for a, w in failures),
        )
        text = io.dumps_canonical(report.to_dict(with_timing=False))
        assert "orthogonality" in text

    def test_orthogonality_mutation_names_atom(self):
        """Corrupting one MA weight by 1/1000 must fail with the atom named."""
        cfg = hx.GenConfig(seed=77, dimension=2)
        delta, phis, tfs, _ = gen_toric_instance(cfg)
        f = tfs[0]
        env = tc.psh_envelope(f)
        measure = tc.ma_measure(env)
        target = measure.atoms[0][0]
        corrupted = tc.AtomicMeasure.from_items(
            [(p, w + F(1, 1000) if p == target else w) for p, w in measure.atoms]
        )
        failures = hx.check_orthogonality(f, env, corrupted)
        assert failures
        assert any(str(target) in assertion for assertion, _ in failures)
        assert hx.check_orthogonality(f, env, measure) == []


class TestCapacityLower:
    def test_full_region_reference_candidate(self):
        delta = tc.newton_polytope([(0, 0), (2, 0), (2, 2), (0, 2)], 2)
        ref = tc.g_delta(delta)
        # Region holding all of the reference's mass: the origin.
        cap = hx.capacity_lower(delta, [(F(0), F(0))], [ref])
        assert cap == delta.volume

    def test_single_site_positive(self):
        delta = tc.newton_polytope([(0,), (1,)], 1)
        x = (F(1, 3),)
        cand = tc.envelope(delta, [(x, F(0))])
        lo, hi = tc.difference_range(cand, tc.g_delta(delta))
        cand = cand.shift(-hi)
        assert hi - lo <= 1
        assert hx.capacity_lower(delta, [x], [cand]) == delta.volume

    def test_out_of_range_candidate(self):
        delta = tc.newton_polytope([(0,), (1,)], 1)
        cand = tc.g_delta(delta).shift(F(3))
        with pytest.raises(CandidateOutOfRange):
            hx.capacity_lower(delta, [(F(0),)], [cand])

    def test_reevaluation_oracle(self):
        delta = tc.newton_polytope([(0, 0), (1, 0), (1, 1), (0, 1)], 2)
        rng = hx.SplitMix64(4)
        cands = [
            hx.normalized_candidate(hx.gen_psh(rng, delta, hx.GenConfig(seed=4)))
            for _ in range(3)
        ]
        region = [p for c in cands for p in tc.ma_measure(c).points()][:3]
        cap = hx.capacity_lower(delta, region, cands)
        best = F(0)
        for c in cands:
            mass = F(0)
            for p, w in tc.ma_measure(c).atoms:
                if p in set(region):
                    mass += w
            best = max(best, mass)
        assert cap == best


class TestPolyFit:
    def test_exact_cubic(self):
        xs = [F(0), F(1, 3), F(2, 3), F(1)]
        poly = lambda x: 2 - x + F(3, 2) * x**2 - F(5, 7) * x**3
        coeffs = hx._poly_fit(xs, [poly(x) for x in xs])
        assert coeffs == [F(2), F(-1), F(3, 2), F(-5, 7)]
        assert hx._poly_eval(coeffs, F(1, 5)) == poly(F(1, 5))
