"""Seeded random instances and executable theorem suites.

Every suite checks one of the package's mathematical invariants exactly
(rational arithmetic, no tolerances) on deterministically generated
instances and reports failing witnesses in the instance file encoding.

The generator is splitmix64, fixed bit-exactly so reports are
reproducible across implementations:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output: z XOR (z >> 31)

Integers below n are taken as output mod n; derived streams for case k
use seed XOR mix(9E3779B97F4A7C15 * (k+1)).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from . import curves as cv
from . import instance_io as io
from . import polyhedra as pg
from . import solver as sv
from . import toric as tc
from .errors import CandidateOutOfRange, NotConverged, UnknownSuite, ValidationError
from .polyhedra import sub

_ZERO = Fraction(0)
_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """The documented deterministic 64-bit generator."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def int_between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def fraction(self, bound: int, max_den: int) -> Fraction:
        den = self.int_between(1, max_den)
        num = self.int_between(-bound * den, bound * den)
        return Fraction(num, den)


def case_seed(seed: int, k: int) -> int:
    return (seed ^ _mix((_GAMMA * (k + 1)) & _MASK)) & _MASK


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    dimension: int = 2
    polytope_complexity: int = 6
    function_complexity: int = 3
    coefficient_bound: int = 4

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValidationError("dimension", "must be 1 or 2")
        for name in ("polytope_complexity", "function_complexity", "coefficient_bound"):
            if getattr(self, name) < 1:
                raise ValidationError(name, "must be >= 1")


@dataclass(frozen=True)
class Failure:
    seed: int
    assertion: str
    witness: Dict

    def key(self):
        return (self.seed, self.assertion)


@dataclass(frozen=True)
class CheckReport:
    """Suite outcome; equality ignores the elapsed time so identical runs
    compare equal.  Serialized with elapsed_ms zeroed when timestamps are
    suppressed."""

    suite: str
    cases: int
    failures: Tuple[Failure, ...]
    elapsed_ms: int = field(compare=False, default=0)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self, with_timing: bool = True) -> Dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": [
                {"seed": f.seed, "assertion": f.assertion, "witness": f.witness}
                for f in self.failures
            ],
            "elapsed_ms": self.elapsed_ms if with_timing else 0,
        }


# --------------------------------------------------------------------------
# Generators.
# --------------------------------------------------------------------------


def gen_polytope(rng: SplitMix64, dim: int, max_vertices: int) -> tc.NewtonPolytope:
    """Full-dimensional lattice polytope with few vertices; lattice
    vertices keep every slope lattice Delta-compatible."""
    if dim == 1:
        a = rng.int_between(-2, 1)
        b = rng.int_between(a + 1, 3)
        return tc.newton_polytope([(a,), (b,)], 1)
    for _ in range(64):
        k = max(3, min(max_vertices, 3 + rng.below(4)))
        pts = [(rng.int_between(-2, 2), rng.int_between(-2, 2)) for _ in range(k)]
        body = pg.hull(pts, 2)
        if body.is_full_dimensional:
            return tc.NewtonPolytope(body)
    return tc.newton_polytope([(0, 0), (1, 0), (1, 1), (0, 1)], 2)


def gen_psh(rng: SplitMix64, delta: tc.NewtonPolytope, cfg: GenConfig) -> tc.ToricPsh:
    """Random potential: sites in a box of side 4 around the origin,
    values sampled from a random translate of the support function plus
    noise, then canonicalized by the envelope constructor."""
    n = delta.dim
    count = 1 + rng.below(cfg.function_complexity)
    tau = tuple(rng.fraction(1, cfg.coefficient_bound) for _ in range(n))
    seen = set()
    gens = []
    for _ in range(count):
        x = tuple(rng.fraction(2, cfg.coefficient_bound) for _ in range(n))
        if x in seen:
            continue
        seen.add(x)
        base = tc.support_value(delta, sub(x, tau))
        noise = rng.fraction(1, 2 * cfg.coefficient_bound)
        gens.append((x, base + noise))
    if not gens:
        origin = tuple(_ZERO for _ in range(n))
        gens = [(origin, _ZERO)]
    return tc.envelope(delta, gens)


def gen_test_function(rng: SplitMix64, delta: tc.NewtonPolytope, cfg: GenConfig) -> tc.TestFunction:
    branches = [gen_psh(rng, delta, cfg) for _ in range(1 + rng.below(3))]
    return tc.TestFunction(branches)


def gen_sites(rng: SplitMix64, delta: tc.NewtonPolytope, cfg: GenConfig, count: int):
    n = delta.dim
    sites = []
    while len(sites) < count:
        x = tuple(rng.fraction(2, cfg.coefficient_bound) for _ in range(n))
        if x not in sites:
            sites.append(x)
    return tuple(sites)


def gen_dirac_measure(rng: SplitMix64, delta: tc.NewtonPolytope, sites) -> tc.AtomicMeasure:
    raw = [Fraction(rng.int_between(1, 9)) for _ in sites]
    total = sum(raw)
    return tc.AtomicMeasure.from_items(
        (x, r * delta.volume / total) for x, r in zip(sites, raw)
    )


def gen_dirac_problem(rng: SplitMix64, delta: tc.NewtonPolytope, cfg: GenConfig, max_sites=4):
    sites = gen_sites(rng, delta, cfg, 1 + rng.below(max_sites))
    mu = gen_dirac_measure(rng, delta, sites)
    weights = tuple(mu.weight_at(x) for x in sites)
    return sv.DiracProblem(delta, sites, weights)


def gen_graph(rng: SplitMix64, max_vertices: int = 12) -> cv.MetricGraph:
    n = rng.int_between(2, max_vertices)
    edges = []
    for v in range(1, n):
        u = rng.below(v)
        edges.append((u, v, Fraction(rng.int_between(1, 8), rng.int_between(1, 4))))
    for _ in range(rng.below(1 + n // 2)):
        u, v = rng.below(n), rng.below(n)
        if u != v:
            edges.append((u, v, Fraction(rng.int_between(1, 8), rng.int_between(1, 4))))
    return cv.MetricGraph(n, tuple(edges))


def gen_graph_measure(rng: SplitMix64, n: int, total: Fraction) -> List[Fraction]:
    raw = [Fraction(rng.int_between(0, 5)) for _ in range(n)]
    if sum(raw) == 0:
        raw[rng.below(n)] = Fraction(1)
    s = sum(raw)
    return [x * total / s for x in raw]


# --------------------------------------------------------------------------
# Capacity.
# --------------------------------------------------------------------------


def normalized_candidate(f: tc.ToricPsh) -> tc.ToricPsh:
    """Shift and, if needed, contract a potential toward the reference so
    that f - g_Delta takes values in [-1, 0], exactly."""
    ref = tc.g_delta(f.delta)
    lo, hi = tc.difference_range(f, ref)
    f = f.shift(-hi)
    lo = lo - hi
    if lo < -1:
        s = Fraction(1, math.ceil(Fraction(-lo)))
        f = tc.affine_combination([(1 - s, ref), (s, f)])
    return f


def capacity_lower(
    delta: tc.NewtonPolytope, region, candidates: Sequence[tc.ToricPsh]
) -> Fraction:
    """Lower bound for the capacity of a finite region: the best mass any
    candidate's MA measure puts on it.

    Candidates must sit in the normalized band -1 <= f - g_Delta <= 0;
    this is validated on the region points, the candidates' MA atoms and
    their generator sites (a finite check, per the artifact contract).
    """
    ref = tc.g_delta(delta)
    region = {tuple(Fraction(c) for c in p) for p in region}
    best = _ZERO
    for cand in candidates:
        measure = tc.ma_measure(cand)
        checkpoints = region | set(measure.points()) | set(cand.sites)
        for p in sorted(checkpoints):
            v = cand.value(p) - ref.value(p)
            if v < -1 or v > 0:
                raise CandidateOutOfRange(f"candidate leaves [-1,0] at {p}: {v}")
        mass = sum((w for p, w in measure.atoms if p in region), _ZERO)
        best = max(best, mass)
    return best


# --------------------------------------------------------------------------
# Exact polynomial helpers (energy paths are polynomials in the mixing
# parameter; fitting at rational nodes recovers them exactly).
# --------------------------------------------------------------------------


def _poly_fit(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> List[Fraction]:
    """Coefficients (ascending) of the interpolating polynomial."""
    k = len(xs)
    coeffs = [_ZERO] * k
    for i in range(k):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(k):
            if j == i:
                continue
            basis = _poly_mul(basis, [-xs[j], Fraction(1)])
            denom *= xs[i] - xs[j]
        w = ys[i] / denom
        for d, c in enumerate(basis):
            coeffs[d] += w * c
    return coeffs


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_eval(coeffs, x):
    acc = _ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def certified_polynomial(sample: Callable[[Fraction], Fraction], degree: int, span: Fraction):
    """Fit a polynomial of the given degree to `sample` on [0, span] and
    certify it on an extra off-grid node; shrink the span when the sample
    is only piecewise polynomial.  Returns (coefficients, span) or None.
    """
    for _ in range(8):
        nodes = [span * Fraction(j, degree + 1) for j in range(degree + 2)]
        values = [sample(x) for x in nodes]
        coeffs = _poly_fit(nodes, values)
        probe = span * Fraction(1, 2 * (degree + 2) + 1)
        if _poly_eval(coeffs, probe) == sample(probe):
            return coeffs, span
        span = span / 4
    return None


# --------------------------------------------------------------------------
# Suite implementations.  Each returns a list of (assertion id, witness).
# --------------------------------------------------------------------------


def _w_pair(delta, phi, psi):
    return {
        "polytope": io.encode_polytope(delta),
        "phi": io.encode_generators(phi),
        "psi": io.encode_generators(psi),
    }


def _two_psh(rng, cfg):
    delta = gen_polytope(rng, cfg.dimension, cfg.polytope_complexity)
    return delta, gen_psh(rng, delta, cfg), gen_psh(rng, delta, cfg)


def _suite_locality(rng: SplitMix64, cfg: GenConfig):
    delta, phi, psi = _two_psh(rng, cfg)
    failures = []
    mu_h = tc.ma_measure(tc.max_combine(phi, psi))
    sides = (("phi", tc.ma_measure(phi)), ("psi", tc.ma_measure(psi)))
    pts = set(mu_h.points()).union(*(mu.points() for _, mu in sides))
    at = {p: (phi.value(p), psi.value(p)) for p in pts}
    for i, (tag, mu_inner) in enumerate(sides):
        for p in set(mu_h.points()) | set(mu_inner.points()):
            if at[p][i] > at[p][1 - i] and mu_h.weight_at(p) != mu_inner.weight_at(p):
                failures.append((f"locality:{tag}-side:{p}", _w_pair(delta, phi, psi)))
    return failures


def _suite_comparison(rng: SplitMix64, cfg: GenConfig):
    delta, phi, psi = _two_psh(rng, cfg)
    mu_phi, mu_psi = tc.ma_measure(phi), tc.ma_measure(psi)
    lhs = sum((w for p, w in mu_psi.atoms if phi.value(p) < psi.value(p)), _ZERO)
    rhs = sum((w for p, w in mu_phi.atoms if phi.value(p) < psi.value(p)), _ZERO)
    if lhs > rhs:
        return [("comparison:mass", _w_pair(delta, phi, psi))]
    return []


def _suite_superadditivity(rng: SplitMix64, cfg: GenConfig):
    delta, phi, psi = _two_psh(rng, cfg)
    n = delta.dim
    h = tc.affine_combination([(Fraction(1, 2), phi), (Fraction(1, 2), psi)])
    mu_h, mu_phi, mu_psi = tc.ma_measure(h), tc.ma_measure(phi), tc.ma_measure(psi)
    failures = []
    scale = Fraction(1, 2**n)
    for p in set(mu_phi.points()) | set(mu_psi.points()):
        lower = scale * (mu_phi.weight_at(p) + mu_psi.weight_at(p))
        if mu_h.weight_at(p) < lower:
            failures.append((f"superadditivity:atom:{p}", _w_pair(delta, phi, psi)))
    return failures


def _suite_envelope_axioms(rng: SplitMix64, cfg: GenConfig):
    delta = gen_polytope(rng, cfg.dimension, cfg.polytope_complexity)
    f = gen_test_function(rng, delta, cfg)
    g = gen_test_function(rng, delta, cfg)
    pf, pgr = tc.psh_envelope(f), tc.psh_envelope(g)
    witness = {
        "polytope": io.encode_polytope(delta),
        "f": io.encode_test_function(f),
        "g": io.encode_test_function(g),
    }
    failures = []
    samples = [
        tuple(rng.fraction(3, cfg.coefficient_bound) for _ in range(delta.dim))
        for _ in range(12)
    ] + list(pf.sites) + list(pgr.sites)

    pf_at = [pf.value(y) for y in samples]

    # Monotonicity: min(f, g) <= f pointwise, so P(min) <= P(f).
    fmin = tc.TestFunction(list(f.branches) + list(g.branches))
    pmin = tc.psh_envelope(fmin)
    if any(pmin.value(y) > v for y, v in zip(samples, pf_at)):
        failures.append(("envelope:monotone", witness))

    # Exact commutation with constants.
    c = Fraction(rng.int_between(-5, 5), 3)
    if tc.psh_envelope(f.shift(c)) != pf.shift(c):
        failures.append(("envelope:constants", witness))

    # 1-Lipschitz under a controlled branch perturbation: sup|f-f'| <= C.
    shifts = [Fraction(rng.int_between(-2, 2), 8) for _ in f.branches]
    C = max((abs(s) for s in shifts), default=_ZERO)
    fpert = tc.TestFunction([b.shift(s) for b, s in zip(f.branches, shifts)])
    ppert = tc.psh_envelope(fpert)
    lo, hi = tc.difference_range(ppert, pf)
    if hi > C or lo < -C:
        failures.append(("envelope:lipschitz", witness))

    # Concavity at sampled points.
    at = [(y, a, pgr.value(y)) for y, a in zip(samples[:6], pf_at)]
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        mix = tc.TestFunction(
            [
                tc.affine_combination([(t, bf), (1 - t, bg)])
                for bf in f.branches
                for bg in g.branches
            ]
        )
        pmix = tc.psh_envelope(mix)
        if any(pmix.value(y) < t * a + (1 - t) * b for y, a, b in at):
            failures.append((f"envelope:concavity:t={t}", witness))
    return failures


def check_orthogonality(
    f: tc.TestFunction, phi: tc.ToricPsh, measure: tc.AtomicMeasure
) -> List[Tuple[str, Dict]]:
    """Assertions behind the orthogonality suite, on an explicit measure.

    Verifies that every atom weight equals the exact subdifferential
    volume (an independent route to the cell volumes), that the total
    mass is vol(Delta), and that the defect pairing vanishes.  Taking the
    measure as an argument lets mutation tests feed a corrupted one and
    see the failing atom named.
    """
    witness_base = {
        "polytope": io.encode_polytope(phi.delta),
        "f": io.encode_test_function(f),
        "phi": io.encode_generators(phi),
    }
    failures = []
    for p, w in measure.atoms:
        if pg.volume(phi.subdifferential(p)) != w:
            failures.append(
                (f"orthogonality:atom-weight:{p}", {**witness_base, "atom": [str(c) for c in p]})
            )
    if measure.total_mass != phi.delta.volume:
        failures.append(("orthogonality:total-mass", witness_base))
    defect = tc.integrate(f, measure) - tc.integrate(phi, measure)
    if defect != 0:
        failures.append(
            ("orthogonality:defect", {**witness_base, "defect": str(defect)})
        )
    return failures


def _suite_orthogonality(rng: SplitMix64, cfg: GenConfig):
    delta = gen_polytope(rng, cfg.dimension, cfg.polytope_complexity)
    f = gen_test_function(rng, delta, cfg)
    env = tc.psh_envelope(f)
    return check_orthogonality(f, env, tc.ma_measure(env))


def _suite_differentiability(rng: SplitMix64, cfg: GenConfig):
    delta = gen_polytope(rng, cfg.dimension, cfg.polytope_complexity)
    p = gen_dirac_problem(rng, delta, cfg)
    t = tuple(rng.fraction(2, cfg.coefficient_bound) for _ in p.sites)
    failures = []
    witness = {
        "polytope": io.encode_polytope(delta),
        "sites": [[io.format_scalar(c) for c in x] for x in p.sites],
        "weights": [io.format_scalar(w) for w in p.weights],
        "t": [io.format_scalar(x) for x in t],
    }
    _value, grad = sv.dual_objective(p, t)  # asserts both energy routes agree
    phi = tc.envelope(delta, list(zip(p.sites, t)))
    for i, x in enumerate(p.sites):
        vol_sub = pg.volume(phi.subdifferential(x))
        if grad[i] != vol_sub - p.weights[i]:
            failures.append((f"differentiability:gradient:{i}", witness))

    # One-sided polynomial expansion of the dual objective along a
    # coordinate direction: the certified right derivative must equal the
    # exact gradient component.
    ref = p.reference()
    i0 = rng.below(len(p.sites))

    def sample_coord(s: Fraction) -> Fraction:
        tv = list(t)
        tv[i0] += s
        phi_s = tc.envelope(delta, list(zip(p.sites, tv)))
        return tc.legendre_energy(phi_s, ref) - sum(
            (w * x for w, x in zip(p.weights, tv)), _ZERO
        )

    fit0 = certified_polynomial(sample_coord, delta.dim + 1, Fraction(1, 16))
    if fit0 is None:
        failures.append(("differentiability:coordinate-path-not-polynomial", witness))
    else:
        coeffs0, _ = fit0
        d0 = coeffs0[1] if len(coeffs0) > 1 else _ZERO
        if d0 != grad[i0]:
            failures.append(("differentiability:one-sided-expansion", witness))

    # Gateaux derivative of E(P(phi + s f)) at s = 0+ equals the pairing
    # of f against MA(phi).
    f_dir = gen_psh(rng, delta, cfg)

    def sample(s: Fraction) -> Fraction:
        if s == 0:
            big = phi
        else:
            big = tc.affine_combination([(Fraction(1), phi), (s, f_dir)])
        proj = tc.ToricPsh(delta, big.generators)
        return tc.legendre_energy(proj, ref)

    fit = certified_polynomial(sample, delta.dim + 1, Fraction(1, 8))
    if fit is None:
        failures.append(("differentiability:envelope-path-not-polynomial", witness))
    else:
        coeffs, _ = fit
        derivative = coeffs[1] if len(coeffs) > 1 else _ZERO
        expected = tc.integrate(f_dir, tc.ma_measure(phi))
        if derivative != expected:
            failures.append(("differentiability:gateaux", witness))
    return failures


def _suite_energy_identities(rng: SplitMix64, cfg: GenConfig):
    delta, phi, psi = _two_psh(rng, cfg)
    n = delta.dim
    ref = tc.g_delta(delta)
    witness = _w_pair(delta, phi, psi)
    failures = []

    e_phi = tc.legendre_energy(phi, ref)
    e_psi = tc.legendre_energy(psi, ref)
    if e_phi != tc.energy_via_mixed(phi, ref) or e_psi != tc.energy_via_mixed(psi, ref):
        failures.append(("energy:legendre-vs-mixed", witness))

    def against(h1, h2, mu):
        return tc.integrate(h1, mu) - tc.integrate(h2, mu)

    # e202: difference formula through the mixed pairings; the j = n
    # pairing is the one against MA(phi).
    pairings = [against(psi, phi, tc.mixed_ma([phi] * j + [psi] * (n - j))) for j in range(n + 1)]
    if e_psi - e_phi != sum(pairings) / (n + 1):
        failures.append(("energy:e202", witness))

    # e2008: the mixing path is a polynomial of degree <= n+1 whose
    # derivative at 0 is the pairing against MA(phi).
    path = {Fraction(0): e_phi, Fraction(1): e_psi}

    def path_energy(x: Fraction) -> Fraction:
        if x not in path:
            path[x] = tc.legendre_energy(tc.convex_path(phi, psi, x), ref)
        return path[x]

    nodes = [Fraction(j, n + 1) for j in range(n + 2)]
    coeffs = _poly_fit(nodes, [path_energy(x) for x in nodes])
    probe = Fraction(1, 2 * n + 3)
    if _poly_eval(coeffs, probe) != path_energy(probe):
        failures.append(("energy:path-not-polynomial", witness))
    derivative = coeffs[1] if len(coeffs) > 1 else _ZERO
    if derivative != pairings[n]:
        failures.append(("energy:e2008", witness))

    # Concavity and monotonicity.
    if path_energy(Fraction(1, 2)) < (e_phi + e_psi) / 2:
        failures.append(("energy:concavity", witness))
    upper = tc.max_combine(phi, psi)
    if tc.legendre_energy(upper, ref) < e_phi:
        failures.append(("energy:monotone", witness))

    # Cauchy-Schwarz negativity and integration-by-parts symmetry, pairing
    # h1 - h2 against MA(h, chi) - MA(h', chi) (MA(h) - MA(h') in 1-D).
    chi, eta = gen_psh(rng, delta, cfg), gen_psh(rng, delta, cfg)
    m_phi, m_psi, m_chi, m_eta = [tc.mixed_ma([h] + [chi] * (n - 1)) for h in (phi, psi, chi, eta)]

    def pairing(h1, h2, m1, m2):
        return against(h1, h2, m1) - against(h1, h2, m2)

    if pairing(phi, psi, m_phi, m_psi) > 0:
        failures.append(("energy:cauchy-schwarz", witness))
    if pairing(phi, psi, m_chi, m_eta) != pairing(chi, eta, m_phi, m_psi):
        failures.append(("energy:ibp-symmetry", witness))
    return failures


def _suite_capacity(rng: SplitMix64, cfg: GenConfig):
    delta = gen_polytope(rng, cfg.dimension, cfg.polytope_complexity)
    n = delta.dim
    ref = tc.g_delta(delta)
    failures = []

    u_raw = gen_psh(rng, delta, cfg)
    lo, hi = tc.difference_range(u_raw, ref)
    u = u_raw.shift(-hi)
    M = max(1, math.ceil(Fraction(hi - lo)))
    u_over_m = (
        u if M == 1 else tc.affine_combination([(1 - Fraction(1, M), ref), (Fraction(1, M), u)])
    )
    candidates = [ref, u_over_m, normalized_candidate(gen_psh(rng, delta, cfg))]
    mu_u = tc.ma_measure(u)
    region = set(mu_u.points())
    witness = {
        "polytope": io.encode_polytope(delta),
        "u": io.encode_generators(u),
        "M": M,
    }

    # MA(u)(E) <= M^n MA(u/M)(E) <= M^n * capacity lower bound.
    mu_m = tc.ma_measure(u_over_m)
    lhs = sum((w for p, w in mu_u.atoms if p in region), _ZERO)
    mid = sum((w for p, w in mu_m.atoms if p in region), _ZERO)
    try:
        cap = capacity_lower(delta, region, candidates)
    except CandidateOutOfRange:
        failures.append(("capacity:candidate-range", witness))
        return failures
    if lhs > Fraction(M) ** n * mid:
        failures.append(("capacity:atomwise-bound", witness))
    if mid > cap:
        failures.append(("capacity:lower-bound-misses-candidate", witness))

    # Strictly positive capacity of a point: a small translate of the
    # reference keeps all mass at its site inside the band.
    x = tuple(rng.fraction(1, 4 * cfg.coefficient_bound) for _ in range(n))
    point_cand = tc.envelope(delta, [(x, _ZERO)])
    plo, phi_hi = tc.difference_range(point_cand, ref)
    if phi_hi - plo <= 1:
        point_cand = point_cand.shift(-phi_hi)
        cap_pt = capacity_lower(delta, [x], [point_cand])
        if cap_pt != delta.volume or cap_pt <= 0:
            failures.append(("capacity:point-positive", witness))

    # Implication-safe form of the sublevel estimate, per candidate:
    # t^n MA(c)({phi<psi}) <= MA(phi)({phi < (1-t) psi + t (g_Delta + 1)}).
    phi_p = normalized_candidate(gen_psh(rng, delta, cfg))
    psi_p = normalized_candidate(gen_psh(rng, delta, cfg))
    at = [(w, phi_p.value(p), psi_p.value(p), ref.value(p)) for p, w in tc.ma_measure(phi_p).atoms]
    ts = (Fraction(1, 4), Fraction(1, 2))
    rhs = [sum((w for w, a, b, g in at if a < (1 - t) * b + t * g + t), _ZERO) for t in ts]
    for mu_c in (tc.ma_measure(ref), mu_m, tc.ma_measure(candidates[2])):  # MA of each candidate
        lhs2 = sum((w for p, w in mu_c.atoms if phi_p.value(p) < psi_p.value(p)), _ZERO)
        for t, rhs2 in zip(ts, rhs):
            if t**n * lhs2 > rhs2:
                failures.append((f"capacity:sublevel:t={t}", witness))
    return failures


def _suite_uniqueness(rng: SplitMix64, cfg: GenConfig):
    """Solver existence/uniqueness.  Float-mode constants are fixed:
    solver tolerance 1e-10 (times vol(Delta)), init-independence gap
    10 * tol (in 2-D between Newton-corrected iterates), global domination
    closeness 1e-7."""
    delta = gen_polytope(rng, cfg.dimension, cfg.polytope_complexity)
    p = gen_dirac_problem(rng, delta, cfg)
    witness = {
        "polytope": io.encode_polytope(delta),
        "sites": [[io.format_scalar(c) for c in x] for x in p.sites],
        "weights": [io.format_scalar(w) for w in p.weights],
    }
    failures = []
    if delta.dim == 1:
        s = sv.solve(p, sv.SolverConfig(mode="rational"))
        if s.residual != 0:
            failures.append(("uniqueness:1d-exact", witness))
        jitter = tuple(ti + Fraction(rng.int_between(-4, 4), 8) for ti in s.t)
        try:
            s2 = sv.solve(p, sv.SolverConfig(mode="float", init=jitter, tol=Fraction(1, 10**10)))
        except NotConverged:
            failures.append(("uniqueness:reconverge", witness))
            return failures
        diffs = [float(a - b) for a, b in zip(s.t, s2.t)]
        if max(diffs) - min(diffs) > 1e-8:
            failures.append(("uniqueness:constant-gap", witness))
        return failures
    tol = Fraction(1, 10**10)
    xbar = p.barycenter()
    base = [tc.support_value(delta, sub(x, xbar)) for x in p.sites]
    init2 = tuple(
        ti + Fraction(rng.int_between(-2, 2), 8) for ti in base
    )
    try:
        s1 = sv.solve(p, sv.SolverConfig(mode="float", tol=tol))
        s2 = sv.solve(p, sv.SolverConfig(mode="float", tol=tol, init=init2))
    except NotConverged:
        failures.append(("uniqueness:converge", witness))
        return failures
    diffs = [float(a - b) for a, b in zip(sv.newton_corrected(s1), sv.newton_corrected(s2))]
    if max(diffs) - min(diffs) > 10 * 1e-10:
        failures.append(("uniqueness:constant-gap", witness))
    # Domination corollary: normalized potentials agreeing on the MA
    # support stay within solver accuracy globally.
    n1, n2 = sv.normalize(s1), sv.normalize(s2)
    for _ in range(10):
        y = tuple(rng.fraction(3, cfg.coefficient_bound) for _ in range(delta.dim))
        if abs(float(n1.potential.value(y) - n2.potential.value(y))) > 1e-7:
            failures.append(("uniqueness:domination", witness))
            break
    return failures


def _suite_zariski_defect(rng: SplitMix64, cfg: GenConfig):
    """Lattice-envelope defect ladder.

    Runs in dimension 1 regardless of the configured dimension, so its
    reports do not depend on it.  Cost is not the reason: on 2-D
    generated polytopes the ladder to m = 64 takes about 0.07 s per case
    (0.05 s of it at m = 64, at most 0.27 s over ten seed-1 cases;
    Python 3.11, 2 cores).  2-D lattice envelopes are covered by the
    unit tests.
    """
    delta = gen_polytope(rng, 1, cfg.polytope_complexity)
    count = 1 + rng.below(cfg.function_complexity)
    constraints = []
    seen = set()
    for _ in range(count):
        x = (rng.fraction(2, cfg.coefficient_bound),)
        if x in seen:
            continue
        seen.add(x)
        constraints.append((x, rng.fraction(1, cfg.coefficient_bound)))
    if not constraints:
        constraints = [((_ZERO,), _ZERO)]
    f = tc.TestFunction(
        [tc.envelope(delta, [(x, t)]) for x, t in constraints]
    )
    env = tc.psh_envelope(f)
    witness = {
        "polytope": io.encode_polytope(delta),
        "constraints": [
            {"site": [io.format_scalar(c) for c in x], "value": io.format_scalar(t)}
            for x, t in constraints
        ],
    }
    failures = []
    defects = []
    for m in (1, 2, 4, 8, 16, 32, 64):
        lat = tc.lattice_envelope(delta, constraints, m)
        d = tc.orthogonality_defect(f, lat)
        if d < 0:
            failures.append((f"zariski:negative:m={m}", witness))
        slopes_in_lattice = all(
            (v[0] * m).denominator == 1 for v, _ in env.pieces
        )
        if slopes_in_lattice and d != 0:
            failures.append((f"zariski:lattice-slopes-nonzero:m={m}", witness))
        defects.append(d)
    if defects[-1] > defects[0] / 8:
        failures.append(("zariski:no-decay", witness))
    # Uniform closeness of the final (m = 64) envelope at the generator sites.
    lip = max(abs(x[0]) for x, _ in env.generators)
    for x, _ in env.generators:
        gap = env.value(x) - lat.value(x)
        if gap < 0 or gap > 2 * max(lip, 1) / 64:
            failures.append(("zariski:final-gap", witness))
            break
    return failures


def _suite_graph(rng: SplitMix64, cfg: GenConfig):
    graph = gen_graph(rng, 12)
    n = graph.vertex_count
    witness = {"graph": io.encode_graph(graph)}
    failures = []

    x, y = rng.below(n), rng.below(n)
    if x == y:
        y = (x + 1) % n
    gf = cv.green(graph, x, y)
    m = cv.ddc(graph, gf)
    expect = [_ZERO] * n
    expect[x] += 1
    expect[y] -= 1
    if list(m.vertex_weights) != expect or gf.values[y] != 0:
        failures.append(("graph:green", witness))

    omega_w = gen_graph_measure(rng, n, Fraction(n))
    mu_w = gen_graph_measure(rng, n, Fraction(n))
    omega = cv.GraphMeasure.on(graph, omega_w)
    mu = cv.GraphMeasure.on(graph, mu_w)
    phi = cv.solve_poisson(graph, omega, mu)
    rho = cv.curvature(graph, omega, phi)
    if rho.vertex_weights != tuple(mu_w) or max(phi.values) != 0:
        failures.append(("graph:poisson-round-trip", witness))

    solver = cv.PoissonSolver(graph)  # grounded at 0
    v0 = solver.solve(omega, mu).values
    v1 = cv.PoissonSolver(graph, n - 1).solve(omega, mu).values
    if len({a - b for a, b in zip(v0, v1)}) != 1:
        failures.append(("graph:uniqueness", witness))

    best = cv.energy_graph(graph, phi, omega) - cv.integrate_graph(graph, phi, mu)
    for _ in range(20):
        nu = cv.GraphMeasure.on(graph, gen_graph_measure(rng, n, Fraction(n)))
        psi = solver.solve(omega, nu)
        val = cv.energy_graph(graph, psi, omega) - cv.integrate_graph(graph, psi, mu)
        if val > best:
            failures.append(("graph:variational-max", witness))
            break
    return failures


_SUITES: Dict[str, Callable[[SplitMix64, GenConfig], List]] = {
    "locality": _suite_locality,
    "comparison": _suite_comparison,
    "superadditivity": _suite_superadditivity,
    "envelope_axioms": _suite_envelope_axioms,
    "orthogonality": _suite_orthogonality,
    "differentiability": _suite_differentiability,
    "energy_identities": _suite_energy_identities,
    "capacity": _suite_capacity,
    "uniqueness": _suite_uniqueness,
    "zariski_defect": _suite_zariski_defect,
    "graph_suite": _suite_graph,
}

SUITE_NAMES = tuple(sorted(_SUITES))

# Suites that run in dimension 1 whatever the configured dimension.
ONE_DIMENSIONAL_SUITES = frozenset({"zariski_defect"})


def run_suite(name: str, cfg: GenConfig, cases: int) -> CheckReport:
    """Run `cases` seeded instances through one named assertion set.

    Case k uses the derived seed case_seed(cfg.seed, k); failures are
    sorted by seed and assertion, so reports for identical inputs are
    identical.  A case that raises becomes the failure
    "exception:<type name>" with the message as its witness, and the
    remaining cases still run.
    """
    if name not in _SUITES:
        raise UnknownSuite(f"no suite named {name!r}; known: {', '.join(SUITE_NAMES)}")
    if cases < 0:
        raise ValidationError("cases", "must be >= 0")
    fn = _SUITES[name]
    start = time.monotonic()
    results: List[Failure] = []
    for k in range(cases):
        seed = case_seed(cfg.seed, k)
        try:
            found = fn(SplitMix64(seed), cfg)
        except Exception as exc:
            found = [(f"exception:{type(exc).__name__}", {"message": str(exc)})]
        results.extend(Failure(seed, assertion, witness) for assertion, witness in found)
    results.sort(key=lambda f: f.key())
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return CheckReport(suite=name, cases=cases, failures=tuple(results), elapsed_ms=elapsed_ms)
