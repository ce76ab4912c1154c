"""The benchmark's four workloads: seeded instance files and op plans.

A workload's plan is a pool of rounds.  A round is a fixed, stratified
list of ops, so every round has the same mix of the input properties an
optimisation might key on (sites per envelope, lattice ops, site counts,
vertex counts, interior atoms, suite cases); the run cycles through the
pool.  Pools of cheap rounds (solve problems, suite seeds) are large
enough that a 25 s run on a 2-core machine seldom repeats one; the toric
envelopes and graphs repeat after eight rounds, which keeps set-up short.
Every op is one ``nama`` CLI invocation with its own exact output check
from ``checks``.  Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List

import checks

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
UNIT_TRIANGLE = [(0, 0), (1, 0), (0, 1)]


@dataclass
class Op:
    """One CLI invocation.  ``check`` takes the parsed output and returns
    whether it is correct; for a `check` op (``cases`` > 0, counted as
    that many suite cases) it returns the number of failed cases."""

    argv: List[str]
    output: str
    check: Callable[[Dict], int]
    cases: int = 0
    tags: Dict[str, object] = field(default_factory=dict)


def _s(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _write(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cli(command: str, instance: str, output: str) -> List[str]:
    return [command, instance, "-o", output, "--no-timestamp"]


# -- toric-envelope ------------------------------------------------------


def _points_in(rng: random.Random, vertices, count: int, den: int = 32):
    """`count` distinct points of the 1/den grid inside a lattice polygon."""
    hull = checks.convex_hull([tuple(Fraction(c) for c in v) for v in vertices])
    corners = [(int(x) * den, int(y) * den) for x, y in hull]
    edges = list(zip(corners, corners[1:] + corners[:1]))
    xs = [x for x, _ in corners]
    ys = [y for _, y in corners]
    pts = set()
    while len(pts) < count:
        p = (rng.randint(min(xs), max(xs)), rng.randint(min(ys), max(ys)))
        if all((b[0] - a[0]) * (p[1] - a[1]) >= (b[1] - a[1]) * (p[0] - a[0]) for a, b in edges):
            pts.add(p)
    return [(Fraction(x, den), Fraction(y, den)) for x, y in sorted(pts)]


def _paraboloid(rng: random.Random, vertices, k: int):
    """Sites at 2p for p in Delta, values |p|^2 plus noise of the order of
    area(Delta)/k: the dual is close to the Voronoi diagram of the p, so
    about half the sites keep a cell and construction pays its full O(k^2)
    clipping cost."""
    scale = checks.area(checks.convex_hull(vertices)) / k
    return [
        {
            "site": [_s(2 * x), _s(2 * y)],
            "value": _s(x * x + y * y + scale * Fraction(rng.randint(-4, 4), 2)),
        }
        for x, y in _points_in(rng, vertices, k)
    ]


# Lattice polygons for the exact envelopes.  Each op slot of a round keeps
# its polygon, so a slot's cost varies only with the random sites.
POLYGONS = (
    [(0, 0), (2, 0), (2, 2), (0, 2)],
    [(0, 0), (3, 0), (0, 3)],
    [(1, 0), (2, 1), (1, 2), (0, 1)],
    [(0, 0), (2, 0), (3, 1), (1, 2), (-1, 1)],
    [(0, 0), (2, 0), (3, 2), (2, 3), (0, 2)],
)

COMMANDS = ("envelope", "energy")
LATTICE = ((4, UNIT_TRIANGLE), (8, UNIT_SQUARE))
ENVELOPE_POOL = 8


def _envelope_round(r: int):
    """(k, command, polygon, lattice_m) of each op in round r.  Two of the
    ten ops are k = 128, so op_p90_ms falls in the middle of the k = 128
    group; six are k = 8, so op_p50_ms falls in the k = 8 group.  The
    k = 32 command and the lattice envelope alternate between rounds."""
    m, lattice = LATTICE[r % 2]
    return (
        [(128, "envelope", POLYGONS[0], None), (128, "energy", POLYGONS[1], None)]
        + [(32, COMMANDS[r % 2], POLYGONS[2], None)]
        + [(8, COMMANDS[i % 2], POLYGONS[i % len(POLYGONS)], None) for i in range(6)]
        + [(8, "envelope", lattice, m)]
    )


def toric_envelope(seed: int, workdir: str) -> List[List[Op]]:
    rng = random.Random(f"toric-envelope:{seed}")
    rounds = []
    for r in range(ENVELOPE_POOL):
        ops = []
        for i, (k, command, vertices, m) in enumerate(_envelope_round(r)):
            vertices = [tuple(Fraction(c) for c in v) for v in vertices]
            inst = {
                "kind": "toric-envelope",
                "polytope": {"vertices": [[_s(c) for c in v] for v in vertices]},
                "constraints": _paraboloid(rng, vertices, k),
            }
            if m is not None:
                inst["lattice_m"] = m
            path = os.path.join(workdir, f"env-{r}-{i}.json")
            _write(path, inst)
            volume = checks.area(checks.convex_hull(vertices))
            ops.append(
                Op(
                    argv=_cli(command, path, path + ".out"),
                    output=path + ".out",
                    check=lambda res, v=volume: checks.toric_mass(res, v),
                    tags={"k": k, "lattice": m is not None, "command": command},
                )
            )
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# -- toric-solve ---------------------------------------------------------

SOLVE_TOL = "1/10000000000"
# Site counts of one round.  Solve time grows steeply with the site count
# and varies threefold within one count; four 5-site and three 8-site
# problems put op_p50_ms in the middle of a dense 5-site block and
# op_p90_ms in the middle of the 8-site ones.  With two 5-site problems the
# median of ten seeds' runs spread by a fifth.
SOLVE_SITES = (1, 2, 3, 4, 5, 5, 5, 5, 6, 7, 8, 8, 8)
SOLVE_POOL = 20


def toric_solve(seed: int, workdir: str) -> List[List[Op]]:
    """Float-mode Dirac problems drawn as in acceptance criterion 8, with
    the site count stratified: each round has the SOLVE_SITES counts, on
    the unit square in even rounds and on generated polytopes in odd
    ones."""
    import nama.harness as hx
    import nama.toric as tc

    rng = random.Random(f"toric-solve:{seed}")
    sm = hx.SplitMix64(rng.getrandbits(64))
    cfg = hx.GenConfig(seed=seed, dimension=2)
    square = tc.newton_polytope(UNIT_SQUARE, 2)
    rounds = []
    for r in range(SOLVE_POOL):
        ops = []
        on_square = r % 2 == 0
        for i, count in enumerate(SOLVE_SITES):
            delta = square if on_square else hx.gen_polytope(sm, 2, 5)
            sites = hx.gen_sites(sm, delta, cfg, count)
            measure = hx.gen_dirac_measure(sm, delta, sites)
            inst = {
                "kind": "toric-dirac",
                "mode": "float",
                "polytope": {"vertices": [[_s(c) for c in v] for v in delta.body.vertices]},
                "sites": [[_s(c) for c in x] for x in sites],
                "weights": [_s(measure.weight_at(x)) for x in sites],
                "solver": {"tol": SOLVE_TOL},
            }
            path = os.path.join(workdir, f"solve-{r}-{i}.json")
            _write(path, inst)
            ops.append(
                Op(
                    argv=_cli("solve", path, path + ".out"),
                    output=path + ".out",
                    check=lambda res, inst=inst: checks.dirac_residual(res, inst),
                    tags={"sites": count, "square": on_square},
                )
            )
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# -- curve-solve ---------------------------------------------------------

CURVE_VERTICES = range(2, 31)


def _graphs_by_size(sm, per_size: int):
    """harness.gen_graph draws, binned until each vertex count 2..30 has
    `per_size` graphs."""
    import nama.harness as hx

    bins: Dict[int, list] = {n: [] for n in CURVE_VERTICES}
    while any(len(b) < per_size for b in bins.values()):
        g = hx.gen_graph(sm, 30)
        if len(bins[g.vertex_count]) < per_size:
            bins[g.vertex_count].append(g)
    return bins


def _vertex_atoms(weights):
    return [{"vertex": v, "weight": _s(w)} for v, w in enumerate(weights) if w]


def _interior_mu(rng: random.Random, sm, graph, total: Fraction):
    """mu with two interior edge atoms carrying a quarter of the mass."""
    import nama.harness as hx

    n = graph.vertex_count
    vertex = hx.gen_graph_measure(sm, n, total * Fraction(3, 4))
    atoms = _vertex_atoms(vertex)
    edges = rng.sample(range(len(graph.edges)), min(2, len(graph.edges)))
    for e in edges:
        atoms.append(
            {"edge": e, "pos": _s(Fraction(rng.randint(1, 7), 8)), "weight": _s(total / 4 / len(edges))}
        )
    return atoms


CURVE_POOL = 8


def curve_solve(seed: int, workdir: str) -> List[List[Op]]:
    """Per round, one harness graph of each size 2..30, each giving a
    green, a poisson and an energy op; a third of the poisson instances
    carry interior atoms."""
    import nama.harness as hx

    rng = random.Random(f"curve-solve:{seed}")
    sm = hx.SplitMix64(rng.getrandbits(64))
    bins = _graphs_by_size(sm, CURVE_POOL)
    rounds = []
    for r in range(CURVE_POOL):
        ops = []
        sizes = list(CURVE_VERTICES)
        rng.shuffle(sizes)
        for n in sizes:
            graph = bins[n][r]
            enc = {
                "vertex_count": n,
                "edges": [[u, v, _s(l)] for u, v, l in graph.edges],
            }
            x = rng.randrange(n)
            y = (x + 1 + rng.randrange(n - 1)) % n
            green = {"kind": "curve-green", "graph": enc, "x": x, "y": y}
            total = Fraction(n)
            omega = hx.gen_graph_measure(sm, n, total)
            interior = (n + r) % 3 == 0
            if interior:
                mu = _interior_mu(rng, sm, graph, total)
            else:
                mu = _vertex_atoms(hx.gen_graph_measure(sm, n, total))
            poisson = {
                "kind": "curve-poisson",
                "graph": enc,
                "omega": _vertex_atoms(omega),
                "mu": mu,
            }
            gpath = os.path.join(workdir, f"green-{r}-{n}.json")
            ppath = os.path.join(workdir, f"poisson-{r}-{n}.json")
            _write(gpath, green)
            _write(ppath, poisson)
            pout = ppath + ".out"
            tags = {"vertices": n, "interior": interior}
            ops += [
                Op(
                    _cli("green", gpath, gpath + ".out"),
                    gpath + ".out",
                    lambda res, inst=green: checks.green_function(res, inst),
                    tags={"vertices": n, "command": "green"},
                ),
                Op(
                    _cli("poisson", ppath, pout),
                    pout,
                    lambda res, inst=poisson: checks.poisson_solution(res, inst),
                    tags={**tags, "command": "poisson"},
                ),
                Op(
                    _cli("energy", ppath, ppath + ".energy"),
                    ppath + ".energy",
                    lambda res, inst=poisson, pout=pout: checks.curve_energy(res, inst, _read(pout)),
                    tags={**tags, "command": "energy"},
                ),
            ]
        rounds.append(ops)
    return rounds


# -- check-suites --------------------------------------------------------

SUITE_ROUND = (("energy_identities", 6), ("capacity", 14), ("graph_suite", 6))
SUITE_POOL = 32


def check_suites(seed: int, workdir: str) -> List[List[Op]]:
    """Per round, one `nama check` of each SUITE_ROUND suite at a seed
    drawn from the benchmark seed; no instance files."""
    rng = random.Random(f"check-suites:{seed}")
    rounds = []
    for r in range(SUITE_POOL):
        ops = []
        for suite, cases in SUITE_ROUND:
            out = os.path.join(workdir, f"check-{r}-{suite}.json")
            argv = [
                "check", "--suite", suite, "--dimension", "2",
                "--seed", str(rng.getrandbits(32)), "--cases", str(cases),
                "-o", out, "--no-timestamp",
            ]
            ops.append(
                Op(argv, out, lambda res, c=cases: checks.suite_failures(res, c),
                   cases=cases, tags={"suite": suite})
            )
        rounds.append(ops)
    return rounds


WORKLOADS = {
    "toric-envelope": toric_envelope,
    "toric-solve": toric_solve,
    "curve-solve": curve_solve,
    "check-suites": check_suites,
}


def shares(ops: List[Op]) -> Dict[str, object]:
    """Per input property, the share of each value among the executed ops
    that have the property (weighted by suite cases)."""
    out: Dict[str, object] = {"ops": sum(op.cases or 1 for op in ops)}
    for key in sorted({k for op in ops for k in op.tags}):
        hist = Counter()
        for op in ops:
            if key in op.tags:
                hist[op.tags[key]] += op.cases or 1
        total = sum(hist.values())
        out[key] = {str(v): round(c / total, 4) for v, c in sorted(hist.items())}
    return out
