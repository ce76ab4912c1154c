"""Regression oracle: pinned sha256 digests of `--no-timestamp` outputs.

Every suite report at seed 1 with two cases, in each dimension the suite
runs in, every suite report at seeds 1-12 with four cases, which holds
no seed while it passes, the `envelope`, `energy`, `solve`, `green` and
`poisson` outputs of fixed instances and the `export-cells` CSV of their solve
results must stay byte-identical, and so must the path of the solver
on four of those instances: iterates, steps and trial counts.  A digest changes only together with
a deliberate change of results, recorded in CHANGES.md.  A suite report
without timing holds the suite name, the case count and the failures
with their witnesses, so its digest pins which assertions fail and how.
"""

import hashlib
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from nama import cli
from nama import harness as hx
from nama import instance_io as io
from nama import solver as sv
from nama.errors import NotConverged

ENVELOPE_2D = {
    "kind": "toric-envelope",
    "mode": "rational",
    "polytope": {"vertices": [["0", "0"], ["2", "0"], ["3", "2"], ["1", "3"], ["0", "1"]]},
    "constraints": [
        {"site": ["0", "0"], "value": "0"},
        {"site": ["1/2", "-1/3"], "value": "1/4"},
        {"site": ["-1", "1/2"], "value": "3/5"},
        {"site": ["2/3", "1"], "value": "1"},
        {"site": ["-1/4", "-1"], "value": "7/6"},
        {"site": ["1", "-1/2"], "value": "2/3"},
        {"site": ["1/5", "2/7"], "value": "-1/9"},
    ],
}

LATTICE_2D = dict(ENVELOPE_2D, lattice_m=6)

LATTICE_1D = {
    "kind": "toric-envelope",
    "mode": "rational",
    "polytope": {"vertices": [["-1/3"], ["5/2"]]},
    "constraints": [
        {"site": ["1/3"], "value": "0"},
        {"site": ["-2/3"], "value": "1/5"},
        {"site": ["3/2"], "value": "2/7"},
    ],
    "lattice_m": 5,
}

# Repeated sites: one given at two values (the higher first), one given
# twice at one value, and one whose every copy lies above the envelope.
# Only the lowest copy of a site counts; the lattice variants repeat the
# same constraints through the lattice envelope.
REPEATED_2D = {
    "kind": "toric-envelope",
    "mode": "rational",
    "polytope": {"vertices": [["0", "0"], ["2", "0"], ["3", "2"], ["1", "3"], ["0", "1"]]},
    "constraints": [
        {"site": ["1/2", "-1/3"], "value": "3/4"},
        {"site": ["0", "0"], "value": "0"},
        {"site": ["-1", "1/2"], "value": "-1/5"},
        {"site": ["1/5", "2/7"], "value": "5/2"},
        {"site": ["1/2", "-1/3"], "value": "1/4"},
        {"site": ["2/3", "1"], "value": "1"},
        {"site": ["-1", "1/2"], "value": "-1/5"},
        {"site": ["1/5", "2/7"], "value": "2"},
    ],
}

REPEATED_1D = {
    "kind": "toric-envelope",
    "mode": "rational",
    "polytope": {"vertices": [["-1/3"], ["5/2"]]},
    "constraints": [
        {"site": ["3/2"], "value": "1"},
        {"site": ["1/3"], "value": "0"},
        {"site": ["-2/3"], "value": "1/5"},
        {"site": ["1/2"], "value": "4"},
        {"site": ["3/2"], "value": "2/7"},
        {"site": ["-2/3"], "value": "1/5"},
        {"site": ["1/2"], "value": "3"},
    ],
}

REPEATED_LATTICE_2D = dict(REPEATED_2D, lattice_m=4)
REPEATED_LATTICE_1D = dict(REPEATED_1D, lattice_m=3)

DIRAC_2D = {
    "kind": "toric-dirac",
    "mode": "float",
    "polytope": {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]},
    "sites": [["0", "0"], ["1", "0"], ["1/3", "7/8"], ["-1/2", "1/4"]],
    "weights": ["1/4", "1/3", "1/6", "1/4"],
}

# Eight sites on a lattice pentagon: a float solve of five Newton steps,
# the first halved once by the line search.
DIRAC_8 = {
    "kind": "toric-dirac",
    "mode": "float",
    "polytope": {"vertices": [["0", "0"], ["3", "0"], ["4", "2"], ["2", "4"], ["0", "3"]]},
    "sites": [
        ["1/2", "1/2"], ["5/2", "1/3"], ["3", "2"], ["2", "3"],
        ["1/3", "5/2"], ["3/2", "3/2"], ["-1/2", "1"], ["9/4", "-1/4"],
    ],
    "weights": ["2", "4/3", "2/3", "4/3", "2", "8/3", "2/3", "4/3"],
}

# Five sites on a segment: a float solve of one Newton step.
DIRAC_1D = {
    "kind": "toric-dirac",
    "mode": "float",
    "polytope": {"vertices": [["-1/2"], ["5/2"]]},
    "sites": [["0"], ["2/3"], ["-1"], ["3/2"], ["5/4"]],
    "weights": ["1/2", "3/4", "1/4", "1", "1/2"],
}

# Five sites on a quadrilateral: a rational-mode solve of five full
# Newton steps, on iterates with denominators up to 10^12.
DIRAC_RATIONAL_2D = {
    "kind": "toric-dirac",
    "mode": "rational",
    "polytope": {"vertices": [["0", "0"], ["2", "0"], ["2", "1"], ["0", "2"]]},
    "sites": [["0", "0"], ["1", "1/2"], ["2", "1"], ["1/2", "3/2"], ["3/2", "-1/2"]],
    "weights": ["1/2", "1", "1/3", "2/3", "1/2"],
    "solver": {"tol": "1/1000000000000000"},
}

# Four sites on a segment in rational mode: the closed-form 1-D solution,
# at which the solver stops before its first step.
DIRAC_RATIONAL_1D = {
    "kind": "toric-dirac",
    "mode": "rational",
    "polytope": {"vertices": [["2"], ["-1"]]},
    "sites": [["1/2"], ["-2/3"], ["3/2"], ["0"]],
    "weights": ["1", "1/4", "5/4", "1/2"],
}

# A float-mode envelope whose literals are JSON integers, JSON floats and
# decimal strings, one site given twice.
ENVELOPE_FLOAT_2D = {
    "kind": "toric-envelope",
    "mode": "float",
    "polytope": {"vertices": [[0, 0], [2.5, 0], ["3", 1.5], [1, "2.75"], ["0.5", 2]]},
    "constraints": [
        {"site": [0, 0], "value": 0},
        {"site": [0.5, "-0.25"], "value": "0.125"},
        {"site": ["-1", 0.75], "value": 0.6},
        {"site": ["2/3", 1], "value": "1.5"},
        {"site": [-0.25, -1.0], "value": "7/6"},
        {"site": [0.5, "-0.25"], "value": -0.5},
        {"site": ["0.2", "0.3"], "value": -0.125},
    ],
}


def _paraboloid(k: int, seed: int) -> dict:
    """k constraints (2p, |p|^2 + noise) for points p on the 1/8 grid of
    Delta's bounding box: close to the Voronoi diagram of the p, so many
    of them keep a cell."""
    rng = random.Random(seed)
    constraints = []
    for _ in range(k):
        x, y = Fraction(rng.randint(0, 40), 8), Fraction(rng.randint(0, 40), 8)
        value = x * x + y * y + Fraction(rng.randint(-8, 8), 64)
        constraints.append({"site": [str(2 * x), str(2 * y)], "value": str(value)})
    return {
        "kind": "toric-envelope",
        "mode": "rational",
        "polytope": {"vertices": [["0", "0"], ["4", "0"], ["5", "3"], ["2", "5"], ["0", "3"]]},
        "constraints": constraints,
    }


# 32 sites, 26 of which keep a cell: the envelope and energy of an
# instance past the handful of sites of the ones above.
PARABOLOID_32 = _paraboloid(32, 32)

# Six vertices: a cycle with a chord and a parallel edge, lengths over
# coprime denominators.
GRAPH_6 = {
    "vertex_count": 6,
    "edges": [
        [0, 1, "1/2"], [1, 2, "2/3"], [2, 3, "3/5"], [3, 4, "5/7"],
        [4, 5, "1"], [5, 0, "7/4"], [1, 4, "4/9"], [1, 4, "11/6"],
    ],
}

GREEN_6 = {"kind": "curve-green", "mode": "rational", "graph": GRAPH_6, "x": 2, "y": 5}

POISSON_VERTEX_6 = {
    "kind": "curve-poisson",
    "mode": "rational",
    "graph": GRAPH_6,
    "omega": [{"vertex": v, "weight": "1"} for v in range(6)],
    "mu": [
        {"vertex": 0, "weight": "5/2"}, {"vertex": 2, "weight": "4/3"},
        {"vertex": 3, "weight": "3/4"}, {"vertex": 5, "weight": "17/12"},
    ],
}

# Interior atoms at positions over denominators 2, 3, 4, 5, 7 and 11, one
# edge with two of them, one atom that omega and mu share and one whose
# charges cancel.
POISSON_INTERIOR_6 = {
    "kind": "curve-poisson",
    "mode": "rational",
    "graph": GRAPH_6,
    "omega": [
        {"vertex": 0, "weight": "2"}, {"vertex": 3, "weight": "3/2"},
        {"edge": 4, "pos": "2/7", "weight": "5/2"}, {"edge": 6, "pos": "1/2", "weight": "1/4"},
    ],
    "mu": [
        {"vertex": 1, "weight": "1"}, {"edge": 0, "pos": "1/3", "weight": "3/4"},
        {"edge": 2, "pos": "3/4", "weight": "1/2"}, {"edge": 2, "pos": "1/5", "weight": "5/4"},
        {"edge": 4, "pos": "2/7", "weight": "1"}, {"edge": 7, "pos": "6/11", "weight": "3/2"},
        {"edge": 6, "pos": "1/2", "weight": "1/4"},
    ],
}

# The same three curve instances in float mode: the same exact solve,
# written as doubles.
GREEN_6_FLOAT = dict(GREEN_6, mode="float")
POISSON_VERTEX_6_FLOAT = dict(POISSON_VERTEX_6, mode="float")
POISSON_INTERIOR_6_FLOAT = dict(POISSON_INTERIOR_6, mode="float")

SUITE_DIGESTS = {
    # (suite, dimension) -> sha256 of `nama check --seed 1 --cases 2 --no-timestamp`
    ("capacity", 1): "676ddccc9db4405ceae503cf9966d8b0b9406fb22bfde61ebd393c510216c155",
    ("capacity", 2): "676ddccc9db4405ceae503cf9966d8b0b9406fb22bfde61ebd393c510216c155",
    ("comparison", 1): "805aad7e2ab2fda6a15b3409ba38cf1285730df1a4e83f124f20199dbe30471f",
    ("comparison", 2): "805aad7e2ab2fda6a15b3409ba38cf1285730df1a4e83f124f20199dbe30471f",
    ("differentiability", 1): "4d7bcd49cc110300a717ab539929ecebc7b1e40e5e43fdd03578619a4583f791",
    ("differentiability", 2): "4d7bcd49cc110300a717ab539929ecebc7b1e40e5e43fdd03578619a4583f791",
    ("energy_identities", 1): "7387140bd1e91e5aef9e92d0a0d57d0189e3059414313b018ee2c5cfe6a79c1d",
    ("energy_identities", 2): "7387140bd1e91e5aef9e92d0a0d57d0189e3059414313b018ee2c5cfe6a79c1d",
    ("envelope_axioms", 1): "6721eccdbb0700a8c145734b2541d47536b0a58a0b68ca54a8ab3a9eedb65c08",
    ("envelope_axioms", 2): "6721eccdbb0700a8c145734b2541d47536b0a58a0b68ca54a8ab3a9eedb65c08",
    ("graph_suite", 1): "43903c4776c2d07fe3078e2b488ca4a76d28592222916ecd255a92428c212b7b",
    ("graph_suite", 2): "43903c4776c2d07fe3078e2b488ca4a76d28592222916ecd255a92428c212b7b",
    ("locality", 1): "8284748374465a97ecf442084910fa08662c8d7686e5cd43c0f33d240155cad2",
    ("locality", 2): "8284748374465a97ecf442084910fa08662c8d7686e5cd43c0f33d240155cad2",
    ("orthogonality", 1): "f924cfecd75b6a4ccce36e57566f3411cd9c22d93ba784271edca4b0e045ac6f",
    ("orthogonality", 2): "f924cfecd75b6a4ccce36e57566f3411cd9c22d93ba784271edca4b0e045ac6f",
    ("superadditivity", 1): "8be937fec3378543eee889f7cea8e86f9990725ed1ed08c220368fbc89e8426a",
    ("superadditivity", 2): "8be937fec3378543eee889f7cea8e86f9990725ed1ed08c220368fbc89e8426a",
    ("uniqueness", 1): "0391ba24a6db329163fca2406cd17dac99a00c942bc89c9e818490f2fdb02825",
    ("uniqueness", 2): "0391ba24a6db329163fca2406cd17dac99a00c942bc89c9e818490f2fdb02825",
    ("zariski_defect", 1): "b42d5aa829df553ef817b8264b3f93a8e3f22904c1aee291c23d691b1cbdb89a",
}

COMMAND_DIGESTS = {
    # (command, instance name) -> sha256 of the `--no-timestamp` output
    ("envelope", "envelope_2d"): "0d42ebdb7445e2fe41aed1e53fcca79a9d94c17526caea749ed2d9793e4b8f58",
    ("energy", "envelope_2d"): "54e4f0d2963050f5fc0cabd612397ebea63637245f7b4d215a7345f99e723d48",
    ("envelope", "envelope_float_2d"): "257e335b6c628abfd89a48c5fb3a4deee21ff62ba0329d63b85b66c3999b9ad1",
    ("energy", "envelope_float_2d"): "b6e21138b3f637d757537f5b44c1d94eb9a497c570d9e12e38f1c3f90e41117f",
    ("envelope", "paraboloid_32"): "d5a40cf6f7c03c4e3a35c5c4233866c98aee5e75ba01fe3f8a791e38a95e0bb9",
    ("energy", "paraboloid_32"): "a49afe25f4c0452f02f81c0bd6ae67753921d65b521a471beee05f6c4c2035b4",
    ("envelope", "lattice_2d"): "d4066a9a746dcdddae70e101717ec50c2400c9d710053d144f92f678942dfbf6",
    ("envelope", "lattice_1d"): "a8cdfeeef8b795187cd1d39f8d0a594f78bd0c7bc4d623d9fd7c86726cac9ec6",
    ("envelope", "repeated_2d"): "9ae140aac3593c63c48ec3980984649af3d31267d1b2aa0ddbb82cafdeec1d22",
    ("energy", "repeated_2d"): "8ea325a575de55859547bfb626e6e2646ffc8fa716cc8bf8faecc6b8ca5702e6",
    ("envelope", "repeated_1d"): "7bdf5e70d9ccc58fd4ec3fcded48fe151f01c53030ee0a41b85f99a3afb6789c",
    ("energy", "repeated_1d"): "3845c3f6de84f12bd6be2bd9173628ae7a540fb625bc49f4d3cb514f46d1e581",
    ("envelope", "repeated_lattice_2d"): "6acc6f477ef7957160e7ba72d5875d6abcedb94993ed725bf03f7ad51baaf68f",
    ("envelope", "repeated_lattice_1d"): "fdcd7fc7bad268510bfd192f2b4c4f1f2e73e93bdc653f5e77255629e947753b",
    ("solve", "dirac_2d"): "e9ace05db27312ce6b14fe2de6fa50229cf4cdb61e01842026d363d6bb9622cd",
    ("solve", "dirac_8"): "83331e9d8607c03216e3538dc1c66f213d713e6a683c2ce082f4c1176a9e8ea4",
    ("solve", "dirac_1d"): "ddabf14d698259728bc23cfe5419644ff75c81043503479e01fbbfead05dc506",
    ("solve", "dirac_rational_1d"): "b6d546ef78565145876a83b6ecf9706868c0a2c1003c4467c5c59f4567ae0c74",
    ("solve", "dirac_rational_2d"): "d726b3e2fe1258adf5a9fa6abc3f3ebe4c3da1f4331b012d362061aa4527e432",
    ("green", "green_6"): "66ceca50ec49dcad749f7d210080849835b6ffb80ef2a0320c9a47c79f8b4379",
    ("poisson", "poisson_vertex_6"): "6e090fda98e7471ceeee1b94dcb5f545a63eda2afb6fbe5d257dc9b70473d66b",
    ("poisson", "poisson_interior_6"): "a9926a928b510a49d333015d409c6cd8744f3efb9b9a058232803a7880aff8d2",
    ("energy", "poisson_vertex_6"): "432531aee29c724f0654e25e54e4b61397de0075db5b5635dbabb3e9d993e702",
    ("energy", "poisson_interior_6"): "1189ad41af2e40293f4f6fb609b22baa98d184cf42f1cb6272739709e4650cee",
    ("green", "green_6_float"): "d7b7b3e0615a1b1c737a7001629949d7b98ee459096868db001ec961ba178e0b",
    ("poisson", "poisson_vertex_6_float"): "94e2d00a4e3fb68b44ce9af981931c829ed972cce15b4ca3dd62cc012e4e7923",
    ("poisson", "poisson_interior_6_float"): "b3131ccfaab87858aa8d341454a4d46de43abe9fac5ecfedd47989e8ccf7a9eb",
    ("energy", "poisson_vertex_6_float"): "91bd8ca4c2db2aaa216648ba6c2bfe43304798e3318cf2e8162298c31f7f31b0",
    ("energy", "poisson_interior_6_float"): "a2e343c3c56dd72d122abbda7fe30b593d95356840578c9ddbd12c67fe6b588a",
}

EXPORT_DIGESTS = {
    # instance name -> sha256 of `export-cells` on its `solve --no-timestamp` result
    "dirac_2d": "b2642d3cbe4840a53c0e0e02d37c4349c64967c74fec0357d9d60efad5ffd2f8",
    "dirac_1d": "fb9a540e7cb0fc4708d23caf012f9432b8b83a08050bd65a76569a7a791ba586",
    "dirac_rational_1d": "3fb700499a15b1be66a36fff86a2ae8df615c90aabbbd07eec742e978e2624f5",
    "dirac_rational_2d": "6b11737d98c030ffd458de16040a8fb92739cc1e1e56854687c138d36cb516e1",
}

PATH_DIGESTS = {
    # (instance name, max_iter or None) -> sha256 of repr((t, trace, objective,
    # residual)) of its Solution, NotConverged's when max_iter stops it early
    ("dirac_8", None): "a1aadef151de01a905c0c3c1d3b471850512c8c764a423e1384c51ff0b630bf4",
    ("dirac_1d", None): "59a865dcb1b860a9d12424b99cba9fd8c61808681a1d52efbf23b6c1c5e1107b",
    ("dirac_rational_1d", None): "87994626f7b11ed78579185aed9b8fa928ae7422467912ab1f6f34cf58cbbe2a",
    ("dirac_rational_2d", None): "822cbd0a22398de65e0cfad67e3a98c04fc46c03f832e2a9087ee32b491ff86d",
    ("dirac_8", 2): "5605abdd7504b37a6dee062c6ff8c3dc0ad245049936fe4d556416bc20e900a3",
}

INSTANCES = {
    "envelope_2d": ENVELOPE_2D,
    "lattice_2d": LATTICE_2D,
    "lattice_1d": LATTICE_1D,
    "repeated_2d": REPEATED_2D,
    "repeated_1d": REPEATED_1D,
    "repeated_lattice_2d": REPEATED_LATTICE_2D,
    "repeated_lattice_1d": REPEATED_LATTICE_1D,
    "dirac_2d": DIRAC_2D,
    "dirac_8": DIRAC_8,
    "dirac_1d": DIRAC_1D,
    "dirac_rational_2d": DIRAC_RATIONAL_2D,
    "dirac_rational_1d": DIRAC_RATIONAL_1D,
    "envelope_float_2d": ENVELOPE_FLOAT_2D,
    "paraboloid_32": PARABOLOID_32,
    "green_6": GREEN_6,
    "poisson_vertex_6": POISSON_VERTEX_6,
    "poisson_interior_6": POISSON_INTERIOR_6,
    "green_6_float": GREEN_6_FLOAT,
    "poisson_vertex_6_float": POISSON_VERTEX_6_FLOAT,
    "poisson_interior_6_float": POISSON_INTERIOR_6_FLOAT,
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _suite_runs():
    for suite in hx.SUITE_NAMES:
        dims = (1,) if suite in hx.ONE_DIMENSIONAL_SUITES else (1, 2)
        for dim in dims:
            yield suite, dim


@pytest.mark.parametrize("suite, dim", list(_suite_runs()))
def test_suite_report_is_pinned(tmp_path, suite, dim):
    out = tmp_path / "report.json"
    argv = ["check", "--suite", suite, "--seed", "1", "--cases", "2", "--dimension", str(dim)]
    assert cli.main(argv + ["-o", str(out), "--no-timestamp"]) == 0
    assert _digest(out) == SUITE_DIGESTS[suite, dim]


def test_every_suite_passes_at_twelve_seeds():
    """Every suite, in each dimension it runs in, at seeds 1-12 with four
    cases: a passing report holds no seed, so every report passing is
    every report byte-identical."""
    failed = []
    for suite, dim in _suite_runs():
        for seed in range(1, 13):
            report = hx.run_suite(suite, hx.GenConfig(seed=seed, dimension=dim), 4)
            failed += [(suite, dim, seed, f.assertion) for f in report.failures]
    assert failed == []


@pytest.mark.parametrize("command, name", sorted(COMMAND_DIGESTS))
def test_command_output_is_pinned(tmp_path, command, name):
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    inst.write_text(json.dumps(INSTANCES[name]))
    assert cli.main([command, str(inst), "-o", str(out), "--no-timestamp"]) == 0
    assert _digest(out) == COMMAND_DIGESTS[command, name]


@pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
def test_export_cells_is_pinned(tmp_path, name):
    inst, result, out = tmp_path / "inst.json", tmp_path / "result.json", tmp_path / "cells.csv"
    inst.write_text(json.dumps(INSTANCES[name]))
    assert cli.main(["solve", str(inst), "-o", str(result), "--no-timestamp"]) == 0
    assert cli.main(["export-cells", str(result), "-o", str(out)]) == 0
    assert _digest(out) == EXPORT_DIGESTS[name]


@pytest.mark.parametrize("name, max_iter", sorted(PATH_DIGESTS, key=str))
def test_solver_path_is_pinned(name, max_iter):
    """The iterates, steps, trial counts and gradient norms of a solve,
    which the result files do not print."""
    inst = io.parse_instance(json.dumps(INSTANCES[name]))
    if max_iter is None:
        s = sv.solve(inst.data["problem"], inst.solver)
    else:
        with pytest.raises(NotConverged) as err:
            sv.solve(inst.data["problem"], replace(inst.solver, max_iter=max_iter))
        s = err.value.solution
    payload = repr((s.t, s.trace, s.objective, s.residual)).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == PATH_DIGESTS[name, max_iter]


def test_every_suite_is_pinned():
    assert set(SUITE_DIGESTS) == set(_suite_runs())


# Values json spells in every way it can: empty and nested containers,
# tuples, literals, non-ASCII and control characters in strings and keys,
# 5,000-digit integers and the float edge cases.
WRITER_SAMPLES = [
    {}, [], (), [[], {}, ()], {"b": {"d": [], "c": {}}, "a": [None, True, False]},
    (1, (2, [3, {"x": (4,)}])),
    ["\u00e9\u00df", "\x00\x1f\x7f", "\u2028\ud800\U0001f600", "tab\there \"quoted\" \\"],
    {"\u2603": 1, "\n": 2, "\u00e9": {"\x01": "\u00ff"}, "": ""},
    10**4999 + 7, [-(10**4999), 0, -1],
    [-0.0, 0.0, 1e-300, 1e300, 5e-324, 0.1, float("nan"), float("inf"), float("-inf")],
]


def test_canonical_writer_is_json(tmp_path, monkeypatch):
    """dumps_canonical(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\\n"
    on the samples above and on every instance, result and suite report
    this oracle writes."""
    writer, seen = io.dumps_canonical, []
    monkeypatch.setattr(io, "dumps_canonical", lambda obj: seen.append(obj) or writer(obj))
    for i, (command, name) in enumerate(sorted(COMMAND_DIGESTS)):
        inst = tmp_path / f"inst{i}.json"
        inst.write_text(json.dumps(INSTANCES[name]))
        assert cli.main([command, str(inst), "-o", str(tmp_path / f"out{i}.json"), "--no-timestamp"]) == 0
    for suite, dim in _suite_runs():
        argv = ["check", "--suite", suite, "--seed", "1", "--cases", "2", "--dimension", str(dim)]
        assert cli.main(argv + ["-o", str(tmp_path / "report.json"), "--no-timestamp"]) == 0
    assert len(seen) == 2 * len(COMMAND_DIGESTS) + len(SUITE_DIGESTS)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for obj in WRITER_SAMPLES + seen:
            assert writer(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
