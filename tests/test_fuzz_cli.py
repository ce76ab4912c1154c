"""Fuzz the command line: whatever the input, `cli.main` ends with exit
code 0, 2, 3 or 4 and never raises.

Instances start valid, so the solvers, envelopes and graph code run;
omega and mu of a curve instance carry one interior atom each on a
random edge, sometimes both at one position.  They are then mutated: a
field dropped, a value anywhere replaced by an arbitrary JSON value, an
unknown field added, or the text cut short.  Result files of a solve and
an envelope are mutated the same way and fed to `export-cells`, and text
that does not decode (not UTF-8, nested too deep, an integer too long)
is fed to every command.
`check` runs draw a suite, dimension and seed, a case count around zero
and generator settings around their lower bound of 1; a suite that runs
in dimension 1 only must refuse dimension 2.
"""

import contextlib
import functools
import io
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nama import cli
from nama import harness as hx

COMMAND_OF = {
    "toric-dirac": "solve",
    "toric-envelope": "envelope",
    "curve-poisson": "poisson",
    "curve-green": "green",
}
COMMANDS = ("solve", "envelope", "green", "poisson", "energy", "export-cells")
BODIES = {  # dimension -> (vertices, volume)
    1: ([["0"], ["2"]], F(2)),
    2: ([["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]], F(1)),
}

junk = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from([0.5, -1.25, 1e300, float("nan"), float("inf"), 10**6])
    | st.sampled_from(["", "abc", "1/0", "1/3", "-2/5", " 1 ", "0.75", "1e5", "NaN", "toric-dirac"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["vertices", "site", "value", "vertex", "weight", "edge", "pos", "tol"]), inner, max_size=3),
    max_leaves=6,
)

small = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


def text(x):
    return f"{x.numerator}/{x.denominator}"


def parts(draw, total, count):
    """`count` positive rationals summing to `total`."""
    shares = [draw(st.integers(1, 4)) for _ in range(count)]
    return [text(total * s / sum(shares)) for s in shares]


@st.composite
def valid_instances(draw):
    kind = draw(st.sampled_from(sorted(COMMAND_OF)))
    doc = {"kind": kind, "mode": draw(st.sampled_from(["rational", "float"]))}
    dim = draw(st.integers(1, 2))
    if kind.startswith("toric"):
        vertices, volume = BODIES[dim]
        doc["polytope"] = {"vertices": vertices}
        sites = draw(st.lists(st.tuples(*[small] * dim), min_size=1, max_size=4, unique=True))
        if kind == "toric-dirac":
            doc["sites"] = [[text(c) for c in x] for x in sites]
            doc["weights"] = parts(draw, volume, len(sites))
        else:
            doc["constraints"] = [{"site": [text(c) for c in x], "value": text(draw(small))} for x in sites]
            if draw(st.booleans()):
                doc["lattice_m"] = draw(st.sampled_from([1, 2, 3, 10**6]))
    else:
        n = draw(st.integers(2, 4))
        edges = [[i, i + 1, text(abs(draw(small)) + 1)] for i in range(n - 1)]
        edges += [[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), "1/2"] for _ in range(draw(st.integers(0, 2)))]
        doc["graph"] = {"vertex_count": n, "edges": edges}
        if kind == "curve-green":
            x = draw(st.integers(0, n - 1))
            doc["x"], doc["y"] = x, (x + draw(st.integers(1, n - 1))) % n
        else:
            half = text(F(n, 2))

            def edge_atom():
                edge = draw(st.integers(0, len(edges) - 1))
                return {"edge": edge, "pos": text(F(draw(st.integers(1, 3)), 4)), "weight": half}

            omega_atom = edge_atom()
            doc["omega"] = [{"vertex": v, "weight": w} for v, w in enumerate(parts(draw, F(n, 2), n))]
            doc["omega"].append(omega_atom)
            doc["mu"] = [{"vertex": draw(st.integers(0, n - 1)), "weight": half}]
            doc["mu"].append(omega_atom if draw(st.booleans()) else edge_atom())
    return doc


def _containers(obj):
    """Every list and object inside a JSON value, itself included."""
    if isinstance(obj, (dict, list)):
        yield obj
        for value in obj.values() if isinstance(obj, dict) else obj:
            yield from _containers(value)


def mutated(draw, doc):
    """The JSON text of `doc` after up to two mutations, sometimes cut short."""
    doc = json.loads(json.dumps(doc))  # a copy to mutate
    for _ in range(draw(st.integers(0, 2))):
        node = draw(st.sampled_from(list(_containers(doc))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.integers(0, 2))
        if action == 0 and keys:
            node[draw(st.sampled_from(keys))] = draw(junk)
        elif action == 1 and keys:
            del node[draw(st.sampled_from(keys))]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(["extra", "lattice_m", "solver", "x", "sites"]))] = draw(junk)
    out = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        out = out[: draw(st.integers(0, len(out)))]
    return out, doc


@st.composite
def instance_texts(draw):
    out, doc = mutated(draw, draw(valid_instances()))
    kind = doc.get("kind")
    if isinstance(kind, str) and kind in COMMAND_OF and draw(st.integers(0, 3)):
        return out, COMMAND_OF[kind]
    return out, draw(st.sampled_from(COMMANDS))


def run(command, source):
    """Exit code and stderr of `command` on a file holding `source`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(source if isinstance(source, bytes) else source.encode("utf-8"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, str(path), "-o", str(Path(tmp) / "out"), "--no-timestamp"])
    return code, err.getvalue()


@settings(max_examples=600, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(instance_texts())
def test_cli_exit_codes_on_random_instances(case):
    source, command = case
    code, err = run(command, source)
    assert code in (0, 2, 3, 4), err


@functools.cache
def valid_results():
    """Result files of a rational 2-D solve and a float 1-D envelope."""
    solve = {
        "kind": "toric-dirac",
        "polytope": {"vertices": BODIES[2][0]},
        "sites": [["0", "0"], ["1", "0"]],
        "weights": ["1/2", "1/2"],
    }
    envelope = {
        "kind": "toric-envelope",
        "mode": "float",
        "polytope": {"vertices": [[0.0], [2.0]]},
        "constraints": [{"site": [0.25], "value": 0.5}, {"site": [-1.5], "value": 0.0}],
    }
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for command, doc in (("solve", solve), ("envelope", envelope)):
            path, out = Path(tmp) / "inst.json", Path(tmp) / "out.json"
            path.write_text(json.dumps(doc))
            assert cli.main([command, str(path), "-o", str(out), "--no-timestamp"]) == 0
            results.append(json.loads(out.read_text()))
    return results


@st.composite
def result_texts(draw):
    return mutated(draw, draw(st.sampled_from(valid_results())))[0]


@settings(max_examples=300, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(result_texts())
def test_export_cells_exit_codes_on_mutated_results(source):
    code, err = run("export-cells", source)
    assert code in (0, 2), err


UNDECODABLE = {
    "not-utf-8": b"\xff\xfe{\x00}",
    "nested-too-deep": "[" * 100_000 + "]" * 100_000,
    "integer-too-long": '{"kind": "curve-green", "graph": {"vertex_count": ' + "7" * 5000 + "}}",
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_undecodable_input_exits_two(command, name):
    code, err = run(command, UNDECODABLE[name])
    assert code == 2, err
    assert err.startswith("error: ")


@st.composite
def check_arguments(draw):
    cases, suite, dim = draw(st.integers(-2, 2)), draw(st.sampled_from(hx.SUITE_NAMES)), draw(st.integers(1, 2))
    seed = draw(st.integers(-(2**64), 2**64))
    valid = cases >= 0 and 0 <= seed < 2**64 and not (suite in hx.ONE_DIMENSIONAL_SUITES and dim == 2)
    argv = [
        "check",
        "--suite", suite,
        "--dimension", str(dim),
        "--seed", str(seed),
        "--cases", str(cases),
        "--no-timestamp",
    ]
    for flag in ("--polytope-complexity", "--function-complexity", "--coefficient-bound"):
        if draw(st.booleans()):
            value = draw(st.integers(-2, 3))
            valid = valid and value >= 1
            argv += [flag, str(value)]
    return argv, valid


@settings(max_examples=150, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(check_arguments())
def test_check_exit_codes_on_random_arguments(case):
    """Out-of-range settings exit 2 and write no report; the others run."""
    argv, valid = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["-o", str(out)])
        assert code in ((0, 3, 4) if valid else (2,)), err.getvalue()
        assert out.exists() == valid
