"""File format and command-line tests: strict parsing, round trips,
determinism, exit codes."""

import argparse
import csv
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from nama import cli
from nama import curves as cv
from nama import harness as hx
from nama import instance_io as io
from nama import toric as tc
from nama.errors import ParseError, ValidationError
from test_curves import on_edges

DIRAC = {
    "kind": "toric-dirac",
    "mode": "rational",
    "polytope": {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]},
    "sites": [["1/3", "1/2"]],
    "weights": ["1"],
}

ENVELOPE = {
    "kind": "toric-envelope",
    "mode": "rational",
    "polytope": {"vertices": [["0"], ["1"]]},
    "constraints": [
        {"site": ["1/3"], "value": "0"},
        {"site": ["-2/3"], "value": "1/5"},
    ],
}

POISSON = {
    "kind": "curve-poisson",
    "mode": "rational",
    "graph": {"vertex_count": 3, "edges": [[0, 1, "1"], [1, 2, "1/2"], [2, 0, "1"]]},
    "omega": [{"vertex": 0, "weight": "2"}, {"vertex": 1, "weight": "1"}],
    "mu": [{"vertex": 2, "weight": "3"}],
}

GREEN = {
    "kind": "curve-green",
    "mode": "rational",
    "graph": {"vertex_count": 3, "edges": [[0, 1, "1"], [1, 2, "1/2"], [2, 0, "1"]]},
    "x": 0,
    "y": 2,
}


class TestParsing:
    def test_minimal_dirac(self):
        inst = io.parse_instance(json.dumps(DIRAC))
        assert inst.kind == "toric-dirac"
        assert inst.data["problem"].weights == (F(1),)

    def test_unknown_field_rejected(self):
        bad = dict(DIRAC, extra=1)
        with pytest.raises(ValidationError):
            io.parse_instance(json.dumps(bad))
        bad = json.loads(json.dumps(DIRAC))
        bad["polytope"]["frobnicate"] = []
        with pytest.raises(ValidationError):
            io.parse_instance(json.dumps(bad))

    def test_mass_balance_names_weights(self):
        bad = dict(DIRAC, weights=["1/2"])
        with pytest.raises(ValidationError) as exc:
            io.parse_instance(json.dumps(bad))
        assert exc.value.field == "weights"

    def test_every_required_field_mutation_fails(self):
        for doc in (DIRAC, ENVELOPE, POISSON, GREEN):
            for key in doc:
                if key in ("mode",):
                    continue
                bad = {k: v for k, v in doc.items() if k != key}
                with pytest.raises((ValidationError, ParseError)):
                    io.parse_instance(json.dumps(bad))

    def test_floats_rejected_in_rational_mode(self):
        bad = json.loads(json.dumps(DIRAC))
        bad["weights"] = [1.0]
        with pytest.raises(ValidationError):
            io.parse_instance(json.dumps(bad))

    def test_floats_allowed_in_float_mode(self):
        doc = json.loads(json.dumps(DIRAC))
        doc["mode"] = "float"
        doc["weights"] = [1.0]
        inst = io.parse_instance(json.dumps(doc))
        assert inst.data["problem"].weights == (F(1),)

    def test_parse_error_has_line(self):
        with pytest.raises(ParseError):
            io.parse_instance("{not json")

    def test_round_trip(self):
        inst = io.parse_instance(json.dumps(POISSON))
        text = io.dumps_canonical(json.loads(json.dumps(POISSON)))
        assert io.parse_instance(text).sha256 == inst.sha256 == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_distinct_sites_required(self):
        bad = json.loads(json.dumps(DIRAC))
        bad["sites"] = [["1/3", "1/2"], ["1/3", "1/2"]]
        bad["weights"] = ["1/2", "1/2"]
        with pytest.raises(ValidationError):
            io.parse_instance(json.dumps(bad))

    def test_disconnected_graph_rejected(self):
        bad = json.loads(json.dumps(GREEN))
        bad["graph"] = {"vertex_count": 3, "edges": [[0, 1, "1"]]}
        with pytest.raises(ValidationError):
            io.parse_instance(json.dumps(bad))


def test_vertex_count_past_the_edges_exits_two_before_allocating(tmp_path, capsys):
    """A connected graph has at most one vertex more than it has edges, so
    10^9 vertices on one edge are refused before anything of that size is
    built: exit 2 with a ValidationError naming the graph."""
    doc = dict(GREEN, graph={"vertex_count": 10**9, "edges": [[0, 1, "1"]]})
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    assert cli.main(["green", str(inst), "-o", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err.startswith("error: graph.edges: graph is not connected")
    with pytest.raises(ValidationError) as exc:
        io.parse_instance(json.dumps(doc))
    assert exc.value.field == "graph.edges"


def test_parsing_a_curve_file_makes_no_fraction_per_literal(monkeypatch):
    """Lengths and weights reach MetricGraph and GraphMeasure as integers:
    parsing a curve-poisson file of 61 length and weight literals makes
    Fractions only for its one interior atom's position and for each
    measure's total mass, whose balance the parser checks."""
    import fractions

    n = 20
    doc = dict(
        POISSON,
        graph={"vertex_count": n, "edges": [[v - 1, v, f"{v}/3"] for v in range(1, n)] + [[0, n - 1, "7/2"]]},
        omega=[{"vertex": v, "weight": "1/2"} for v in range(n)],
        mu=[{"vertex": v, "weight": "1/4"} for v in range(n)] + [{"edge": 0, "pos": "1/3", "weight": "5"}],
    )
    text, created, new = json.dumps(doc), [], fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counted))
    inst = io.parse_instance(text)
    assert len(created) == 3
    monkeypatch.undo()
    assert on_edges(inst.data["mu"])[0] == ((F(1, 3), F(5)),)
    assert inst.data["graph"].edges[0] == (0, 1, F(1, 3))


def test_curve_payloads_keep_their_breakpoint_lists():
    """A Green function has no breakpoint lists, so its payload reads
    "breakpoints": []; a Poisson solve with no interior atom has one empty
    list per edge."""
    ginst, pinst = io.parse_instance(json.dumps(GREEN)), io.parse_instance(json.dumps(POISSON))
    gf = cv.green(ginst.data["graph"], ginst.data["x"], ginst.data["y"])
    assert io.graph_function_payload(ginst, gf)["breakpoints"] == []
    phi = cv.solve_poisson(pinst.data["graph"], pinst.data["omega"], pinst.data["mu"])
    assert io.graph_function_payload(pinst, phi)["breakpoints"] == [[], [], []]


def test_curve_writers_reduce_each_entry_on_its_own():
    """Entries over one shared denominator reduce each to its own lowest
    terms: (0, -2, 3, 4) / 4 read "0", "-1/2", "3/4", "1".  A zero vertex
    weight is left out, while an interior atom is written even at zero."""
    inst = io.parse_instance(json.dumps(GREEN))
    f = cv.GraphFunction([0, -2, 3, 4], 4, ((F(1, 2),), (), ()))
    assert io.graph_function_payload(inst, f) == {
        "values": ["0", "-1/2", "3/4"],
        "breakpoints": [[["1/2", "1"]], [], []],
    }
    mu = cv.GraphMeasure([0, -2, 3, 4, 0], 4, ((F(1, 3), F(2, 3)), (), ()))
    assert io.encode_graph_measure(mu) == [
        {"vertex": 1, "weight": "-1/2"},
        {"vertex": 2, "weight": "3/4"},
        {"edge": 0, "pos": "1/3", "weight": "1"},
        {"edge": 0, "pos": "2/3", "weight": "0"},
    ]


def test_float_curve_payloads_are_the_fractions_rounded_once():
    """A float-mode entry x / d is written as float(Fraction(x, d)), also for
    a numerator past 2^53, where float(x) / d would round twice."""
    inst = io.parse_instance(json.dumps(dict(GREEN, mode="float")))
    big = 2**60 + 33
    assert float(big) / 3 != float(F(big, 3))
    xs = [big, -7, 0, 5]
    f = cv.GraphFunction(xs, 3, ((F(1, 3),), (), ()))
    assert io.graph_function_payload(inst, f) == {
        "values": [float(F(x, 3)) for x in xs[:3]],
        "breakpoints": [[[float(F(1, 3)), float(F(5, 3))]], [], []],
    }
    mu = cv.GraphMeasure(xs, 3, ((F(1, 3),), (), ()))
    assert io.encode_graph_measure(mu, "float") == [
        {"vertex": 0, "weight": float(F(big, 3))},
        {"vertex": 1, "weight": float(F(-7, 3))},
        {"edge": 0, "pos": float(F(1, 3)), "weight": float(F(5, 3))},
    ]


def test_a_parsed_measure_equals_the_measure_on_its_fractions():
    """Two atoms at one vertex sum to 4/2 over the parser's denominator;
    the parsed measure still equals the one built from Fractions."""
    mu = [{"vertex": 2, "weight": "1/2"}, {"vertex": 2, "weight": "3/2"}, {"edge": 1, "pos": "1/3", "weight": "1"}]
    inst = io.parse_instance(json.dumps(dict(POISSON, mu=mu)))
    graph = inst.data["graph"]
    assert inst.data["mu"] == cv.GraphMeasure.on(graph, [F(0), F(0), F(2)], [(), ((F(1, 3), F(1)),), ()])
    assert inst.data["omega"] == cv.GraphMeasure.on(graph, [F(2), F(1), F(0)])


def test_an_envelope_makes_its_fractions_only_when_its_generators_are_read(monkeypatch):
    """Vertices and constraints reach the hull and the power diagram as
    integers, and a potential keeps its generators as integers: parsing a
    toric-envelope file of 40 constraints and building its envelope makes
    no Fraction, and reading the generators makes one per coordinate and
    value of each kept generator, none for a pruned one or a vertex."""
    import fractions

    rng = random.Random(27)
    sites = {(F(rng.randint(-8, 8), rng.randint(1, 4)), F(rng.randint(-8, 8), rng.randint(1, 4))) for _ in range(40)}
    cons = [(x, (x[0] ** 2 + x[1] ** 2) / 4 + F(rng.randint(-4, 4), 3)) for x in sorted(sites)]
    doc = dict(
        ENVELOPE,
        polytope={"vertices": [["0", "0"], ["5/2", "0"], ["3", "3/2"], ["1", "11/4"], ["-1/2", "2"]]},
        constraints=[{"site": [io.format_scalar(c) for c in x], "value": io.format_scalar(t)} for x, t in cons],
    )
    text, created, new = json.dumps(doc), [], fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counted))
    inst = io.parse_instance(text)
    f = tc.envelope(inst.data["delta"], inst.data["constraints"])
    assert created == []
    gens = f.generators
    monkeypatch.undo()
    assert 10 < len(gens) < len(cons)
    assert len(created) == 3 * len(gens)
    assert f == tc.envelope(inst.data["delta"], cons)


def run_cli(tmp_path, *argv):
    return cli.main([str(a) for a in argv])


def test_curve_results_are_written_and_paired_from_their_integers(tmp_path, monkeypatch):
    """Over a float-mode green, a poisson and an energy op whose measure has
    an interior atom, which the solution has a breakpoint at, the two curve
    writers make no Fraction and `integrate_graph` only the one it returns,
    once for the energy and once for the pairing."""
    import fractions

    created, inside, new = [], [], fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        created.append(inside[-1] if inside else None)
        return new(cls, *args, **kwargs)

    def watched(fn):
        def call(*args, **kwargs):
            inside.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return call

    poisson = dict(POISSON, mu=[{"vertex": 2, "weight": "2"}, {"edge": 0, "pos": "1/3", "weight": "1"}])
    ops = [("green", dict(GREEN, mode="float")), ("poisson", poisson), ("energy", poisson)]
    for command, doc in ops:
        (tmp_path / f"{command}.json").write_text(json.dumps(doc))
    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counted))
    for module, name in ((io, "graph_function_payload"), (io, "encode_graph_measure"), (cv, "integrate_graph")):
        monkeypatch.setattr(module, name, watched(getattr(module, name)))
    for command, _ in ops:
        out = tmp_path / f"{command}.out.json"
        assert run_cli(tmp_path, command, tmp_path / f"{command}.json", "-o", out, "--no-timestamp") == 0
    monkeypatch.undo()
    solution = json.loads((tmp_path / "poisson.out.json").read_text())["solution"]
    assert [p for p, _ in solution["breakpoints"][0]] == ["1/3"]
    assert [c for c in created if c is not None] == ["integrate_graph"] * 2


class TestCli:
    def write(self, tmp_path, doc, name="inst.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return p

    def test_solve_single_site_golden(self, tmp_path):
        inst = self.write(tmp_path, DIRAC)
        out = tmp_path / "out.json"
        assert run_cli(tmp_path, "solve", inst, "-o", out, "--no-timestamp") == 0
        result = json.loads(out.read_text())
        # The solution of a one-point target is the translated support
        # function; after sup-normalization its own value there is 0.
        assert result["solution"]["residual"] == "0"
        gens = result["solution"]["generators"]
        assert len(gens) == 1
        assert gens[0]["site"] == ["1/3", "1/2"]
        delta = tc.newton_polytope([(0, 0), (1, 0), (1, 1), (0, 1)], 2)
        expected = tc.envelope(delta, [((F(1, 3), F(1, 2)), 0)])
        shift = max(expected.value(x) for x in [(F(1, 3), F(1, 2))])
        assert gens[0]["value"] == io.format_scalar(F(0) - shift) or gens[0][
            "value"
        ] == io.format_scalar(F(0))

    def test_solve_determinism(self, tmp_path):
        inst = self.write(tmp_path, DIRAC)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(tmp_path, "solve", inst, "-o", out1, "--no-timestamp") == 0
        assert run_cli(tmp_path, "solve", inst, "-o", out2, "--no-timestamp") == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_float_mode_solve_cli(self, tmp_path):
        doc = {
            "kind": "toric-dirac",
            "mode": "float",
            "polytope": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
            "sites": [[0, 0], [1, 0], [0.5, 1]],
            "weights": [0.25, 0.25, 0.5],
        }
        inst = self.write(tmp_path, doc, "float.json")
        out = tmp_path / "fout.json"
        assert run_cli(tmp_path, "solve", inst, "-o", out, "--no-timestamp") == 0
        res = json.loads(out.read_text())
        assert isinstance(res["solution"]["residual"], float)
        assert res["solution"]["residual"] <= 1e-10

    def test_validation_exit_code(self, tmp_path):
        bad = dict(DIRAC, weights=["1/2"])
        inst = self.write(tmp_path, bad)
        assert run_cli(tmp_path, "solve", inst, "-o", tmp_path / "x.json") == 2

    def test_not_converged_exit_code(self, tmp_path):
        doc = {
            "kind": "toric-dirac",
            "mode": "rational",
            "polytope": {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]},
            "sites": [["0", "0"], ["1", "0"], ["1/3", "7/8"]],
            "weights": ["1/2", "1/3", "1/6"],
            "solver": {"max_iter": 2},
        }
        inst = self.write(tmp_path, doc)
        out = tmp_path / "best.json"
        assert run_cli(tmp_path, "solve", inst, "-o", out) == 3
        assert out.exists()  # best iterate still written
        # Its atoms are the cell volumes of its written generators, which sum to vol(Delta) = 1.
        atoms = json.loads(out.read_text())["solution"]["atoms"]
        csv_path = tmp_path / "best.csv"
        assert run_cli(tmp_path, "export-cells", out, "-o", csv_path) == 0
        rows = csv.DictReader(csv_path.read_text().splitlines())
        exact = {(r["site_x1_exact"], r["site_x2_exact"]): r["weight_exact"] for r in rows}
        assert {tuple(a["point"]): a["weight"] for a in atoms} == exact and len(exact) == len(atoms)
        assert sum(F(a["weight"]) for a in atoms) == 1

    def test_envelope_and_export_cells(self, tmp_path):
        doc = {
            "kind": "toric-dirac",
            "mode": "rational",
            "polytope": {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]},
            "sites": [["0", "0"], ["1", "0"]],
            "weights": ["1/2", "1/2"],
        }
        inst = self.write(tmp_path, doc)
        out = tmp_path / "sol.json"
        assert run_cli(tmp_path, "solve", inst, "-o", out, "--no-timestamp") == 0
        csv_path = tmp_path / "cells.csv"
        assert run_cli(tmp_path, "export-cells", out, "-o", csv_path) == 0
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "cell_id"
        assert "weight_exact" in header
        # Two square half-cells, four vertices each.
        assert len(lines) == 1 + 8
        weights = {row.split(",")[5 + 3] for row in lines[1:]}
        assert weights == {"1/2"}

    def test_export_cells_single_site_full_square(self, tmp_path):
        inst = self.write(tmp_path, DIRAC)
        out = tmp_path / "sol.json"
        run_cli(tmp_path, "solve", inst, "-o", out, "--no-timestamp")
        csv_path = tmp_path / "cells.csv"
        assert run_cli(tmp_path, "export-cells", out, "-o", csv_path) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # one cell, the full square

    def test_green_and_poisson(self, tmp_path):
        ginst = self.write(tmp_path, GREEN, "g.json")
        gout = tmp_path / "gout.json"
        assert run_cli(tmp_path, "green", ginst, "-o", gout, "--no-timestamp") == 0
        res = json.loads(gout.read_text())
        ddc_atoms = {(a.get("vertex"), a["weight"]) for a in res["solution"]["ddc"]}
        assert (0, "1") in ddc_atoms and (2, "-1") in ddc_atoms

        pinst = self.write(tmp_path, POISSON, "p.json")
        pout = tmp_path / "pout.json"
        assert run_cli(tmp_path, "poisson", pinst, "-o", pout, "--no-timestamp") == 0
        res = json.loads(pout.read_text())
        rho = {(a.get("vertex"), a["weight"]) for a in res["solution"]["curvature"]}
        assert (2, "3") in rho

    def test_energy_command(self, tmp_path):
        inst = self.write(tmp_path, ENVELOPE, "e.json")
        out = tmp_path / "eout.json"
        assert run_cli(tmp_path, "energy", inst, "-o", out, "--no-timestamp") == 0
        res = json.loads(out.read_text())
        assert "energy" in res["solution"]

    @pytest.mark.parametrize(
        "command, doc",
        [("solve", DIRAC), ("envelope", ENVELOPE), ("green", GREEN), ("poisson", POISSON),
         ("energy", ENVELOPE), ("energy", POISSON)],
    )
    def test_result_wrapper(self, tmp_path, command, doc):
        """Every command wraps its payload the same way, with the sha256
        of the instance's canonical text."""
        inst = self.write(tmp_path, doc)
        canonical = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        for flags, stamped in (["--no-timestamp"], False), ([], True):
            out = tmp_path / "out.json"
            assert run_cli(tmp_path, command, inst, "-o", out, *flags) == 0
            res = json.loads(out.read_text())
            assert set(res) == {"format_version", "kind", "mode", "instance_sha256", "solution"} | (
                {"timestamp"} if stamped else set()
            )
            assert (res["format_version"], res["kind"], res["mode"]) == (1, doc["kind"], doc["mode"])
            assert res["instance_sha256"] == hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def test_instance_hashes_are_pinned(self):
        assert io.parse_instance(json.dumps(DIRAC)).sha256 == (
            "e891475d1df0c4c7ee209ac7f45adeb5cbcee654fd889176229263932d96b44d"
        )
        assert io.parse_instance(json.dumps(POISSON)).sha256 == (
            "da51c55f73858dc5b2dda11cea7565cb19bfd5607af37d37401f50611c04c22c"
        )

    def test_envelope_energy_only_over_the_instance_polytope(self, tmp_path):
        doc = json.loads(json.dumps(ENVELOPE))
        doc["polytope"] = {"vertices": [["1/3"], ["5/2"]]}
        inst = self.write(tmp_path, doc)
        for lattice_m, has_energy in ((None, True), (1, False)):
            if lattice_m:
                doc["lattice_m"] = lattice_m
                inst = self.write(tmp_path, doc)
            out = tmp_path / "out.json"
            assert run_cli(tmp_path, "envelope", inst, "-o", out, "--no-timestamp") == 0
            assert ("energy" in json.loads(out.read_text())["solution"]) == has_energy

    def test_energy_of_a_lattice_envelope_is_the_one_envelope_reports(self, tmp_path):
        doc = {
            "kind": "toric-envelope",
            "mode": "rational",
            "polytope": {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]},
            "constraints": [
                {"site": ["0", "0"], "value": "0"},
                {"site": ["1", "0"], "value": "1/3"},
                {"site": ["0", "1"], "value": "2/5"},
            ],
            "lattice_m": 2,
        }
        inst, solutions = self.write(tmp_path, doc), {}
        for command in ("envelope", "energy"):
            out = tmp_path / f"{command}.json"
            assert run_cli(tmp_path, command, inst, "-o", out, "--no-timestamp") == 0
            solutions[command] = json.loads(out.read_text())["solution"]
        assert solutions["energy"] == {"energy": "-41/120", "total_mass": "1"}
        assert solutions["envelope"]["energy"] == "-41/120"

    def test_energy_over_a_smaller_lattice_hull_exits_two_naming_lattice_m(self, tmp_path, capsys):
        """Where the lattice hull is smaller than Delta, `envelope` omits the
        energy and `energy` refuses the instance."""
        doc = dict(ENVELOPE, polytope={"vertices": [["1/3"], ["5/2"]]}, lattice_m=1)
        out = tmp_path / "out.json"
        assert run_cli(tmp_path, "energy", self.write(tmp_path, doc), "-o", out) == 2
        assert capsys.readouterr().err.startswith("error: lattice_m: ")
        assert not out.exists()

    def test_lattice_envelope_command(self, tmp_path):
        doc = json.loads(json.dumps(ENVELOPE))
        doc["lattice_m"] = 1
        inst = self.write(tmp_path, doc, "lat.json")
        out = tmp_path / "lat_out.json"
        assert run_cli(tmp_path, "envelope", inst, "-o", out, "--no-timestamp") == 0
        res = json.loads(out.read_text())
        # On the unit interval, integer slopes already realize the exact
        # envelope, so the lattice result coincides with the plain one.
        exact_out = tmp_path / "exact_out.json"
        del doc["lattice_m"]
        inst2 = self.write(tmp_path, doc, "exact.json")
        assert run_cli(tmp_path, "envelope", inst2, "-o", exact_out, "--no-timestamp") == 0
        exact = json.loads(exact_out.read_text())
        assert res["solution"]["generators"] == exact["solution"]["generators"]
        assert res["solution"]["total_mass"] == "1"

    def test_check_writes_to_stdout_without_output_path(self, tmp_path, capsys):
        code = run_cli(
            tmp_path,
            "check", "--suite", "comparison", "--seed", "5", "--cases", "2",
            "--dimension", "1", "--no-timestamp",
        )
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["suite"] == "comparison"

    def test_check_command_pass(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            tmp_path,
            "check", "--suite", "orthogonality", "--seed", "7", "--cases", "3",
            "--dimension", "1", "-o", out, "--no-timestamp",
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["suite"] == "orthogonality"
        assert rep["failures"] == []
        assert rep["elapsed_ms"] == 0

    def test_check_command_failure_exit_code(self, tmp_path, monkeypatch):
        from nama import harness as hx

        def broken(rng, cfg):
            return [("always:fails", {"note": "injected"})]

        monkeypatch.setitem(hx._SUITES, "orthogonality", broken)
        code = run_cli(
            tmp_path,
            "check", "--suite", "orthogonality", "--cases", "2",
            "-o", tmp_path / "r.json",
        )
        assert code == 4

    def test_console_entry_point(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "nama.cli", "--help"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert "solve" in proc.stdout

    def test_missing_field_error_is_the_same_under_every_hash_seed(self, tmp_path):
        """An interior atom missing `edge` and `pos` names the first of
        them in field order, whatever the interpreter's string hashing."""
        doc = dict(POISSON, omega=[{"vertex": 0, "weight": "2"}, {"weight": "1"}])
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        lines = set()
        for seed in ("0", "1"):  # these two seeds order the field names differently
            proc = subprocess.run(
                [sys.executable, "-m", "nama.cli", "poisson", str(inst), "-o", str(tmp_path / "out.json")],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 2
            lines.add(proc.stderr)
        assert lines == {"error: omega[1].edge: missing field\n"}


class TestRevalidation:
    @staticmethod
    def revalidate(inst, result):
        """Rebuild the potential from the instance plus the result's t
        vector and recompute the residual; exact in rational mode."""
        p = inst.data["problem"]
        phi = tc.envelope(p.delta, list(zip(p.sites, map(F, result["solution"]["t"]))))
        mu = tc.ma_measure(phi)
        return max(abs(mu.weight_at(x) - w) for x, w in zip(p.sites, p.weights))

    def test_float_mode_revalidates_within_1e12(self, tmp_path):
        doc = {
            "kind": "toric-dirac",
            "mode": "float",
            "polytope": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
            "sites": [[0, 0], [1, 0], [0.5, 1]],
            "weights": [0.25, 0.25, 0.5],
        }
        inst = io.parse_instance(json.dumps(doc))
        from nama import solver as sv

        s = sv.normalize(sv.solve(inst.data["problem"], inst.solver))
        result = io.result_file(inst, io.solution_payload(inst, s), with_timestamp=False)
        recomputed = self.revalidate(inst, result)
        assert abs(float(recomputed) - float(s.residual)) <= 1e-12

    def test_result_revalidates_exactly(self, tmp_path):
        doc = {
            "kind": "toric-dirac",
            "mode": "rational",
            "polytope": {"vertices": [["0"], ["2"]]},
            "sites": [["-1/2"], ["1/3"]],
            "weights": ["1/2", "3/2"],
        }
        inst = io.parse_instance(json.dumps(doc))
        from nama import solver as sv

        s = sv.normalize(sv.solve(inst.data["problem"], sv.SolverConfig(mode="rational")))
        result = io.result_file(inst, io.solution_payload(inst, s), with_timestamp=False)
        assert self.revalidate(inst, result) == s.residual == 0


def _mutated(doc, path, value):
    """A deep copy of `doc` with the entry at `path` (keys and indices)
    replaced by `value`."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestMalformedInstancesExitTwo:
    """Malformed instances end in exit code 2 through cli.main, never in a
    traceback and never in a silently accepted value."""

    def run(self, tmp_path, command, doc):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        return run_cli(tmp_path, command, path, "-o", tmp_path / "out.json")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_coordinate(self, tmp_path, value):
        doc = dict(DIRAC, mode="float", sites=[[value, 0.1]], weights=[1.0])
        assert self.run(tmp_path, "solve", doc) == 2

    def test_non_finite_float_weight(self, tmp_path):
        doc = dict(DIRAC, mode="float", sites=[[0.5, 0.5]], weights=[float("nan")])
        assert self.run(tmp_path, "solve", doc) == 2

    @pytest.mark.parametrize(
        "command, doc",
        [
            # The rendered pieces of the envelope reach 10^400.
            ("envelope", dict(ENVELOPE, mode="float", polytope={"vertices": [["0"], ["1" + "0" * 400]]},
                              constraints=[{"site": ["0"], "value": "0"}])),
            # The Newton iterates' gradient norm reaches 10^200 squared.
            ("solve", dict(DIRAC, mode="float", polytope={"vertices": [["0"], ["1" + "0" * 200]]},
                           sites=[["0"], ["1"]], weights=["5" + "0" * 199] * 2)),
            # A Green function and a Poisson solve across an edge of length 10^400.
            ("green", dict(GREEN, mode="float", graph={"vertex_count": 2, "edges": [[0, 1, "1" + "0" * 400]]},
                           x=0, y=1)),
            ("poisson", dict(POISSON, mode="float", graph={"vertex_count": 2, "edges": [[0, 1, "1" + "0" * 400]]},
                             omega=[{"vertex": 0, "weight": "1"}], mu=[{"vertex": 1, "weight": "1"}])),
        ],
    )
    def test_float_result_beyond_double_range(self, tmp_path, capsys, command, doc):
        assert self.run(tmp_path, command, doc) == 2
        assert "outside float mode's range" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("key", ["sites", "weights"])
    def test_dirac_list_field_not_a_list(self, tmp_path, key):
        assert self.run(tmp_path, "solve", dict(DIRAC, **{key: 5})) == 2

    @pytest.mark.parametrize("value", [5, {"site": ["0"], "value": "0"}])
    def test_constraints_not_a_list(self, tmp_path, value):
        assert self.run(tmp_path, "envelope", dict(ENVELOPE, constraints=value)) == 2

    @pytest.mark.parametrize(
        "command, doc, path",
        [
            ("green", GREEN, ["x"]),
            ("green", GREEN, ["y"]),
            ("green", GREEN, ["graph", "edges", 0, 1]),
            ("poisson", POISSON, ["mu", 0, "vertex"]),
            ("solve", dict(DIRAC, solver={"max_iter": 5}), ["solver", "max_iter"]),
            ("envelope", ENVELOPE, ["lattice_m"]),
        ],
    )
    def test_bool_where_an_integer_is_read(self, tmp_path, command, doc, path):
        assert self.run(tmp_path, command, _mutated(doc, path, True)) == 2

    def test_bool_edge_index_of_an_interior_atom(self, tmp_path):
        bad = dict(
            POISSON,
            mu=[
                {"vertex": 2, "weight": "2"},
                {"edge": True, "pos": "1/2", "weight": "1"},
            ],
        )
        assert self.run(tmp_path, "poisson", bad) == 2

    @pytest.mark.parametrize(
        "command, doc, path, value, prefix",
        [
            ("green", GREEN, ["graph", "edges", 1, 0], 1.5, "graph.edges"),
            ("poisson", POISSON, ["graph", "edges", 2, 1], "0", "graph.edges"),
            *(
                ("poisson", POISSON, [key, 0], {"edge": 1, "pos": pos, "weight": w}, key)
                for pos in ("0", "1", "3/2")
                for key, w in (("omega", "2"), ("mu", "3"))
            ),
            (
                "poisson", POISSON, ["mu"],
                [{"vertex": 2, "weight": "1"}, {"edge": 0, "pos": "1/2", "weight": "1"},
                 {"edge": 0, "pos": "2/4", "weight": "1"}],
                "mu",
            ),
        ],
    )
    def test_bad_edge_endpoint_or_atom_position_names_its_field(
        self, tmp_path, capsys, command, doc, path, value, prefix
    ):
        """An edge endpoint that is not an integer, an interior atom off
        (0, 1) and two atoms at one position: exit 2 and one error line
        naming the field, with no output file."""
        assert self.run(tmp_path, command, _mutated(doc, path, value)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out.json").exists()


ACCEPTED_KINDS = {
    "solve": ("toric-dirac",),
    "envelope": ("toric-envelope",),
    "green": ("curve-green",),
    "poisson": ("curve-poisson",),
    "energy": ("toric-envelope", "curve-poisson"),
}


@pytest.mark.parametrize(
    "command, doc",
    [
        (command, doc)
        for command, kinds in ACCEPTED_KINDS.items()
        for doc in (DIRAC, ENVELOPE, POISSON, GREEN)
        if doc["kind"] not in kinds
    ],
)
def test_instance_of_another_kind_exits_two_naming_kind(tmp_path, capsys, command, doc):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert run_cli(tmp_path, command, path, "-o", out) == 2
    assert capsys.readouterr().err.startswith("error: kind: ")
    assert not out.exists()


def _int_limit_message(digits):
    """What int() says of a string of `digits` digits, past the limit."""
    try:
        int("9" * digits)
    except ValueError as exc:
        return str(exc)


def _value(value):
    """ENVELOPE with `value` as its first constraint's value."""
    return _mutated(ENVELOPE, ["constraints", 0, "value"], value)


def _length(value):
    """GREEN with `value` as its first edge's length."""
    return _mutated(GREEN, ["graph", "edges", 0, 2], value)


def _pos(value):
    """POISSON whose first omega atom is one of weight 2 at `value` on edge 0."""
    return _mutated(POISSON, ["omega", 0], {"edge": 0, "pos": value, "weight": "2"})


def _weight(value):
    """POISSON with `value` as its first mu atom's weight (3 balances omega)."""
    return _mutated(POISSON, ["mu", 0, "weight"], value)


def _dirac(sites, weights):
    """DIRAC on the unit square with these sites and weights."""
    return dict(DIRAC, sites=sites, weights=weights)


KINDS_LINE = "error: kind: expected one of toric-dirac, toric-envelope, curve-poisson, curve-green"

# name -> (command, input document, the error line it exits 2 with, or
# the canonical literal whose output it must reproduce)
READ_CASES = {
    "word": ("envelope", _value("abc"), "error: constraints[0].value: not a rational literal: 'abc'"),
    "zero-denominator": ("envelope", _value("1/0"), "error: constraints[0].value: zero denominator in '1/0'"),
    "exponent": ("envelope", _value("1e5"), "error: constraints[0].value: not a rational literal: '1e5'"),
    "empty": ("envelope", _value(""), "error: constraints[0].value: not a rational literal: ''"),
    "true": ("envelope", _value(True), "error: constraints[0].value: not a number: True"),
    "null": ("envelope", _value(None), "error: constraints[0].value: not a rational literal: None"),
    "list": ("envelope", _value([1]), "error: constraints[0].value: not a rational literal: [1]"),
    "long-numerator": (
        "energy",
        _value("9" * 5000 + "/7"),
        f"error: constraints[0].value: {_int_limit_message(5000)}",
    ),
    "spaced-ratio": ("envelope", _value(" 1 / 3 "), "1/3"),
    "decimal": ("energy", _value("-0.75"), "-3/4"),
    "json-integer": ("envelope", _value(7), "7"),
    "kind-before-mode": ("energy", dict(ENVELOPE, kind="toric", mode="exact"), KINDS_LINE),
    "solver-damping": ("solve", dict(DIRAC, solver={"damping": "1/4"}), "error: solver.damping: unknown field"),
    "result-generator-site": (
        "export-cells",
        {
            "solution": {
                "polytope": DIRAC["polytope"],
                "generators": [{"site": ["0", "0"], "value": "0"}, {"site": "x", "value": "0"}],
            }
        },
        "error: solution.generators[1].site: expected a coordinate list",
    ),
    # Literals at the edge of the common forms (an ASCII integer, or p/q of
    # ASCII digits): a sign, leading zeros, spaces, digit separators and
    # non-ASCII digits are read, or refused, by one rule on every field.
    "plus-sign": ("envelope", _value("+3"), "3"),
    "minus-zero": ("envelope", _value("-0"), "0"),
    "leading-zeros": ("envelope", _value("007"), "7"),
    "zero-padded-denominator": ("envelope", _value("3/04"), "3/4"),
    "zero-padded-zero-denominator": ("envelope", _value("1/00"), "error: constraints[0].value: zero denominator in '1/00'"),
    "no-denominator": ("envelope", _value("3/"), "error: constraints[0].value: not a rational literal: '3/'"),
    "no-numerator": ("envelope", _value("/3"), "error: constraints[0].value: not a rational literal: '/3'"),
    "double-slash": ("envelope", _value("3//4"), "error: constraints[0].value: not a rational literal: '3//4'"),
    "digit-separator": ("envelope", _value("1_000"), "error: constraints[0].value: not a rational literal: '1_000'"),
    "signed-denominator": ("envelope", _value("1/-2"), "error: constraints[0].value: not a rational literal: '1/-2'"),
    "padded-integer": ("envelope", _value(" 7 "), "7"),
    "space-before-slash": ("envelope", _value("1 /2"), "1/2"),
    "arabic-indic-digit": ("envelope", _value("\u0663"), "3"),
    "length-plus-sign": ("green", _length("+3"), _length("3")),
    "length-arabic-indic-digit": ("green", _length("\u0663"), _length("3")),
    "length-zero-padded": ("green", _length("007/04"), _length("7/4")),
    "length-minus-zero": ("green", _length("-0"), "error: graph.edges: edge 0 has non-positive length"),
    "length-zero-denominator": ("green", _length("1/00"), "error: graph.edges[0].length: zero denominator in '1/00'"),
    "length-digit-separator": ("green", _length("1_000"), "error: graph.edges[0].length: not a rational literal: '1_000'"),
    "pos-spaced-ratio": ("poisson", _pos("1 /2"), _pos("1/2")),
    "pos-signed-ratio": ("poisson", _pos("+1/2"), _pos("1/2")),
    "pos-zero-denominator": ("poisson", _pos("1/00"), "error: omega[0].pos: zero denominator in '1/00'"),
    "pos-signed-denominator": ("poisson", _pos("1/-2"), "error: omega[0].pos: not a rational literal: '1/-2'"),
    "pos-leading-zeros": ("poisson", _pos("007"), "error: omega: interior position 7 outside (0,1)"),
    "weight-unreduced": ("energy", _weight("6/2"), _weight("3")),
    "weight-padded": ("poisson", _weight(" 3 "), _weight("3")),
    "weight-arabic-indic-digit": ("poisson", _weight("\u0663"), _weight("3")),
    "weight-no-numerator": ("poisson", _weight("/3"), "error: mu[0].weight: not a rational literal: '/3'"),
    "weight-double-slash": ("poisson", _weight("3//1"), "error: mu[0].weight: not a rational literal: '3//1'"),
    # toric-dirac sites and weights: the first broken rule names its field.
    "dirac-literals": ("solve", _dirac([["+1/3", "2/04"]], [" 1 "]), _dirac([["1/3", "1/2"]], ["1"])),
    "dirac-site-arity": ("solve", _dirac([["1/3"]], ["1"]), "error: sites[0]: expected 2 coordinates, got 1"),
    "dirac-sites-not-a-list": ("solve", _dirac(5, ["1"]), "error: sites: expected a list"),
    "dirac-repeated-site": (
        "solve", _dirac([["0", "0"], ["0", "0"]], ["1/2", "1/2"]), "error: sites: sites must be distinct"
    ),
    "dirac-repeated-site-bad-weight": (
        "solve", _dirac([["0", "0"], ["0", "0"]], ["x", "1/2"]), "error: sites: sites must be distinct"
    ),
    "dirac-repeated-site-weights-not-a-list": (
        "solve", _dirac([["0", "0"], ["0", "0"]], 5), "error: sites: sites must be distinct"
    ),
    "dirac-weight-literal": ("solve", _dirac([["0", "0"]], ["1", "x"]), "error: weights[1]: not a rational literal: 'x'"),
    "dirac-weight-count": (
        "solve", _dirac([["0", "0"], ["1", "0"]], ["1"]), "error: weights: one weight per site required"
    ),
    "dirac-weight-sign": (
        "solve", _dirac([["0", "0"], ["1", "0"]], ["3/2", "-1/2"]), "error: weights: weights must be positive"
    ),
    "dirac-mass": ("solve", _dirac([["0", "0"]], ["1/2"]), "error: weights: total weight 1/2 must equal vol(Delta) = 1"),
    "dirac-no-sites": ("solve", _dirac([], []), "error: weights: total weight 0 must equal vol(Delta) = 1"),
    # curve-poisson measures: omega, then mu, nonnegative with positive
    # mass, then equal masses; the first broken rule names its field.
    "poisson-omega-negative": (
        "poisson", _mutated(POISSON, ["omega", 1, "weight"], "-1"), "error: omega: must be a positive measure"
    ),
    "poisson-omega-zero-mass": (
        "energy",
        _mutated(POISSON, ["omega"], [{"vertex": 0, "weight": "0"}]),
        "error: omega: must be a positive measure",
    ),
    "poisson-mu-negative": ("poisson", _weight("-3"), "error: mu: must be a positive measure"),
    "poisson-mu-zero-mass": ("energy", _weight("0"), "error: mu: must be a positive measure"),
    "poisson-mass": ("poisson", _weight("5/2"), "error: mu: mass 5/2 must equal mass(omega) = 3"),
}


@pytest.mark.parametrize("name", sorted(READ_CASES))
def test_every_rational_and_document_is_read_alike(tmp_path, capsys, name):
    """Each input exits 2 with its one error line, or gives the output,
    byte for byte, of the same instance with the canonical literal (given
    as the literal of ENVELOPE's value or as the whole document); only the
    instance hash differs."""
    command, doc, expected = READ_CASES[name]

    def run(doc):
        path, out = tmp_path / "inst.json", tmp_path / "out.json"
        path.write_text(json.dumps(doc))
        code = run_cli(tmp_path, command, path, "-o", out, "--no-timestamp")
        lines = out.read_text().splitlines() if code == 0 else []
        return code, capsys.readouterr().err, [l for l in lines if "instance_sha256" not in l]

    if isinstance(expected, str) and expected.startswith("error: "):
        assert run(doc)[:2] == (2, expected + "\n")
    else:
        code, err, output = run(doc)
        assert (code, err) == (0, "")
        assert output == run(expected if isinstance(expected, dict) else _value(expected))[2]


def test_two_main_calls_build_one_parser(tmp_path, monkeypatch):
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        built.append(self)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert run_cli(tmp_path, "solve", tmp_path / "missing.json", "-o", tmp_path / "out.json") == 2
    assert len(built) == 1


def test_a_case_that_raises_is_a_failure_with_its_seed(tmp_path, monkeypatch, capsys):
    """One graph_suite case raises; the report names its seed, the other
    cases still run, and `check` exits 4 with no traceback."""
    real = hx._SUITES["graph_suite"]
    seen = []

    def flaky(rng, cfg):
        seen.append(rng.state)
        if len(seen) == 2:
            raise RuntimeError("case blew up")
        return real(rng, cfg)

    monkeypatch.setitem(hx._SUITES, "graph_suite", flaky)
    out = tmp_path / "r.json"
    code = run_cli(
        tmp_path,
        "check", "--suite", "graph_suite", "--seed", "3", "--cases", "4", "--no-timestamp", "-o", out,
    )
    assert code == 4
    assert seen == [hx.case_seed(3, k) for k in range(4)]
    report = json.loads(out.read_text())
    assert report["failures"] == [
        {
            "seed": hx.case_seed(3, 1),
            "assertion": "exception:RuntimeError",
            "witness": {"message": "case blew up"},
        }
    ]
    assert "Traceback" not in capsys.readouterr().err


def test_rewriting_an_output_leaves_no_stale_bytes(tmp_path):
    """Outputs overwrite an existing file in place; a shorter result must
    still replace the whole file."""
    out = tmp_path / "out.json"
    out.write_text("x" * 100_000)
    assert run_cli(tmp_path, "check", "--suite", "comparison", "--seed", "5", "--cases", "2",
                   "--dimension", "1", "--no-timestamp", "-o", out) == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "comparison"


def test_negative_solver_tol_exits_two_naming_the_field(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(DIRAC, solver={"tol": "-1"})))
    assert run_cli(tmp_path, "solve", path, "-o", tmp_path / "out.json") == 2
    assert "solver.tol" in capsys.readouterr().err


def test_zariski_defect_rejects_dimension_two(tmp_path, capsys):
    """The suite runs in dimension 1 only: --dimension 2 exits 2 naming the
    flag and writes no report, and a run without the flag gives the report
    of --dimension 1 with nothing on stderr."""
    def check(*flags):
        out = tmp_path / "r.json"
        argv = ["check", "--suite", "zariski_defect", "--seed", "3", "--cases", "2", *flags]
        code = run_cli(tmp_path, *argv, "--no-timestamp", "-o", out)
        report = out.read_bytes() if out.exists() else None
        if out.exists():
            out.unlink()
        return code, report, capsys.readouterr().err

    assert check("--dimension", 2) == (2, None, "error: dimension: suite zariski_defect runs in dimension 1 only\n")
    code, report, err = check()
    assert (code, err) == (0, "")
    assert check("--dimension", 1) == (0, report, "")


@pytest.mark.parametrize(
    "vertices",
    [[["0"], ["1"]], [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]],
    ids=["1d", "2d"],
)
def test_huge_lattice_m_exits_two_naming_the_field_at_once(tmp_path, capsys, vertices):
    dim = len(vertices[0])
    doc = dict(
        ENVELOPE,
        polytope={"vertices": vertices},
        constraints=[{"site": ["1/3"] * dim, "value": "0"}],
        lattice_m=10**6,
    )
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert run_cli(tmp_path, "envelope", path, "-o", tmp_path / "out.json") == 2
    assert time.perf_counter() - start < 1
    assert "lattice_m" in capsys.readouterr().err


def test_lattice_m_past_the_index_range_is_a_validation_error():
    """A box of more than sys.maxsize points per row is counted, not
    measured with len()."""
    doc = dict(ENVELOPE, constraints=[{"site": ["0"], "value": "0"}], lattice_m=10**30)
    with pytest.raises(ValidationError) as exc:
        io.parse_instance(json.dumps(doc))
    assert exc.value.field == "lattice_m"


def test_lattice_m_bound_counts_the_grid_of_the_bounding_box():
    """The benchmark's lattice envelopes (m = 4 on the unit triangle, m = 8
    on the unit square) stay far inside the bound; the bound itself is the
    grid point count of Delta's bounding box."""
    base = dict(ENVELOPE, constraints=[{"site": ["0", "0"], "value": "0"}])
    for vertices, m in (([["0", "0"], ["1", "0"], ["0", "1"]], 4), ([["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]], 8)):
        inst = io.parse_instance(json.dumps(dict(base, polytope={"vertices": vertices}, lattice_m=m)))
        assert inst.data["lattice_m"] == m
    # [0, 3] x [0, 1]: (3m + 1)(m + 1) grid points.
    rect = {"vertices": [["0", "0"], ["3", "0"], ["3", "1"], ["0", "1"]]}
    m = max(k for k in range(1, 400) if (3 * k + 1) * (k + 1) <= io.MAX_LATTICE_POINTS)
    io.parse_instance(json.dumps(dict(base, polytope=rect, lattice_m=m)))
    with pytest.raises(ValidationError) as exc:
        io.parse_instance(json.dumps(dict(base, polytope=rect, lattice_m=m + 1)))
    assert exc.value.field == "lattice_m"


@pytest.mark.parametrize(
    "flag, field",
    [
        ("--polytope-complexity", "polytope_complexity"),
        ("--function-complexity", "function_complexity"),
        ("--coefficient-bound", "coefficient_bound"),
    ],
)
@pytest.mark.parametrize("value", [0, -1])
def test_check_generator_setting_below_one_exits_two_naming_the_field(
    tmp_path, capsys, flag, field, value
):
    out = tmp_path / "r.json"
    code = run_cli(tmp_path, "check", "--suite", "capacity", "--cases", "1", flag, value, "-o", out)
    assert code == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not out.exists()


def test_check_negative_cases_exits_two_naming_the_field(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(tmp_path, "check", "--suite", "capacity", "--cases", "-3", "-o", out) == 2
    assert "cases" in capsys.readouterr().err
    assert not out.exists()


def test_check_zero_cases_is_an_empty_passing_report(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(tmp_path, "check", "--suite", "capacity", "--cases", "0", "--no-timestamp", "-o", out) == 0
    assert json.loads(out.read_text()) == {"suite": "capacity", "cases": 0, "failures": [], "elapsed_ms": 0}
