"""Command-line surface.

Commands: solve, envelope, green, poisson, check, export-cells, energy.
Exit codes: 0 success, 2 validation or parse error, 3 no convergence
(the best iterate is still written), 4 suite failure.  Output files are
byte-identical for identical inputs and flags once --no-timestamp is
passed.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys

from . import curves as cv
from . import harness as hx
from . import instance_io as io
from . import solver as sv
from . import toric as tc
from .errors import NamaError, NotConverged, ParseError, ValidationError


def _read_instance(path: str) -> io.InstanceFile:
    with open(path, "r", encoding="utf-8") as fh:
        return io.parse_instance(fh.read())


def _write(path: str, text: str) -> None:
    """Write `text` (UTF-8) to `path`, overwriting a regular file in place.

    Opening with O_TRUNC cuts an existing file to zero length first, and
    ext4 (default auto_da_alloc) then waits for the writeback of its old
    contents: 45-65 ms per call on a 2-core VM's disk.  Writing over the
    old bytes and cutting the file to the new length afterwards does not
    wait.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _expect_kind(inst: io.InstanceFile, *kinds: str) -> None:
    if inst.kind not in kinds:
        raise ValidationError("kind", f"this command needs one of: {', '.join(kinds)}")


def _cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    _expect_kind(inst, "toric-dirac")
    problem = inst.data["problem"]
    try:
        solution = sv.solve(problem, inst.solver)
        code = 0
    except NotConverged as exc:
        solution = exc.solution
        code = 3
        print(f"solve: {exc}", file=sys.stderr)
    solution = sv.normalize(solution)
    result = io.result_for_solution(inst, solution, with_timestamp=not args.no_timestamp)
    _write(args.output, io.dumps_canonical(result))
    return code


def _cmd_envelope(args) -> int:
    inst = _read_instance(args.instance)
    _expect_kind(inst, "toric-envelope")
    delta = inst.data["delta"]
    constraints = inst.data["constraints"]
    if "lattice_m" in inst.data:
        f = tc.lattice_envelope(delta, constraints, inst.data["lattice_m"])
    else:
        f = tc.envelope(delta, constraints)
    result = io.result_for_envelope(inst, f, with_timestamp=not args.no_timestamp)
    _write(args.output, io.dumps_canonical(result))
    return 0


def _cmd_green(args) -> int:
    inst = _read_instance(args.instance)
    _expect_kind(inst, "curve-green")
    graph = inst.data["graph"]
    gf = cv.green(graph, inst.data["x"], inst.data["y"])
    check = cv.ddc(graph, gf)
    extra = {"ddc": io.encode_graph_measure(check, inst.mode)}
    result = io.result_for_graph_function(
        inst, gf, extra=extra, with_timestamp=not args.no_timestamp
    )
    _write(args.output, io.dumps_canonical(result))
    return 0


def _cmd_poisson(args) -> int:
    inst = _read_instance(args.instance)
    _expect_kind(inst, "curve-poisson")
    graph = inst.data["graph"]
    phi = cv.solve_poisson(graph, inst.data["omega"], inst.data["mu"])
    rho = cv.curvature(graph, inst.data["omega"], phi)
    extra = {"curvature": io.encode_graph_measure(rho, inst.mode)}
    result = io.result_for_graph_function(
        inst, phi, extra=extra, with_timestamp=not args.no_timestamp
    )
    _write(args.output, io.dumps_canonical(result))
    return 0


def _cmd_energy(args) -> int:
    inst = _read_instance(args.instance)
    _expect_kind(inst, "toric-envelope", "curve-poisson")
    if inst.kind == "toric-envelope":
        delta = inst.data["delta"]
        f = tc.envelope(delta, inst.data["constraints"])
        value = tc.energy(f, tc.g_delta(delta))
        payload = {
            "energy": io._render(value, inst.mode),
            "total_mass": io._render(tc.ma_measure(f).total_mass, inst.mode),
        }
    else:
        graph = inst.data["graph"]
        omega, mu = inst.data["omega"], inst.data["mu"]
        phi = cv.solve_poisson(graph, omega, mu)
        value = cv.energy_graph(graph, phi, omega)
        payload = {
            "energy": io._render(value, inst.mode),
            "pairing": io._render(cv.integrate_graph(graph, phi, mu), inst.mode),
        }
    result = io.result_file(inst, payload, with_timestamp=not args.no_timestamp)
    _write(args.output, io.dumps_canonical(result))
    return 0


def _cmd_export_cells(args) -> int:
    import json

    with open(args.result, "r", encoding="utf-8") as fh:
        try:
            result = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=exc.lineno) from None
    if "solution" not in result or "generators" not in result.get("solution", {}):
        raise ValidationError("solution", "not a toric result file with generators")
    _write(args.output, io.export_cells(result))
    return 0


def _cmd_check(args) -> int:
    cfg = hx.GenConfig(
        seed=args.seed,
        dimension=args.dimension,
        polytope_complexity=args.polytope_complexity,
        function_complexity=args.function_complexity,
        coefficient_bound=args.coefficient_bound,
    )
    if args.suite in hx.ONE_DIMENSIONAL_SUITES and args.dimension != 1:
        print(
            f"check: suite {args.suite} runs in dimension 1; --dimension {args.dimension} is not used",
            file=sys.stderr,
        )
    report = hx.run_suite(args.suite, cfg, args.cases)
    text = io.dumps_canonical(report.to_dict(with_timing=not args.no_timestamp))
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    if not report.passed:
        print(
            f"check: suite {args.suite} failed {len(report.failures)} assertion(s)",
            file=sys.stderr,
        )
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nama",
        description="Exact non-Archimedean Monge-Ampere solver (toric and curve reductions)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, result_input=False):
        p.add_argument(
            "result" if result_input else "instance",
            help="result file" if result_input else "instance file (JSON)",
        )
        p.add_argument("-o", "--output", required=True, help="output path")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit timestamps so identical runs are byte-identical",
        )

    for name, fn, doc in (
        ("solve", _cmd_solve, "solve a toric-dirac instance"),
        ("envelope", _cmd_envelope, "compute a (lattice) envelope"),
        ("green", _cmd_green, "compute a Green function on a metric graph"),
        ("poisson", _cmd_poisson, "solve omega + dd^c(phi) = mu on a metric graph"),
        ("energy", _cmd_energy, "report the energy of an instance's solution"),
    ):
        p = sub.add_parser(name, help=doc)
        add_io(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("export-cells", help="export Laguerre cells of a result as CSV")
    add_io(p, result_input=True)
    p.set_defaults(fn=_cmd_export_cells)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=list(hx.SUITE_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--dimension", type=int, default=2, choices=(1, 2))
    p.add_argument("--polytope-complexity", type=int, default=6)
    p.add_argument("--function-complexity", type=int, default=3)
    p.add_argument("--coefficient-bound", type=int, default=4)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NamaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
