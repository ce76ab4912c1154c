"""Command-line surface.

Commands: solve, envelope, green, poisson, check, export-cells, energy.
Exit codes: 0 success, 2 validation or parse error (or a float-mode
value beyond the double range), 3 no convergence (the best iterate is
still written), 4 suite failure.  Output files are byte-identical for
identical inputs and flags once --no-timestamp is passed.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

from . import curves as cv
from . import harness as hx
from . import instance_io as io
from . import solver as sv
from . import toric as tc
from .errors import NamaError, NotConverged, ParseError, ValidationError


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


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


# --------------------------------------------------------------------------
# Instance commands: each maps an instance to (payload, exit code).
# --------------------------------------------------------------------------


def _solve(inst: io.InstanceFile):
    try:
        solution, code = sv.solve(inst.data["problem"], inst.solver), 0
    except NotConverged as exc:
        solution, code = exc.solution, 3
        print(f"solve: {exc}", file=sys.stderr)
    return io.solution_payload(inst, sv.normalize(solution)), code


def _potential(inst: io.InstanceFile) -> tc.ToricPsh:
    """A toric-envelope instance's potential: its lattice envelope when it
    sets lattice_m, its envelope otherwise."""
    delta, constraints = inst.data["delta"], inst.data["constraints"]
    if "lattice_m" in inst.data:
        return tc.lattice_envelope(delta, constraints, inst.data["lattice_m"])
    return tc.envelope(delta, constraints)


def _envelope(inst: io.InstanceFile):
    return io.envelope_payload(inst, _potential(inst)), 0


def _green(inst: io.InstanceFile):
    graph = inst.data["graph"]
    gf = cv.green(graph, inst.data["x"], inst.data["y"])
    payload = io.graph_function_payload(inst, gf)
    payload["ddc"] = io.encode_graph_measure(cv.ddc(graph, gf), inst.mode)
    return payload, 0


def _poisson(inst: io.InstanceFile):
    graph, omega = inst.data["graph"], inst.data["omega"]
    phi = cv.solve_poisson(graph, omega, inst.data["mu"])
    payload = io.graph_function_payload(inst, phi)
    payload["curvature"] = io.encode_graph_measure(cv.curvature(graph, omega, phi), inst.mode)
    return payload, 0


def _energy(inst: io.InstanceFile):
    if inst.kind == "toric-envelope":
        f = _potential(inst)
        if f.delta != inst.data["delta"]:  # as in `envelope`, whose payload then omits the energy
            m = inst.data["lattice_m"]
            raise ValidationError("lattice_m", f"the 1/{m} lattice hull is smaller than Delta, which the energy needs")
        values = {"energy": tc.energy(f, tc.g_delta(f.delta)), "total_mass": f.delta.volume}
    else:
        graph, omega, mu = inst.data["graph"], inst.data["omega"], inst.data["mu"]
        phi = cv.solve_poisson(graph, omega, mu)
        values = {"energy": cv.energy_graph(graph, phi, omega), "pairing": cv.integrate_graph(graph, phi, mu)}
    return io.energy_payload(inst, values), 0


# name -> (help, accepted instance kinds, instance -> (payload, exit code))
_INSTANCE_COMMANDS = {
    "solve": ("solve a toric-dirac instance", ("toric-dirac",), _solve),
    "envelope": ("compute a (lattice) envelope", ("toric-envelope",), _envelope),
    "green": ("compute a Green function on a metric graph", ("curve-green",), _green),
    "poisson": ("solve omega + dd^c(phi) = mu on a metric graph", ("curve-poisson",), _poisson),
    "energy": (
        "report the energy of an instance's solution",
        ("toric-envelope", "curve-poisson"),
        _energy,
    ),
}


def _cmd_instance(args) -> int:
    _, kinds, run = _INSTANCE_COMMANDS[args.command]
    inst = io.parse_instance(_read(args.instance))
    if inst.kind not in kinds:
        raise ValidationError("kind", f"this command needs one of: {', '.join(kinds)}")
    payload, code = run(inst)
    _write(args.output, io.dumps_canonical(io.result_file(inst, payload, not args.no_timestamp)))
    return code


def _cmd_export_cells(args) -> int:
    _write(args.output, io.export_cells(_read(args.result)))
    return 0


def _cmd_check(args) -> int:
    if args.suite in hx.ONE_DIMENSIONAL_SUITES and args.dimension == 2:
        raise ValidationError("dimension", f"suite {args.suite} runs in dimension 1 only")
    cfg = hx.GenConfig(
        seed=args.seed,
        dimension=args.dimension or hx.GenConfig.dimension,
        polytope_complexity=args.polytope_complexity,
        function_complexity=args.function_complexity,
        coefficient_bound=args.coefficient_bound,
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `nama` parser, built on first use and shared by every call."""
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

    for name, (doc, _, _) in _INSTANCE_COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        add_io(p)
        p.set_defaults(fn=_cmd_instance)

    p = sub.add_parser("export-cells", help="export Laguerre cells of a result as CSV")
    add_io(p, result_input=True)
    p.set_defaults(fn=_cmd_export_cells)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=list(hx.SUITE_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--dimension", type=int, choices=(1, 2), help="default 2; a 1-D suite takes only 1")
    p.add_argument("--polytope-complexity", type=int, default=6)
    p.add_argument("--function-complexity", type=int, default=3)
    p.add_argument("--coefficient-bound", type=int, default=4)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NamaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a float-mode result beyond the double range
        print(f"error: value outside float mode's range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
