"""nama's benchmark: four CLI workloads, timed or traced.

    python3 bench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; nama is imported from ``src/``.
Every op is one ``nama.cli.main(argv)`` call on instance files generated
at set-up from ``--seed``, and every output is checked exactly (see
``checks.py``) outside the timed region.

``--trace 0`` runs whole rounds of the workload's plan until ``--seconds``
have passed and reports the end-to-end metrics, every time scaled to the
reference speed sampled while it ran (see ``reference.py``).
``--trace 1`` runs the first two rounds three times (untraced, traced,
traced), exits non-zero unless both traced passes give identical
counters, and reports the per-layer metrics.  The last line of standard
output is the result object; the line before it carries the input
shares, sample counts and provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_REPS = 5
TRACE_ROUNDS = 2  # rounds alternate some ops, so two cover every kind

sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNTERS, SPAN_NAMES, Tracer  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"{n}.calls": "count" for n in SPAN_NAMES},
    **{f"{n}.self_s": "s" for n in SPAN_NAMES},
    **{c: "count" for c in COUNTERS},
    "trace.overhead": "ratio",
}


def import_nama():
    """Import nama from this checkout's src/, never from elsewhere."""
    if not (SRC / "nama" / "__init__.py").is_file():
        raise SystemExit(f"bench: no nama sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nama.cli
    import nama.harness

    if Path(nama.cli.__file__).resolve().parent != SRC / "nama":
        raise SystemExit(f"bench: imported nama from {nama.cli.__file__}, not {SRC}")
    return nama.cli, nama.harness


def timed_import():
    """Seconds to import nama in a fresh interpreter: scaled to the
    reference speed, and raw."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "import_probe.py"), str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    scaled, raw = out.stdout.split()
    return float(scaled), float(raw)


def setup(workload: str, seed: int, workdir: str):
    """Import nama, then generate and write the instance files, SETUP_REPS
    times; returns the set-up times (scaled to the reference speed, then
    raw) and the plan."""
    scaled, raw, plan = [], [], None
    with reference.SpeedClock() as speed:
        for rep in range(SETUP_REPS):
            imported, imported_raw = timed_import()
            target = os.path.join(workdir, f"setup-{rep}")
            os.mkdir(target)
            start, paused = time.perf_counter(), speed.paused
            built = workloads.WORKLOADS[workload](seed, target)
            end = time.perf_counter()
            generated = end - start - (speed.paused - paused)
            scaled.append(imported + generated * speed.factor(start, end))
            raw.append(imported_raw + generated)
            if plan is None:
                plan = built
            else:
                shutil.rmtree(target)
    return scaled, raw, plan


class CaseClock:
    """Times each suite case by wrapping the entries of harness._SUITES,
    which run_suite looks up per call; the cases' latencies are otherwise
    hidden inside run_suite's worker threads.  A case's time is the CPU
    time of its worker thread: the wall time of a case would mostly
    measure which case the other worker was running while both wait for
    the interpreter lock."""

    def __init__(self, harness):
        self.suites = harness._SUITES
        self.original = dict(self.suites)
        self.times = []

    def __enter__(self):
        for name, fn in self.original.items():
            self.suites[name] = self._timed(fn)
        return self

    def __exit__(self, *exc):
        self.suites.update(self.original)

    def _timed(self, fn):
        def case(*args, **kwargs):
            start = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self.times.append(time.thread_time() - start)

        return case


def run_op(cli, op, clock, tracer=None, index=None, speed=None):
    """One timed CLI call, then its check.  Returns (seconds, units,
    failed units, latencies); a `check` op counts one unit per case.
    With a SpeedClock, the time its handler took is left out."""
    units = op.cases or 1
    clock.times.clear()
    if tracer is not None:
        tracer.op = index
    paused = speed.paused if speed else 0.0
    start = time.perf_counter()
    try:
        code = cli.main(op.argv)
    except Exception:
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - start
    if speed:
        seconds -= speed.paused - paused
    if tracer is not None:
        tracer.op = None
    latencies = list(clock.times) if op.cases else [seconds]
    failed = units
    if code == 0 or (op.cases and code == 4):
        try:
            with open(op.output, "r", encoding="utf-8") as fh:
                verdict = op.check(json.load(fh))
            failed = verdict if op.cases else int(not verdict)
        except Exception:
            traceback.print_exc()
    return seconds, units, failed, latencies


def _latency_metrics(entries, attempted: int):
    """ops_per_s, op_p50_ms and op_p90_ms of (seconds, latencies) entries."""
    busy = sum(seconds for seconds, _ in entries)
    latencies = [x for _, lat in entries for x in lat]
    return {
        "ops_per_s": attempted / busy,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
    }


def timed(cli, plan, clock, seconds: float):
    """Whole rounds until `seconds` have passed; every op time is scaled
    to the reference speed sampled during the op (see reference.py)."""
    raw, spans, executed = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    rounds = 0
    with reference.SpeedClock() as speed:
        while rounds == 0 or time.perf_counter() - start < seconds:
            for op in plan[rounds % len(plan)]:
                begin = time.perf_counter()
                dt, units, bad, lat = run_op(cli, op, clock, speed=speed)
                spans.append((begin, time.perf_counter()))
                raw.append((dt, lat))
                attempted += units
                failed += bad
                executed.append(op)
            rounds += 1
    scaled = []
    for (dt, lat), (a, b) in zip(raw, spans):
        f = speed.factor(a, b)
        scaled.append((dt * f, [x * f for x in lat]))
    metrics = _latency_metrics(scaled, attempted)
    details = {
        "rounds": rounds,
        "latency_samples": sum(len(lat) for _, lat in scaled),
        "busy_s": sum(dt for dt, _ in raw),
        "unscaled": _latency_metrics(raw, attempted),
        "reference": speed.summary(),
    }
    return metrics, attempted, failed, executed, details


def traced(cli, plan, clock, trace_path: Path):
    ops = [op for ops in plan[:TRACE_ROUNDS] for op in ops]
    attempted = failed = 0

    def one_pass(tracer=None):
        nonlocal attempted, failed
        busy = cases = 0
        for i, op in enumerate(ops):
            dt, units, bad, _ = run_op(cli, op, clock, tracer, i)
            busy += dt
            attempted += units
            failed += bad
            cases += len(clock.times)
        return busy, cases

    base, _ = one_pass()
    trace_path.unlink(missing_ok=True)
    passes = []
    for label in ("traced-1", "traced-2"):
        tracer = Tracer()
        tracer.install()
        try:
            busy, cases = one_pass(tracer)
        finally:
            tracer.uninstall()
        tracer.dump(trace_path, label)
        passes.append((busy, tracer.counts(cases), tracer.self_times()))
    (busy1, counts1, self1), (busy2, counts2, self2) = passes
    if counts1 != counts2:
        diff = {k: (counts1[k], counts2[k]) for k in counts1 if counts1[k] != counts2[k]}
        raise SystemExit(f"bench: traced passes disagree on counters: {diff}")
    metrics = {
        **counts1,
        **{k: (self1[k] + self2[k]) / 2 for k in self1},
        "trace.overhead": (busy1 + busy2) / 2 / base,
    }
    details = {
        "untraced_s": base,
        "traced_s": [busy1, busy2],
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, attempted, failed, ops, details


def git_commit():
    """The checkout's commit, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = ROOT / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance():
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "NAMA_THREADS_set": "NAMA_THREADS" in os.environ,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, harness = import_nama()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        setup_samples, setup_raw, plan = setup(args.workload, args.seed, workdir)
        with CaseClock(harness) as clock:
            if args.trace:
                trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
                metrics, attempted, failed, executed, details = traced(cli, plan, clock, trace_path)
                units = PER_LAYER_UNITS
            else:
                metrics, attempted, failed, executed, details = timed(
                    cli, plan, clock, args.seconds
                )
                metrics["setup_s"] = statistics.median(setup_samples)
                metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_frac": failed / attempted,
        "setup_samples_s": setup_samples,
        "setup_unscaled_s": setup_raw,
        "input_shares": workloads.shares(executed),
        "provenance": provenance(),
        **details,
    }
    print(json.dumps({"details": info}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
