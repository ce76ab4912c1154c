"""Regression oracle over the benchmark's plans: every op, pinned.

Each of the four workloads of `bench/workloads.py` is built at seeds 1
and 5 in a temporary directory, and every op of its plan runs through
`cli.main`, rounds and ops in plan order.  An op's digest is the sha256
of its exit code and the bytes of its `--no-timestamp` output; a plan's
digest is the sha256 of its ops' digests.  The plan digests and the
first 16 hex digits of each op digest are pinned in `plan_oracle.json`,
so a mismatch names the first op that differs.  `check-suites` runs at
seed 1 only: a passing suite report holds no seed, and its plan digest
was the same at seeds 1 and 5, so a second seed would pin no byte more
for about 4 s.  A digest changes only together with a deliberate change
of results, recorded in CHANGES.md; after one, rewrite the data file with

    PYTHONPATH=src python tests/test_plan_oracle.py
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from nama import cli

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).with_name("plan_oracle.json")
sys.path.append(str(ROOT / "bench"))  # workloads imports its sibling `checks`

import workloads  # noqa: E402

PLANS = [(name, seed) for name in workloads.WORKLOADS for seed in (1, 5) if (name, seed) != ("check-suites", 5)]


def run_plan(name: str, seed: int):
    """(plan digest, [(op label, op digest)]) of one plan, run in a fresh
    temporary directory; a label is the op's argv with that directory cut."""
    with tempfile.TemporaryDirectory() as workdir:
        ops = [op for ops in workloads.WORKLOADS[name](seed, workdir) for op in ops]
        digests = []
        for op in ops:
            code = cli.main(op.argv)
            body = b""
            if os.path.exists(op.output):
                with open(op.output, "rb") as fh:
                    body = fh.read()
                os.remove(op.output)  # a later op must not read an earlier op's output
            label = " ".join(op.argv).replace(workdir + os.sep, "")
            digests.append((label, hashlib.sha256(b"%d\n" % code + body).hexdigest()))
    plan = hashlib.sha256("".join(d for _, d in digests).encode()).hexdigest()
    return plan, digests


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name, seed", PLANS, ids=[f"{n}-{s}" for n, s in PLANS])
def test_plan_outputs_are_pinned(name, seed, pinned):
    want = pinned[f"{name}:{seed}"]
    plan, digests = run_plan(name, seed)
    if plan == want["digest"]:
        return
    assert len(digests) == len(want["ops"]), f"{len(digests)} ops, pinned {len(want['ops'])}"
    for i, ((label, got), expected) in enumerate(zip(digests, want["ops"])):
        assert got[:16] == expected, f"op {i} differs first: {label}"
    pytest.fail("plan digest differs, every op digest matches: the data file is inconsistent")


if __name__ == "__main__":
    out = {}
    for name, seed in PLANS:
        plan, digests = run_plan(name, seed)
        out[f"{name}:{seed}"] = {"digest": plan, "ops": [d[:16] for _, d in digests]}
    DATA.write_text(json.dumps(out, indent=1) + "\n")
