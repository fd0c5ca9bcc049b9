"""Self-tests of the benchmark's own machinery.

    python3 bench/selftest.py

1. Span arithmetic: self time is a span's duration minus the union of its
   children's intervals (overlaps merged, overhang clipped); a
   ``min_stretch`` span's mode follows from its child spans.
2. A real traced sequence on small generated rings: for every checker span,
   self time plus the durations of its direct children equals the span's
   duration; every child lies inside its parent; the wrappers are removed
   afterwards.
3. Expected-output checks: the same sequence fails no command with the
   true expectations, and exactly one after one or two expected values of
   one command are corrupted, so ``ops_failed`` rises by one command.

Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def check_arithmetic() -> None:
    parent = spans.Span("p", 0.0, 10.0, None, 0)
    kids = [spans.Span("a", 1.0, 3.0, 0, 0), spans.Span("b", 2.0, 4.0, 0, 0),
            spans.Span("c", 5.0, 6.0, 0, 0), spans.Span("d", 9.0, 12.0, 0, 0)]
    assert spans.covered(parent, kids) == 5.0, spans.covered(parent, kids)
    assert spans.self_time([parent, *kids], 0) == 5.0
    assert spans.covered(parent, []) == 0.0

    calls = [spans.Span("geometry.min_stretch", 0.0, 3.0, None, 0),
             spans.Span("geometry.face_points", 0.5, 1.0, 0, 0),
             spans.Span("geometry.min_stretch", 4.0, 5.0, None, 0),
             spans.Span("geometry.linprog", 4.2, 4.4, 2, 0),
             spans.Span("geometry.min_stretch", 6.0, 6.5, None, 0)]
    kids = spans.children_of(calls)
    modes = [spans.stretch_mode(i, calls, kids) for i in (0, 2, 4)]
    assert modes == ["grid", "lp", "1d"], modes


def small_plan(workdir: Path) -> dict:
    rng = np.random.default_rng(7)
    workloads.write_specs(workdir, {"ring.json": gen.golden_ring(rng, 3, 0.02),
                               "perm.json": gen.permutation_ring(rng, 3, 0.02)})
    return {"specs": ["ring.json", "perm.json"],
            "commands": [workloads.verify(workdir, "ring.json", verdict="pass", theorem=2),
                         workloads.verify(workdir, "perm.json", verdict="pass", theorem=1)]}


def check_trace(cli, plan: dict) -> None:
    originals = (cli.theorem1_check, cli.theorem2_check)
    rep, recorded = worker.traced_sequence(cli, plan)
    assert (cli.theorem1_check, cli.theorem2_check) == originals, "wrappers left installed"
    assert not rep["failures"], rep["failures"]
    kids = spans.children_of(recorded)
    checkers = [i for i, s in enumerate(recorded) if s.name in spans.CHECKERS]
    assert len(checkers) == 2, [s.name for s in recorded if s.parent is None]
    total_self = 0.0
    for i in checkers:
        span = recorded[i]
        children = kids.get(i, [])
        assert children, f"{span.name} has no child spans"
        for c in children:
            assert span.start <= c.start <= c.end <= span.end, (span, c)
        own = spans.self_time(recorded, i, kids)
        assert abs(own + sum(c.duration for c in children) - span.duration) < 1e-9
        total_self += own
    layers = rep["layers"]
    assert abs(layers["network.self_s"] - total_self) < 1e-12
    assert layers["network.entries"] == sum(c["entries"] for c in plan["commands"])
    assert layers["network.tau_search.calls"] >= layers["network.entries"]


def check_ops_failed(cli, plan: dict) -> None:
    clean = worker.sequence(cli, plan)
    assert clean["failed"] == 0 and clean["failures"] == [], clean["failures"]
    wrong = plan["commands"][0]["expect"]["entries"] + 1
    for corrupt in ({"entries": wrong}, {"verdict": "fail"}, {"mixed": True},
                    {"entries": wrong, "verdict": "fail"}):
        bad = copy.deepcopy(plan)
        bad["commands"][0]["expect"].update(corrupt)
        rep = worker.sequence(cli, bad)
        assert rep["failed"] == 1 and len(rep["failures"]) == len(corrupt), rep["failures"]
        assert all(any(k in f for f in rep["failures"]) for k in corrupt), rep["failures"]
    recorded = copy.deepcopy(plan)
    recorded["commands"][0]["recorded"] = dict(clean["observed"][plan["commands"][0]["label"]])
    assert worker.sequence(cli, recorded)["failed"] == 0
    recorded["commands"][0]["recorded"]["sha256"] = "0" * 64
    rep = worker.sequence(cli, recorded)
    assert rep["failed"] == 1 and "SHA-256" in rep["failures"][0], rep["failures"]


def main() -> int:
    if not __debug__:
        sys.exit("run without -O: the self-tests are assertions")
    from cmnverify import cli

    check_arithmetic()
    print("span arithmetic: ok")
    (BENCH / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=BENCH / "work"))
    try:
        plan = small_plan(workdir)
        here = Path.cwd()
        os.chdir(workdir)
        try:
            check_trace(cli, plan)
            print("checker self time + child spans = checker span: ok")
            check_ops_failed(cli, plan)
            print("a corrupted expectation raises ops_failed: ok")
        finally:
            os.chdir(here)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
