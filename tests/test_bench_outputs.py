"""The benchmark's seed-1 outputs, checked inside the test suite.

For each workload, ``bench/workloads.py`` builds the seed-1 plan in a
temporary directory and the values recorded in ``bench/expected/seed1.json``
are attached to its commands, as ``bench/run.py``'s ``attach_recorded``
does.  Every command then runs through ``cli.main`` with its output
captured, and ``bench/check.py`` must find no mismatch, the recorded
certificate SHA-256 values included.  So a change of certificate bytes
shows here, not first in a benchmark run.  Nothing is written under
``bench/``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from cmnverify import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("ring_pass", "ring_fail", "box_u3", "paper_cli")


@pytest.fixture(scope="module")
def bench():
    """``bench/workloads.py`` and ``bench/check.py``, loaded without
    writing bytecode next to them and unloaded afterwards."""
    keep = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        import check
        import workloads
        yield workloads, check
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = keep
        for name in ("workloads", "gen", "check"):
            sys.modules.pop(name, None)


def test_workloads_are_all_covered(bench):
    workloads, _ = bench
    assert set(workloads.WORKLOADS) == set(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed1_outputs_match_the_recorded_ones(name, bench, tmp_path, monkeypatch):
    workloads, check = bench
    plan = workloads.build(name, 1, tmp_path)
    recorded = json.loads((BENCH / "expected" / "seed1.json").read_text(encoding="utf-8"))
    for cmd in plan["commands"]:
        cmd["recorded"] = recorded.get(name, {}).get(cmd["label"], {})
    assert any("sha256" in cmd["recorded"] for cmd in plan["commands"]
               if cmd["verb"] == "verify")
    monkeypatch.chdir(tmp_path)
    for cmd in (plan["warmup"], *plan["commands"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(cmd["argv"])
        assert check.check(cmd, check.observe(cmd, code, out.getvalue(), tmp_path)) == []
