"""Scaling report (not gated): how cost grows with node count and u.

    python3 bench/scaling.py [--seed N]

Runs ``verify`` through ``cmnverify.cli.main`` in this process on

* the ring_pass family (golden-mean interval nodes, alpha = 0.02) at
  d = 4..8, that is 3^d Kronecker entries, reporting seconds per entry
  against the roadmap target of d = 8 under 0.5 s;
* the box family (3 golden-mean nodes, s = 1, derived piecewise forms,
  ``--grid 256``) at u = 1..3, reporting seconds per face-grid point.

Times are host-normalized (``probe.py``); wall times are reported too.  A
size whose predicted time exceeds the budget is skipped: the previous
ring's time times 3.3 (3x the entries, per-entry cost creeping up), or the
previous box's non-grid time plus its grid time times the growth in grid
points, 2u * 256^(u-1) per call.  The report goes
to stdout and to ``bench/out/scaling-seed<N>.json`` with the environment.
"""

from __future__ import annotations

import argparse
import json
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
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TARGET_D8_S = 0.5   # roadmap item 2: a d = 8 ring that passes, under 0.5 s
BUDGET_S = 20.0     # skip a size predicted to take longer


def measure(cli, workdir: Path, name: str, spec, verdict: str, extra=()) -> dict:
    """One traced ``verify``: normalized and wall seconds, grid counts."""
    workloads.write_specs(workdir, {name: spec})
    cmd = workloads.verify(workdir, name, verdict=verdict, theorem=2, extra=extra)
    rep, _ = worker.traced_sequence(cli, {"commands": [cmd]})
    layers = rep["layers"]
    return {"entries": cmd["entries"], "s": rep["norm_s"][0], "wall_s": rep["wall_s"][0],
            "grid_points": layers["geometry.grid_points"],
            "grid_s": layers["geometry.min_stretch.grid.s"],
            "correct": not rep["failures"], "failures": rep["failures"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    from cmnverify import cli

    (BENCH / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="scaling-", dir=BENCH / "work"))
    rows = []
    here = Path.cwd()
    os.chdir(workdir)
    try:
        predicted = 0.0
        for d in range(4, 9):
            row = {"family": "ring_pass", "d": d}
            if predicted > BUDGET_S:
                row.update(skipped=True, predicted_s=predicted)
            else:
                rng = np.random.default_rng(args.seed)
                row.update(measure(cli, workdir, f"ring{d}.json",
                                   gen.golden_ring(rng, d, 0.02), "pass"))
                row["s_per_entry"] = row["s"] / row["entries"]
                predicted = row["s"] * 3.3
            rows.append(row)
        predicted = 0.0
        for u in range(1, 4):
            row = {"family": "box", "u": u}
            if predicted > BUDGET_S:
                row.update(skipped=True, predicted_s=predicted)
            else:
                rng = np.random.default_rng(args.seed)
                spec = gen.golden_ring(rng, 3, 0.01, u=u, s=1)
                # u >= 2 takes the grid path, where piecewise forms have no degree
                row.update(measure(cli, workdir, f"box_u{u}.json", spec,
                                   "inconclusive" if u > 1 else "pass", ("--grid", "256")))
                if row["grid_points"]:
                    row["s_per_grid_point"] = row["grid_s"] / row["grid_points"]
                    growth = 256 * (u + 1) / u
                    predicted = row["s"] + row["grid_s"] * (growth - 1)
                else:
                    predicted = row["s"]
            rows.append(row)
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)

    d8 = next((r for r in rows if r.get("d") == 8 and not r.get("skipped")), None)
    report = {"environment": run.environment(), "seed": args.seed, "budget_s": BUDGET_S,
              "target_d8_s": TARGET_D8_S,
              "target_d8_met": None if d8 is None else d8["s"] < TARGET_D8_S, "rows": rows}
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"scaling-seed{args.seed}.json").write_text(json.dumps(report, indent=1) + "\n",
                                                       encoding="utf-8")
    for r in rows:
        size = f"d={r['d']}" if "d" in r else f"u={r['u']}"
        if r.get("skipped"):
            print(f"{r['family']:>9} {size:>5}  skipped (predicted {r['predicted_s']:.1f} s)")
            continue
        if "s_per_entry" in r:
            per = f"{r['s_per_entry'] * 1e3:8.3f} ms/entry"
        elif "s_per_grid_point" in r:
            per = f"{r['s_per_grid_point'] * 1e9:8.2f} ns/grid point ({r['grid_points']} points)"
        else:
            per = "     no face grid (u = 1)"
        print(f"{r['family']:>9} {size:>5} {r['entries']:6d} entries {r['s']:8.3f} s "
              f"(wall {r['wall_s']:.3f}) {per}{'' if r['correct'] else '  WRONG OUTPUT'}")
    print(f"target d=8 under {TARGET_D8_S} s: "
          f"{'not measured' if d8 is None else ('met' if d8['s'] < TARGET_D8_S else 'not met')}")
    return 0 if all(r.get("correct", True) for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
