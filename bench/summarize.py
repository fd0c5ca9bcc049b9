"""Repeat the benchmark over seeds and summarize it, run by run.

    python3 bench/summarize.py --out FILE

For every workload in BENCHMARK.json and the seeds 1-10, one run at a
time, runs the benchmark command with ``--seconds`` = ``run_seconds`` and
``--trace 0``, then writes FILE: every run's end-to-end metrics, its raw
wall times (``wall``: set-up and command-sequence seconds before host
normalization, read from the run's result file) and its whole-process
wall time; and per workload and metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) /
median, beside the metric's bound.  The raw times get the same summary,
and ``speed_factor`` is the median over runs of normalized / raw
``run_s``.  FILE also records the environment (git SHA, versions, CPU
count).  Exits 1 when a run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def spread(values: list[float], bound: float | None = None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="summary file to write")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import run

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    summary = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            start = time.perf_counter()
            proc = subprocess.run(spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads(run.result_file(workload, seed, 0).read_text(encoding="utf-8"))
            ok &= result["correct"]
            runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "wall": detail["wall"]})
            print(f"{workload} seed {seed}: {wall:.1f} s, correct {result['correct']}",
                  flush=True)
        entry = {"metrics": {}, "wall": {}, "runs": runs}
        if len(runs) >= 2:
            for name, bound in bounds.items():
                entry["metrics"][name] = spread([r["metrics"][name] for r in runs], bound)
                print(f"  {name:>15} median {entry['metrics'][name]['median']:12.6g}"
                      f"  spread {entry['metrics'][name]['spread']:.4f}  bound {bound}")
            for name in runs[0]["wall"]:
                entry["wall"][name] = spread([r["wall"][name] for r in runs])
                print(f"  {name + ' wall':>15} median {entry['wall'][name]['median']:12.6g}"
                      f"  spread {entry['wall'][name]['spread']:.4f}")
            entry["speed_factor"] = statistics.median(
                r["metrics"]["run_s"] / r["wall"]["run_s"] for r in runs)
        summary["workloads"][workload] = entry

    summary["environment"] = run.environment()
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
