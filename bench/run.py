"""Benchmark: time to a certificate through the ``cmnverify`` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Generates the workload's specs
from the seed (``workloads.py``), then starts fresh interpreters
(``worker.py``), one at a time: ``SETUP_SAMPLES`` that only time set-up,
and one that times set-up and then repeats the command sequence for S
seconds.  Every command's output is checked against its expectation.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the worker alternates untraced and traced sequences and
the last line reports the per-layer metrics (``spans.py``) and the
tracing overhead.  Metric names and units come from BENCHMARK.json.  A
fuller result file, with versions, CPU count, git SHA, seed and the raw
wall times beside the host-normalized ones, is written to ``bench/out/``.  ``--record`` stores the
seed-specific values of this run in ``bench/expected/seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 4          # set-up-only interpreters, after one discarded warm one
CHILD_TIMEOUT_S = 150


def metric_units(group: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[group]}


def result_file(workload: str, seed: int, trace: int) -> Path:
    """The fuller result file of one run."""
    return BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(), "platform": platform.platform()}


def child(workdir: Path, *args: str) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          cwd=workdir, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def recorded_file(seed: int) -> Path:
    return BENCH / "expected" / f"seed{seed}.json"


def attach_recorded(plan: dict) -> None:
    path = recorded_file(plan["seed"])
    if not path.is_file():
        return
    rec = json.loads(path.read_text(encoding="utf-8")).get(plan["workload"], {})
    for cmd in plan["commands"]:
        cmd["recorded"] = rec.get(cmd["label"], {})


def per_command(reps: list[dict], key: str) -> list[float]:
    """Per command: the median over sequences of its time under ``key``."""
    return [median(col) for col in zip(*(rep[key] for rep in reps))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's observed values as the recorded ones")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cmnverify" / "__init__.py").is_file():
        print(f"error: no cmnverify sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    units = metric_units("per_layer" if args.trace else "end_to_end")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = BENCH / "out"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    try:
        plan = workloads.build(args.workload, args.seed, workdir)
        if not args.record:
            attach_recorded(plan)
        (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

        child(workdir, "setup")  # discarded: byte-compiles and warms the file cache
        setups = [child(workdir, "setup") for _ in range(SETUP_SAMPLES)]
        out_file = result_file(args.workload, args.seed, args.trace)
        spans_file = out_file.with_suffix(".spans.jsonl")
        run = child(workdir, "run", str(args.seconds), str(args.trace), str(spans_file))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups.append({k: run[k] for k in ("setup_s", "setup_norm_s", "setup_failures",
                                       "setup_failed")})
    reps = run["reps"] + run["traced"]
    failures = [f for s in setups for f in s["setup_failures"]]
    failures += [f for rep in reps for f in rep["failures"]]
    attempted = len(setups) + sum(rep["attempted"] for rep in reps)
    failed = sum(s["setup_failed"] for s in setups) + sum(rep["failed"] for rep in reps)

    work = [cmd["verb"] in ("verify", "margin") for cmd in plan["commands"]]
    entries = sum(cmd["entries"] for cmd, w in zip(plan["commands"], work) if w)
    norm = per_command(run["reps"], "norm_s")
    wall = {"setup_s": median([s["setup_s"] for s in setups]),
            "run_s": sum(per_command(run["reps"], "wall_s"))}
    e2e = {
        "setup_s": median([s["setup_norm_s"] for s in setups]),
        "run_s": sum(norm),
        "entries_per_s": entries / sum(n for n, w in zip(norm, work) if w),
        "cert_kib": median([r["cert_bytes"] for r in run["reps"]]) / 1024.0,
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "ops_correct": (attempted - failed) / attempted,
    }
    layers = {}
    if args.trace:
        names = run["traced"][0]["layers"].keys()
        layers = {k: median([r["layers"][k] for r in run["traced"]]) for k in names}
        layers["trace.overhead"] = sum(per_command(run["traced"], "norm_s")) / e2e["run_s"]

    result = {"workload": args.workload, "environment": environment(), "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "sequences": len(run["reps"]), "traced_sequences": len(run["traced"]),
              "wall": wall,
              "setup_wall_s": [s["setup_s"] for s in setups],
              "setup_norm_s": [s["setup_norm_s"] for s in setups],
              "command_wall_s": [r["wall_s"] for r in run["reps"]],
              "command_norm_s": [r["norm_s"] for r in run["reps"]],
              "end_to_end": e2e, "per_layer": layers,
              "attempted": attempted, "failed": failed, "failures": failures[:50]}
    out_file.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for f in failures[:20]:
        print(f"FAILED {f}")
    for k, v in e2e.items():
        print(f"{k:>40} {v:14.6g}")
    for k, v in wall.items():
        print(f"{k + ' (wall)':>40} {v:14.6g}")
    for k, v in layers.items():
        print(f"{k:>40} {v:14.6g}")

    if args.record:
        path = recorded_file(args.seed)
        doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        doc[args.workload] = {k: v for k, v in run["reps"][0]["observed"].items() if v}
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {args.workload} seed {args.seed} in {path.relative_to(ROOT)}")

    values = layers if args.trace else e2e
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
