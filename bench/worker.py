"""One benchmark process: set-up, then the workload's command sequence.

Run by ``run.py`` in a fresh interpreter, with the workload's directory
(holding ``plan.json`` and the generated specs) as working directory:

    python3 bench/worker.py setup
    python3 bench/worker.py run SECONDS TRACE SPANS_FILE

``setup`` times ``import cmnverify``, ``load_spec`` + ``validate_spec`` of
every spec of the workload and one warm-up command, then exits.  ``run``
does the same set-up, then repeats the command sequence, each command
through ``cmnverify.cli.main(argv)`` in this process, until SECONDS have
passed (at least ``MIN_REPS`` sequences).  With TRACE 1 every untraced
sequence is followed by a traced one.  All timings are taken with
``probe.Probe`` (wall and host-normalized seconds).  The result is one
JSON object on the last line of stdout.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from probe import Probe  # noqa: E402  (imports numpy, as cmnverify would)

MIN_REPS = 3


def call_main(cli, argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def setup(plan: dict, timing: Probe) -> dict:
    """Finish the set-up that ``timing`` has timed so far; check the warm-up."""
    import cmnverify
    from cmnverify import cli
    from check import check, observe

    bad = []
    for name in plan["specs"]:
        report = cmnverify.validate_spec(cmnverify.load_spec(name))
        if not report.ok:
            bad.append(f"{name}: invalid: {'; '.join(report.errors)}")
    warm = plan["warmup"]
    code, stdout = call_main(cli, warm["argv"])
    timing.stop()
    bad += check(warm, observe(warm, code, stdout, Path.cwd()))
    return {"setup_s": timing.wall, "setup_norm_s": timing.normalized,
            "setup_failures": bad, "setup_failed": int(bool(bad))}


def sequence(cli, plan: dict, tracer=None) -> dict:
    """One pass over the command sequence, with checks after each command.

    With a tracer, each command gets a root span ``cli.<verb>``; its spans
    include the probe's interruptions, about 2 % of wall time.
    """
    from check import check, observe, recordable

    gc.collect()
    wall, norm = [], []
    cert_bytes = failed = 0
    failures: list[str] = []
    observed = {}
    for cid, cmd in enumerate(plan["commands"]):
        if tracer is not None:
            tracer.command = cid
            idx = tracer.open(f"cli.{cmd['verb']}")
        with Probe() as timing:
            code, stdout = call_main(cli, cmd["argv"])
        if tracer is not None:
            tracer.close(idx)
        wall.append(timing.wall)
        norm.append(timing.normalized)
        obs = observe(cmd, code, stdout, Path.cwd())
        if cmd["verb"] == "verify":
            cert_bytes += obs.get("bytes", 0)
        bad = check(cmd, obs)
        failures += bad
        failed += bool(bad)
        observed[cmd["label"]] = recordable(cmd, obs)
    return {"wall_s": wall, "norm_s": norm, "cert_bytes": cert_bytes,
            "attempted": len(plan["commands"]), "failed": failed, "failures": failures,
            "observed": observed}


def traced_sequence(cli, plan: dict):
    """A sequence with every boundary wrapped; returns the rep and its spans."""
    from spans import Tracer, layer_metrics

    tracer = Tracer(time.perf_counter)
    restore = tracer.install()
    try:
        rep = sequence(cli, plan, tracer)
    finally:
        restore()
    rep["layers"] = layer_metrics(tracer.spans, [cmd["verb"] for cmd in plan["commands"]])
    return rep, tracer.spans


def run(plan: dict, timing: Probe, seconds: float, trace: bool, spans_file: str) -> dict:
    from cmnverify import cli

    result = setup(plan, timing)
    result.update(reps=[], traced=[])
    start = time.perf_counter()
    longest = 0.0
    while len(result["reps"]) < MIN_REPS or time.perf_counter() - start + longest <= seconds:
        t = time.perf_counter()
        result["reps"].append(sequence(cli, plan))
        if trace:
            rep, spans = traced_sequence(cli, plan)
            result["traced"].append(rep)
        longest = max(longest, time.perf_counter() - t)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        write_spans(spans, spans_file)
    return result


def write_spans(spans, path: str) -> None:
    """The last traced sequence's spans, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "command": s.command,
                                 "info": s.info}) + "\n")


def main() -> int:
    timing = Probe().start(since=T0)
    plan = json.loads(Path("plan.json").read_text(encoding="utf-8"))
    if sys.argv[1] == "setup":
        out = setup(plan, timing)
    else:
        out = run(plan, timing, float(sys.argv[2]), sys.argv[3] == "1", sys.argv[4])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
