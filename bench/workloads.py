"""The four workloads: generated inputs, command sequences, expectations.

``build(name, seed, workdir)`` writes the workload's spec files into
``workdir`` and returns its plan: the specs that set-up loads and
validates, one warm-up command, and the timed command sequence.  Each
command carries the argv passed to ``cmnverify.cli.main`` (paths relative
to ``workdir``) and the expectations that hold for any seed.  Every random
choice comes from ``numpy.random.default_rng(seed)``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import gen

WORKLOADS = ("ring_pass", "ring_fail", "box_u3", "paper_cli")

EMPIRICAL_DEPTH = 12
EMPIRICAL_SAMPLES = 100_000
SIMULATE_STEPS = 200


def _doc(workdir: Path, name: str) -> dict:
    return json.loads((workdir / name).read_text(encoding="utf-8"))


def verify(workdir: Path, spec: str, *, verdict: str, theorem: int,
           extra: tuple[str, ...] = (), mixed: bool = False) -> dict:
    """``verify`` with the oracles that follow from the spec document.

    ``mixed``: the generator guarantees both passing and failing entries.
    """
    doc = _doc(workdir, spec)
    stem = spec.removesuffix(".json")
    exp = {"exit": 0 if verdict == "pass" else 1, "verdict": verdict,
           "theorem": theorem, "entries": gen.entry_count(doc)}
    if mixed:
        exp["mixed"] = True
    if theorem == 2:
        exp["entropy_bound"] = gen.entropy_oracle(doc) if verdict == "pass" else None
    if theorem == 1 and verdict == "pass":
        exp["period"] = gen.period_oracle(doc)
        exp["orbit_period"] = gen.loop_oracle(doc)
        exp["orbit_residual_max"] = 1e-9
    out = f"{stem}.cert.json"
    return {"label": f"verify {stem}", "verb": "verify", "out": out,
            "argv": ["verify", spec, "--out", out, *extra], "expect": exp,
            "entries": exp["entries"]}


def margin(workdir: Path, spec: str, *, verdict: str) -> dict:
    doc = _doc(workdir, spec)
    stem = spec.removesuffix(".json")
    return {"label": f"margin {stem}", "verb": "margin", "argv": ["margin", spec],
            "expect": {"exit": 0 if verdict == "pass" else 1, "verdict": verdict},
            "entries": gen.entry_count(doc)}


def write_specs(workdir: Path, specs: dict) -> list[str]:
    for name, spec in specs.items():
        gen.write_spec(spec, workdir / name)
    return list(specs)


def _ring(seed: int, workdir: Path, passing: bool) -> dict:
    rng = np.random.default_rng(seed)
    alpha_t2, alpha_t1 = (0.02, 0.02) if passing else (0.04, 0.06)
    verdict = "pass" if passing else "fail"
    specs = write_specs(workdir, {
        "ring7.json": gen.golden_ring(rng, 7, alpha_t2),
        "perm6.json": gen.permutation_ring(rng, 6, alpha_t1),
        "warm.json": gen.golden_ring(rng, 1, 0.0),
    })
    return {"specs": specs,
            "warmup": verify(workdir, "warm.json", verdict="pass", theorem=2),
            "commands": [verify(workdir, "ring7.json", verdict=verdict, theorem=2,
                                mixed=not passing),
                         verify(workdir, "perm6.json", verdict=verdict, theorem=1,
                                mixed=not passing)]}


def _box(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    specs = write_specs(workdir, {
        "box3.json": gen.golden_ring(rng, 3, 0.01, u=3, s=1),
        "box4.json": gen.golden_ring(rng, 4, 0.01, u=3, s=1, declared=True),
        "warm.json": gen.golden_ring(rng, 1, 0.0, u=3, s=1, declared=True),
    })
    return {"specs": specs,
            "warmup": verify(workdir, "warm.json", verdict="pass", theorem=2),
            "commands": [verify(workdir, "box3.json", verdict="inconclusive", theorem=2,
                                extra=("--grid", "256")),
                         verify(workdir, "box4.json", verdict="pass", theorem=2)]}


# verdicts of the paper's worked networks, as shipped
PAPER = {"example1.json": ("pass", 2), "example1_alpha_0.2.json": ("fail", 2),
         "example2.json": ("pass", 2), "example1_node1.json": ("pass", 2),
         "theorem1_perm23.json": ("pass", 1)}


def _paper(seed: int, workdir: Path) -> dict:
    from cmnverify.fixtures import write_fixture_files

    write_fixture_files(workdir)
    s = str(seed)
    cmds = [verify(workdir, f, verdict=v, theorem=t, extra=("--seed", s))
            for f, (v, t) in PAPER.items()]
    cmds += [margin(workdir, f, verdict=v) for f, (v, _) in PAPER.items()]

    perm = _doc(workdir, "theorem1_perm23.json")
    cmds.append({"label": "periodic theorem1_perm23", "verb": "periodic",
                 "out": "perm23.orbit.json",
                 "argv": ["periodic", "theorem1_perm23.json", "--auto",
                          "--out", "perm23.orbit.json"],
                 "expect": {"exit": 0, "period": gen.loop_oracle(perm)}})

    ex1 = _doc(workdir, "example1.json")
    cmds.append({"label": "entropy example1", "verb": "entropy",
                 "argv": ["entropy", "example1.json", "--empirical",
                          str(EMPIRICAL_DEPTH), str(EMPIRICAL_SAMPLES), s],
                 "expect": {"exit": 0, "bound": gen.entropy_oracle(ex1),
                            "empirical_max": math.log(gen.word_count(ex1, EMPIRICAL_DEPTH))
                            / (EMPIRICAL_DEPTH - 1)}})
    for f in PAPER:
        stem = f.removesuffix(".json")
        out = f"{stem}.traj.jsonl"
        cmds.append({"label": f"simulate {stem}", "verb": "simulate", "out": out,
                     "argv": ["simulate", f, "--steps", str(SIMULATE_STEPS),
                              "--seed", s, "--out", out],
                     "expect": {"exit": 0, "lines": SIMULATE_STEPS + 1, "finite": True}})

    node1 = _doc(workdir, "example1_node1.json")
    warm = {"label": "entropy example1_node1", "verb": "entropy",
            "argv": ["entropy", "example1_node1.json", "--empirical", "3", "64", s],
            "expect": {"exit": 0, "bound": gen.entropy_oracle(node1),
                       "empirical_max": math.log(gen.word_count(node1, 3)) / 2}}
    return {"specs": list(PAPER), "warmup": warm, "commands": cmds}


def build(name: str, seed: int, workdir: Path) -> dict:
    """Write the workload's inputs into ``workdir`` and return its plan."""
    if name == "ring_pass":
        plan = _ring(seed, workdir, passing=True)
    elif name == "ring_fail":
        plan = _ring(seed, workdir, passing=False)
    elif name == "box_u3":
        plan = _box(seed, workdir)
    elif name == "paper_cli":
        plan = _paper(seed, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    plan.update(workload=name, seed=seed)
    return plan
