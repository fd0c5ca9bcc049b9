"""Expected-output checks behind ``ops_failed``.

``observe`` reads what one CLI command produced (exit code, captured
stdout, the document it wrote) into a flat dict.  ``check`` compares that
dict against the command's expectations and returns one message per
mismatch; an empty list means the command counts as correct.

Two kinds of expectation exist.  ``expect`` holds values that follow from
the generated network for any seed (exit code, verdict, entry count,
a mix of passing and failing entries, entropy bound, period, the
empirical-entropy ceiling).  ``recorded`` holds
values taken from one recorded seed (eps*, binding slack, the empirical
estimate, the certificate SHA-256); the SHA-256 is compared only while the
certificate's ``format_version`` equals the recorded one.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

ENTROPY_TOL = 1e-9        # certificate entropy bound against the eigenvalue oracle
PRINTED_TOL = 1e-6        # values printed with six decimals
RECORDED_REL_TOL = 1e-9   # recorded floats: same network, same arithmetic


def observe(cmd: dict, code: int, stdout: str, workdir: Path) -> dict:
    """Everything the checks need from one finished command."""
    verb = cmd["verb"]
    obs: dict = {"exit": code}
    out = cmd.get("out")
    raw = (workdir / out).read_bytes() if out and (workdir / out).is_file() else None
    if raw is not None:
        obs["bytes"] = len(raw)
        obs["sha256"] = hashlib.sha256(raw).hexdigest()
    if verb == "verify" and raw is not None:
        doc = json.loads(raw)
        obs.update(format_version=doc.get("format_version"), verdict=doc.get("verdict"),
                   theorem=doc.get("theorem"), entries=len(doc.get("entries", [])),
                   passed=sum(e.get("verdict") == "pass" for e in doc.get("entries", [])),
                   entropy_bound=doc.get("entropy_bound"), period=doc.get("period"),
                   global_eps=doc.get("global_eps"),
                   binding_slack=(doc.get("binding_entry") or {}).get("slack"))
        orbits = doc.get("periodic_orbits")
        if orbits:
            obs["orbit_period"] = orbits[0].get("period")
            obs["orbit_residual"] = orbits[0].get("residual")
    elif verb == "margin":
        m = re.search(r"^eps\* (\S+)$", stdout, re.M)
        if m:
            obs["verdict"] = "pass"
            obs["eps"] = float(m.group(1))
        m = re.search(r"^certification fails: verdict (\w+)", stdout, re.M)
        if m:
            obs["verdict"] = m.group(1)
        m = re.search(r"\(slack (\S+)\)", stdout)
        if m:
            obs["binding_slack"] = float(m.group(1))
    elif verb == "periodic" and raw is not None:
        doc = json.loads(raw)
        obs.update(period=doc.get("period"), orbit_residual=doc.get("residual"),
                   min_margin=min(doc.get("interior_margins") or [-1.0]))
    elif verb == "entropy":
        for key in ("bound", "empirical"):
            m = re.search(rf"^{key} (\S+)$", stdout, re.M)
            if m:
                obs[key] = float(m.group(1))
    elif verb == "simulate" and raw is not None:
        lines = raw.decode("utf-8").splitlines()
        obs["lines"] = len(lines)
        obs["finite"] = all(math.isfinite(v) for line in lines
                            for v in json.loads(line)["state"])
    return obs


def _close(got, want, rel: float, abs_: float = 0.0) -> bool:
    if got is None or want is None:
        return got is want
    return math.isclose(float(got), float(want), rel_tol=rel, abs_tol=abs_)


def check(cmd: dict, obs: dict) -> list[str]:
    """Mismatches between one command's observations and its expectations."""
    exp = cmd["expect"]
    bad: list[str] = []

    def need(ok: bool, what: str):
        if not ok:
            bad.append(f"{cmd['label']}: {what}")

    need(obs.get("exit") == exp["exit"], f"exit {obs.get('exit')} != {exp['exit']}")
    for key in ("verdict", "theorem", "entries", "period", "orbit_period", "lines"):
        if key in exp:
            need(obs.get(key) == exp[key], f"{key} {obs.get(key)!r} != {exp[key]!r}")
    if exp.get("mixed"):
        need(0 < obs.get("passed", 0) < obs.get("entries", 0),
             f"{obs.get('passed')!r} of {obs.get('entries')!r} entries pass; expected mixed "
             "verdicts")
    if "entropy_bound" in exp:
        need(_close(obs.get("entropy_bound"), exp["entropy_bound"], 0.0, ENTROPY_TOL),
             f"entropy bound {obs.get('entropy_bound')!r} != {exp['entropy_bound']!r}")
    if "orbit_residual_max" in exp:
        res = obs.get("orbit_residual")
        need(res is not None and res <= exp["orbit_residual_max"],
             f"orbit residual {res!r} above {exp['orbit_residual_max']}")
    if cmd["verb"] == "periodic":
        need(obs.get("min_margin", -1.0) > 0.0, "orbit touches an h-set boundary")
    if "bound" in exp:
        need(_close(obs.get("bound"), exp["bound"], 0.0, PRINTED_TOL),
             f"entropy bound {obs.get('bound')!r} != {exp['bound']!r}")
    if "empirical_max" in exp:
        est = obs.get("empirical")
        need(est is not None and 0.0 < est <= exp["empirical_max"] + PRINTED_TOL,
             f"empirical estimate {est!r} outside (0, {exp['empirical_max']:.6f}]")
    if "finite" in exp:
        need(obs.get("finite") is True, "trajectory has non-finite states")

    rec = cmd.get("recorded") or {}
    for key, want in rec.items():
        if key == "format_version":
            continue
        if key == "sha256":
            if obs.get("format_version") == rec.get("format_version"):
                need(obs.get("sha256") == want, "certificate SHA-256 differs from the "
                     "recorded one at the same format version")
            continue
        need(_close(obs.get(key), want, RECORDED_REL_TOL),
             f"{key} {obs.get(key)!r} != recorded {want!r}")
    return bad


RECORD_KEYS = {
    "verify": ("global_eps", "binding_slack", "sha256", "format_version"),
    "margin": ("eps", "binding_slack"),
    "entropy": ("empirical",),
}


def recordable(cmd: dict, obs: dict) -> dict:
    """The seed-specific values worth recording for this command."""
    return {k: obs[k] for k in RECORD_KEYS.get(cmd["verb"], ()) if obs.get(k) is not None}
