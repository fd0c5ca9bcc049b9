"""The certificate writers as they were before the entry list was written
from the report's columns, kept as the byte oracle for
``certificate_document`` and ``canonical_json``.

``reference_certificate_document`` builds one dict per entry;
``reference_canonical_json`` is the writer as it was before the document
builders tagged their own infinities: a recursive walk that tags every
infinity and converts numpy scalars, then one ``json.dumps``.
"""

import json
import math

import numpy as np

from cmnverify.network import entry_failures
from cmnverify.specio import FORMAT_VERSION, TOOL_NAME


def reference_canonical_json(doc) -> str:
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        if isinstance(obj, float) and math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        return obj

    return json.dumps(clean(doc), sort_keys=True, separators=(",", ":"), allow_nan=False)


def _tag(x):
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return x


def reference_certificate_document(report, digest: str, tool_version: str,
                                   extras: dict | None = None) -> dict:
    """The certificate payload with one object per entry, read from the
    columns of ``report.entries``; an entry's degree, margins and radius
    only when it passes."""
    table, binding = report.entries, report.binding_entry()
    entries = []
    for i, j, verdict, slack, tau, degree, unstable, stable, eps in zip(
            *(column.tolist() for column in (
                table.source, table.target, table.verdict, table.slack, table.tau,
                table.degree, table.unstable_margin, table.stable_margin,
                table.admissible_eps))):
        entry = {"i": i, "j": j, "verdict": verdict, "tau": None, "slack": _tag(slack),
                 "failures": list(entry_failures(verdict, slack))}
        if verdict == "pass":
            entry.update(tau=tau, degree=degree, unstable_margin=_tag(unstable),
                         stable_margin=_tag(stable), admissible_eps=_tag(eps))
        entries.append(entry)
    doc = {
        "format_version": FORMAT_VERSION,
        "tool": {"name": TOOL_NAME, "version": tool_version},
        "spec_digest": digest,
        "theorem": report.theorem,
        "verdict": report.verdict,
        "global_eps": _tag(report.global_eps),
        "entropy_bound": _tag(report.entropy_bound),
        "period": report.period,
        "binding_entry": {"i": table.source[binding].tolist(),
                          "j": table.target[binding].tolist(),
                          "slack": _tag(table.slack[binding].item())},
        "entries": entries,
    }
    if extras:
        doc.update(extras)
    return doc


def reference_certificate(report, digest: str = "digest", tool_version: str = "0",
                          extras: dict | None = None) -> str:
    """The certificate text the old writers give for ``report``."""
    return reference_canonical_json(
        reference_certificate_document(report, digest, tool_version, extras))
