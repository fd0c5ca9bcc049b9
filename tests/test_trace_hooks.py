"""The benchmark's trace wrappers still bind to the names the program calls.

``bench/spans.py`` patches functions where the package looks them up
(``cmnverify.cli``, ``cmnverify.network``, ...).  A rename, or a call that
stops going through the module globals, would leave a wrapper unpatched or
never called, and the benchmark's per-layer metrics would silently read 0.
This test loads ``spans.py`` without writing anything next to it, traces
one ``verify`` of a 729-entry ring and restores every patch.
"""

import importlib.util
import json
import sys
import time
from pathlib import Path

import scipy.optimize
from scipy.stats import qmc

from cmnverify import cli, geometry, network, serialize_spec
from test_checker_equivalence import _golden_ring

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
# every owner the trace plan patches an attribute of
OWNERS = (cli, network, geometry, scipy.optimize, qmc.Halton)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are created
    sys.modules[spec.name] = module
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
        del sys.modules[spec.name]
    return module


def _put_back(saved):
    """Undo every change to the owners' attributes since ``saved``."""
    for owner, before in zip(OWNERS, saved):
        for name in set(vars(owner)) - set(before):
            delattr(owner, name)
        for name, value in before.items():
            if vars(owner).get(name) is not value:
                setattr(owner, name, value)


def test_trace_plan_binds_and_counts(tmp_path):
    spans = _load_spans()
    spec = tmp_path / "ring.json"
    spec.write_text(json.dumps(serialize_spec(_golden_ring(6, 0.02, unified=True))))
    out = tmp_path / "cert.json"

    saved = [dict(vars(owner)) for owner in OWNERS]
    tracer = spans.Tracer(time.perf_counter)
    try:
        # install looks up every plan name on its owner, so it raises when
        # one is gone
        restore = tracer.install()
        try:
            patched = [(name, value, before[name])
                       for owner, before in zip(OWNERS, saved)
                       for name, value in vars(owner).items()
                       if name in before and value is not before[name]]
            tracer.command = 0
            root = tracer.open("cli.verify")
            code = cli.main(["verify", str(spec), "--out", str(out)])
            tracer.close(root)
        finally:
            restore()
        assert all(vars(owner).get(name) is value
                   for owner, before in zip(OWNERS, saved) for name, value in before.items())
    finally:
        _put_back(saved)

    assert code == 0
    assert patched and all(value.__wrapped__ is original for _, value, original in patched)
    names = {name for name, _, _ in patched}
    assert {"persistence_bound", "canonical_json", "theorem2_check", "tau_search"} <= names

    cert = json.loads(out.read_text())
    passing = sum(e["verdict"] == "pass" for e in cert["entries"])
    assert passing == len(cert["entries"]) == 729
    calls = [s for s in tracer.spans if s.name == "covering.persistence_bound"]
    assert len(calls) == passing
    (written,) = [s for s in tracer.spans if s.name == "specio.canonical_json"]
    assert written.info == out.stat().st_size - 1

    layers = spans.layer_metrics(tracer.spans, ["verify"])
    assert layers["covering.persistence_bound.calls"] == passing
    assert layers["specio.cert_bytes"] == out.stat().st_size - 1
    assert layers["network.entries"] == 729
    assert layers["network.tau_search.calls"] >= 1
