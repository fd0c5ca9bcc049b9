"""Span tracing at the package's module boundaries, from outside the package.

``Tracer.install`` replaces public functions with timing wrappers *where
they are looked up*: modules bind imported names at import time, so the
wrapper for ``min_stretch`` goes on ``cmnverify.network``, the one for
``theorem2_check`` on ``cmnverify.cli``, and ``linprog`` is patched on
``scipy.optimize`` because ``geometry`` imports it inside the function that
calls it.  ``geometry._face_points`` is wrapped too: it runs once per
face-grid ``min_stretch``, and the rows it returns are the grid points.
Nothing called once per d x d cell is wrapped.

Each span records name, start, end, parent span and the id of the CLI
command it belongs to, plus a small ``info`` value (a count or a flag).
Spans stay in memory; ``layer_metrics`` reduces one command sequence's
spans to the per-layer metrics.  A span's self time is its duration minus
the part of it that its direct children cover.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass

VERBS = ("verify", "margin", "periodic", "entropy", "simulate")
CHECKERS = ("network.theorem1_check", "network.theorem2_check")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: int | None
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# ``info`` summaries recorded on spans: (args, kwargs, result) -> value


def _entries(args, kwargs, report) -> int:
    return len(report.entries)


def _found(args, kwargs, tau) -> bool:
    return tau is not None


def _length(args, kwargs, text) -> int:
    return len(text)


def _rows(args, kwargs, points) -> int:
    return len(points)


def stretch_mode(span_idx: int, spans: list[Span], kids) -> str:
    """How a ``min_stretch`` call decided, from the child spans it opened:
    a face grid, per-face LPs, or neither (the exact 1-d evaluation)."""
    names = {c.name for c in kids.get(span_idx, [])}
    if "geometry.face_points" in names:
        return "grid"
    if "geometry.linprog" in names:
        return "lp"
    return "1d"


class Tracer:
    """Collects spans; ``install`` patches, the returned callable restores."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.command: int | None = None

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.command))
        self.stack.append(idx)
        return idx

    def close(self, idx: int, info=None) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        span.info = info
        self.stack.pop()

    def wrap(self, name, fn, info=None):
        """Wrapper recording one span per call.

        ``name`` is a string or ``name(args, kwargs)``; ``info(args, kwargs,
        result)`` summarizes the call.  An exception closes the span with
        info "raised" and propagates unchanged.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, "raised")
                raise
            self.close(idx, info(args, kwargs, result) if info else None)
            return result
        return traced

    # -- patching ------------------------------------------------------------------

    def install(self):
        """Patch every traced name; returns a function that undoes it."""
        import scipy.optimize
        from scipy.stats import qmc

        from cmnverify import cli, geometry, network

        plan = [
            (cli, "load_spec", "specio.load_spec", None),
            (cli, "certificate_document", "specio.certificate_document", None),
            (cli, "canonical_json", "specio.canonical_json", _length),
            (cli, "validate_spec", "network.validate_spec", None),
            (network, "validate_spec", "network.validate_spec", None),
            (cli, "theorem1_check", "network.theorem1_check", _entries),
            (cli, "theorem2_check", "network.theorem2_check", _entries),
            (network, "tau_search", "network.tau_search", _found),
            (cli, "conjugacy_audit", "network.conjugacy_audit", None),
            (network, "min_stretch", "geometry.min_stretch", None),
            (geometry, "_face_points", "geometry.face_points", _rows),
            (network, "max_stretch", "geometry.max_stretch", None),
            (network, "split_product", "geometry.split_product", None),
            (scipy.optimize, "linprog", "geometry.linprog", None),
            (network, "degree_for_map", "degree.degree_for_map", None),
            (network, "persistence_bound", "covering.persistence_bound", None),
            (network, "spectral_radius", "symbolic.spectral_radius", None),
            (cli, "spectral_radius", "symbolic.spectral_radius", None),
            (cli, "empirical_entropy", "dynamics.empirical_entropy", None),
            (qmc.Halton, "random", "dynamics.halton", None),
            (cli, "periodic_point", "dynamics.periodic_point", None),
            (cli, "step", "dynamics.step", None),
        ]
        undo = []
        for owner, attr, name, info in plan:
            undo.append((owner, attr, attr in vars(owner), getattr(owner, attr)))
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), info))

        def restore():
            for owner, attr, own, original in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)
        return restore


# ---------------------------------------------------------------------------
# reduction


def covered(parent: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals, clipped to the parent."""
    total = 0.0
    cur_lo = cur_hi = None
    for c in sorted(children, key=lambda s: s.start):
        lo, hi = max(c.start, parent.start), min(c.end, parent.end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_time(spans: list[Span], idx: int, kids=None) -> float:
    kids = children_of(spans) if kids is None else kids
    return spans[idx].duration - covered(spans[idx], kids.get(idx, []))


def layer_metrics(spans: list[Span], verbs: list[str]) -> dict[str, float]:
    """Per-layer metrics of one command sequence.

    ``verbs[i]`` is the verb of command id ``i``; root spans named
    ``cli.<verb>`` are recorded by the caller around ``cli.main``.
    """
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        secs[s.name] += s.duration
    kids = children_of(spans)

    m: dict[str, float] = {}
    for verb in VERBS:
        m[f"cli.{verb}.calls"] = calls[f"cli.{verb}"]
        m[f"cli.{verb}.s"] = secs[f"cli.{verb}"]

    m["specio.load_spec.s"] = secs["specio.load_spec"]
    m["specio.serialize.s"] = secs["specio.certificate_document"] + secs["specio.canonical_json"]
    m["specio.cert_bytes"] = sum(s.info for s in spans if s.name == "specio.canonical_json"
                                 and s.command is not None and verbs[s.command] == "verify")

    checker_idx = [i for i, s in enumerate(spans) if s.name in CHECKERS]
    checker_s = sum(spans[i].duration for i in checker_idx)
    entries = sum(spans[i].info for i in checker_idx if isinstance(spans[i].info, int))
    m["network.validate_spec.calls"] = calls["network.validate_spec"]
    m["network.validate_spec.s"] = secs["network.validate_spec"]
    m["network.theorem1_check.s"] = secs["network.theorem1_check"]
    m["network.theorem2_check.s"] = secs["network.theorem2_check"]
    m["network.checker.s"] = checker_s
    m["network.self_s"] = sum(self_time(spans, i, kids) for i in checker_idx)
    m["network.self_share"] = m["network.self_s"] / checker_s if checker_s else 0.0
    m["network.entries"] = entries
    taus = [s for s in spans if s.name == "network.tau_search"]
    m["network.tau_search.calls"] = len(taus)
    m["network.tau_search.s"] = secs["network.tau_search"]
    m["network.tau_search.found_ratio"] = (sum(1 for s in taus if s.info is True) / len(taus)
                                           if taus else 0.0)
    stretch_calls = calls["geometry.min_stretch"] + calls["geometry.max_stretch"]
    m["network.stretch_calls_per_entry"] = stretch_calls / entries if entries else 0.0
    m["network.conjugacy_audit.s"] = secs["network.conjugacy_audit"]

    for mode in ("1d", "lp", "grid"):
        m[f"geometry.min_stretch.{mode}.calls"] = 0
        m[f"geometry.min_stretch.{mode}.s"] = 0.0
    for i, s in enumerate(spans):
        if s.name == "geometry.min_stretch":
            mode = stretch_mode(i, spans, kids)
            m[f"geometry.min_stretch.{mode}.calls"] += 1
            m[f"geometry.min_stretch.{mode}.s"] += s.duration
    m["geometry.grid_points"] = sum(s.info for s in spans
                                    if s.name == "geometry.face_points")
    m["geometry.max_stretch.calls"] = calls["geometry.max_stretch"]
    m["geometry.max_stretch.s"] = secs["geometry.max_stretch"]
    m["geometry.linprog.calls"] = calls["geometry.linprog"]
    m["geometry.linprog.s"] = secs["geometry.linprog"]
    m["geometry.split_product.s"] = secs["geometry.split_product"]
    # outermost geometry spans inside a checker, as a share of checker time
    geo_in_checker = 0.0
    for i in checker_idx:
        geo_in_checker += sum(c.duration for c in kids.get(i, [])
                              if c.name.startswith("geometry."))
    m["geometry.checker_share"] = geo_in_checker / checker_s if checker_s else 0.0

    degs = [s for s in spans if s.name == "degree.degree_for_map"]
    m["degree.degree_for_map.calls"] = len(degs)
    m["degree.degree_for_map.s"] = secs["degree.degree_for_map"]
    m["degree.undefined_ratio"] = (sum(1 for s in degs if s.info == "raised") / len(degs)
                                   if degs else 0.0)

    m["covering.persistence_bound.calls"] = calls["covering.persistence_bound"]
    m["covering.persistence_bound.s"] = secs["covering.persistence_bound"]
    m["symbolic.spectral_radius.calls"] = calls["symbolic.spectral_radius"]
    m["symbolic.spectral_radius.s"] = secs["symbolic.spectral_radius"]

    m["dynamics.empirical_entropy.s"] = secs["dynamics.empirical_entropy"]
    m["dynamics.halton.s"] = secs["dynamics.halton"]
    m["dynamics.periodic_point.calls"] = calls["dynamics.periodic_point"]
    m["dynamics.periodic_point.s"] = secs["dynamics.periodic_point"]
    m["dynamics.step.calls"] = calls["dynamics.step"]
    m["dynamics.step.s"] = secs["dynamics.step"]
    return m
