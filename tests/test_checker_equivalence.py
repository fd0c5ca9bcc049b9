"""The vectorized entry loop of the checkers against the per-entry reference.

The reference below evaluates every Kronecker entry on its own, with
stretch and degree tables cached under keys rounded to 15 digits.  It calls
``min_stretch``, ``max_stretch``, ``degree_for_map``, ``tau_search`` and
``persistence_bound`` through ``cmnverify.network`` so that both sides run
the same counted functions.  The checkers must produce byte-identical
certificate documents, with no more geometry or degree calls.

With ``membership=True`` the reference first asks whether the target lies
in the image of the scaled unstable factor (an interval range for one
unstable dimension, a linear solve for an affine factor) and drops a cell
whose answer is "out" before its degree is read.  The checkers decide every
cell by its degree alone; that filter is kept here as an oracle that must
change no certificate.
"""

import itertools
import math
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

from cmnverify import (AffineChart, CenterScale, CouplingSpec, Graph, HSet, NetworkSpec,
                       NodeSystem, PiecewiseAffineMap, TransitionMatrix, UnifiedSet,
                       canonical_json, certificate_document, fixtures, theorem1_check,
                       theorem2_check)
from cmnverify import geometry
from cmnverify import network as nw
from cmnverify.covering import STRICT_MARGIN, CoveringCertificate
from cmnverify.degree import DegreeUndefinedError, DegreeValue
from cmnverify.geometry import GeometryError
from conftest import random_transition_matrix
from covering_reference import assert_same_outcome, count_batches, reference_check_covering
from test_cell_geometry import _box_spec
from test_network import _planar_fixed_pair, _planar_golden_pair, _sawtooth_spec
from test_properties import designed_node


class _ReferenceTables:
    """Per-node stretch/degree tables shared across Kronecker entries."""

    def __init__(self, spec, forms, resolution):
        self.forms = forms
        self.resolution = resolution
        self.u = spec.nodes[0].dim_u
        self.s = spec.nodes[0].dim_s
        self._umax: dict = {}
        self._vmax0: dict = {}
        self._min: dict = {}
        self._vdiag: dict = {}
        self._deg: dict = {}
        self._rng1d: dict = {}

    def umax(self, node, key):
        k = (node, key)
        if k not in self._umax:
            self._umax[k] = nw.max_stretch(self.forms[node][key].U,
                                           np.zeros(self.u)).max_abs
        return self._umax[k]

    def vmax0(self, node, key):
        k = (node, key)
        if k not in self._vmax0:
            V = self.forms[node][key].V
            self._vmax0[k] = 0.0 if V is None else nw.max_stretch(V, np.zeros(self.s)).max_abs
        return self._vmax0[k]

    def min_bounds(self, node, key, a, ref):
        k = (node, key, round(a, 15), tuple(np.round(ref, 15)))
        if k not in self._min:
            scaled = self.forms[node][key].U.scale(a)
            self._min[k] = nw.min_stretch(scaled, ref, resolution=self.resolution)
        return self._min[k]

    def vdiag(self, node, key, a, ref):
        k = (node, key, round(a, 15), tuple(np.round(ref, 15)))
        if k not in self._vdiag:
            V = self.forms[node][key].V
            self._vdiag[k] = 0.0 if V is None else nw.max_stretch(V.scale(a), ref).max_abs
        return self._vdiag[k]

    def degree(self, node, key, a, ref):
        k = (node, key, round(a, 15), tuple(np.round(ref, 15)))
        if k not in self._deg:
            scaled = self.forms[node][key].U.scale(a)
            try:
                self._deg[k] = nw.degree_for_map(scaled, ref)
            except (DegreeUndefinedError, GeometryError):
                self._deg[k] = None
        return self._deg[k]

    def image_1d(self, node, key, a):
        k = (node, key, round(a, 15))
        if k not in self._rng1d:
            self._rng1d[k] = self.forms[node][key].U.scale(a).range_1d()
        return self._rng1d[k]

    def membership(self, node, key, a, ref, inflation):
        U = self.forms[node][key].U
        if self.u == 1:
            lo, hi = self.image_1d(node, key, a)
            p = float(ref[0])
            if lo + inflation + STRICT_MARGIN < p < hi - inflation - STRICT_MARGIN:
                return "in"
            if p < lo - STRICT_MARGIN or p > hi + STRICT_MARGIN:
                return "out"
            return "unknown"
        if U.is_affine and inflation == 0.0:
            piece = U.pieces[0]
            lin = a * piece.matrix
            if abs(np.linalg.det(lin)) < 1e-12:
                return "unknown"
            pre = np.linalg.solve(lin, ref - a * piece.offset)
            extent = float(np.max(np.abs(pre)))
            if extent < 1.0 - STRICT_MARGIN:
                return "in"
            if extent > 1.0 + STRICT_MARGIN:
                return "out"
            return "unknown"
        mb = self.min_bounds(node, key, a, ref)
        if mb.min_rel > inflation:
            deg = self.degree(node, key, a, ref)
            if deg is not None and deg.value != 0:
                return "in"
        return "unknown"


class _Entry(NamedTuple):
    """The reference's outcome for one Kronecker entry."""

    source: tuple[int, ...]
    target: tuple[int, ...]
    tau: tuple[int, ...] | None
    certificate: CoveringCertificate | None
    verdict: str
    slack: float
    failures: tuple[str, ...]


def _pack(entries):
    """The reference's entries as the checkers' table, whose notes, read
    from verdict and slack, must be the reference's own."""
    for e in entries:
        assert nw.entry_failures(e.verdict, e.slack) == e.failures

    def column(read, absent):
        return np.array([absent if e.certificate is None else read(e.certificate)
                         for e in entries])
    return nw.EntryTable(
        np.array([e.source for e in entries]), np.array([e.target for e in entries]),
        np.array([e.verdict for e in entries]), np.array([e.slack for e in entries]),
        np.array([e.tau or (0,) * len(e.source) for e in entries]),
        column(lambda c: c.degree.value, 0), column(lambda c: c.unstable_margin, math.nan),
        column(lambda c: c.stable_margin, math.nan), column(lambda c: c.admissible_eps, math.nan))


def _matrix_for(spec, i_idx, j_idx):
    """The entry's own ``per_entry`` matrix, found by a linear scan, or the
    shared one."""
    for pi, pj, m in spec.coupling.per_entry or ():
        if tuple(pi) == tuple(i_idx) and tuple(pj) == tuple(j_idx):
            return np.asarray(m, dtype=float)
    return spec.coupling.matrix


def _reference_entry(spec, tables, i_idx, j_idx, form_key, refs_u, refs_s, radii,
                     chart_lip, inflation, need_membership):
    """The coupled row inequalities of one Kronecker entry."""
    d = spec.d
    a = _matrix_for(spec, i_idx, j_idx)

    s_u = [sum(abs(a[k, l]) * tables.umax(l, form_key(l)) for l in range(d))
           for k in range(d)]
    s_v = [sum(abs(a[k, l]) * tables.vmax0(l, form_key(l)) for l in range(d))
           for k in range(d)]

    feas_sure = np.zeros((d, d), dtype=bool)
    feas_maybe = np.zeros((d, d), dtype=bool)
    slack = np.full((d, d), -np.inf)
    for k in range(d):
        for m in range(d):
            key = form_key(m)
            off_u = s_u[k] - abs(a[k, m]) * tables.umax(m, key)
            mb = tables.min_bounds(m, key, a[k, m], refs_u[k])
            margin_lo = mb.min_rel - off_u - 1.0
            margin_hi = mb.min_attained - off_u - 1.0
            if tables.s > 0:
                off_v = s_v[k] - abs(a[k, m]) * tables.vmax0(m, key)
                vterm = tables.vdiag(m, key, a[k, m], refs_s[k])
                margin_s = radii[k] - (vterm + off_v)
            else:
                margin_s = math.inf
            slack[k, m] = min(margin_lo, margin_s) - inflation

            ok_u_sure = margin_lo > STRICT_MARGIN + inflation
            ok_u_maybe = margin_hi > STRICT_MARGIN + inflation
            ok_s = margin_s > STRICT_MARGIN + inflation

            memb = "in"
            if need_membership and (ok_u_sure or ok_u_maybe) and ok_s:
                memb = tables.membership(m, key, a[k, m], refs_u[k], inflation)

            deg_ok_sure = deg_ok_maybe = True
            if (ok_u_sure or ok_u_maybe) and ok_s and memb != "out":
                deg = tables.degree(m, key, a[k, m], refs_u[k]) if mb.min_rel > 0 else None
                if deg is None:
                    deg_ok_sure = False
                elif deg.value == 0:
                    deg_ok_sure = deg_ok_maybe = False

            feas_sure[k, m] = ok_u_sure and ok_s and memb == "in" and deg_ok_sure
            feas_maybe[k, m] = ok_u_maybe and ok_s and memb != "out" and deg_ok_maybe

    tau = nw.tau_search(feas_sure)
    if tau is not None:
        row_u, row_s, degs = [], [], []
        for k in range(d):
            m = tau[k] - 1
            key = form_key(m)
            mb = tables.min_bounds(m, key, a[k, m], refs_u[k])
            off_u = s_u[k] - abs(a[k, m]) * tables.umax(m, key)
            row_u.append(mb.min_rel - off_u - 1.0)
            if tables.s > 0:
                off_v = s_v[k] - abs(a[k, m]) * tables.vmax0(m, key)
                row_s.append(radii[k] - (tables.vdiag(m, key, a[k, m], refs_s[k]) + off_v))
            else:
                row_s.append(math.inf)
            degs.append(tables.degree(m, key, a[k, m], refs_u[k]))
        value = nw._perm_sign(tau) ** tables.u
        for dv in degs:
            value *= dv.value
        ids = ["x".join(spec.nodes[k].hsets[idx[k] - 1].id for k in range(d))
               for idx in (i_idx, j_idx)]
        cert = CoveringCertificate(
            source_id=ids[0], target_id=ids[1], degree=DegreeValue(value, "composition"),
            unstable_margin=min(row_u), stable_margin=min(row_s),
            target_radius=min(radii) if tables.s > 0 else 1.0)
        eps = nw.persistence_bound(cert, chart_lip, spec.coupling.lipschitz())
        cert = CoveringCertificate(cert.source_id, cert.target_id, cert.degree,
                                   cert.unstable_margin, cert.stable_margin,
                                   cert.target_radius, admissible_eps=eps)
        entry_slack = min(min(row_u), min(row_s)) - inflation
        return _Entry(i_idx, j_idx, tau, cert, "pass", entry_slack, ())

    best = float(np.min(np.max(slack, axis=1)))
    notes = [f"no node assignment satisfies every coupled row "
             f"(best achievable slack {best:.6g})"]
    verdict = "inconclusive" if nw.tau_search(feas_maybe) is not None else "fail"
    if verdict == "inconclusive":
        notes.append("grid bounds too coarse to decide; raise the resolution")
    return _Entry(i_idx, j_idx, None, None, verdict, best, tuple(notes))


def _reference_verdict(entries):
    if all(e.verdict == "pass" for e in entries):
        return "pass"
    return "fail" if any(e.verdict == "fail" for e in entries) else "inconclusive"


def reference_theorem1(spec, resolution=64, pert_amplitude=0.0, membership=False):
    for k, node in enumerate(spec.nodes, start=1):
        if not node.transition.is_permutation():
            raise nw.SpecError(f"node {k}: transition matrix is not a permutation")
    nw._prepare(spec, nw.TYPE_I, resolution)
    forms = [nw._resolve_forms(node, nw.TYPE_I) for node in spec.nodes]
    tables = _ReferenceTables(spec, forms, resolution)
    d = spec.d
    u = spec.nodes[0].dim_u

    structural = []
    for k, node in enumerate(spec.nodes):
        for (i, j) in node.transitions():
            f = forms[k][(i, j)]
            mb = nw.min_stretch(f.U, np.zeros(u), resolution=resolution)
            if not mb.min_rel > 1.0 + STRICT_MARGIN:
                structural.append(f"node {k + 1} transition {i}->{j}: "
                                  f"min stretch {mb.min_attained:.6g} <= 1")
                continue
            if nw.degree_for_map(f.U, np.zeros(u)).value == 0:
                structural.append(f"node {k + 1} transition {i}->{j}: degree 0")
            if f.V is not None:
                sv = nw.max_stretch(f.V, np.zeros(spec.nodes[0].dim_s))
                if not sv.max_abs < 1.0 - STRICT_MARGIN:
                    structural.append(f"node {k + 1} transition {i}->{j}: "
                                      f"stable stretch {sv.max_abs:.6g} >= 1")
    if structural:
        raise nw.SpecError("local covering structure fails: " + "; ".join(structural))

    perms = [node.transition.permutation() for node in spec.nodes]
    chart_lip = max(node.hsets[j - 1].chart.lipschitz()
                    for node in spec.nodes for j in range(1, node.count + 1))
    inflation = pert_amplitude * chart_lip * (1.0 + spec.coupling.lipschitz())
    zero_u = np.zeros(u)
    zero_s = np.zeros(spec.nodes[0].dim_s)
    entries = []
    for i_idx in itertools.product(*[range(1, n.count + 1) for n in spec.nodes]):
        j_idx = tuple(perms[k][i_idx[k] - 1] for k in range(d))
        entries.append(_reference_entry(
            spec, tables, i_idx, j_idx,
            form_key=lambda l, i_idx=i_idx, j_idx=j_idx: (i_idx[l], j_idx[l]),
            refs_u=[zero_u] * d, refs_s=[zero_s] * d, radii=[1.0] * d,
            chart_lip=chart_lip, inflation=inflation, need_membership=membership))

    verdict = _reference_verdict(entries)
    eps = min((e.certificate.admissible_eps for e in entries if e.certificate), default=0.0)
    # the product cycle through the first symbols of every node
    period = None
    if verdict == "pass":
        state, period = tuple(perms[k][0] for k in range(d)), 1
        while state != (1,) * d:
            state, period = tuple(perms[k][state[k] - 1] for k in range(d)), period + 1
    return nw.TheoremReport(1, verdict, _pack(entries), eps if verdict == "pass" else 0.0,
                            period=period)


def reference_theorem2(spec, resolution=64, pert_amplitude=0.0, membership=False):
    nw._prepare(spec, nw.TYPE_II, resolution)
    forms = [nw._resolve_forms(node, nw.TYPE_II) for node in spec.nodes]
    tables = _ReferenceTables(spec, forms, resolution)
    d = spec.d
    s = spec.nodes[0].dim_s
    chart_lip = max(node.member_chart(j).lipschitz()
                    for node in spec.nodes for j in range(1, node.count + 1))
    inflation = pert_amplitude * chart_lip * (1.0 + spec.coupling.lipschitz())

    entries = []
    for combo in itertools.product(*[node.transitions() for node in spec.nodes]):
        i_idx = tuple(i for i, _ in combo)
        j_idx = tuple(j for _, j in combo)
        members = [spec.nodes[k].unified.members[j_idx[k] - 1][1] for k in range(d)]
        entries.append(_reference_entry(
            spec, tables, i_idx, j_idx,
            form_key=lambda l, i_idx=i_idx: i_idx[l],
            refs_u=[c.p_u for c in members], refs_s=[c.p_s for c in members],
            radii=[c.r if s > 0 else 1.0 for c in members],
            chart_lip=chart_lip, inflation=inflation, need_membership=membership))

    verdict = _reference_verdict(entries)
    eps = min((e.certificate.admissible_eps for e in entries if e.certificate), default=0.0)
    bound = float(sum(math.log(nw.spectral_radius(n.transition)) for n in spec.nodes))
    return nw.TheoremReport(2, verdict, _pack(entries), eps if verdict == "pass" else 0.0,
                            entropy_bound=bound if verdict == "pass" else None)


# ---------------------------------------------------------------------------
# cases


def _ring(d, alpha):
    """Diffusive ring coupling: each node mixes in its two neighbours."""
    a = (1.0 - 2.0 * alpha) * np.eye(d)
    for k in range(d):
        a[k, (k + 1) % d] += alpha
        a[k, (k - 1) % d] += alpha
    return a


def _designed(seed, d, a, unified, n_max=3):
    """Designed interval nodes with random transition matrices, coupled by ``a``."""
    rng = np.random.default_rng(seed)
    nodes = []
    for k in range(d):
        n = int(rng.integers(1, n_max + 1))
        if unified:
            W = random_transition_matrix(rng, n=n)
        else:
            W = TransitionMatrix(np.eye(n, dtype=int)[rng.permutation(n)])
        nodes.append(designed_node(rng, W, float(rng.uniform(0.15, 0.45)),
                                   chr(ord("A") + k), unified=unified))
    kind = "type2" if unified else "type1"
    return NetworkSpec(Graph.complete(d), tuple(nodes), CouplingSpec(kind, a))


def _golden_ring(d, alpha, unified):
    """A ring of identical golden-mean (or 3-cycle) designed nodes."""
    rng = np.random.default_rng(d)
    W = (TransitionMatrix([[1, 1], [1, 0]]) if unified
         else TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    nodes = tuple(designed_node(rng, W, 0.4, chr(ord("A") + k), unified=unified)
                  for k in range(d))
    kind = "type2" if unified else "type1"
    return NetworkSpec(Graph.complete(d), nodes, CouplingSpec(kind, _ring(d, alpha)))


def _fold_spec():
    """One interval node folding its h-set over the target center: the
    boundary stays 3 away from it, yet the crossing degree is 0."""
    fold = PiecewiseAffineMap.from_breakpoints([0.0], [(8.0, 5.0), (-8.0, 5.0)])
    chart = AffineChart.identity(1, 0)
    node = NodeSystem(fold, (HSet("F", chart),), TransitionMatrix([[1]]),
                      unified=UnifiedSet(chart, (("F", CenterScale([0.0], [], 1.0)),)))
    return NetworkSpec(Graph(1, frozenset()), (node,), CouplingSpec("type2", np.eye(1)))


def _with_overrides(spec, picks):
    """The spec with the entries ``picks`` (pairs of index tuples) coupled by
    a weak multiple of the identity."""
    per_entry = tuple((i, j, 0.4 * np.eye(spec.d)) for i, j in picks)
    coupling = CouplingSpec(spec.coupling.kind, spec.coupling.matrix, per_entry=per_entry)
    return NetworkSpec(spec.graph, spec.nodes, coupling)


CASES = {
    "example1": lambda: fixtures.example1(),
    "example1_alpha_0.2": lambda: fixtures.example1(alpha=0.2),
    "example1_node1": lambda: fixtures.example1_node1(),
    "example2": lambda: fixtures.example2(),
    "theorem1_perm23": lambda: fixtures.theorem1_perm23(),
    "theorem1_perm23_weak": lambda: fixtures.theorem1_perm23(scale=0.4),
    "planar_golden_pair": lambda: _planar_golden_pair(s_slope=0.3),
    "planar_golden_overflow": lambda: _planar_golden_pair(s_slope=1.1),
    "planar_fixed_pair": lambda: _planar_fixed_pair(np.eye(2)),
    "planar_fixed_mixed": lambda: _planar_fixed_pair(np.array([[0.8, 0.2], [0.2, 0.8]])),
    "type1_override": lambda: _with_overrides(fixtures.theorem1_perm23(),
                                              [((1, 1), (2, 2)), ((2, 3), (1, 1))]),
    "type2_override": lambda: _with_overrides(fixtures.example1(alpha=0.05),
                                              [((1, 2), (2, 1))]),
    # 729 entries: three blocks, with overridden entries on either side of
    # the first block seam
    "perm_ring6_overrides": lambda: _with_overrides(
        _golden_ring(6, 0.02, unified=False),
        [((2, 1, 1, 2, 2, 1), (3, 2, 2, 3, 3, 2)), ((2, 1, 1, 2, 2, 2), (3, 2, 2, 3, 3, 3))]),
    "golden_ring6": lambda: _golden_ring(6, 0.02, unified=True),
    # nine-term row sums, where a pairwise sum would round differently
    "designed1_d9_all_to_all": lambda: _designed(
        209, 9, 0.973 * np.eye(9) + 0.003 * np.ones((9, 9)), unified=False, n_max=1),
    "fold": lambda: _fold_spec(),
}
for _d in range(1, 6):
    for _alpha, _tag in ((0.01, "weak"), (0.3, "strong")):
        CASES[f"designed2_d{_d}_{_tag}"] = \
            lambda d=_d, alpha=_alpha: _designed(100 + d, d, _ring(d, alpha), unified=True)
        CASES[f"designed1_d{_d}_{_tag}"] = \
            lambda d=_d, alpha=_alpha: _designed(200 + d, d, _ring(d, alpha), unified=False)


def _check(spec, resolution=64, pert_amplitude=0.0, reference=False, membership=False):
    type1 = spec.coupling.kind == nw.TYPE_I
    if reference:
        fn = reference_theorem1 if type1 else reference_theorem2
        return fn(spec, resolution=resolution, pert_amplitude=pert_amplitude,
                  membership=membership)
    fn = theorem1_check if type1 else theorem2_check
    return fn(spec, resolution=resolution, pert_amplitude=pert_amplitude)


def _document(report):
    return canonical_json(certificate_document(report, "digest", "0"))


@pytest.fixture
def calls(monkeypatch):
    """Counts of the geometry, degree and ``tau_search`` calls made through
    the checker module, each item of a batch function counted as the call
    it stands for (``count_batches``)."""
    counts = Counter()
    for name in ("min_stretch", "max_stretch", "degree_for_map", "tau_search"):
        original = getattr(nw, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(nw, name, counted)
    for name, batch in count_batches(counts).items():
        monkeypatch.setattr(nw, name, batch)
    return counts


def _assert_equivalent(calls, spec, **kwargs):
    calls.clear()
    want = _check(spec, reference=True, **kwargs)
    reference_calls = Counter(calls)
    calls.clear()
    got = _check(spec, **kwargs)
    assert _document(got) == _document(want)
    for name in ("min_stretch", "max_stretch", "degree_for_map"):
        assert calls[name] <= reference_calls[name], name
    return want


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_reference(name, calls):
    spec = CASES[name]()
    report = _assert_equivalent(calls, spec)
    if report.passed:
        for factor in (0.9, 10.0):
            _assert_equivalent(calls, spec, pert_amplitude=factor * report.global_eps)


def test_coarse_grid_inconclusive_matches_reference(calls):
    report = _assert_equivalent(calls, _sawtooth_spec(), resolution=65)
    assert report.verdict == "inconclusive"


# Exact call counts of the checkers, recorded when a memo keyed by node,
# form key, exact coupling coefficient and exact reference still decided
# which cells share one call.  A lost or a new share changes a count here;
# the budget in ``_assert_equivalent`` cannot see a lost one, because the
# reference's rounded keys share more than exact ones do.  A theorem 1
# count includes the transition pre-check, which reads the same tables: on
# perm_ring6_overrides, whose coupling has no diagonal coefficient 1, its
# 18 coverings add 18 min_stretch and 18 degree_for_map calls of their own.
CALL_COUNTS = {
    "golden_ring6_pass": (lambda: _golden_ring(6, 0.02, unified=True), 64, "pass",
                          {"min_stretch": 66, "max_stretch": 12, "degree_for_map": 18,
                           "tau_search": 1}),
    "golden_ring6_fail": (lambda: _golden_ring(6, 0.03, unified=True), 64, "fail",
                          {"min_stretch": 66, "max_stretch": 12, "degree_for_map": 18,
                           "tau_search": 64}),
    "perm_ring6_overrides": (CASES["perm_ring6_overrides"], 64, "fail",
                             {"min_stretch": 79, "max_stretch": 18, "degree_for_map": 36,
                              "tau_search": 2}),
    # u = 3 face-grid stretch bounds with a stable direction
    "box3_grid33": (lambda: _box_spec(12), 33, "inconclusive",
                    {"min_stretch": 21, "max_stretch": 24, "degree_for_map": 9,
                     "tau_search": 2}),
}


@pytest.mark.parametrize("name", sorted(CALL_COUNTS))
def test_cells_share_calls_exactly(name, calls):
    make, resolution, verdict, want = CALL_COUNTS[name]
    spec = make()
    calls.clear()
    assert _check(spec, resolution=resolution).verdict == verdict
    assert dict(calls) == want


@pytest.mark.parametrize("name", sorted(CALL_COUNTS))
def test_cells_on_the_line_take_one_pass_per_decide(name, monkeypatch):
    # every cell of a factor on the line that one ``decide`` call claims
    # goes to one ``line_stretch`` pass; none takes a scalar geometry or
    # degree call of its own
    passes, per_decide = [], []
    decide, line = nw._Tables.decide, nw.line_stretch

    def counted_decide(self, *args, **kwargs):
        before = len(passes)
        rows = decide(self, *args, **kwargs)
        per_decide.append(len(passes) - before)
        return rows

    def counted_line(boundary, box=(), *args, **kwargs):
        passes.append(len(boundary) + len(box))
        return line(boundary, box, *args, **kwargs)

    def wider_only(name):
        original = getattr(nw, name)

        def call(F, *args, **kwargs):
            assert F.dim_in >= 2, name
            return original(F, *args, **kwargs)
        return call
    monkeypatch.setattr(nw._Tables, "decide", counted_decide)
    monkeypatch.setattr(nw, "line_stretch", counted_line)
    for scalar in ("min_stretch", "max_stretch", "degree_for_map"):
        monkeypatch.setattr(nw, scalar, wider_only(scalar))
    make, resolution, verdict, _ = CALL_COUNTS[name]
    assert _check(make(), resolution=resolution).verdict == verdict
    assert sum(per_decide) == len(passes) > 0
    assert max(per_decide) == 1 and min(passes) > 0


# ``_CellTable`` constructions in one theorem 1 check.  The transition
# pre-check and the entry loop share one ``CellGeometry``, so the unscaled
# forms of the pre-check and their scalings in the loop build one table per
# distinct cell structure (10 and 21 when the pre-check kept its own).
CELL_TABLES = {"theorem1_perm23": 5, "perm_ring6_overrides": 3}


@pytest.mark.parametrize("name", sorted(CELL_TABLES))
def test_theorem1_builds_each_cell_table_once(name, monkeypatch):
    built = Counter()
    original = geometry._CellTable.__init__

    def counted(self, F):
        built["tables"] += 1
        original(self, F)
    monkeypatch.setattr(geometry._CellTable, "__init__", counted)
    theorem1_check(CASES[name]())
    assert built["tables"] == CELL_TABLES[name]


TYPE1_CASES = sorted(name for name, make in CASES.items()
                     if make().coupling.kind == nw.TYPE_I)


@pytest.mark.parametrize("name", TYPE1_CASES)
def test_precheck_outcomes_do_not_depend_on_the_store(name, monkeypatch):
    # the pre-check reads the check's own tables, whose store its cells
    # share with the entry loop; every transition's outcome equals the
    # scalar reference's, which works its cells out afresh
    original = nw._Tables.coverings
    seen = []

    def kept(self, *args):
        seen.append(original(self, *args))
        return seen[-1]
    monkeypatch.setattr(nw._Tables, "coverings", kept)
    spec = CASES[name]()
    theorem1_check(spec)
    (outcomes,) = seen
    forms = [nw._resolve_forms(node, nw.TYPE_I) for node in spec.nodes]
    target = CenterScale(np.zeros(spec.nodes[0].dim_u), np.zeros(spec.nodes[0].dim_s), 1.0)
    for node, node_forms, got in zip(spec.nodes, forms, outcomes, strict=True):
        for (i, j), outcome in zip(node.transitions(), got, strict=True):
            want = reference_check_covering(node.hsets[i - 1], target, node_forms[(i, j)],
                                            target_id=node.hsets[j - 1].id)
            assert want.passed
            assert_same_outcome(outcome, want)


def test_overrides_straddle_a_block_seam():
    spec = CASES["perm_ring6_overrides"]()
    entries = _check(spec).entries
    assert len(entries) == 729 > nw.BLOCK
    overridden = [list(i) for i, _, _ in spec.coupling.per_entry]
    assert entries.source[nw.BLOCK - 1:nw.BLOCK + 1].tolist() == overridden


@pytest.mark.parametrize("name", sorted(CASES))
def test_membership_filter_changes_no_certificate(name):
    spec = CASES[name]()
    report = _check(spec)
    amplitudes = (0.0, 0.9 * report.global_eps, 10.0 * report.global_eps) if report.passed \
        else (0.0,)
    for amplitude in amplitudes:
        filtered = _check(spec, pert_amplitude=amplitude, reference=True, membership=True)
        assert _document(_check(spec, pert_amplitude=amplitude)) == _document(filtered)


def _near_singular_pair():
    """Two planar expanding nodes (4 I, members at (0, 0) and (3, 0), every
    transition allowed) whose coupling coefficient 2e-6 scales a chart form
    to determinant 6.4e-11, below 1e-10 though the form is 4e-6 I."""
    unified = UnifiedSet(AffineChart.identity(2, 0),
                         (("A", CenterScale([0.0, 0.0], [], 1.0)),
                          ("B", CenterScale([3.0, 0.0], [], 1.0))))

    def node(tag):
        hsets = tuple(HSet(f"{tag}{i + 1}", unified.member_chart(i)) for i in range(2))
        return NodeSystem(PiecewiseAffineMap.affine(4.0 * np.eye(2), np.zeros(2)), hsets,
                          TransitionMatrix(np.ones((2, 2), dtype=int)), unified=unified)

    a = np.array([[0.2, 2e-6], [2e-6, 0.2]])
    return NetworkSpec(Graph.complete(2), (node("P"), node("Q")), CouplingSpec("type2", a))


def test_near_singular_cell_is_left_to_the_degree():
    """The off-diagonal cells of entry (1, 1) -> (2, 2) scale a chart form by
    2e-6.  ``geometry.singular`` scales every row to unit length before it
    compares the determinant with 1e-10, so the scale does not matter: the
    degree is known (0, the target 3 away is outside the image), and the
    entry fails exactly as the membership filter says."""
    spec = _near_singular_pair()
    got = theorem2_check(spec)
    assert got.verdict == "fail"
    assert _document(got) == _document(reference_theorem2(spec, membership=True))
    assert _document(got) == _document(reference_theorem2(spec))
