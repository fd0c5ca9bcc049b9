"""Coupled map networks: assembly, validation, and the hypothesis checkers.

A network couples per-node piecewise-affine local dynamics through an
affine interaction whose restriction to the relevant image sets is
conjugate to a Kronecker model [a_lm] (x) I.  The two checkers certify,
for every nonzero entry of the Kronecker product of the node transition
matrices, a coupled crossing inequality made diagonally dominant by a node
reassignment tau, found as a bipartite perfect matching.

Both checkers share one entry loop, ``_check_entries``.  A theorem
supplies only each node's *choices* (a transition (i, j) for theorem 2, a
source symbol and its permutation image for theorem 1) with the reference
center and stable radius that a row uses under each choice.  An entry is
one choice per node.  The loop keeps dense tables: per node, ``umax[m, c]``
and ``vmax0[m, c]``; per coupling matrix, slot tables indexed
``[m, c_m, k, c_k]`` (node m's chart form under its choice, scaled by
a[k, m], against row k's reference under its choice) holding the minimum
stretch bounds, the stable diagonal term, membership and degree.  Slots
are filled when an entry first references them, membership and degree
only where a row reaches those tests, and slots that agree on node, form
key, exact a[k, m] and exact reference share one geometry call.  The row
margins of a block of entries are then whole-array operations, and
``tau_search`` runs once per distinct feasibility matrix.

Before its entry loop, theorem 1 checks each node transition (i, j) on
its own, uncoupled, as a single covering of h-set j by h-set i with one
``covering.check_covering`` call; an outcome other than "pass" is a
``SpecError`` naming the node, the transition and the failures.  Both
checks first refuse, as a ``SpecError``, a chart form that is itself past
floating-point range (at ``$.nodes[k].map`` or ``$.nodes[k].chart_forms``)
and a coupling large enough to scale a finite one past it (at
``$.coupling.matrix``); ``require_finite_step`` refuses, the same way, an
interaction that carries h-set states past that range, for the commands
that iterate the network map.

The coupling kind decides which charts a chart form composes the local map
with; ``_form_keys`` and ``_form_charts`` own that decision, and form
derivation, the declared-form audit and the conjugacy audit all read it
from them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .covering import (STRICT_MARGIN, CoveringCertificate, ProductFormMap, check_covering,
                       persistence_bound)
from .degree import DegreeUndefinedError, DegreeValue, degree_for_map
from .geometry import (AffineChart, CellGeometry, CenterScale, GeometryError, HSet,
                       PiecewiseAffineMap, UnifiedSet, box_grid, max_stretch, min_stretch,
                       split_product, unified_validate)
from .symbolic import TransitionMatrix, lcm_period, spectral_radius

TYPE_I = "type1"
TYPE_II = "type2"


class SpecError(ValueError):
    """Network data violates a structural precondition."""


@dataclass(frozen=True)
class Graph:
    """Directed graph on nodes 1..d; edge (m, l) lets node m influence node l."""

    d: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "edges",
                           frozenset((int(a), int(b)) for a, b in self.edges))
        if self.d < 1:
            raise SpecError("graph needs at least one node")
        for a, b in self.edges:
            if not (1 <= a <= self.d and 1 <= b <= self.d):
                raise SpecError(f"edge ({a},{b}) outside nodes 1..{self.d}")

    def weakly_connected(self) -> bool:
        if self.d == 1:
            return True
        adj: dict[int, set[int]] = {k: set() for k in range(1, self.d + 1)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {1}
        stack = [1]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == self.d

    @staticmethod
    def complete(d: int) -> "Graph":
        edges = {(a, b) for a in range(1, d + 1) for b in range(1, d + 1) if a != b}
        return Graph(d, frozenset(edges))


@dataclass(frozen=True)
class NodeSystem:
    """One node: local map, h-set family, transition structure, chart forms.

    ``chart_forms`` may be declared explicitly (keyed by source symbol for a
    unified family, by (source, target) otherwise); when absent the forms
    are derived exactly by composing the local map with the affine charts.
    """

    local_map: PiecewiseAffineMap
    hsets: tuple[HSet, ...]
    transition: TransitionMatrix
    unified: UnifiedSet | None = None
    chart_forms: dict | None = None
    _charts: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.hsets:
            raise SpecError("node needs at least one h-set")
        object.__setattr__(self, "hsets", tuple(self.hsets))
        members = self.unified.members if self.unified is not None else self.hsets
        object.__setattr__(self, "_charts", [None] * len(members))

    @property
    def count(self) -> int:
        return len(self.hsets)

    @property
    def dim_u(self) -> int:
        return self.hsets[0].dim_u

    @property
    def dim_s(self) -> int:
        return self.hsets[0].dim_s

    @property
    def dim(self) -> int:
        return self.dim_u + self.dim_s

    def member_chart(self, symbol: int) -> AffineChart:
        """Chart taking h-set ``symbol`` (1-based) onto the unit box.

        Each chart is built on its first request and kept in a per-symbol
        table, so a chart that cannot be built raises at that request and
        later ones reuse the same object.  The table is indexed exactly
        like the member tuple it mirrors.
        """
        index = symbol - 1
        chart = self._charts[index]
        if chart is None:
            chart = (self.unified.member_chart(index) if self.unified is not None
                     else self.hsets[index].chart)
            self._charts[index] = chart
        return chart

    def transitions(self) -> list[tuple[int, int]]:
        return [(int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(self.transition.bits))]


@dataclass(frozen=True)
class CouplingSpec:
    """Interaction data: kind, Kronecker-model matrix, optional ambient map.

    Type I may override the matrix per Kronecker entry.  When no ambient
    map is declared the interaction is the linear model itself.
    """

    kind: str
    matrix: np.ndarray
    ambient: PiecewiseAffineMap | None = None
    per_entry: tuple[tuple[tuple[int, ...], tuple[int, ...], np.ndarray], ...] | None = None

    def __post_init__(self):
        if self.kind not in (TYPE_I, TYPE_II):
            raise SpecError(f"coupling kind must be '{TYPE_I}' or '{TYPE_II}'")
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))

    def matrix_for(self, i_idx: tuple[int, ...], j_idx: tuple[int, ...]) -> np.ndarray:
        if self.per_entry:
            for pi, pj, m in self.per_entry:
                if tuple(pi) == tuple(i_idx) and tuple(pj) == tuple(j_idx):
                    return np.asarray(m, dtype=float)
        return self.matrix

    def lipschitz(self) -> float:
        """Operator max-norm of the Kronecker model (max absolute row sum)."""
        mats = [self.matrix] + ([np.asarray(m, float) for _, _, m in self.per_entry]
                                if self.per_entry else [])
        return max(float(np.max(np.sum(np.abs(m), axis=1))) for m in mats)

    def ambient_map(self, block_dim: int) -> PiecewiseAffineMap:
        if self.ambient is not None:
            return self.ambient
        kron = np.kron(self.matrix, np.eye(block_dim))
        return PiecewiseAffineMap.affine(kron, np.zeros(kron.shape[0]))


@dataclass(frozen=True)
class NetworkSpec:
    """A coupled map network ready for validation and certification."""

    graph: Graph
    nodes: tuple[NodeSystem, ...]
    coupling: CouplingSpec
    _ambient: PiecewiseAffineMap | None = field(default=None, init=False, repr=False,
                                                compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(self.nodes) != self.graph.d:
            raise SpecError(f"{len(self.nodes)} nodes for a {self.graph.d}-node graph")
        if self.coupling.matrix.shape != (self.graph.d, self.graph.d):
            raise SpecError("coupling matrix must be d x d")

    @property
    def d(self) -> int:
        return self.graph.d

    @property
    def block_dim(self) -> int:
        return self.nodes[0].dim

    @property
    def state_dim(self) -> int:
        return self.d * self.block_dim

    def dims(self) -> tuple[int, ...]:
        return tuple(node.transition.n for node in self.nodes)

    def ambient_map(self) -> PiecewiseAffineMap:
        """The interaction on the full state, ``coupling.ambient_map(block_dim)``,
        built on first use and kept."""
        if self._ambient is None:
            object.__setattr__(self, "_ambient", self.coupling.ambient_map(self.block_dim))
        return self._ambient


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]
    inconclusive: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def _form_keys(node: NodeSystem, kind: str) -> list:
    """Keys of the chart forms a node's checks use: source symbols 1..count
    for a unified family (type II), transitions (i, j) otherwise."""
    if kind == TYPE_II:
        if node.unified is None:
            raise SpecError("unified family required to derive chart forms")
        return list(range(1, node.count + 1))
    return node.transitions()


def _form_charts(node: NodeSystem, kind: str, key) -> tuple[AffineChart, AffineChart]:
    """(inner, outer) charts that the chart form ``key`` composes the local
    map with: a member chart into the shared unified chart (type II), or
    source h-set chart into target h-set chart (type I)."""
    if kind == TYPE_II:
        return node.member_chart(key), node.unified.chart
    i, j = key
    return node.hsets[i - 1].chart, node.hsets[j - 1].chart


def _resolve_forms(node: NodeSystem, kind: str) -> dict:
    """Chart-coordinate product forms, declared or derived by composition."""
    if node.chart_forms is not None:
        return node.chart_forms
    forms: dict = {}
    for key in _form_keys(node, kind):
        inner, outer = _form_charts(node, kind, key)
        # a local map too large for its charts composes to inf entries here;
        # _require_finite_scaling refuses such a form at its node
        with np.errstate(over="ignore", invalid="ignore"):
            composed = (node.local_map
                        .compose_affine_inner(inner.inverse_linear,
                                              -inner.inverse_linear @ inner.offset)
                        .compose_affine_outer(outer.linear, outer.offset))
            U, V = split_product(composed, node.dim_u)
        forms[key] = ProductFormMap(U, V)
    return forms


def _image_bbox(node: NodeSystem, symbol: int) -> tuple[np.ndarray, np.ndarray]:
    """Conservative bounding box of the image of an h-set under the local map."""
    if node.dim == 1:
        lo, hi = node.hsets[symbol - 1].bounding_box()
        lo, hi = node.local_map.range_1d(float(lo[0]), float(hi[0]))
        return np.array([lo]), np.array([hi])
    corners = node.hsets[symbol - 1].vertices()
    # box hull of the set, then exact piecewise image box of that hull
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pts = np.where(box_grid(node.dim, 2) > 0, hi, lo)
    grid = box_grid(node.dim, 4) * (hi - lo) / 2 + (hi + lo) / 2
    vals = node.local_map.apply_batch(np.vstack([pts, grid]))
    pad = node.local_map.lipschitz() * float(np.max(hi - lo)) / 6.0
    return vals.min(axis=0) - pad, vals.max(axis=0) + pad


def _boxes_disjoint(a: tuple[np.ndarray, np.ndarray],
                    b: tuple[np.ndarray, np.ndarray]) -> bool:
    return bool(np.any(a[1] < b[0] - 1e-12) or np.any(b[1] < a[0] - 1e-12))


def validate_spec(spec: NetworkSpec) -> ValidationReport:
    """Structural audit: graph, coupling pattern, h-sets, transition data.

    A node's local map must be finite to evaluate on the box hull of the
    node's h-sets, its images and its cell tests both; one that is not is
    reported at ``$.nodes[k].map``, and the checks that would evaluate it
    (the declared-form audit, the type-I image separation) are skipped.
    Reports every violation rather than stopping at the first.  Overlap
    checks that rest on bounding boxes report "inconclusive" when the boxes
    intersect but the exact sets might not.
    """
    errors: list[str] = []
    warnings: list[str] = []
    unclear: list[str] = []

    if not spec.graph.weakly_connected():
        errors.append("graph is not weakly connected")

    a = spec.coupling.matrix
    d = spec.d
    ours = [(l, m) for l in range(1, d + 1) for m in range(1, d + 1)
            if l != m and abs(a[l - 1, m - 1]) > 1e-15 and (m, l) not in spec.graph.edges]
    for l, m in ours:
        errors.append(f"coupling entry a[{l},{m}] is nonzero but edge ({m},{l}) is absent")
    if ours:
        flipped = [(l, m) for l in range(1, d + 1) for m in range(1, d + 1)
                   if l != m and abs(a[l - 1, m - 1]) > 1e-15
                   and (l, m) not in spec.graph.edges]
        if not flipped:
            warnings.append("coupling pattern matches the transposed edge convention "
                            "(influence read as (l,m) instead of (m,l)); the spec file "
                            "may have its edges written backwards")

    mats = [("coupling", a)]
    if spec.coupling.per_entry:
        if spec.coupling.kind == TYPE_II:
            warnings.append("per-entry coupling matrices are applied per entry by the "
                            "unified-family checker: each replaces the shared model "
                            "at its own entry only")
        mats += [(f"per-entry {tuple(pi)}->{tuple(pj)}", np.asarray(m, float))
                 for pi, pj, m in spec.coupling.per_entry]
    for name, m in mats:
        if m.shape != (d, d):
            errors.append(f"{name} matrix is not {d}x{d}")
        elif abs(np.linalg.det(m)) < 1e-10:
            errors.append(f"{name} matrix is numerically singular")

    block = spec.nodes[0].dim
    all_finite = True
    for k, node in enumerate(spec.nodes, start=1):
        if node.dim != block:
            errors.append(f"node {k}: ambient dimension {node.dim} != {block}")
        if node.dim_u < 1:
            errors.append(f"node {k}: needs at least one expanding direction")
        if any(h.dim_u != node.dim_u or h.dim_s != node.dim_s for h in node.hsets):
            errors.append(f"node {k}: h-sets disagree on the (u, s) split")
        if node.transition.n != node.count:
            errors.append(f"node {k}: transition matrix is {node.transition.n}x"
                          f"{node.transition.n} for {node.count} h-sets")
        if node.local_map.dim_in != node.dim or node.local_map.dim_out != node.dim:
            errors.append(f"node {k}: local map acts on R^{node.local_map.dim_in}, "
                          f"h-sets live in R^{node.dim}")

        boxes = [h.bounding_box() for h in node.hsets]
        image, cells = _local_reach(node.local_map, _hull_radius(boxes))
        finite = math.isfinite(image) and math.isfinite(cells)
        if not finite:
            errors.append(f"$.nodes[{k - 1}].map: the local map cannot be evaluated "
                          f"finitely on the node's h-sets (image size {image:g}, "
                          f"cell constraint size {cells:g})")
        all_finite = all_finite and finite

        for i, j in itertools.combinations(range(node.count), 2):
            if not _boxes_disjoint(boxes[i], boxes[j]):
                msg = (f"node {k}: h-sets {node.hsets[i].id} and {node.hsets[j].id} "
                       "are not disjoint")
                (errors if node.dim == 1 else unclear).append(msg)

        if spec.coupling.kind == TYPE_II:
            if node.unified is None:
                errors.append(f"node {k}: unified family required for this coupling kind")
            else:
                rep = unified_validate(node.unified)
                errors.extend(f"node {k}: {v}" for v in rep.violations)
                if node.unified.count != node.count:
                    errors.append(f"node {k}: unified family has {node.unified.count} "
                                  f"members for {node.count} h-sets")
                else:
                    _check_member_charts(node, k, errors, warnings)

        # type-II forms land in the unified chart: without one there is
        # nothing to audit them against, and the error above says so; the
        # audit evaluates the local map, so it needs a finite one
        if node.chart_forms is not None and finite and (spec.coupling.kind == TYPE_I
                                                        or node.unified is not None):
            _audit_declared_forms(spec.coupling.kind, node, k, errors)

    if spec.coupling.kind == TYPE_I and all_finite:
        _check_non_overlap(spec, errors, unclear)

    return ValidationReport(tuple(errors), tuple(warnings), tuple(unclear))


def _check_member_charts(node: NodeSystem, k: int, errors: list[str],
                         warnings: list[str]) -> None:
    """The unified member charts must carve out the same physical sets."""
    for i, hset in enumerate(node.hsets, start=1):
        q = node.member_chart(i)
        lin = q.linear @ hset.chart.inverse_linear
        off = q.offset - lin @ hset.chart.offset
        if np.max(np.abs(lin - np.eye(node.dim))) <= 1e-9 and np.max(np.abs(off)) <= 1e-9:
            continue
        signed_perm = (np.max(np.abs(off)) <= 1e-9
                       and np.all(np.isclose(np.abs(lin), 0, atol=1e-9)
                                  | np.isclose(np.abs(lin), 1, atol=1e-9))
                       and np.all(np.sum(np.abs(lin) > 0.5, axis=1) == 1))
        if signed_perm:
            warnings.append(f"node {k}: member chart of {hset.id} differs from the "
                            "declared h-set chart by a box symmetry")
        else:
            errors.append(f"node {k}: unified member {i} and h-set {hset.id} "
                          "describe different sets")


def _audit_declared_forms(kind: str, node: NodeSystem, k: int, errors: list[str]) -> None:
    """Sampled consistency of declared chart forms with the composed map."""
    grid = box_grid(node.dim, 5)
    u = node.dim_u
    for key, form in node.chart_forms.items():
        if kind == TYPE_II:
            if not isinstance(key, int) or not 1 <= key <= node.count:
                errors.append(f"node {k}: chart forms must be keyed by source "
                              f"symbol for a unified family, got {key!r}")
                continue
        elif (not isinstance(key, tuple) or len(key) != 2
                or not all(1 <= t <= node.count for t in key)):
            errors.append(f"node {k}: chart forms must be keyed by "
                          f"(source, target) pairs, got {key!r}")
            continue
        inner, outer = _form_charts(node, kind, key)
        ambient = inner.invert_batch(grid)
        want = outer.apply_batch(node.local_map.apply_batch(ambient))
        got = form.U.apply_batch(grid[:, :u])
        if form.V is not None:
            got = np.hstack([got, form.V.apply_batch(grid[:, u:])])
        resid = float(np.max(np.abs(want - got)))
        if resid > 1e-9:
            errors.append(f"node {k}: declared chart form {key} disagrees with the "
                          f"composed map (residual {resid:.3e})")


def _check_non_overlap(spec: NetworkSpec, errors: list[str], unclear: list[str]) -> None:
    """Image-separation condition for locally linear coupling.

    The image of each source h-set must avoid every non-target h-set and
    every other source's image.  Intervals decide exactly; higher
    dimensions fall back to conservative boxes.
    """
    for k, node in enumerate(spec.nodes, start=1):
        pairs = node.transitions()
        images = {i: _image_bbox(node, i) for i in {i for i, _ in pairs}}
        exact = node.dim == 1
        for i, j in pairs:
            for jp in range(1, node.count + 1):
                if jp == j:
                    continue
                if not _boxes_disjoint(images[i], node.hsets[jp - 1].bounding_box()):
                    msg = (f"node {k}: image of {node.hsets[i - 1].id} meets "
                           f"{node.hsets[jp - 1].id} (targets may not overlap)")
                    (errors if exact else unclear).append(msg)
            for ip in images:
                if ip != i and not _boxes_disjoint(images[i], images[ip]):
                    msg = (f"node {k}: images of {node.hsets[i - 1].id} and "
                           f"{node.hsets[ip - 1].id} overlap")
                    (errors if exact else unclear).append(msg)


# ---------------------------------------------------------------------------
# Kronecker structure and the tau matching


def kronecker(mats: list[TransitionMatrix] | tuple[TransitionMatrix, ...]) -> TransitionMatrix:
    """0/1 Kronecker product, first factor outermost."""
    if not mats:
        raise SpecError("need at least one transition matrix")
    bits = mats[0].bits
    for w in mats[1:]:
        bits = np.kron(bits, w.bits)
    return TransitionMatrix(bits)


def tau_search(row_feasibility) -> tuple[int, ...] | None:
    """Perfect matching on the row-to-node feasibility graph.

    Returns the lexicographically smallest assignment (row-major greedy with
    an augmenting-path completion check), 1-based, or None when no perfect
    matching exists.
    """
    feas = np.asarray(row_feasibility, dtype=bool)
    if feas.ndim != 2 or feas.shape[0] != feas.shape[1]:
        raise SpecError("feasibility matrix must be square")
    d = feas.shape[0]

    def can_complete(start: int, used: set[int]) -> bool:
        match: dict[int, int] = {}

        def augment(row: int, seen: set[int]) -> bool:
            for col in range(d):
                if feas[row, col] and col not in used and col not in seen:
                    seen.add(col)
                    if match.get(col) is None or augment(match[col], seen):
                        match[col] = row
                        return True
            return False

        return all(augment(r, set()) for r in range(start, d))

    used: set[int] = set()
    tau: list[int] = []
    for row in range(d):
        for col in range(d):
            if feas[row, col] and col not in used:
                used.add(col)
                if can_complete(row + 1, used):
                    tau.append(col + 1)
                    break
                used.remove(col)
        else:
            return None
    return tuple(tau)


def _perm_sign(tau: tuple[int, ...]) -> int:
    seen = [False] * len(tau)
    sign = 1
    for start in range(len(tau)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = tau[cur] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# theorem checkers


@dataclass(frozen=True)
class EntryResult:
    """Outcome for one nonzero Kronecker entry."""

    source_index: tuple[int, ...]
    target_index: tuple[int, ...]
    tau: tuple[int, ...] | None
    certificate: CoveringCertificate | None
    verdict: str                      # pass | fail | inconclusive
    slack: float                      # worst row slack (best achievable on failure)
    failures: tuple[str, ...]


@dataclass(frozen=True)
class TheoremReport:
    """Aggregate verdict over all nonzero Kronecker entries."""

    theorem: int
    verdict: str
    entries: tuple[EntryResult, ...]
    global_eps: float
    entropy_bound: float | None = None
    period: int | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def binding_entry(self) -> EntryResult:
        """Entry with the smallest slack: the one that decides the verdict."""
        return min(self.entries, key=lambda e: e.slack)


BLOCK = 256  # entries per vectorized block; bounds the (entries, d, d) tensors

_OUT, _UNKNOWN, _IN = -1, 0, 1


@dataclass(frozen=True)
class _Choice:
    """One node's share of a Kronecker entry, as a theorem supplies it.

    ``key`` picks the node's chart form; ``ref_u``, ``ref_s`` and ``radius``
    are the target center and stable radius that row k uses when node k
    takes this choice.
    """

    key: object
    source: int
    target: int
    ref_u: np.ndarray
    ref_s: np.ndarray
    radius: float


class _Geometry:
    """Stretch, degree and membership values of the scaled chart forms.

    Memoized by node, form key, the exact coupling coefficient and the
    exact reference, so every slot that agrees on those four shares one
    call.  ``umax[m, c]``, ``vmax0[m, c]`` and ``radius[m, c]`` are the
    dense per-node tables over node m's choices c.

    ``cells`` holds the cell-only geometry (totality probe, cell vertices,
    face-grid partition) of every chart form this check evaluates.  A
    form's scalings by the coupling coefficients keep its cells, so each
    distinct cell structure is worked out once and reused by every
    stretch call of the check; the store goes away with the check.
    """

    def __init__(self, forms: list[dict], choices: list[list[_Choice]], u: int, s: int,
                 resolution: int, inflation: float):
        self.forms = forms
        self.choices = choices
        self.u, self.s = u, s
        self.resolution = resolution
        self.inflation = inflation
        self.d = len(choices)
        self.width = max(len(c) for c in choices)
        self.cells = CellGeometry()
        self._memo: dict = {}
        shape = (self.d, self.width)
        self.umax, self.vmax0, self.radius = np.zeros(shape), np.zeros(shape), np.ones(shape)
        for m, node_choices in enumerate(choices):
            for c, choice in enumerate(node_choices):
                form = forms[m][choice.key]
                self.umax[m, c] = self._memoized(
                    ("umax", m, choice.key),
                    lambda: max_stretch(form.U, np.zeros(u), cells=self.cells).max_abs)
                self.vmax0[m, c] = self._memoized(
                    ("vmax0", m, choice.key),
                    lambda: 0.0 if form.V is None
                    else max_stretch(form.V, np.zeros(s), cells=self.cells).max_abs)
                self.radius[m, c] = choice.radius

    def _memoized(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def min_bounds(self, m: int, key, a: float, ref: np.ndarray):
        return self._memoized(
            ("min", m, key, a, tuple(ref.tolist())),
            lambda: min_stretch(self.forms[m][key].U.scale(a), ref,
                                resolution=self.resolution, cells=self.cells))

    def vdiag(self, m: int, key, a: float, ref: np.ndarray) -> float:
        V = self.forms[m][key].V
        return self._memoized(
            ("vdiag", m, key, a, tuple(ref.tolist())),
            lambda: 0.0 if V is None else max_stretch(V.scale(a), ref, cells=self.cells).max_abs)

    def degree(self, m: int, key, a: float, ref: np.ndarray) -> DegreeValue | None:
        def compute():
            try:
                return degree_for_map(self.forms[m][key].U.scale(a), ref)
            except (DegreeUndefinedError, GeometryError):
                return None
        return self._memoized(("degree", m, key, a, tuple(ref.tolist())), compute)

    def membership(self, m: int, key, a: float, ref: np.ndarray) -> int:
        """Is ref inside the open image of the scaled unstable factor?

        ``_IN``, ``_OUT`` or ``_UNKNOWN``; exact for one unstable dimension
        and for affine factors, degree-based (sufficient only) otherwise.
        """
        U = self.forms[m][key].U
        inflation = self.inflation
        if self.u == 1:
            lo, hi = self._memoized(("range", m, key, a), lambda: U.scale(a).range_1d())
            p = float(ref[0])
            if lo + inflation + STRICT_MARGIN < p < hi - inflation - STRICT_MARGIN:
                return _IN
            if p < lo - STRICT_MARGIN or p > hi + STRICT_MARGIN:
                return _OUT
            return _UNKNOWN
        if U.is_affine and inflation == 0.0:
            piece = U.pieces[0]
            lin = a * piece.matrix
            if abs(np.linalg.det(lin)) < 1e-12:
                return _UNKNOWN
            pre = np.linalg.solve(lin, ref - a * piece.offset)
            extent = float(np.max(np.abs(pre)))
            if extent < 1.0 - STRICT_MARGIN:
                return _IN
            if extent > 1.0 + STRICT_MARGIN:
                return _OUT
            return _UNKNOWN
        if self.min_bounds(m, key, a, ref).min_rel > inflation:
            deg = self.degree(m, key, a, ref)
            if deg is not None and deg.value != 0:
                return _IN
        return _UNKNOWN


class _Slots:
    """Dense slot tables of one check under one coupling matrix ``a``.

    The flat slot of ``[m, c_m, k, c_k]`` is node m under its choice c_m,
    scaled by a[k, m], against the reference of row k under its choice c_k.
    ``min_rel``, ``min_attained`` and ``vdiag`` are filled for every slot an
    evaluated entry references; membership and degree only for slots whose
    cells reach those tests.
    """

    def __init__(self, geo: _Geometry, a: np.ndarray):
        self.geo = geo
        self.a = a
        self.abs_a = np.abs(a)
        n = (geo.d * geo.width) ** 2
        self.min_rel = np.zeros(n)
        self.min_attained = np.zeros(n)
        self.vdiag = np.zeros(n)
        self.memb = np.full(n, _IN, dtype=np.int8)
        self.deg = np.zeros(n, dtype=np.int64)
        self.deg_known = np.zeros(n, dtype=bool)
        self._bounds_done = np.zeros(n, dtype=bool)
        self._memb_done = np.zeros(n, dtype=bool)
        self._deg_done = np.zeros(n, dtype=bool)

    def _claim(self, slots: np.ndarray, done: np.ndarray):
        """Mark the slots not yet ``done`` as done; yield (slot, node m, its
        form key, a[k, m], row k's choice) for each of them."""
        geo = self.geo
        todo = np.unique(slots[~done[slots]])
        done[todo] = True
        mc, kc = np.divmod(todo, geo.d * geo.width)
        parts = (todo, *np.divmod(mc, geo.width), *np.divmod(kc, geo.width))
        for t, m, cm, k, ck in zip(*(p.tolist() for p in parts)):
            yield t, m, geo.choices[m][cm].key, float(self.a[k, m]), geo.choices[k][ck]

    def evaluate(self, ch: np.ndarray, need_membership: bool):
        """Margins and feasibility of the block of entries ``ch``.

        ``ch[e, m]`` is node m's choice index in entry e.  Returns the
        (entries, d, d) arrays margin_lo, margin_s, slack, feas_sure,
        feas_maybe and the slot of every cell; rows are k, columns m.
        """
        geo = self.geo
        d, w = geo.d, geo.width
        nodes = np.arange(d)
        flat = nodes * w + ch
        slots = flat[:, None, :] * (d * w) + flat[:, :, None]
        for t, m, key, a, row in self._claim(slots, self._bounds_done):
            mb = geo.min_bounds(m, key, a, row.ref_u)
            self.min_rel[t], self.min_attained[t] = mb.min_rel, mb.min_attained
            if geo.s > 0:
                self.vdiag[t] = geo.vdiag(m, key, a, row.ref_s)

        term_u = self.abs_a * geo.umax[nodes, ch][:, None, :]
        off_u = _row_sums(term_u)[:, :, None] - term_u
        margin_lo = self.min_rel[slots] - off_u - 1.0
        margin_hi = self.min_attained[slots] - off_u - 1.0
        if geo.s > 0:
            term_v = self.abs_a * geo.vmax0[nodes, ch][:, None, :]
            off_v = _row_sums(term_v)[:, :, None] - term_v
            margin_s = geo.radius[nodes, ch][:, :, None] - (self.vdiag[slots] + off_v)
        else:
            margin_s = np.full(margin_lo.shape, math.inf)
        slack = np.where(margin_s < margin_lo, margin_s, margin_lo) - geo.inflation

        threshold = STRICT_MARGIN + geo.inflation
        ok_u_sure = margin_lo > threshold
        ok_u_maybe = margin_hi > threshold
        ok_s = margin_s > threshold
        reach = (ok_u_sure | ok_u_maybe) & ok_s
        memb = np.full(slots.shape, _IN, dtype=np.int8)
        if need_membership:
            for t, m, key, a, row in self._claim(slots[reach], self._memb_done):
                self.memb[t] = geo.membership(m, key, a, row.ref_u)
            memb[reach] = self.memb[slots[reach]]
        tested = reach & (memb != _OUT)
        want_deg = tested & (self.min_rel[slots] > 0)
        for t, m, key, a, row in self._claim(slots[want_deg], self._deg_done):
            deg = geo.degree(m, key, a, row.ref_u)
            self.deg_known[t] = deg is not None
            self.deg[t] = 0 if deg is None else deg.value
        known = want_deg & self.deg_known[slots]
        zero = known & (self.deg[slots] == 0)
        feas_sure = ok_u_sure & ok_s & (memb == _IN) & (~tested | (known & ~zero))
        feas_maybe = ok_u_maybe & ok_s & (memb != _OUT) & ~zero
        return margin_lo, margin_s, slack, feas_sure, feas_maybe, slots


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right as Python's ``sum`` adds the
    row terms; numpy's pairwise sum rounds differently from eight terms on."""
    total = terms[..., 0].copy()
    for col in range(1, terms.shape[-1]):
        total += terms[..., col]
    return total


class _Margins(NamedTuple):
    """What ``persistence_bound`` reads of a passing entry's certificate,
    so the certificate is built once, with its radius."""

    unstable_margin: float
    stable_margin: float
    target_radius: float


def _check_entries(spec: NetworkSpec, forms: list[dict], choices: list[list[_Choice]],
                   resolution: int, chart_lip: float, pert_amplitude: float,
                   need_membership: bool) -> list[EntryResult]:
    """Evaluate the coupled row inequalities for every nonzero Kronecker entry.

    An entry picks one choice per node; entries run in ``itertools.product``
    order over ``choices``.  Entries under the shared coupling matrix are
    evaluated in numpy blocks of ``BLOCK``; each entry with its own type-I
    matrix is a block of one under that matrix.  ``tau_search`` runs once
    per distinct feasibility matrix; result objects are built after a
    block's margins and assignments are known.
    """
    d = spec.d
    u = spec.nodes[0].dim_u
    coupling_lip = spec.coupling.lipschitz()
    inflation = pert_amplitude * chart_lip * (1.0 + coupling_lip)
    geo = _Geometry(forms, choices, u, spec.nodes[0].dim_s, resolution, inflation)
    counts = [len(c) for c in choices]
    total = math.prod(counts)
    strides = np.array([math.prod(counts[k + 1:]) for k in range(d)])
    nodes = np.arange(d)
    # source and target symbol of node k under its choice c, zero past its choices
    sources, targets = np.zeros((2, d, geo.width), dtype=int)
    for k, node_choices in enumerate(choices):
        for c, choice in enumerate(node_choices):
            sources[k, c], targets[k, c] = choice.source, choice.target
    hset_ids = [[h.id for h in node.hsets] for node in spec.nodes]

    @functools.cache
    def product_id(index: tuple[int, ...]) -> str:
        return "x".join([ids[symbol - 1] for ids, symbol in zip(hset_ids, index)])

    def choice_rows(flat: np.ndarray) -> np.ndarray:
        return flat[:, None] // strides % np.array(counts)

    def indices(ch: np.ndarray) -> zip:
        """(source index, target index) of each entry of the block ``ch``."""
        return zip(map(tuple, sources[nodes, ch].tolist()),
                   map(tuple, targets[nodes, ch].tolist()))

    own_matrix: dict[int, np.ndarray] = {}
    if spec.coupling.per_entry:
        for flat, (i_idx, j_idx) in enumerate(indices(choice_rows(np.arange(total)))):
            a = spec.coupling.matrix_for(i_idx, j_idx)
            if a is not spec.coupling.matrix:
                own_matrix[flat] = a

    taus: dict = {}

    def tau_for(feasibility: np.ndarray) -> tuple[int, ...] | None:
        key = feasibility.tobytes()
        if key not in taus:
            taus[key] = tau_search(feasibility)
        return taus[key]

    signs: dict = {}  # _perm_sign(tau) ** u per assignment tau
    entries: list = [None] * total

    def run(slots: _Slots, flat: np.ndarray) -> None:
        ch = choice_rows(flat)
        lo, ms, slacks, sure, maybe, cells = slots.evaluate(ch, need_membership)
        best = np.min(np.max(slacks, axis=2), axis=1).tolist()
        found = [tau_for(f) for f in sure]
        passing = [e for e, tau in enumerate(found) if tau is not None]
        pe = np.array(passing, dtype=int)[:, None]
        cols = np.array([found[e] for e in passing], dtype=int).reshape(-1, d) - 1
        unstable = lo[pe, nodes, cols].min(axis=1)
        stable = ms[pe, nodes, cols].min(axis=1)
        rowwise = zip(unstable.tolist(), stable.tolist(),
                      np.prod(slots.deg[cells[pe, nodes, cols]], axis=1).tolist(),
                      geo.radius[nodes, ch[passing]].min(axis=1).tolist(),
                      (np.minimum(unstable, stable) - inflation).tolist())
        index, at = list(indices(ch)), flat.tolist()
        for e, tau in enumerate(found):
            if tau is None:
                verdict = "fail" if tau_for(maybe[e]) is None else "inconclusive"
                notes = (f"no node assignment satisfies every coupled row "
                         f"(best achievable slack {best[e]:.6g})",)
                if verdict == "inconclusive":
                    notes += ("grid bounds too coarse to decide; raise the resolution",)
                entries[at[e]] = EntryResult(*index[e], None, None, verdict, best[e], notes)
        for e, (unstable, stable, degree, radius, slack) in zip(passing, rowwise):
            i_idx, j_idx = index[e]
            tau = found[e]
            if tau not in signs:
                signs[tau] = _perm_sign(tau) ** u
            eps = persistence_bound(_Margins(unstable, stable, radius), chart_lip, coupling_lip)
            cert = CoveringCertificate(
                source_id=product_id(i_idx), target_id=product_id(j_idx),
                degree=DegreeValue(signs[tau] * degree, "composition"),
                unstable_margin=unstable, stable_margin=stable, target_radius=radius,
                admissible_eps=eps)
            entries[at[e]] = EntryResult(i_idx, j_idx, tau, cert, "pass", slack, ())

    shared = _Slots(geo, spec.coupling.matrix)
    skip = np.array(sorted(own_matrix), dtype=int)
    for start in range(0, total, BLOCK):
        flat = np.arange(start, min(start + BLOCK, total))
        flat = flat[~np.isin(flat, skip)]
        if flat.size:
            run(shared, flat)
    for flat, a in own_matrix.items():
        run(_Slots(geo, a), np.array([flat]))
    return entries


def _require_valid(spec: NetworkSpec, kind: str) -> None:
    if spec.coupling.kind != kind:
        raise SpecError(f"checker needs coupling kind '{kind}', "
                        f"spec declares '{spec.coupling.kind}'")
    report = validate_spec(spec)
    if not report.ok:
        raise SpecError("spec fails validation: " + "; ".join(report.errors))


def _require_finite_scaling(spec: NetworkSpec, forms: list[dict]) -> None:
    """Refuse a chart form, or a coupling that scales one, past floating-point range.

    The checks evaluate every chart form scaled by a coupling coefficient
    a[k, m].  On the unit box |form(x)| is at most the form's size, its
    pieces' largest row sum plus offset, and |a[k, m] form(x)| at most the
    coupling's max row sum times that size.  A form whose own size is not
    finite is refused at its node: ``$.nodes[k].chart_forms`` when declared,
    ``$.nodes[k].map`` when composed from the local map.  The product with
    the coupling must be finite too, or an inf (and then NaN) would reach
    the margins.
    """
    size = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (node, node_forms) in enumerate(zip(spec.nodes, forms)):
            pieces = (p for form in node_forms.values() for F in (form.U, form.V)
                      if F is not None for p in F.pieces)
            for p in pieces:
                piece_size = float(np.max(np.sum(np.abs(p.matrix), axis=1) + np.abs(p.offset)))
                if not math.isfinite(piece_size):
                    where = "chart_forms" if node.chart_forms is not None else "map"
                    raise SpecError(f"$.nodes[{k}].{where}: chart-form size {piece_size:g} "
                                    f"is not a finite number")
                size = max(size, piece_size)
    lip = spec.coupling.lipschitz()
    if not math.isfinite(lip * size):
        raise SpecError(f"$.coupling.matrix: coupling row sum {lip:g} times chart-form "
                        f"size {size:g} is not a finite number")


def _hull_radius(boxes: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Largest |coordinate| over the (lo, hi) bounding boxes of a node's h-sets."""
    return max(max(float(hi.max()), -float(lo.min())) for lo, hi in boxes)


def _local_reach(F: PiecewiseAffineMap, radius: float) -> tuple[float, float]:
    """Bounds on |F(x)| and on |cell constraint values| over |x| <= radius
    (max-norm): each piece's largest absolute row sum times ``radius`` plus
    |offset|, and the same for its normals and |bounds|.

    Over the box hull of a node's h-sets, the sets its charts carry onto
    the unit box, a bound that is not finite means the map, or the test of
    which cell holds a point, cannot be evaluated there in floating point.
    """
    def reach(rows: np.ndarray, rhs: np.ndarray) -> float:
        return float((np.abs(rows).sum(axis=1) * radius + np.abs(rhs)).max(initial=0.0))

    pieces = F.pieces
    with np.errstate(over="ignore", invalid="ignore"):
        return (reach(np.concatenate([p.matrix for p in pieces]),
                      np.concatenate([p.offset for p in pieces])),
                reach(np.concatenate([p.normals for p in pieces]),
                      np.concatenate([p.bounds for p in pieces])))


def require_finite_step(spec: NetworkSpec) -> None:
    """Refuse an interaction that carries h-set states past floating-point range.

    ``simulate``, ``periodic`` and ``entropy`` iterate the network map from
    states in the node h-sets.  On the box hull of a node's h-sets,
    |local image| is at most each piece's largest row sum times the hull's
    largest |coordinate| plus its |offset|, and the interaction map bounds
    the coupled image the same way; that bound must be finite, or inf
    states would reach the output.
    """
    local = 0.0
    for k, node in enumerate(spec.nodes):
        size, _ = _local_reach(node.local_map,
                               _hull_radius([h.bounding_box() for h in node.hsets]))
        if not math.isfinite(size):
            raise SpecError(f"$.nodes[{k}].map: the local map carries h-set states "
                            f"past floating-point range")
        local = max(local, size)
    coupled, _ = _local_reach(spec.ambient_map(), local)
    if not math.isfinite(coupled):
        where = "$.coupling.ambient" if spec.coupling.ambient is not None else "$.coupling.matrix"
        raise SpecError(f"{where}: the interaction map carries h-set states of local "
                        f"image size {local:g} past floating-point range")


def theorem1_check(spec: NetworkSpec, resolution: int = 64,
                   pert_amplitude: float = 0.0) -> TheoremReport:
    """Certify the permutation-structure hypotheses (periodic-point check).

    Every node transition matrix must be a permutation.  On a pass the
    report carries the orbit period lcm(dim W_1, ..., dim W_d) and the
    global admissible perturbation radius.  ``pert_amplitude`` re-runs the
    check with every row inequality tightened by the worst-case chart-level
    displacement of a perturbation of that sup-norm.
    """
    for k, node in enumerate(spec.nodes, start=1):
        if not node.transition.is_permutation():
            raise SpecError(f"node {k}: transition matrix is not a permutation")
    _require_valid(spec, TYPE_I)

    forms = [_resolve_forms(node, TYPE_I) for node in spec.nodes]
    _require_finite_scaling(spec, forms)
    u = spec.nodes[0].dim_u
    s = spec.nodes[0].dim_s
    zero_u, zero_s = np.zeros(u), np.zeros(s)

    # every transition on its own must be a single covering of the target
    # h-set's unit box (center 0, radius 1 in its chart), before the coupling enters
    target = CenterScale(zero_u, zero_s, 1.0)
    structural: list[str] = []
    for k, node in enumerate(spec.nodes):
        for (i, j) in node.transitions():
            outcome = check_covering(node.hsets[i - 1], target, forms[k][(i, j)],
                                     resolution=resolution)
            if not outcome.passed:
                structural.append(f"node {k + 1} transition {i}->{j}: "
                                  + "; ".join(outcome.failures))
    if structural:
        raise SpecError("local covering structure fails: " + "; ".join(structural))

    chart_lip = max(node.hsets[j - 1].chart.lipschitz()
                    for node in spec.nodes for j in range(1, node.count + 1))
    choices = []
    for node in spec.nodes:
        perm = node.transition.permutation()
        choices.append([_Choice((i, perm[i - 1]), i, perm[i - 1], zero_u, zero_s, 1.0)
                        for i in range(1, node.count + 1)])
    entries = _check_entries(spec, forms, choices, resolution, chart_lip, pert_amplitude,
                             need_membership=False)

    verdict = _aggregate(entries)
    eps = min((e.certificate.admissible_eps for e in entries if e.certificate),
              default=0.0)
    period = lcm_period([n.transition.n for n in spec.nodes]) if verdict == "pass" else None
    return TheoremReport(1, verdict, tuple(entries),
                         eps if verdict == "pass" else 0.0, period=period)


def theorem2_check(spec: NetworkSpec, resolution: int = 64,
                   pert_amplitude: float = 0.0) -> TheoremReport:
    """Certify the unified-family hypotheses (entropy lower-bound check).

    On a pass the report carries the entropy lower bound, the sum of the
    log Perron roots of the node transition matrices, and the global
    admissible perturbation radius.
    """
    _require_valid(spec, TYPE_II)
    forms = [_resolve_forms(node, TYPE_II) for node in spec.nodes]
    _require_finite_scaling(spec, forms)
    s = spec.nodes[0].dim_s

    chart_lip = max(node.member_chart(j).lipschitz()
                    for node in spec.nodes for j in range(1, node.count + 1))
    choices = []
    for node in spec.nodes:
        targets = [center for _, center in node.unified.members]
        choices.append([_Choice(i, i, j, targets[j - 1].p_u, targets[j - 1].p_s,
                                targets[j - 1].r if s > 0 else 1.0)
                        for i, j in node.transitions()])
    entries = _check_entries(spec, forms, choices, resolution, chart_lip, pert_amplitude,
                             need_membership=True)

    verdict = _aggregate(entries)
    eps = min((e.certificate.admissible_eps for e in entries if e.certificate),
              default=0.0)
    bound = float(sum(math.log(spectral_radius(n.transition)) for n in spec.nodes))
    return TheoremReport(2, verdict, tuple(entries),
                         eps if verdict == "pass" else 0.0,
                         entropy_bound=bound if verdict == "pass" else None)


def _aggregate(entries: list[EntryResult]) -> str:
    if all(e.verdict == "pass" for e in entries):
        return "pass"
    if any(e.verdict == "fail" for e in entries):
        return "fail"
    return "inconclusive"


# ---------------------------------------------------------------------------
# conjugacy audit


@dataclass(frozen=True)
class ConjugacyReport:
    worst_residual: float
    samples: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def conjugacy_audit(spec: NetworkSpec, seed: int = 0) -> ConjugacyReport:
    """Sampled audit that the interaction matches its Kronecker model.

    About 200 points, split evenly over the chart-form combinations, are
    drawn in the image of the h-set products under the local maps, pushed
    through the charts, and compared against the linear model; a residual
    above 1e-9 is a mismatch.  This audits input consistency; it is not a
    proof.
    """
    rng = np.random.default_rng(seed)
    d = spec.d
    block = spec.block_dim
    kind = spec.coupling.kind
    ambient = spec.ambient_map()
    worst = 0.0
    bad: list[str] = []
    n_done = 0

    combos = list(itertools.product(*[_form_keys(n, kind) for n in spec.nodes]))
    per = max(1, 200 // max(1, len(combos)))
    for combo in combos:
        charts_in, charts_out = zip(*(_form_charts(n, kind, key)
                                      for n, key in zip(spec.nodes, combo)))
        if kind == TYPE_II:
            a = spec.coupling.matrix
            label = f"sources {combo}"
        else:
            i_idx = tuple(i for i, _ in combo)
            j_idx = tuple(j for _, j in combo)
            a = spec.coupling.matrix_for(i_idx, j_idx)
            label = f"entry {i_idx}->{j_idx}"
        model = np.kron(a, np.eye(block))
        xi = rng.uniform(-1.0, 1.0, size=(per, d * block))
        for row in xi:
            w = np.concatenate([charts_in[k].invert(row[k * block:(k + 1) * block])
                                for k in range(d)])
            tw = np.concatenate([spec.nodes[k].local_map.apply(w[k * block:(k + 1) * block])
                                 for k in range(d)])
            z = np.concatenate([charts_out[k].apply(tw[k * block:(k + 1) * block])
                                for k in range(d)])
            atw = ambient.apply(tw)
            lhs = np.concatenate([charts_out[k].apply(atw[k * block:(k + 1) * block])
                                  for k in range(d)])
            resid = float(np.max(np.abs(lhs - model @ z)))
            worst = max(worst, resid)
            n_done += 1
            if resid > 1e-9 and len(bad) < 16:
                bad.append(f"{label}: residual {resid:.3e}")
    return ConjugacyReport(worst, n_done, tuple(bad))
