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
one choice per node.  The loop keeps one set of dense tables per check
(``_Tables``).  A cell of them, holding stretch bounds, a stable term and
a degree, is indexed by node m, its chart form, which of coupling column
m's distinct coefficients scales it (over the shared matrix and every
``per_entry`` one) and which distinct row reference it is measured
against, so cells that agree on those four share one geometry call.
Cells fill when an entry first references them, the degree only where a
row reaches that test.  The row margins of a block of entries are then
whole-array operations, and ``tau_search`` runs once per distinct
feasibility matrix.  A cell whose margins hold is decided by its Brouwer
degree alone: feasible when known and nonzero.

Before its entry loop, theorem 1 checks each node transition (i, j) on
its own, uncoupled, as a single covering of h-set j by h-set i with one
``covering.check_covering`` call; an outcome other than "pass" is a
``SpecError`` naming the node, the transition and the failures.  Each
theorem check creates one ``geometry.CellGeometry`` store and hands it to
every stretch call it makes, these pre-check calls included, so the
unscaled forms of the pre-check and their scalings in the entry loop share
one table per distinct cell structure.  Both checks first refuse, as a
``SpecError``, a chart form that is itself past floating-point range or
has a cell with too many vertices to enumerate (at ``$.nodes[k].map`` or
``$.nodes[k].chart_forms``) and a coupling large enough to scale a finite
one past that range (at ``$.coupling.matrix``); ``require_finite_step`` refuses, the same way, an
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
from .geometry import (EVAL_TIE_TOL, MAX_GRID_POINTS, MAX_VERTEX_CANDIDATES, AffineChart,
                       AffinePiece, CellGeometry, CenterScale, GeometryError, HSet,
                       PiecewiseAffineMap, UnifiedSet, _piece_box_vertices, box_grid,
                       face_grid_points, max_face_resolution, max_stretch, min_stretch,
                       singular, split_product, unified_validate, vertex_candidates)
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
    _report: ValidationReport | None = field(default=None, init=False, repr=False,
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


def _node_forms(spec: NetworkSpec, kind: str) -> list[dict]:
    """Every node's chart forms; a node whose forms cannot be derived (a
    map that is not of product form, or too many sample points to check
    that it is) is refused at ``$.nodes[k].map``."""
    forms = []
    for k, node in enumerate(spec.nodes):
        try:
            forms.append(_resolve_forms(node, kind))
        except GeometryError as exc:
            raise SpecError(f"$.nodes[{k}].map: {exc}") from exc
    return forms


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
    vals = node.local_map.apply_batch(np.vstack([pts, grid]).T)
    pad = node.local_map.lipschitz() * float(np.max(hi - lo)) / 6.0
    return vals.min(axis=1) - pad, vals.max(axis=1) + pad


def _boxes_disjoint(a: tuple[np.ndarray, np.ndarray],
                    b: tuple[np.ndarray, np.ndarray]) -> bool:
    return bool(np.any(a[1] < b[0] - EVAL_TIE_TOL) or np.any(b[1] < a[0] - EVAL_TIE_TOL))


def _hsets_meet(a: HSet, b: HSet) -> bool:
    """Whether two h-sets share a point: in a's chart, b is the polytope
    |M x + c| <= 1, and the sets meet when its intersection with a's unit
    box has a vertex (to the vertex test's 1e-9).  Raises ``GeometryError``
    when that polytope has too many vertex candidates to enumerate."""
    lin = b.chart.linear @ a.chart.inverse_linear
    off = b.chart.offset - lin @ a.chart.offset
    cell = AffinePiece(lin, off, np.vstack([lin, -lin]), np.concatenate([1.0 - off, 1.0 + off]))
    return _piece_box_vertices(cell, a.dim).shape[0] > 0


def _entry_overrides(spec: NetworkSpec) -> tuple[dict[int, np.ndarray], list[str]]:
    """Flat Kronecker entry -> matrix of each ``per_entry`` override, and the
    errors of the overrides: a matrix that is not d x d or is singular, and
    an override that names no entry of its own (one of the wrong length,
    with a transition its node does not allow, or with the (i, j) of an
    earlier one).  Entries run in ``itertools.product`` order over the
    nodes' transitions, as the checkers and the conjugacy audit enumerate
    them; an override finds its entry through per-node {(i, j): index} tables.
    """
    d = spec.d
    lookup = [{pair: c for c, pair in enumerate(node.transitions())} for node in spec.nodes]
    own: dict[int, np.ndarray] = {}
    first: dict[int, int] = {}
    errors: list[str] = []
    for n, (i_idx, j_idx, a) in enumerate(spec.coupling.per_entry or ()):
        where, pairs = f"$.coupling.per_entry[{n}]", list(zip(i_idx, j_idx))
        matrix = np.asarray(a, dtype=float)
        if matrix.shape != (d, d):
            errors.append(f"{where}.matrix: not {d}x{d}")
        elif singular(matrix):
            errors.append(f"{where}.matrix: numerically singular")
        missing = [k for k, (table, pair) in enumerate(zip(lookup, pairs)) if pair not in table]
        if len(i_idx) != d or len(j_idx) != d:
            errors.append(f"{where}: i and j must name one symbol for each of the "
                          f"{d} nodes")
        elif missing:
            i, j = pairs[missing[0]]
            errors.append(f"{where}: node {missing[0] + 1} has no transition {i}->{j}")
        else:
            flat = 0
            for table, pair in zip(lookup, pairs):
                flat = flat * len(table) + table[pair]
            if flat in own:
                errors.append(f"{where}: repeats the entry of per_entry[{first[flat]}]")
            else:
                own[flat], first[flat] = matrix, n
    return own, errors


def validate_spec(spec: NetworkSpec) -> ValidationReport:
    """Structural audit: graph, coupling pattern, h-sets, transition data.

    A node's local map must be finite to evaluate on the box hull of the
    node's h-sets, its images and its cell tests both; one that is not is
    reported at ``$.nodes[k].map``, and the checks that would evaluate it
    (the declared-form audit, the type-I image separation) are skipped.
    Reports every violation rather than stopping at the first.  Two h-sets
    of a node whose box hulls meet are decided exactly, by ``_hsets_meet``,
    or refused at ``$.nodes[k].hsets[j]`` when that would take more than
    ``geometry.MAX_VERTEX_CANDIDATES`` candidate vertices; the type-I image
    separation rests on bounding boxes, exact on the line and a warning in
    higher dimensions.  The report is kept on the spec, so a later call
    (the CLI validates on load, a theorem check again before it runs)
    returns it without a second audit.
    """
    if spec._report is not None:
        return spec._report
    errors: list[str] = []
    warnings: list[str] = []

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

    if spec.coupling.per_entry and spec.coupling.kind == TYPE_II:
        warnings.append("per-entry coupling matrices are applied per entry by the "
                        "unified-family checker: each replaces the shared model "
                        "at its own entry only")
    if singular(a):
        errors.append("$.coupling.matrix: numerically singular")
    errors.extend(_entry_overrides(spec)[1])

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

        try:
            boxes = [h.bounding_box() for h in node.hsets]
        except GeometryError as exc:    # too many corners to list
            errors.append(f"$.nodes[{k - 1}].hsets: {exc}")
            all_finite = False
            continue
        image, cells = _local_reach(node.local_map, _hull_radius(boxes))
        finite = math.isfinite(image) and math.isfinite(cells)
        if not finite:
            errors.append(f"$.nodes[{k - 1}].map: the local map cannot be evaluated "
                          f"finitely on the node's h-sets (image size {image:g}, "
                          f"cell constraint size {cells:g})")
        all_finite = all_finite and finite

        for i, j in itertools.combinations(range(node.count), 2):
            if _boxes_disjoint(boxes[i], boxes[j]):
                continue
            try:
                meet = _hsets_meet(node.hsets[i], node.hsets[j])
            except GeometryError as exc:    # too many vertex candidates
                errors.append(f"$.nodes[{k - 1}].hsets[{j}]: cannot decide whether it "
                              f"meets {node.hsets[i].id}: {exc}")
                continue
            if meet:
                errors.append(f"node {k}: h-sets {node.hsets[i].id} and "
                              f"{node.hsets[j].id} are not disjoint")

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
        _check_non_overlap(spec, errors, warnings)

    object.__setattr__(spec, "_report", ValidationReport(tuple(errors), tuple(warnings)))
    return spec._report


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
    try:
        grid = box_grid(node.dim, 5).T
    except GeometryError as exc:        # too many sample points
        errors.append(f"$.nodes[{k - 1}].chart_forms: cannot audit the declared forms: {exc}")
        return
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
        got = form.U.apply_batch(grid[:u])
        if form.V is not None:
            got = np.vstack([got, form.V.apply_batch(grid[u:])])
        resid = float(np.max(np.abs(want - got)))
        if resid > 1e-9:
            errors.append(f"node {k}: declared chart form {key} disagrees with the "
                          f"composed map (residual {resid:.3e})")


def _check_non_overlap(spec: NetworkSpec, errors: list[str], warnings: list[str]) -> None:
    """Image-separation condition for locally linear coupling.

    The image of each source h-set must avoid every non-target h-set and
    every other source's image.  Intervals decide exactly; higher
    dimensions fall back to conservative boxes, whose findings are warnings.
    """
    for k, node in enumerate(spec.nodes, start=1):
        pairs = node.transitions()
        try:
            images = {i: _image_bbox(node, i) for i in {i for i, _ in pairs}}
        except GeometryError as exc:    # too many sample points
            errors.append(f"$.nodes[{k - 1}].map: cannot bound the h-set images: {exc}")
            continue
        exact = node.dim == 1
        for i, j in pairs:
            for jp in range(1, node.count + 1):
                if jp == j:
                    continue
                if not _boxes_disjoint(images[i], node.hsets[jp - 1].bounding_box()):
                    msg = (f"node {k}: image of {node.hsets[i - 1].id} meets "
                           f"{node.hsets[jp - 1].id} (targets may not overlap)")
                    (errors if exact else warnings).append(msg)
            for ip in images:
                if ip != i and not _boxes_disjoint(images[i], images[ip]):
                    msg = (f"node {k}: images of {node.hsets[i - 1].id} and "
                           f"{node.hsets[ip - 1].id} overlap")
                    (errors if exact else warnings).append(msg)


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
    """Sign of the permutation tau (1-based images): (-1) ** (number of inversions)."""
    return -1 if sum(a > b for a, b in itertools.combinations(tau, 2)) % 2 else 1


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


class _Tables:
    """Dense stretch and degree tables of one check, of ``shape`` (node
    forms, coefficients per column, references).

    The cell of row k and column m, in an entry with choices c under
    coupling matrix i (0 the shared one, then each override), is
    ``col[m, c_m] + coef[i, k, m] + row_u[k, c_k]`` for its stretch bounds
    and degree, and the same with ``row_s`` for its stable diagonal term.
    ``umax``, ``vmax0`` and ``radius`` are indexed [m, c].

    ``cells`` holds the cell-only geometry (totality probe, cell vertices,
    face-grid partition) of every chart form this check evaluates.  The
    theorem check creates it, and theorem 1's transition pre-check has
    already filled it with the unscaled forms.  A form's scalings by the
    coupling coefficients keep its cells, so each distinct cell structure
    is worked out once and reused by every stretch call of the check; the
    store goes away with the check.
    """

    def __init__(self, forms: list[dict], choices: list[list[_Choice]],
                 matrices: list[np.ndarray], u: int, s: int, resolution: int,
                 inflation: float, cells: CellGeometry):
        self.s, self.resolution, self.inflation = s, resolution, inflation
        self.cells = cells
        d, width = len(choices), max(map(len, choices))
        # each node's choices, padded to ``width`` with its first one (never read)
        self.grid = grid = [node + node[:1] * (width - len(node)) for node in choices]
        form_of, keys = _distinct([(m, ch.key) for m, node in enumerate(grid) for ch in node])
        self.forms = [(m, forms[m][key]) for m, key in keys]
        self.umax = np.array([max_stretch(F.U, np.zeros(u), cells=self.cells).max_abs
                              for _, F in self.forms])[form_of].reshape(d, width)
        self.vmax0 = np.array([0.0 if F.V is None
                               else max_stretch(F.V, np.zeros(s), cells=self.cells).max_abs
                               for _, F in self.forms])[form_of].reshape(d, width)
        self.radius = np.array([[ch.radius for ch in node] for node in grid])
        row_u, refs_u = _distinct([tuple(ch.ref_u.tolist()) for node in grid for ch in node])
        row_s, refs_s = _distinct([tuple(ch.ref_s.tolist()) for node in grid for ch in node])
        self.refs_u = [np.array(ref, dtype=float) for ref in refs_u]
        self.refs_s = [np.array(ref, dtype=float) for ref in refs_s]
        # distinct coefficients of each column, over every coupling matrix
        stacked = np.stack(matrices)
        columns = [_distinct(stacked[:, :, m].ravel().tolist()) for m in range(d)]
        self.coef_values = [values for _, values in columns]
        self.shape = (len(self.forms), max(map(len, self.coef_values)),
                      max(len(refs_u), len(refs_s)))
        self.col = np.reshape(form_of, (d, width)) * (self.shape[1] * self.shape[2])
        self.coef = np.stack([np.reshape(index, stacked.shape[:2]) for index, _ in columns],
                             axis=2) * self.shape[2]
        self.row_u, self.row_s = np.reshape([row_u, row_s], (2, d, width))
        self.abs_a = np.abs(stacked)
        n = math.prod(self.shape)
        self.min_rel, self.min_attained, self.vdiag = np.zeros((3, n))
        self.deg = np.zeros(n, dtype=np.int64)
        self.deg_known, self._bounds_done, self._vdiag_done, self._deg_done = \
            np.zeros((4, n), dtype=bool)

    def _claim(self, cells: np.ndarray, done: np.ndarray, refs: list[np.ndarray]):
        """Mark the cells not yet ``done`` as done; yield (cell, its chart
        form, coefficient and reference) for each of them."""
        todo = np.unique(cells[~done[cells]])
        done[todo] = True
        parts = (todo, *np.unravel_index(todo, self.shape))
        for t, f, c, r in zip(*(p.tolist() for p in parts)):
            m, F = self.forms[f]
            yield t, F, self.coef_values[m][c], refs[r]

    def evaluate(self, i: np.ndarray, ch: np.ndarray):
        """Margins and feasibility of the block of entries ``ch``.

        ``ch[e, m]`` is node m's choice index in entry e, and ``i[e]`` the
        index of the coupling matrix of entry e.  Returns the
        (entries, d, d) arrays margin_lo, margin_s, slack, feas_sure,
        feas_maybe and the cell of every row and column; rows are k,
        columns m.
        """
        nodes = np.arange(ch.shape[1])
        columns = self.col[nodes, ch][:, None, :] + self.coef[i]
        cells = columns + self.row_u[nodes, ch][:, :, None]
        for t, F, a, ref in self._claim(cells, self._bounds_done, self.refs_u):
            mb = min_stretch(F.U.scale(a), ref, resolution=self.resolution, cells=self.cells)
            self.min_rel[t], self.min_attained[t] = mb.min_rel, mb.min_attained

        abs_a = self.abs_a[i]
        term_u = abs_a * self.umax[nodes, ch][:, None, :]
        off_u = _row_sums(term_u)[:, :, None] - term_u
        margin_lo = self.min_rel[cells] - off_u - 1.0
        margin_hi = self.min_attained[cells] - off_u - 1.0
        if self.s > 0:
            stable = columns + self.row_s[nodes, ch][:, :, None]
            for t, F, a, ref in self._claim(stable, self._vdiag_done, self.refs_s):
                self.vdiag[t] = (0.0 if F.V is None
                                 else max_stretch(F.V.scale(a), ref, cells=self.cells).max_abs)
            term_v = abs_a * self.vmax0[nodes, ch][:, None, :]
            off_v = _row_sums(term_v)[:, :, None] - term_v
            margin_s = self.radius[nodes, ch][:, :, None] - (self.vdiag[stable] + off_v)
        else:
            margin_s = np.full(margin_lo.shape, math.inf)
        slack = np.where(margin_s < margin_lo, margin_s, margin_lo) - self.inflation

        threshold = STRICT_MARGIN + self.inflation
        ok_u_sure = margin_lo > threshold
        ok_u_maybe = margin_hi > threshold
        ok_s = margin_s > threshold
        want_deg = (ok_u_sure | ok_u_maybe) & ok_s & (self.min_rel[cells] > 0)
        for t, F, a, ref in self._claim(cells[want_deg], self._deg_done, self.refs_u):
            try:
                self.deg[t] = degree_for_map(F.U.scale(a), ref).value
                self.deg_known[t] = True
            except (DegreeUndefinedError, GeometryError):
                pass
        known = want_deg & self.deg_known[cells]
        zero = known & (self.deg[cells] == 0)
        feas_sure = ok_u_sure & ok_s & known & ~zero
        feas_maybe = ok_u_maybe & ok_s & ~zero
        return margin_lo, margin_s, slack, feas_sure, feas_maybe, cells


def _distinct(keys: list) -> tuple[list[int], list]:
    """Index of each key among the distinct keys, and those in first-use order."""
    index: dict = {}
    return [index.setdefault(key, len(index)) for key in keys], list(index)


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
                   cells: CellGeometry) -> list[EntryResult]:
    """Evaluate the coupled row inequalities for every nonzero Kronecker entry.

    An entry picks one choice per node; entries run in ``itertools.product``
    order over ``choices``, and are evaluated in numpy blocks of ``BLOCK``,
    each entry under its own ``per_entry`` matrix or the shared one.
    ``tau_search`` runs once per distinct feasibility matrix; result objects
    are built after a block's margins and assignments are known.
    """
    d = spec.d
    u = spec.nodes[0].dim_u
    coupling_lip = spec.coupling.lipschitz()
    inflation = pert_amplitude * chart_lip * (1.0 + coupling_lip)
    own = _entry_overrides(spec)[0]
    tables = _Tables(forms, choices, [spec.coupling.matrix] + list(own.values()), u,
                     spec.nodes[0].dim_s, resolution, inflation, cells)
    counts = [len(c) for c in choices]
    total = math.prod(counts)
    nodes = np.arange(d)
    # the coupling matrix of each entry: 0 the shared one, n the n-th override
    matrix_of = np.zeros(total, dtype=int)
    matrix_of[list(own)] = np.arange(1, len(own) + 1)
    sources, targets = (np.array([[getattr(ch, attr) for ch in node] for node in tables.grid])
                        for attr in ("source", "target"))
    hset_ids = [[h.id for h in node.hsets] for node in spec.nodes]

    @functools.cache
    def product_id(index: tuple[int, ...]) -> str:
        return "x".join([ids[symbol - 1] for ids, symbol in zip(hset_ids, index)])

    taus: dict = {}

    def tau_for(feasibility: np.ndarray) -> tuple[int, ...] | None:
        key = feasibility.tobytes()
        if key not in taus:
            taus[key] = tau_search(feasibility)
        return taus[key]

    sign = functools.cache(lambda tau: _perm_sign(tau) ** u)
    entries: list = [None] * total
    for start in range(0, total, BLOCK):
        flat = np.arange(start, min(start + BLOCK, total))
        ch = np.stack(np.unravel_index(flat, counts), axis=1)
        lo, ms, slacks, sure, maybe, cells = tables.evaluate(matrix_of[flat], ch)
        best = np.min(np.max(slacks, axis=2), axis=1).tolist()
        found = [tau_for(f) for f in sure]
        passing = [e for e, tau in enumerate(found) if tau is not None]
        pe = np.array(passing, dtype=int)[:, None]
        cols = np.array([found[e] for e in passing], dtype=int).reshape(-1, d) - 1
        unstable = lo[pe, nodes, cols].min(axis=1)
        stable = ms[pe, nodes, cols].min(axis=1)
        rowwise = zip(unstable.tolist(), stable.tolist(),
                      np.prod(tables.deg[cells[pe, nodes, cols]], axis=1).tolist(),
                      tables.radius[nodes, ch[passing]].min(axis=1).tolist(),
                      (np.minimum(unstable, stable) - inflation).tolist())
        index = list(zip(map(tuple, sources[nodes, ch].tolist()),
                         map(tuple, targets[nodes, ch].tolist())))
        for e, tau in enumerate(found):
            if tau is None:
                verdict = "fail" if tau_for(maybe[e]) is None else "inconclusive"
                notes = (f"no node assignment satisfies every coupled row "
                         f"(best achievable slack {best[e]:.6g})",)
                if verdict == "inconclusive":
                    notes += ("grid bounds too coarse to decide; raise the resolution",)
                entries[start + e] = EntryResult(*index[e], None, None, verdict, best[e], notes)
        for e, (unstable, stable, degree, radius, slack) in zip(passing, rowwise):
            i_idx, j_idx = index[e]
            tau = found[e]
            eps = persistence_bound(_Margins(unstable, stable, radius), chart_lip, coupling_lip)
            cert = CoveringCertificate(
                source_id=product_id(i_idx), target_id=product_id(j_idx),
                degree=DegreeValue(sign(tau) * degree, "composition"),
                unstable_margin=unstable, stable_margin=stable, target_radius=radius,
                admissible_eps=eps)
            entries[start + e] = EntryResult(i_idx, j_idx, tau, cert, "pass", slack, ())
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
    the margins.  A form with a cell of more than
    ``geometry.MAX_VERTEX_CANDIDATES`` candidate vertices, too many to
    enumerate for its stretch bounds, is refused at its node the same way.
    """
    size = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (node, node_forms) in enumerate(zip(spec.nodes, forms)):
            where = "chart_forms" if node.chart_forms is not None else "map"
            factors = [F for form in node_forms.values() for F in (form.U, form.V)
                       if F is not None]
            for F, p in ((F, p) for F in factors for p in F.pieces):
                piece_size = float(np.max(np.sum(np.abs(p.matrix), axis=1) + np.abs(p.offset)))
                if not math.isfinite(piece_size):
                    raise SpecError(f"$.nodes[{k}].{where}: chart-form size {piece_size:g} "
                                    f"is not a finite number")
                count = vertex_candidates(p, F.dim_in)
                if count > MAX_VERTEX_CANDIDATES:
                    raise SpecError(f"$.nodes[{k}].{where}: a chart-form cell has {count} "
                                    f"candidate vertices to enumerate, above the limit of "
                                    f"{MAX_VERTEX_CANDIDATES}")
                size = max(size, piece_size)
    lip = spec.coupling.lipschitz()
    if not math.isfinite(lip * size):
        raise SpecError(f"$.coupling.matrix: coupling row sum {lip:g} times chart-form "
                        f"size {size:g} is not a finite number")


def _require_face_grid(spec: NetworkSpec, forms: list[dict], resolution: int) -> None:
    """Refuse a grid resolution whose face grid would pass
    ``geometry.MAX_GRID_POINTS`` on a node that needs one: a node with
    u >= 2 and a chart form whose unstable factor is not affine takes its
    stretch minima from a face grid of 2 u resolution^(u - 1) points."""
    for k, (node, node_forms) in enumerate(zip(spec.nodes, forms)):
        u = node.dim_u
        if u < 2 or all(form.U.is_affine for form in node_forms.values()):
            continue
        points = face_grid_points(u, resolution)
        if points > MAX_GRID_POINTS:
            raise SpecError(f"$.nodes[{k}]: grid resolution {resolution} gives a face grid of "
                            f"{points} points on this node's non-affine chart forms "
                            f"(u = {u}), above the limit of {MAX_GRID_POINTS}; the largest "
                            f"resolution allowed is {max_face_resolution(u)}")


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
    report carries eps* and the period of the orbit through symbol 1 of
    every node (the lcm of the W_k's cycle lengths).  ``pert_amplitude`` re-runs
    the check with every row inequality tightened by the worst-case
    chart-level displacement of a perturbation of that sup-norm.
    """
    for k, node in enumerate(spec.nodes, start=1):
        if not node.transition.is_permutation():
            raise SpecError(f"node {k}: transition matrix is not a permutation")
    _require_valid(spec, TYPE_I)

    forms = _node_forms(spec, TYPE_I)
    _require_finite_scaling(spec, forms)
    _require_face_grid(spec, forms, resolution)
    u = spec.nodes[0].dim_u
    s = spec.nodes[0].dim_s
    zero_u, zero_s = np.zeros(u), np.zeros(s)

    # every transition on its own must be a single covering of the target
    # h-set's unit box (center 0, radius 1 in its chart), before the coupling enters
    target = CenterScale(zero_u, zero_s, 1.0)
    cells = CellGeometry()
    structural: list[str] = []
    for k, node in enumerate(spec.nodes):
        for (i, j) in node.transitions():
            outcome = check_covering(node.hsets[i - 1], target, forms[k][(i, j)],
                                     resolution=resolution, cells=cells)
            if not outcome.passed:
                structural.append(f"node {k + 1} transition {i}->{j}: "
                                  + "; ".join(outcome.failures))
    if structural:
        raise SpecError("local covering structure fails: " + "; ".join(structural))

    chart_lip = max(node.hsets[j - 1].chart.lipschitz()
                    for node in spec.nodes for j in range(1, node.count + 1))
    # one choice per transition, in the order ``_entry_overrides`` assumes
    choices = [[_Choice((i, j), i, j, zero_u, zero_s, 1.0) for i, j in node.transitions()]
               for node in spec.nodes]
    entries = _check_entries(spec, forms, choices, resolution, chart_lip, pert_amplitude,
                             cells)

    verdict = _aggregate(entries)
    eps = min((e.certificate.admissible_eps for e in entries if e.certificate),
              default=0.0)
    period = (lcm_period([n.transition.cycle_length(1) for n in spec.nodes])
              if verdict == "pass" else None)
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
    forms = _node_forms(spec, TYPE_II)
    _require_finite_scaling(spec, forms)
    _require_face_grid(spec, forms, resolution)
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
                             CellGeometry())

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

    def blockwise(fns, v):
        """fns[k] applied to node k's block of the state v."""
        return np.concatenate([f(x) for f, x in zip(fns, np.split(v, d))])

    combos = list(itertools.product(*[_form_keys(n, kind) for n in spec.nodes]))
    per = max(1, 200 // max(1, len(combos)))
    own = _entry_overrides(spec)[0] if kind == TYPE_I else {}
    for flat, combo in enumerate(combos):
        charts_in, charts_out = zip(*(_form_charts(n, kind, key)
                                      for n, key in zip(spec.nodes, combo)))
        if kind == TYPE_II:
            a = spec.coupling.matrix
            label = f"sources {combo}"
        else:
            i_idx = tuple(i for i, _ in combo)
            j_idx = tuple(j for _, j in combo)
            a = own.get(flat, spec.coupling.matrix)
            label = f"entry {i_idx}->{j_idx}"
        model = np.kron(a, np.eye(block))
        xi = rng.uniform(-1.0, 1.0, size=(per, d * block))
        for row in xi:
            w = blockwise([c.invert for c in charts_in], row)
            tw = blockwise([n.local_map.apply for n in spec.nodes], w)
            z = blockwise([c.apply for c in charts_out], tw)
            lhs = blockwise([c.apply for c in charts_out], ambient.apply(tw))
            resid = float(np.max(np.abs(lhs - model @ z)))
            worst = max(worst, resid)
            n_done += 1
            if resid > 1e-9 and len(bad) < 16:
                bad.append(f"{label}: residual {resid:.3e}")
    return ConjugacyReport(worst, n_done, tuple(bad))
