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
m's distinct coefficients scales it (over every coupling matrix of the
check) and which distinct row reference it is measured against, so cells
that agree on those four share one geometry call, and one
``geometry.CellGeometry`` store serves every form of the check.  Cells
fill when a row first references them.  ``_Tables.decide`` is the one
implementation of the covering inequalities: margins against
``STRICT_MARGIN`` plus the perturbation inflation, then the Brouwer degree,
read only where a row can still pass and feasible when known and nonzero.
The row margins of a block of entries are whole-array operations, and
``tau_search`` runs once per distinct feasibility matrix.

A single covering is the diagonal cell of a row under the identity
coupling, with no off-diagonal terms and no inflation.  ``check_covering``
is that one-node case.  Theorem 1 lists the identity as one more coupling
matrix of its tables and checks every transition (i, j) on its own, as
the covering of h-set j by h-set i, from those diagonal cells before the
entry loop; an outcome other than "pass" fails the check, its report
naming the first such node's ``$.nodes[k].map``, each of its failing
transitions and their failures.  Every command reads a spec through one
set-up (``set_up``), kept on the spec: ``validate_spec``, then each
node's chart forms taken or derived, audited and built (``_node_forms``,
refused at ``$.nodes[k].map`` or ``$.nodes[k].chart_forms``), and a
coupling large enough to scale a finite form past floating-point range
(at ``$.coupling.matrix``), each refusal a ``SpecError``.  A check's
tables (``_prepare``) start from it.

The coupling kind decides which charts a chart form composes the local map
with; ``_form_keys`` and ``_form_charts`` own that decision, and form
derivation, the declared-form audit and the conjugacy audit all read it
from them.  ``_choices`` owns what else a theorem reads by kind: each
node's choices and the charts whose Lipschitz constant scales eps*.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .covering import (STRICT_MARGIN, CoveringCertificate, CoveringOutcome, ProductFormMap,
                       persistence_bound)
from .degree import DegreeUndefinedError, DegreeValue, crossing_degrees, degree_for_map
from .geometry import (CONTINUITY_TOL, EVAL_TIE_TOL, MAX_GRID_POINTS, AffineChart, AffinePiece,
                       CellGeometry, CenterScale, GeometryError, HSet, PiecewiseAffineMap,
                       UnifiedSet, _box_vertices, affine_min_stretch, face_candidates,
                       face_grid_points, form_gap, line_stretch, max_face_resolution,
                       max_stretch, min_stretch, singular, split_product, unified_validate)
from .symbolic import TransitionMatrix, permutation_loop, spectral_radius

TYPE_I = "type1"
TYPE_II = "type2"


class SpecError(ValueError):
    """Network data violates a structural precondition."""


class LoopError(ValueError):
    """A loop or the sampler cannot run on a valid spec: an inadmissible
    loop, or no (invertible) affine branch of a map where one is needed."""


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
    _setup: SetUp | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(self.nodes) != self.graph.d:
            raise SpecError(f"{len(self.nodes)} nodes for a {self.graph.d}-node graph")
        if self.coupling.matrix.shape != (self.graph.d, self.graph.d):
            raise SpecError("coupling matrix must be d x d")

    @property
    def d(self) -> int:
        return self.graph.d

    @functools.cached_property
    def block_dim(self) -> int:
        return self.nodes[0].dim

    @functools.cached_property
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
    boxes: tuple = ()     # per node, the (lo, hi) bounding box of each of its h-sets
    charted: tuple = ()   # per node, its map in each source h-set chart the image test composed

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


def _compose(node: NodeSystem, kind: str, key, charted: dict) -> PiecewiseAffineMap:
    """The local map in the chart form ``key``'s charts, its inner step read
    from ``charted`` by source symbol, or composed and kept there."""
    inner, outer = _form_charts(node, kind, key)
    source = key if kind == TYPE_II else key[0]
    if source not in charted:
        charted[source] = node.local_map.in_chart(inner)
    return charted[source].compose_affine_outer(outer.linear, outer.offset)


def _resolve_forms(node: NodeSystem, kind: str, composed: dict | None = None,
                   cells: CellGeometry | None = None) -> dict:
    """Chart-coordinate product forms, declared or split from the composed
    local map of each key (``composed``, else composed here), whose meets
    ``split_product`` reads from ``cells`` when given."""
    if node.chart_forms is not None:
        return node.chart_forms
    with np.errstate(over="ignore", invalid="ignore"):    # ``_node_forms`` refuses an inf form
        if composed is None:
            composed = {key: _compose(node, kind, key, {}) for key in _form_keys(node, kind)}
        return {key: ProductFormMap(*split_product(F, node.dim_u, cells))
                for key, F in composed.items()}


def _choices(node: NodeSystem, kind: str) -> tuple[list[_Choice], list[AffineChart]]:
    """A node's choices, one per transition in ``node.transitions()`` order
    (the order ``_entry_overrides`` assumes), and the charts whose largest
    Lipschitz constant scales eps*.  Type II: transition (i, j) reads
    source i's form against member j's center and stable radius, and the
    charts are the member charts.  Type I: it reads form (i, j) against the
    centre of h-set j's unit box, radius 1, and the charts are the h-sets'."""
    if kind == TYPE_II:
        members = [center for _, center in node.unified.members]
        return ([_Choice(i, i, j, members[j - 1].p_u, members[j - 1].p_s,
                         members[j - 1].r if node.dim_s > 0 else 1.0)
                 for i, j in node.transitions()],
                [node.member_chart(j) for j in range(1, node.count + 1)])
    return ([_Choice((i, j), i, j, np.zeros(node.dim_u), np.zeros(node.dim_s), 1.0)
             for i, j in node.transitions()], [h.chart for h in node.hsets])


def _image_bbox(node: NodeSystem, symbol: int, box: tuple[np.ndarray, np.ndarray],
                charted: dict) -> tuple[np.ndarray, np.ndarray]:
    """Bounding box of the image of an h-set under the local map, exact: on
    the line ``range_1d`` over the h-set's bounding ``box``; above it each
    piece's least and largest values at the vertices of its cell inside the
    h-set (``_box_vertices``, once the h-set's chart carries the cells onto
    the unit box, a composition kept in ``charted`` by symbol)."""
    if node.dim == 1:
        lo, hi = node.local_map.range_1d(float(box[0][0]), float(box[1][0]))
        return np.array([lo]), np.array([hi])
    F = charted[symbol] = node.local_map.in_chart(node.hsets[symbol - 1].chart)
    verts, owner = _box_vertices([(p.normals, p.bounds) for p in F.pieces], node.dim)
    if not owner.size:
        raise GeometryError("no cell of the map meets the h-set")
    vals = (np.array([p.matrix for p in F.pieces])[owner] @ verts[:, :, None])[:, :, 0]
    vals += np.array([p.offset for p in F.pieces])[owner]
    return vals.min(axis=0), vals.max(axis=0)


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
    return _box_vertices([(np.vstack([lin, -lin]), np.concatenate([1.0 - off, 1.0 + off]))],
                         a.dim)[0].shape[0] > 0


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
    reported at ``$.nodes[k].map``, and the type-I image separation, which
    would evaluate it, is skipped; chart forms are left to ``set_up``.
    Else the interaction map must carry the largest images finitely too,
    or iterated states would reach inf (``$.coupling.matrix``, or
    ``.ambient`` when declared).  Reports every violation rather than
    stopping at the first.  Two h-sets of a node whose box hulls meet are
    decided exactly, by ``_hsets_meet``, or refused at
    ``$.nodes[k].hsets[j]`` when that would take more than
    ``geometry.MAX_VERTEX_CANDIDATES`` candidate vertices; the type-I image
    separation compares exact image boxes, an error on the line and a
    warning in higher dimensions, where boxes stand in for sets.  A declared
    ``ambient`` map must act on the network state, R^state_dim.  A type-I
    node's transition matrix must be a permutation, theorem 1's hypothesis
    (``$.nodes[k].transition``).  The report, with the h-set boxes it
    built, is kept on the spec, so a later call returns it without a second
    audit.
    """
    if spec._report is not None:
        return spec._report
    errors: list[str] = []
    warnings: list[str] = []

    if not spec.graph.weakly_connected():
        errors.append("$.graph.edges: graph is not weakly connected")

    a = spec.coupling.matrix
    d = spec.d
    ours = [(l, m) for l in range(1, d + 1) for m in range(1, d + 1)
            if l != m and abs(a[l - 1, m - 1]) > 1e-15 and (m, l) not in spec.graph.edges]
    for l, m in ours:
        errors.append(f"$.coupling.matrix[{l - 1}][{m - 1}]: coupling entry a[{l},{m}] is "
                      f"nonzero but edge ({m},{l}) is absent")
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
    ambient = spec.coupling.ambient
    if ambient is not None and not ambient.dim_in == ambient.dim_out == spec.state_dim:
        errors.append(f"$.coupling.ambient: the interaction map acts from R^{ambient.dim_in} "
                      f"to R^{ambient.dim_out}, the network state lives in R^{spec.state_dim}")

    block = spec.nodes[0].dim
    all_finite = True
    hulls = []      # per node, the bounding box of each of its h-sets
    reach = 0.0     # the largest bound on a node's local image over its h-sets
    for k, node in enumerate(spec.nodes, start=1):
        at = f"$.nodes[{k - 1}]"
        if node.dim != block:
            errors.append(f"{at}.hsets: ambient dimension {node.dim} != {block}")
        if node.dim_u < 1:
            errors.append(f"{at}.u: needs at least one expanding direction")
        if any(h.dim_u != node.dim_u or h.dim_s != node.dim_s for h in node.hsets):
            errors.append(f"{at}.hsets: h-sets disagree on the (u, s) split")
        if node.transition.n != node.count:
            errors.append(f"{at}.transition: transition matrix is {node.transition.n}x"
                          f"{node.transition.n} for {node.count} h-sets")
        elif spec.coupling.kind == TYPE_I and not node.transition.is_permutation():
            errors.append(f"{at}.transition: theorem 1 needs a permutation matrix")
        if node.local_map.dim_in != node.dim or node.local_map.dim_out != node.dim:
            errors.append(f"{at}.map: local map acts on R^{node.local_map.dim_in}, "
                          f"h-sets live in R^{node.dim}")

        try:
            boxes = [h.bounding_box() for h in node.hsets]
        except GeometryError as exc:    # too many corners to list
            errors.append(f"{at}.hsets: {exc}")
            all_finite = False
            continue
        hulls.append(tuple(boxes))
        radius = max(max(float(hi.max()), -float(lo.min())) for lo, hi in boxes)
        image, cells = _local_reach(node.local_map, radius)
        reach = max(reach, image)
        if not (math.isfinite(image) and math.isfinite(cells)):
            errors.append(f"{at}.map: the local map cannot be evaluated "
                          f"finitely on the node's h-sets (image size {image:g}, "
                          f"cell constraint size {cells:g})")
            all_finite = False

        for i, j in itertools.combinations(range(node.count), 2):
            if _boxes_disjoint(boxes[i], boxes[j]):
                continue
            try:
                meet = _hsets_meet(node.hsets[i], node.hsets[j])
            except GeometryError as exc:    # too many vertex candidates
                errors.append(f"{at}.hsets[{j}]: cannot decide whether it "
                              f"meets {node.hsets[i].id}: {exc}")
                continue
            if meet:
                errors.append(f"{at}.hsets[{j}]: h-sets {node.hsets[i].id} and "
                              f"{node.hsets[j].id} are not disjoint")

        if node.unified is not None:
            rep = unified_validate(node.unified)
            errors.extend(f"{at}.unified.{v}" for v in rep.violations)
            if node.unified.count != node.count:
                errors.append(f"{at}.unified: unified family has {node.unified.count} "
                              f"members for {node.count} h-sets")
            else:
                _check_member_charts(node, k, errors, warnings)
        elif spec.coupling.kind == TYPE_II:
            errors.append(f"{at}.unified: unified family required for this coupling kind")

    if all_finite and not math.isfinite(_local_reach(spec.ambient_map(), reach)[0]):
        errors.append(f"$.coupling.{'matrix' if spec.coupling.ambient is None else 'ambient'}: "
                      f"the interaction map carries h-set states of local image size {reach:g} "
                      "past floating-point range")
    charted = tuple({} for _ in spec.nodes)
    if spec.coupling.kind == TYPE_I and all_finite:
        _check_non_overlap(spec, hulls, charted, errors, warnings)

    object.__setattr__(spec, "_report",
                       ValidationReport(tuple(errors), tuple(warnings), tuple(hulls), charted))
    return spec._report


def _check_member_charts(node: NodeSystem, k: int, errors: list[str],
                         warnings: list[str]) -> None:
    """The unified member charts must carve out the same physical sets; a
    chart change that is not finite describes a different one."""
    for i, hset in enumerate(node.hsets, start=1):
        q = node.member_chart(i)
        with np.errstate(over="ignore", invalid="ignore"):
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
            errors.append(f"$.nodes[{k - 1}].unified.members[{i - 1}]: unified member {i} "
                          f"and h-set {hset.id} describe different sets")


def _check_non_overlap(spec: NetworkSpec, hulls: list[list[tuple[np.ndarray, np.ndarray]]],
                       charted: tuple[dict, ...], errors: list[str],
                       warnings: list[str]) -> None:
    """Image-separation condition for locally linear coupling.

    The image of each source h-set must avoid every non-target h-set and
    every other source's image.  Intervals decide exactly; higher
    dimensions compare exact image boxes with box hulls, so what they find,
    or an image box that cannot be computed, is a warning.  ``hulls`` holds
    each node's h-set bounding boxes, as ``validate_spec`` built them; the
    local maps composed into the source h-set charts go into ``charted``.
    """
    for k, (node, boxes, node_charted) in enumerate(zip(spec.nodes, hulls, charted), start=1):
        pairs, exact = node.transitions(), node.dim == 1
        try:
            images = {i: _image_bbox(node, i, boxes[i - 1], node_charted)
                      for i in {i for i, _ in pairs}}
        except GeometryError as exc:    # a cell of too many vertex candidates, or none
            (errors if exact else warnings).append(f"$.nodes[{k - 1}].map: cannot bound the "
                                                   f"h-set images: {exc}")
            continue
        # refused at the map on the line; a warning names the node
        at, found = (f"$.nodes[{k - 1}].map", errors) if exact else (f"node {k}", warnings)
        for i, j in pairs:
            for jp in range(1, node.count + 1):
                if jp == j:
                    continue
                if not _boxes_disjoint(images[i], boxes[jp - 1]):
                    found.append(f"{at}: image of {node.hsets[i - 1].id} meets "
                                 f"{node.hsets[jp - 1].id} (targets may not overlap)")
            for ip in images:
                if ip != i and not _boxes_disjoint(images[i], images[ip]):
                    found.append(f"{at}: images of {node.hsets[i - 1].id} and "
                                 f"{node.hsets[ip - 1].id} overlap")


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


def _perm_sign(tau) -> np.ndarray:
    """Sign of each permutation tau[..., :] (1-based images): (-1) ** (number of inversions)."""
    tau = np.asarray(tau)
    return 1 - 2 * (np.triu(tau[..., :, None] > tau[..., None, :]).sum(axis=(-2, -1)) % 2)


# ---------------------------------------------------------------------------
# theorem checkers


@dataclass(frozen=True, eq=False)
class EntryTable:
    """Outcome of every nonzero Kronecker entry, one array per column, row n
    the n-th entry in ``itertools.product`` order; ``tau``, ``degree``, both
    margins and ``admissible_eps`` hold 0 or NaN except at a pass."""

    source: np.ndarray            # (entries, d) source symbols, 1-based
    target: np.ndarray            # (entries, d) target symbols, 1-based
    verdict: np.ndarray           # pass | fail | inconclusive
    slack: np.ndarray             # worst row slack (best achievable on failure)
    tau: np.ndarray               # (entries, d) node assignment, 1-based
    degree: np.ndarray            # crossing degree of the composed covering
    unstable_margin: np.ndarray   # least min stretch, minus 1, over the assigned rows
    stable_margin: np.ndarray     # least stable radius less stretch; inf when s = 0
    admissible_eps: np.ndarray    # persistence radius (``persistence_bound``)

    def __len__(self) -> int:
        return len(self.slack)


def entry_failures(verdict: str, slack: float) -> tuple[str, ...]:
    """The failure notes of an entry (an ``EntryTable`` row) of ``verdict`` and ``slack``."""
    if verdict == "pass":
        return ()
    notes = (f"no node assignment satisfies every coupled row "
             f"(best achievable slack {slack:.6g})",)
    if verdict == "inconclusive":
        notes += ("grid bounds too coarse to decide; raise the resolution",)
    return notes


@dataclass(frozen=True)
class TheoremReport:
    """Aggregate verdict over all nonzero Kronecker entries."""

    theorem: int
    verdict: str
    entries: EntryTable
    global_eps: float
    entropy_bound: float | None = None
    period: int | None = None
    hypothesis: str | None = None   # theorem 1's failed local covering, when one fails

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def binding_entry(self) -> int:
        """Index of the first entry of least slack: the one that decides the verdict."""
        return int(np.argmin(self.entries.slack))


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


class _Rows(NamedTuple):
    """The covering inequalities of a block of row cells (``_Tables.decide``)."""

    margin_lo: np.ndarray     # stretch lower bound less the off-diagonal terms, minus 1
    margin_s: np.ndarray      # radius less the stable terms; inf when s = 0
    slack: np.ndarray         # the smaller margin, less the inflation
    ok_u_sure: np.ndarray     # the stretch inequality holds
    ok_u_maybe: np.ndarray    # it may hold: the attained stretch clears the threshold
    ok_s: np.ndarray          # the stable inequality holds
    want_deg: np.ndarray      # the row can still pass, so its degree was read
    feas_sure: np.ndarray
    feas_maybe: np.ndarray


class _Tables:
    """Dense stretch and degree tables of one check, of ``shape`` (node
    forms, coefficients per column, references).

    The cell of row k and column m, in an entry with choices c under
    coupling matrix i (in the order the check lists them), is
    ``col[m, c_m] + coef[i, k, m] + row_u[k, c_k]`` for its stretch bounds
    and degree, and the same with ``row_s`` for its stable diagonal term.
    ``radius`` and ``form_of`` are indexed [m, c].  ``degrees`` keeps the
    degree each cell was read for: a value or an error.  ``maxima[j, f]``
    is the max stretch about 0 of form f's U (j = 0) or V (j = 1), 0
    without one: the off-diagonal terms, which no single covering reads.

    ``cells`` is the spec's cell-only geometry store (``set_up`` has
    built the table of every factor of its forms in it).  A form's scalings by
    the coupling coefficients keep its cells, so each distinct cell
    structure is worked out once per check.

    ``decide`` fills the cells it claims.  Every bound of a factor on the
    line (U's stretch bounds when u = 1, the stable terms when s = 1, the
    maxima of such factors) comes from one ``line_stretch`` pass, and the
    degrees of U on the line from the endpoint values (``ends``) that pass
    kept, through ``crossing_degrees``.  The affine cells with two or more
    unstable directions share one vertex enumeration of their face
    programs (``affine_min_stretch``);
    a face-grid cell takes one ``min_stretch`` call, a wider stable or
    off-diagonal term one ``max_stretch`` call, a degree of a wider U one
    ``degree_for_map`` call.
    """

    def __init__(self, forms: list[dict], choices: list[list[_Choice]],
                 matrices: list[np.ndarray], s: int, resolution: int, cells: CellGeometry):
        self.s, self.resolution, self.cells = s, resolution, cells
        self.counts = [len(node) for node in choices]
        d, width = len(choices), max(map(len, choices))
        # each node's choices, padded to ``width`` with its first one (never read)
        self.grid = grid = [node + node[:1] * (width - len(node)) for node in choices]
        form_of, keys = _distinct([(m, ch.key) for m, node in enumerate(grid) for ch in node])
        self.forms = [(m, forms[m][key]) for m, key in keys]
        self.form_of = np.reshape(form_of, (d, width))
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
        self.col = self.form_of * (self.shape[1] * self.shape[2])
        self.coef = np.stack([np.reshape(index, stacked.shape[:2]) for index, _ in columns],
                             axis=2) * self.shape[2]
        self.row_u, self.row_s = np.reshape([row_u, row_s], (2, d, width))
        self.abs_a = np.abs(stacked)
        n = math.prod(self.shape)
        self.min_rel, self.min_attained, self.vdiag = np.zeros((3, n))
        self.ends = np.zeros((n, 2))
        self.deg = np.zeros(n, dtype=np.int64)
        self.degrees: dict[int, DegreeValue | Exception] = {}
        self.deg_known, self._bounds_done, self._vdiag_done, self._deg_done = \
            np.zeros((4, n), dtype=bool)
        self.maxima = None

    def _claim(self, cells: np.ndarray, done: np.ndarray, refs: list[np.ndarray]):
        """Mark the cells not yet ``done`` as done; yield (cell, its chart
        form, coefficient and reference) for each of them."""
        todo = np.unique(cells[~done[cells]])
        done[todo] = True
        parts = (todo, *np.unravel_index(todo, self.shape))
        for t, f, c, r in zip(*(p.tolist() for p in parts)):
            m, F = self.forms[f]
            yield t, F, self.coef_values[m][c], refs[r]

    def _fill(self, cells: np.ndarray, stable: np.ndarray | None, maxima: bool) -> None:
        """Fill the stretch bounds of the row cells ``cells`` not yet filled,
        the stable terms of ``stable`` and, with ``maxima``, the maxima."""
        boundary, box, lp = [], [], []     # box: (table, spot in it, item)
        for t, F, a, ref in self._claim(cells, self._bounds_done, self.refs_u):
            if F.U.dim_in == 1:
                boundary.append((t, (F.U, a, ref)))
            elif F.U.is_affine:
                lp.append((t, (F.U.scale(a), ref)))
            else:
                mb = min_stretch(F.U.scale(a), ref, resolution=self.resolution, cells=self.cells)
                self.min_rel[t], self.min_attained[t] = mb.min_rel, mb.min_attained
        if stable is not None:
            for t, F, a, ref in self._claim(stable, self._vdiag_done, self.refs_s):
                if F.V.dim_in == 1:
                    box.append((self.vdiag, t, (F.V, a, ref)))
                else:
                    self.vdiag[t] = max_stretch(F.V.scale(a), ref, cells=self.cells).max_abs
        if maxima and self.maxima is None:
            self.maxima = np.zeros((2, len(self.forms)))
            for f, (_, F) in enumerate(self.forms):
                for j, G in enumerate((F.U, F.V)):
                    if G is None:
                        continue
                    if G.dim_in == 1:
                        box.append((self.maxima, (j, f), (G, 1.0, np.zeros(1))))
                    else:
                        self.maxima[j, f] = max_stretch(G, np.zeros(G.dim_in),
                                                        cells=self.cells).max_abs
        if boundary or box:
            line = line_stretch([item for _, item in boundary], [item for *_, item in box],
                                self.cells)
            at = [t for t, _ in boundary]
            self.min_rel[at] = self.min_attained[at] = line.min_rel
            self.ends[at] = line.ends
            for (table, spot, _), top in zip(box, line.max_abs[len(at):].tolist()):
                table[spot] = top
        for (t, _), mb in zip(lp, affine_min_stretch([pair for _, pair in lp], self.cells)):
            self.min_rel[t], self.min_attained[t] = mb.min_rel, mb.min_attained

    def _read_degrees(self, cells: np.ndarray) -> None:
        """Read the degree of the row cells ``cells`` not yet read."""
        read, line, targets = {}, [], []
        for t, F, a, ref in self._claim(cells, self._deg_done, self.refs_u):
            if F.U.dim_in == 1:
                line.append(t)
                targets.append(float(ref[0]))
                continue
            try:
                read[t] = degree_for_map(F.U.scale(a), ref)
            except (DegreeUndefinedError, GeometryError) as exc:
                # without its traceback, whose frames would hold these tables
                read[t] = exc.with_traceback(None)
        if line:
            read.update(zip(line, crossing_degrees(self.ends[line], targets)))
        self.degrees.update(read)
        for t, degree in read.items():
            if isinstance(degree, DegreeValue):
                self.deg[t], self.deg_known[t] = degree.value, True

    def decide(self, cells: np.ndarray, stable: np.ndarray | None, radius: np.ndarray | None,
               inflation: float, coupling: tuple[np.ndarray, np.ndarray] | None = None) -> _Rows:
        """The three covering inequalities of the row cells ``cells``.

        With ``coupling`` = (|a|, the form of each column), of shapes
        (entries, d, d) and (entries, d), a row's off-diagonal terms are
        the sums over its other columns of |a| times the column's maxima;
        without it there are none, as in a single covering.  When s > 0,
        ``stable`` are the stable cells and ``radius`` the stable radii,
        else both are None.  A cell holds (``feas_sure``) when its margins clear
        ``STRICT_MARGIN + inflation`` and its Brouwer degree, read only
        where the row can still pass, is known and nonzero; ``feas_maybe``
        marks the cells that may hold once a grid bound settles.
        """
        self._fill(cells, stable, coupling is not None)
        off_u = off_v = 0.0
        if coupling is not None:
            abs_a, forms = coupling
            off_u = _off_diagonal(abs_a, self.maxima[0, forms])
            if stable is not None:
                off_v = _off_diagonal(abs_a, self.maxima[1, forms])
        margin_lo = self.min_rel[cells] - off_u - 1.0
        margin_hi = self.min_attained[cells] - off_u - 1.0
        if stable is not None:
            margin_s = radius - (self.vdiag[stable] + off_v)
        else:
            margin_s = np.full(margin_lo.shape, math.inf)
        slack = np.where(margin_s < margin_lo, margin_s, margin_lo) - inflation

        threshold = STRICT_MARGIN + inflation
        ok_u_sure = margin_lo > threshold
        ok_u_maybe = margin_hi > threshold
        ok_s = margin_s > threshold
        want_deg = (ok_u_sure | ok_u_maybe) & ok_s & (self.min_rel[cells] > 0)
        self._read_degrees(cells[want_deg])
        known = want_deg & self.deg_known[cells]
        zero = known & (self.deg[cells] == 0)
        return _Rows(margin_lo, margin_s, slack, ok_u_sure, ok_u_maybe, ok_s, want_deg,
                     ok_u_sure & ok_s & known & ~zero, ok_u_maybe & ok_s & ~zero)

    def evaluate(self, i: np.ndarray, ch: np.ndarray, inflation: float):
        """Margins and feasibility of the block of entries ``ch``, every row
        inequality tightened by ``inflation``.

        ``ch[e, m]`` is node m's choice index in entry e, and ``i[e]`` the
        index of the coupling matrix of entry e.  Returns the rows
        (``decide``'s arrays, of shape (entries, d, d)) and the cell of
        every row and column; rows are k, columns m.
        """
        nodes = np.arange(ch.shape[1])
        columns = self.col[nodes, ch][:, None, :] + self.coef[i]
        cells = columns + self.row_u[nodes, ch][:, :, None]
        stable = radius = None
        if self.s > 0:
            stable = columns + self.row_s[nodes, ch][:, :, None]
            radius = self.radius[nodes, ch][:, :, None]
        coupling = (self.abs_a[i], self.form_of[nodes, ch])
        return self.decide(cells, stable, radius, inflation, coupling), cells

    def coverings(self, matrix: int, ids: list[list[tuple[str, str]]]
                  ) -> list[list[CoveringOutcome]]:
        """The single covering of each node choice: the diagonal cell of its
        row under coupling matrix ``matrix``, with no off-diagonal terms (no
        such cell is filled) and no inflation.  ``ids[k][c]`` names the
        source and target of node k's choice c, and indexes the outcomes."""
        base = self.col + np.diagonal(self.coef[matrix])[:, None]
        cells, stable = base + self.row_u, base + self.row_s
        rows = self.decide(cells, stable if self.s > 0 else None, self.radius, 0.0)
        outcomes = []
        for k, names in enumerate(ids):
            outcomes.append([])
            for c, (source_id, target_id) in enumerate(names):
                ch, t, at = self.grid[k][c], int(cells[k, c]), (k, c)
                failures = []
                if not rows.ok_u_maybe[at]:
                    failures.append(f"min stretch {self.min_attained[t]:.6g} <= 1 "
                                    f"relative to target center {ch.ref_u.tolist()}")
                elif not rows.ok_u_sure[at]:
                    failures.append(f"min-stretch bound [{self.min_rel[t]:.6g}, "
                                    f"{self.min_attained[t]:.6g}] straddles 1; grid too "
                                    "coarse to decide")
                degree = self.degrees[t] if rows.want_deg[at] else None
                if isinstance(degree, Exception):
                    failures.append(f"cannot certify the crossing degree: {degree}")
                elif degree is not None and degree.value == 0:
                    failures.append(f"degree 0 at target center {ch.ref_u.tolist()}")
                if not rows.ok_s[at]:
                    failures.append(f"max stretch {self.vdiag[stable[at]]:.6g} >= "
                                    f"{ch.radius:.6g} relative to stable center "
                                    f"{ch.ref_s.tolist()}")
                verdict = _verdict(rows.feas_sure[at], rows.feas_maybe[at])
                cert = None if verdict != "pass" else CoveringCertificate(
                    source_id, target_id, degree, float(rows.margin_lo[at]),
                    float(rows.margin_s[at]), ch.radius)
                outcomes[-1].append(CoveringOutcome(verdict, cert, tuple(failures)))
        return outcomes


def _verdict(sure: bool, maybe: bool) -> str:
    """Pass when ``sure`` to hold, inconclusive when it ``maybe`` holds, else fail."""
    return "pass" if sure else "inconclusive" if maybe else "fail"


def _distinct(keys: list) -> tuple[list[int], list]:
    """Index of each key among the distinct keys, and those in first-use order."""
    index: dict = {}
    return [index.setdefault(key, len(index)) for key in keys], list(index)


def _off_diagonal(abs_a: np.ndarray, maxima: np.ndarray) -> np.ndarray:
    """Each row's off-diagonal terms, (entries, d, d): the sum over its
    other columns m of |a_km| times column m's maximum (``maxima``,
    (entries, d))."""
    terms = abs_a * maxima[:, None, :]
    return _row_sums(terms)[:, :, None] - terms


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right as Python's ``sum`` adds the
    row terms; numpy's pairwise sum rounds differently from eight terms on."""
    total = terms[..., 0].copy()
    for col in range(1, terms.shape[-1]):
        total += terms[..., col]
    return total


class _Margins(NamedTuple):
    """What ``persistence_bound`` reads of a passing entry."""

    unstable_margin: float
    stable_margin: float
    target_radius: float


def _check_entries(spec: NetworkSpec, tables: _Tables, own: dict[int, np.ndarray],
                   chart_lip: float, pert_amplitude: float) -> EntryTable:
    """Evaluate the coupled row inequalities for every nonzero Kronecker entry.

    An entry picks one choice per node; entries run in ``itertools.product``
    order over the choices, and are evaluated in numpy blocks of ``BLOCK``,
    each entry under its own ``per_entry`` matrix (``own``, which ``tables``
    lists in order after the shared one) or the shared one.
    ``tau_search`` runs once per distinct feasibility matrix; each block
    fills its rows of the table's columns, and its passing entries must
    have positive margins and a nonzero degree.
    """
    d, u = spec.d, spec.nodes[0].dim_u
    coupling_lip = spec.coupling.lipschitz()
    inflation = pert_amplitude * chart_lip * (1.0 + coupling_lip)
    total = math.prod(tables.counts)
    nodes = np.arange(d)
    # the coupling matrix of each entry: 0 the shared one, n the n-th override
    matrix_of = np.zeros(total, dtype=int)
    matrix_of[list(own)] = np.arange(1, len(own) + 1)
    choice = np.stack(np.unravel_index(np.arange(total), tables.counts), axis=1)
    sources, targets = (np.array([[getattr(ch, attr) for ch in node] for node in tables.grid])
                        for attr in ("source", "target"))
    table = EntryTable(sources[nodes, choice], targets[nodes, choice],
                       np.empty(total, dtype="<U12"), np.empty(total),
                       np.zeros((total, d), dtype=int), np.zeros(total, dtype=int),
                       *np.full((3, total), math.nan))
    taus: dict = {}

    def tau_for(feasibility: np.ndarray) -> tuple[int, ...] | None:
        key = feasibility.tobytes()
        if key not in taus:
            taus[key] = tau_search(feasibility)
        return taus[key]

    for start in range(0, total, BLOCK):
        block = slice(start, min(start + BLOCK, total))
        rows, cells = tables.evaluate(matrix_of[block], choice[block], inflation)
        found = [tau_for(f) for f in rows.feas_sure]
        table.verdict[block] = [_verdict(tau is not None, tau is None and tau_for(f) is not None)
                                for tau, f in zip(found, rows.feas_maybe)]
        table.slack[block] = np.min(np.max(rows.slack, axis=2), axis=1)
        pe = np.flatnonzero(table.verdict[block] == "pass")[:, None]
        cols = np.array([tau for tau in found if tau is not None], dtype=int).reshape(-1, d) - 1
        unstable = rows.margin_lo[pe, nodes, cols].min(axis=1)
        stable = rows.margin_s[pe, nodes, cols].min(axis=1)
        degree = _perm_sign(cols + 1) ** u * np.prod(tables.deg[cells[pe, nodes, cols]], axis=1)
        if not (np.all(unstable > 0) and np.all(stable > 0)):
            raise ValueError("certificate margins must be strictly positive")
        if np.any(degree == 0):
            raise ValueError("certificate degree must be nonzero")
        at = start + pe[:, 0]
        radius = tables.radius[nodes, choice[at]].min(axis=1)
        table.slack[at] = np.minimum(unstable, stable) - inflation
        table.tau[at], table.degree[at] = cols + 1, degree
        table.unstable_margin[at], table.stable_margin[at] = unstable, stable
        table.admissible_eps[at] = [
            persistence_bound(_Margins(*margins), chart_lip, coupling_lip)
            for margins in zip(unstable.tolist(), stable.tolist(), radius.tolist())]
    return table


def _audit_declared_forms(forms: dict, composed: dict, cells: CellGeometry) -> None:
    """Raise ``GeometryError`` for a declared form, joined into one map,
    whose ``form_gap`` with itself (a jump) or with its composed map is
    above ``CONTINUITY_TOL``: one rule in every dimension, each pair of
    cell structures' meets enumerated once in ``cells``."""
    for key, form in forms.items():
        joined = form.joined()
        for gap, fault in ((form_gap(joined, joined, cells), "jumps where two of its pieces meet"),
                           (form_gap(composed[key], joined, cells),
                            "disagrees with the composed map")):
            if not gap <= CONTINUITY_TOL:
                raise GeometryError(f"declared chart form {key} {fault} (gap {gap:.3e})")


def _node_forms(node: NodeSystem, kind: str, k: int, cells: CellGeometry,
                charted: dict) -> tuple:
    """Node k's chart forms, declared or derived, audited and with every
    factor's cell table built in ``cells``; their size, the largest row sum
    plus offset of a piece; and its ``SetUp.charted`` and ``.centres``,
    which start from the compositions validation kept (``charted``).
    Refused at ``$.nodes[k].map``: a local map whose composition into a
    form's charts (finite or not) has no total cell table, or whose derived
    form ``split_product`` refuses (which decides continuity).  Then (at
    ``$.nodes[k].chart_forms`` when declared, else ``.map``): a declared
    V of dimension 0 (at ``.chart_forms[key].V.dim_in``, where the parser
    refuses it), keys other than ``_form_keys``, or a split other than the
    h-sets'; a size that is not finite; a factor with no cell table; an
    affine U whose face programs have too many candidate vertices
    (``geometry.face_candidates``: u >= 7), before a check enumerates
    them; a declared form that jumps or is not the composed map
    (``_audit_declared_forms``).  Last, at ``.map``: a map undefined at an
    h-set's centre.
    """
    declared = node.chart_forms is not None
    where = f"$.nodes[{k}].{'chart_forms' if declared else 'map'}"
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            charted = dict(charted)
            composed = {key: _compose(node, kind, key, charted) for key in _form_keys(node, kind)}
            forms = _resolve_forms(node, kind, composed, cells)
            # when s = 0 a derived form's U is its composed map, tabled below
            for F in composed.values() if declared or node.dim_s else ():
                cells.table(F)
    except GeometryError as exc:
        raise SpecError(f"$.nodes[{k}].map: {exc}") from exc
    if declared:
        for key, form in forms.items():
            if form.V is not None and form.V.dim_in == 0:
                name = ",".join(map(str, key)) if isinstance(key, tuple) else key
                raise SpecError(f"{where}[{name}].V.dim_in: dimension must be positive, got 0")
        keys = _form_keys(node, kind)
        if set(forms) != set(keys):
            raise SpecError(f"{where}: declared forms keyed {list(forms)}, not by the node's "
                            f"{'source symbols' if kind == TYPE_II else 'transitions'} {keys}")
        for key, form in forms.items():
            if (form.dim_u, form.dim_s) != (node.dim_u, node.dim_s):
                raise SpecError(f"{where}: declared chart form {key} splits as (u, s) = "
                                f"({form.dim_u}, {form.dim_s}), not ({node.dim_u}, {node.dim_s})")
    factors = [F for form in forms.values() for F in (form.U, form.V) if F is not None]
    size = float(np.max([_local_reach(F, 1.0)[0] for F in factors]))
    if not math.isfinite(size):
        raise SpecError(f"{where}: chart-form size {size:g} is not a finite number")
    try:
        for F in factors:
            cells.table(F)
        if any(form.U.is_affine for form in forms.values()):
            face_candidates(node.dim_u)
        if declared:
            _audit_declared_forms(forms, composed, cells)
    except GeometryError as exc:
        raise SpecError(f"{where}: {exc}") from exc
    origin, centres = np.zeros((node.dim, 1)), []
    for i in range(1, node.count + 1):
        try:
            centres.append(node.local_map.piece_at(node.member_chart(i).invert_batch(origin)))
        except GeometryError as exc:
            raise SpecError(f"$.nodes[{k}].map: h-set {i}: {exc}") from exc
    return forms, size, charted, centres


def _branch(spec: NetworkSpec, k: int, symbol: int) -> AffinePiece:
    """Node k's affine branch on h-set ``symbol``, as the set-up owns it:
    the piece at the h-set's centre (``SetUp.centres``), if its ``form_gap``
    with the local map, both in the member chart (``SetUp.charted``), is at
    most ``CONTINUITY_TOL``, so the map is that affine map wherever it is
    defined there.  Else a ``LoopError`` names the node and the h-set."""
    node, setup = spec.nodes[k], set_up(spec)
    chart, piece, F = node.member_chart(symbol), setup.centres[k][symbol - 1], setup.charted[k]
    if spec.coupling.kind == TYPE_I and node.unified is not None:
        F = {symbol: node.local_map.in_chart(chart)}    # its forms read the h-set charts
    gap = form_gap(F[symbol], PiecewiseAffineMap.affine(piece.matrix, piece.offset).in_chart(chart),
                   setup.cells)
    if not gap <= CONTINUITY_TOL:
        raise LoopError(f"node {k + 1}, h-set {symbol}: the local map is not one affine "
                        f"map on the h-set (gap {gap:.3e})")
    return piece


class SetUp(NamedTuple):
    """What every command reads of a valid spec, built once (``set_up``)."""

    report: ValidationReport
    forms: tuple[dict, ...]     # per node, its audited chart forms (``_node_forms``)
    cells: CellGeometry         # holds the cell table of every factor of those forms
    charted: tuple[dict, ...]   # per node and symbol (one form's source), its map in its chart
    centres: tuple[list, ...]   # per node, the piece of its map at each h-set's centre


def set_up(spec: NetworkSpec) -> SetUp:
    """The spec's set-up, built on the first call and kept on the spec.

    The spec must pass validation and each node's forms ``_node_forms``,
    and the coupling's max row sum times the largest form size must be
    finite, or an inf would reach a check's margins (``$.coupling.matrix``);
    each refusal is a ``SpecError``.  Every CLI command builds it on load.
    """
    if spec._setup is None:
        report = validate_spec(spec)
        if not report.ok:
            raise SpecError("; ".join(report.errors))
        cells = CellGeometry()
        forms, sizes, charted, centres = zip(*(
            _node_forms(node, spec.coupling.kind, k, cells, report.charted[k])
            for k, node in enumerate(spec.nodes)))
        lip, size = spec.coupling.lipschitz(), max(sizes)
        if not math.isfinite(lip * size):
            raise SpecError(f"$.coupling.matrix: coupling row sum {lip:g} times chart-form "
                            f"size {size:g} is not a finite number")
        object.__setattr__(spec, "_setup", SetUp(report, forms, cells, charted, centres))
    return spec._setup


def _prepare(spec: NetworkSpec, kind: str, resolution: int
             ) -> tuple[_Tables, dict[int, np.ndarray], float]:
    """The tables of a check of coupling ``kind``, on the spec's
    ``set_up``; the ``per_entry`` matrix of each overridden entry; and the
    largest Lipschitz constant of the charts ``_choices`` names.

    The spec must declare ``kind``; a node with u >= 2 and a non-affine U
    is refused at ``$.nodes[k]`` when ``resolution`` gives its face grid
    more than ``geometry.MAX_GRID_POINTS`` points.  Theorem 1's tables list
    the identity last: under it a transition's diagonal cell is its covering.
    """
    if spec.coupling.kind != kind:
        raise SpecError(f"checker needs coupling kind '{kind}', "
                        f"spec declares '{spec.coupling.kind}'")
    _, forms, cells, *_ = set_up(spec)
    for k, (node, node_forms) in enumerate(zip(spec.nodes, forms)):
        u = node.dim_u
        if (u >= 2 and not all(form.U.is_affine for form in node_forms.values())
                and (points := face_grid_points(u, resolution)) > MAX_GRID_POINTS):
            raise SpecError(f"$.nodes[{k}]: grid resolution {resolution} gives a face grid of "
                            f"{points} points on this node's non-affine chart forms "
                            f"(u = {u}), above the limit of {MAX_GRID_POINTS}; the largest "
                            f"resolution allowed is {max_face_resolution(u)}")
    choices, charts = zip(*(_choices(node, kind) for node in spec.nodes))
    own = _entry_overrides(spec)[0]
    matrices = [spec.coupling.matrix, *own.values()]
    if kind == TYPE_I:
        matrices.append(np.eye(spec.d))
    tables = _Tables(list(forms), list(choices), matrices, spec.nodes[0].dim_s, resolution, cells)
    return tables, own, max(chart.lipschitz() for node_charts in charts for chart in node_charts)


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


def check_covering(source: HSet, target: CenterScale, f: ProductFormMap,
                   target_id: str = "", resolution: int = 64) -> CoveringOutcome:
    """Check that ``source`` covers the member at ``target`` under ``f``.

    Passing needs all three of: min stretch of U relative to the target's
    unstable center > 1, nonzero degree of U at that center, and max
    stretch of V relative to the stable center < the stable radius.  The
    check is the one-node case of the checkers' tables: the diagonal cell
    of a row under the identity coupling.  The failure report names each
    violated inequality with its slack.
    """
    u, s = source.dim_u, source.dim_s
    if u == 0 or (f.dim_u, f.dim_s, target.dim_u, target.dim_s) != (u, s, u, s):
        raise GeometryError(f"map ({f.dim_u},{f.dim_s}) and target ({target.dim_u},"
                            f"{target.dim_s}) must split as the source h-set ({u},{s}), u >= 1")
    choice = _Choice(None, 1, 1, target.p_u, target.p_s, target.r)
    tables = _Tables([{None: f}], [[choice]], [np.eye(1)], s, resolution, CellGeometry())
    return tables.coverings(0, [[(source.id, target_id or "target")]])[0][0]


def _require_amplitude(pert_amplitude: float) -> None:
    """Refuse a perturbation amplitude that is negative or not finite: it
    would loosen every inequality, or turn every margin into NaN."""
    if not (math.isfinite(pert_amplitude) and pert_amplitude >= 0):
        raise ValueError(f"pert_amplitude must be a nonnegative finite number, "
                         f"got {pert_amplitude!r}")


def theorem1_check(spec: NetworkSpec, resolution: int = 64,
                   pert_amplitude: float = 0.0) -> TheoremReport:
    """Certify the permutation-structure hypotheses (periodic-point check).

    Validation refuses a node whose transition matrix is not a permutation.
    Each transition (i, j) must be a single covering of h-set j by h-set
    i; when one is not, the report reads "fail", with ``hypothesis`` naming
    the first such node's ``$.nodes[k].map`` and each of its failing
    transitions, and its entries are still checked.  On a pass the report
    carries eps* and the period of the orbit through symbol 1 of every
    node, the length of ``symbolic.permutation_loop``.  ``pert_amplitude``
    re-runs the check with every row inequality tightened by the worst-case
    chart-level displacement of a perturbation of that sup-norm; a negative
    or non-finite one is a ``ValueError``.
    """
    _require_amplitude(pert_amplitude)
    tables, own, chart_lip = _prepare(spec, TYPE_I, resolution)
    ids = [[(node.hsets[i - 1].id, node.hsets[j - 1].id) for i, j in node.transitions()]
           for node in spec.nodes]
    hypothesis = None
    for k, (node, outcomes) in enumerate(zip(spec.nodes, tables.coverings(-1, ids))):
        structural = [f"transition {i}->{j}: " + "; ".join(outcome.failures)
                      for (i, j), outcome in zip(node.transitions(), outcomes)
                      if not outcome.passed]
        if structural:
            hypothesis = (f"$.nodes[{k}].map: local covering structure fails: "
                          + "; ".join(structural))
            break
    entries = _check_entries(spec, tables, own, chart_lip, pert_amplitude)
    verdict, eps = _aggregate(entries) if hypothesis is None else ("fail", 0.0)
    period = (len(permutation_loop([n.transition for n in spec.nodes]))
              if verdict == "pass" else None)
    return TheoremReport(1, verdict, entries, eps, period=period, hypothesis=hypothesis)


def theorem2_check(spec: NetworkSpec, resolution: int = 64,
                   pert_amplitude: float = 0.0) -> TheoremReport:
    """Certify the unified-family hypotheses (entropy lower-bound check).

    On a pass the report carries the entropy lower bound, the sum of the
    log Perron roots of the node transition matrices, and the global
    admissible perturbation radius.  ``pert_amplitude`` is read as in
    ``theorem1_check``.
    """
    _require_amplitude(pert_amplitude)
    entries = _check_entries(spec, *_prepare(spec, TYPE_II, resolution), pert_amplitude)
    verdict, eps = _aggregate(entries)
    bound = float(sum(math.log(spectral_radius(n.transition)) for n in spec.nodes))
    return TheoremReport(2, verdict, entries, eps,
                         entropy_bound=bound if verdict == "pass" else None)


def _aggregate(entries: EntryTable) -> tuple[str, float]:
    """The verdict over all entries, and eps* (the least entry radius) on a pass, else 0."""
    verdicts = set(entries.verdict.tolist())
    verdict = _verdict(verdicts == {"pass"}, "fail" not in verdicts)
    return verdict, float(entries.admissible_eps.min()) if verdict == "pass" else 0.0


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
    above 1e-9 is a mismatch, and one that is not a finite number, or taken
    where the interaction map is undefined, counts as inf.  This audits
    input consistency; it is not a proof.
    """
    rng = np.random.default_rng(seed)
    d = spec.d
    block = spec.block_dim
    kind = spec.coupling.kind
    ambient = spec.ambient_map()
    worst = 0.0
    bad: list[str] = []
    n_done = 0
    blocks = [slice(k * block, (k + 1) * block) for k in range(d)]
    # the point's stages, each written one node's block at a time
    w, tw, z, lhs = (np.empty(d * block) for _ in range(4))

    combos = list(itertools.product(*[_form_keys(n, kind) for n in spec.nodes]))
    per = max(1, 200 // max(1, len(combos)))
    own = _entry_overrides(spec)[0] if kind == TYPE_I else {}
    with np.errstate(over="ignore", invalid="ignore"):
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
                for sl, chart, node in zip(blocks, charts_in, spec.nodes):
                    w[sl] = chart.invert(row[sl])
                    tw[sl] = node.local_map.apply(w[sl])
                try:
                    coupled = ambient.apply(tw)
                except GeometryError:   # undefined here: a NaN residual, counted as inf
                    coupled = np.full(d * block, math.nan)
                for sl, chart in zip(blocks, charts_out):
                    z[sl] = chart.apply(tw[sl])
                    lhs[sl] = chart.apply(coupled[sl])
                resid = float(np.max(np.abs(lhs - model @ z)))
                resid = math.inf if math.isnan(resid) else resid
                worst = max(worst, resid)
                n_done += 1
                if resid > 1e-9 and len(bad) < 16:
                    bad.append(f"{label}: residual {resid:.3e}")
    return ConjugacyReport(worst, n_done, tuple(bad))
