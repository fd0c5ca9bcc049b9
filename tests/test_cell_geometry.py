"""Shared cell-only geometry against the stretch bounds computed afresh.

``_reference_stretch`` is the stretch computation as it was before cell
geometry was shared: every call probes totality (exactly through
``geometry.line_cells`` on the line, through a masked ``apply_batch`` on
5 points per axis otherwise), enumerates cell vertices, and evaluates the
whole face grid through the map.  With a ``CellGeometry`` store the same bounds must
come out bit for bit, however many maps share the store.

``_reference_affine_face_min`` is the affine face minimum as one HiGHS
linear program per face; the package enumerates the vertices of every
face program instead, and must give the same minimum, bit for bit, on
diagonal forms like ``box4``'s.
"""

import importlib.util
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cmnverify import (AffineChart, CenterScale, CouplingSpec, Graph, HSet, NetworkSpec,
                       NodeSystem, PiecewiseAffineMap, SpecError, SpecFormatError,
                       TransitionMatrix, UnifiedSet, parse_spec, serialize_spec, theorem2_check)
from cmnverify import geometry
from cmnverify import network as nw
from cmnverify.covering import ProductFormMap
from cmnverify.degree import DegreeUndefinedError, DegreeValue, crossing_degrees, degree_1d
from cmnverify.geometry import (AffinePiece, CellGeometry, GeometryError, StretchBounds,
                                line_stretch, max_stretch, min_stretch)
from cmnverify.network import TYPE_II, _resolve_forms
from conftest import random_interval_map
from test_properties import designed_node


# ---------------------------------------------------------------------------
# the reference: every stretch call on its own, through the masked evaluation


def _reference_apply_batch(F, pts):
    """The masked loop over pieces, with containment as one ``np.all``."""
    pts = np.asarray(pts, dtype=float)
    out = np.empty((pts.shape[0], F.dim_out))
    todo = np.ones(pts.shape[0], dtype=bool)
    for p in F.pieces:
        inside = (np.all(pts @ p.normals.T <= p.bounds + geometry.EVAL_TIE_TOL, axis=1)
                  if p.normals.shape[0] else np.ones(pts.shape[0], dtype=bool))
        hit = todo & inside
        if np.any(hit):
            out[hit] = pts[hit] @ p.matrix.T + p.offset
            todo &= ~hit
        if not np.any(todo):
            break
    if np.any(todo):
        raise GeometryError(f"map undefined at {int(np.sum(todo))} of "
                            f"{pts.shape[0]} points")
    return out


def _reference_exact_max(F, ref):
    best = None
    for p in F.pieces:
        verts = _per_cell([(p.normals, p.bounds)], F.dim_in)[0]
        if verts.shape[0] == 0:
            continue
        vals = verts @ p.matrix.T + p.offset - ref
        m = float(np.max(np.abs(vals)))
        best = m if best is None else max(best, m)
    if best is None:
        raise GeometryError("no cell of the map meets the unit box")
    return best


def _reference_affine_face_min(F, ref):
    """min |F - ref| over the box boundary, one HiGHS call per face."""
    from scipy.optimize import linprog

    piece = F.pieces[0]
    dim = F.dim_in
    best = np.inf
    for i in range(dim):
        for sign in (-1.0, 1.0):
            other = [j for j in range(dim) if j != i]
            base = piece.matrix[:, i] * sign + piece.offset - ref
            a_free = piece.matrix[:, other]
            n_free = len(other)
            cost = np.zeros(n_free + 1)
            cost[-1] = 1.0
            a_ub = np.block([[a_free, -np.ones((a_free.shape[0], 1))],
                             [-a_free, -np.ones((a_free.shape[0], 1))]])
            b_ub = np.concatenate([-base, base])
            res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                          bounds=[(-1.0, 1.0)] * n_free + [(0.0, None)],
                          method="highs")
            if not res.success:
                raise GeometryError(f"face minimization failed: {res.message}")
            best = min(best, float(res.fun))
    return best


def _reference_stretch(F, ref, resolution, want_min):
    ref = geometry._as_vector(ref, F.dim_out)
    if F.dim_in == 1:
        geometry.line_cells(F)
    elif F.dim_in <= 4:
        _reference_apply_batch(F, geometry.box_grid(F.dim_in, 5))
    max_abs = _reference_exact_max(F, ref)
    if not want_min:
        return StretchBounds(0.0, max_abs, True, 0.0)
    dim = F.dim_in
    if dim == 1:
        vals = [float(np.max(np.abs(F.apply([x]) - ref))) for x in (-1.0, 1.0)]
        m = min(vals)
        return StretchBounds(m, max_abs, True, m)
    if F.is_affine:
        m = _reference_affine_face_min(F, ref)
        return StretchBounds(m, max_abs, True, m)
    if resolution < 2:
        raise GeometryError("grid resolution must be at least 2")
    pts = geometry._face_points(dim, resolution)
    vals = np.max(np.abs(_reference_apply_batch(F, pts) - ref), axis=1)
    attained = float(np.min(vals))
    spacing = 2.0 / (resolution - 1)
    slack = F.lipschitz() * spacing / 2.0
    return StretchBounds(max(attained - slack, 0.0), max_abs, False, attained)


def _same(got: StretchBounds, want: StretchBounds) -> None:
    assert got.min_rel == want.min_rel
    assert got.max_abs == want.max_abs
    assert got.certified == want.certified
    assert got.min_attained == want.min_attained


def _outcome(fn):
    """A call's bounds, or the message of the GeometryError it raised."""
    try:
        return fn()
    except GeometryError as exc:
        return str(exc)


def _check_same(F, ref, resolution, cells):
    want = _outcome(lambda: _reference_stretch(F, ref, resolution, True))
    got = _outcome(lambda: min_stretch(F, ref, resolution=resolution, cells=cells))
    if isinstance(want, str):
        assert got == want
    else:
        _same(got, want)
    want = _outcome(lambda: _reference_stretch(F, ref, 0, False))
    got = _outcome(lambda: max_stretch(F, ref, cells=cells))
    if isinstance(want, str):
        assert got == want
    else:
        _same(got, want)


# ---------------------------------------------------------------------------
# random piecewise maps


def _arrangement_map(rng, dim, tie_planes):
    """Map with one piece per sign pattern of a few hyperplanes: total on
    R^dim, pieces in shuffled order.  ``tie_planes`` puts hyperplanes
    through grid points (x_j <= 0, x_0 + x_1 <= 0), so odd grids meet cell
    boundaries exactly and first-match ties decide them."""
    planes = []
    if tie_planes:
        planes.append((np.eye(dim)[0], 0.0))
        if dim > 1:
            planes.append((np.eye(dim)[0] + np.eye(dim)[1], 0.0))
    while len(planes) < int(rng.integers(1, 4)):
        planes.append((rng.normal(size=dim), float(rng.uniform(-0.6, 0.6))))
    pieces = []
    for signs in itertools.product((1.0, -1.0), repeat=len(planes)):
        normals = np.array([s * n for s, (n, _) in zip(signs, planes)])
        bounds = np.array([s * b for s, (_, b) in zip(signs, planes)])
        pieces.append(AffinePiece(rng.normal(scale=2.0, size=(dim, dim)),
                                  rng.normal(size=dim), normals, bounds))
    order = rng.permutation(len(pieces))
    return PiecewiseAffineMap(dim, dim, tuple(pieces[i] for i in order))


def _overlapping_map(rng, dim):
    """Two slabs that overlap on -0.5 <= x_0 <= 0.5; the first one wins there."""
    e = np.eye(dim)[:1]
    left = AffinePiece(rng.normal(size=(dim, dim)), rng.normal(size=dim), e, np.array([0.5]))
    right = AffinePiece(rng.normal(size=(dim, dim)), rng.normal(size=dim), -e,
                        np.array([0.5]))
    return PiecewiseAffineMap(dim, dim, (left, right))


SCALES = (1.0, 0.0, -1.0, -0.37, 1e-12, 3.5e11)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_maps_match_reference(dim):
    rng = np.random.default_rng(7000 + dim)
    maps = [_arrangement_map(rng, dim, tie_planes=True) for _ in range(3)]
    maps += [_arrangement_map(rng, dim, tie_planes=False) for _ in range(2)]
    maps.append(_overlapping_map(rng, dim))
    for F in maps:
        cells = CellGeometry()      # one store for every scaling of F
        refs = (np.zeros(dim), rng.uniform(-2.0, 2.0, size=dim))
        for i, (c, ref) in enumerate(itertools.product(SCALES, refs)):
            # the twelve (scale, ref) pairs visit every resolution 2..17
            for resolution in (2 + i, 17 - i):
                _check_same(F.scale(c), ref, resolution, cells)


def test_resolutions_in_any_order_share_one_store():
    rng = np.random.default_rng(7100)
    F = _arrangement_map(rng, 2, tie_planes=True)
    cells = CellGeometry()
    for resolution in (17, 2, 9, 17, 3, 2):
        _check_same(F.scale(-0.5), np.array([0.25, -0.5]), resolution, cells)
        _check_same(F, np.zeros(2), resolution, cells)


# ---------------------------------------------------------------------------
# box-shaped chart forms (u = 3 unstable, s = 1 stable) at --grid 256


def _box_node(rng, W, declared, u=3):
    """Designed golden-mean node lifted to u unstable coordinates and s = 1:
    the first unstable coordinate carries the interval map, the others
    expand linearly, the stable one contracts.  ``declared`` gives each
    source one affine form."""
    flat = designed_node(rng, W, float(rng.uniform(0.5, 0.9)), "B", unified=True)
    s = 1
    gains = np.array([1.0] + [2.0] * (u - 1) + [0.3])
    pieces = []
    for cell in flat.local_map.pieces:
        matrix = np.diag(gains)
        matrix[0, 0] = cell.matrix[0, 0]
        offset = np.zeros(u + s)
        offset[0] = cell.offset[0]
        normals = np.hstack([cell.normals, np.zeros((cell.normals.shape[0], u + s - 1))])
        pieces.append(AffinePiece(matrix, offset, normals, cell.bounds.copy()))
    local = PiecewiseAffineMap(u + s, u + s, tuple(pieces))
    centers = [CenterScale(np.eye(u)[0] * 3.0 * i, np.zeros(s), 0.6) for i in range(W.n)]
    shared = AffineChart.identity(u, s)
    ids = [f"B{i}" for i in range(W.n)]
    hsets = tuple(HSet(mid, cs.compose_chart(shared)) for mid, cs in zip(ids, centers))
    node = NodeSystem(local, hsets, W, unified=UnifiedSet(shared, tuple(zip(ids, centers))))
    forms = _resolve_forms(node, TYPE_II)
    if declared:
        forms = {key: ProductFormMap(
                    PiecewiseAffineMap.affine(f.U.pieces[0].matrix, f.U.pieces[0].offset), f.V)
                 for key, f in forms.items()}
        node = NodeSystem(local, hsets, W, unified=node.unified, chart_forms=forms)
    return node


GOLDEN = ([[1, 1], [1, 0]], [[0, 1], [1, 1]])


def _box_spec(seed, d=3, alpha=0.01, declared=False, u=3):
    rng = np.random.default_rng(seed)
    nodes = tuple(_box_node(rng, TransitionMatrix(np.array(GOLDEN[k % 2])), declared, u)
                  for k in range(d))
    a = np.full((d, d), alpha)
    a[np.diag_indices(d)] = 1.0 - alpha * (d - 1)
    return NetworkSpec(Graph.complete(d), nodes, CouplingSpec(TYPE_II, a))


@pytest.mark.parametrize("declared", [False, True])
def test_box_forms_match_reference_at_grid_256(declared):
    spec = _box_spec(11, declared=declared)
    node = spec.nodes[0]
    forms = _resolve_forms(node, TYPE_II)
    cells = CellGeometry()
    for key in sorted(forms):
        for a in (spec.coupling.matrix[0, 0], spec.coupling.matrix[0, 1]):
            for _, target in node.unified.members:
                _check_same(forms[key].U.scale(a), target.p_u, 256, cells)
                _check_same(forms[key].V.scale(a), target.p_s, 256, cells)


def test_box3_shaped_check_partitions_each_cell_structure_once(monkeypatch):
    spec = _box_spec(12)
    resolution = 33
    grid_rows = 2 * 3 * resolution ** 2
    structures = {tuple((p.normals.tobytes(), p.bounds.tobytes()) for p in f.U.pieces)
                  for node in spec.nodes for f in _resolve_forms(node, TYPE_II).values()}
    assert len(structures) == 2        # one per source symbol, shared by the nodes

    face_calls, partitions = [], []
    face_points, first_match = geometry._face_points, geometry._first_match

    def counted_faces(dim, res):
        face_calls.append((dim, res))
        return face_points(dim, res)

    def counted_match(pieces, pts):
        if pts.shape[1] == grid_rows:
            partitions.append(pieces)
        return first_match(pieces, pts)

    monkeypatch.setattr(geometry, "_face_points", counted_faces)
    monkeypatch.setattr(geometry, "_first_match", counted_match)
    report = theorem2_check(spec, resolution=resolution)
    assert report.verdict in ("pass", "inconclusive")
    # one face grid per (dimension, resolution); one partition of it per
    # cell structure, although every form is evaluated at several scalings
    assert face_calls == [(3, resolution)]
    assert len(partitions) == len(structures)


# ---------------------------------------------------------------------------
# the face-grid minimum from the tiles that can hold it


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_tiles_match_full_grid_on_random_maps(dim):
    # dense random pieces: every output moves on every face, so each tile
    # bound carries its rounding cushion; 4-dimensional grids at 255 and
    # 256 points per axis are above MAX_GRID_POINTS, refused by both sides
    rng = np.random.default_rng(7200 + dim)
    for tie_planes in (True, False):
        F = _arrangement_map(rng, dim, tie_planes)
        cells = CellGeometry()
        for resolution in (37, 255, 256):
            for c in (1.0, 0.0, 3.5e11):
                _check_same(F.scale(c), rng.uniform(-2.0, 2.0, size=dim), resolution, cells)


@pytest.mark.parametrize("resolution", [37, 255])
def test_box_plateau_forms_match_reference(resolution):
    # the diagonal box forms are constant along whole faces: their tiles
    # are bounded with no cushion and pruned by value
    spec = _box_spec(13)
    node = spec.nodes[1]
    forms = _resolve_forms(node, TYPE_II)
    cells = CellGeometry()
    for key in sorted(forms):
        for a in (spec.coupling.matrix[1, 1], 0.0, 3.5e11):
            for _, target in node.unified.members:
                _check_same(forms[key].U.scale(a), target.p_u, resolution, cells)


def _small_cell_map(rng, lo, hi, value_at):
    """A first piece on the box x_0 >= 0.99, lo <= x_l <= hi (l >= 1), with a
    random matrix and an offset putting its value near 0 at ``value_at``;
    a second piece, far from 0, holds everything else."""
    dim = value_at.shape[0]
    e = np.eye(dim)
    m = rng.normal(scale=2.0, size=(dim, dim))
    small = AffinePiece(m, -m @ value_at, np.vstack([-e[:1], -e[1:], e[1:]]),
                        np.concatenate([[-0.99], -lo, hi]))
    rest = AffinePiece(np.eye(dim), np.full(dim, 50.0), np.zeros((0, dim)), np.zeros(0))
    return PiecewiseAffineMap(dim, dim, (small, rest))


@pytest.mark.parametrize("dim", [2, 3])
def test_pieces_with_one_or_two_grid_rows_match_reference(dim):
    # 37 points per axis: x_l = -1 + 15/18 ends one tile and -1 + 16/18
    # starts the next.  The two-row piece's rows lie in two tiles, so each
    # tile alone is one row; a product of one row may round differently
    # from the full grid's, and the search must keep two
    resolution = 37
    pts = geometry._face_points(dim, resolution)
    rng = np.random.default_rng(7300 + dim)
    point = np.full(dim, -1.0 + 16 / 18)
    point[0] = 1.0
    one = np.full(dim - 1, -0.12)
    two = one.copy()
    two[0] = -0.17
    for lo, rows in ((one, 1), (two, 2)):
        for _ in range(8):
            F = _small_cell_map(rng, lo, np.full(dim - 1, -0.11), point)
            held = next(hit for i, hit in geometry._first_match(F.pieces, pts.T) if i == 0)
            assert np.count_nonzero(held) == rows
            _check_same(F, np.zeros(dim), resolution, CellGeometry())


def test_box_forms_evaluate_few_grid_rows(monkeypatch):
    resolution = 256
    calls, evaluated = [], []
    grid_min, face_min = geometry._grid_min, geometry._face_min

    def counted_grid_min(pieces, ref, pts, tiles, parts):
        calls.append(pts.shape[0])
        return grid_min(pieces, ref, pts, tiles, parts)

    def counted_face_min(sub, piece, ref):
        evaluated.append(sub.shape[0])
        return face_min(sub, piece, ref)

    monkeypatch.setattr(geometry, "_grid_min", counted_grid_min)
    monkeypatch.setattr(geometry, "_face_min", counted_face_min)
    theorem2_check(_box_spec(11), resolution=resolution)
    assert calls and set(calls) == {geometry.face_grid_points(3, resolution)}
    assert sum(evaluated) < 0.05 * sum(calls)


def test_tile_bounds_hold_for_the_computed_values():
    # output 0 keeps one sign over the box, so its linear bound is attained
    # at a tile corner, a grid point: only the rounding cushion keeps the
    # bound below the value computed there
    rng = np.random.default_rng(7500)
    for dim in (2, 3):
        pts = geometry._face_points(dim, 37)
        tiles = geometry._FaceTiles(dim, 37)
        for _ in range(20):
            m = rng.normal(size=(dim, dim))
            offset = rng.normal(size=dim)
            offset[0] += 10.0
            ref = rng.normal(size=dim)
            piece = AffinePiece(m, offset, np.zeros((0, dim)), np.zeros(0))
            values = np.max(np.abs(pts @ m.T + offset - ref), axis=1)
            least = np.full(tiles.centre.shape[0], np.inf)
            np.minimum.at(least, tiles.tile, values[tiles.order])
            assert (geometry._tile_bounds(piece, ref, tiles) <= least).all()


def test_gathered_rows_equal_the_full_product():
    # the rows of a product with 2 or more rows are the full product's rows;
    # ``_grid_min`` relies on it to evaluate only some tiles
    rng = np.random.default_rng(7400)
    for dim in (2, 3, 4):
        pts = geometry._face_points(dim, 33)
        for _ in range(200):
            m = rng.normal(scale=2.0, size=(dim, dim))
            full = pts @ m.T
            rows = rng.choice(pts.shape[0], size=int(rng.integers(2, 40)), replace=False)
            assert (np.take(pts, np.sort(rows), axis=0) @ m.T == full[np.sort(rows)]).all()


def test_grid_limit_arithmetic(monkeypatch):
    assert geometry.MAX_GRID_POINTS == 2 ** 22
    assert geometry.face_grid_points(3, 256) == 393_216
    assert [geometry.max_face_resolution(u) for u in range(2, 10)] == \
        [2 ** 20, 836, 80, 25, 12, 8, 5, 4]
    for u in range(2, 10):
        n = geometry.max_face_resolution(u)
        assert geometry.face_grid_points(u, n) <= geometry.MAX_GRID_POINTS \
            < geometry.face_grid_points(u, n + 1)

    # refused before anything is allocated
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")
    monkeypatch.setattr(np, "indices", no_grid)
    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(GeometryError, match=r"a grid of 5\^10 = 9765625 points"):
        geometry.box_grid(10, 5)
    with pytest.raises(GeometryError, match=r"a grid of 4\^12 = 16777216 points"):
        geometry.box_grid(12, 4)
    with pytest.raises(GeometryError, match=r"a face grid of 2\*4\*256\^3 = 134217728 points"):
        geometry._face_points(4, 256)


# ---------------------------------------------------------------------------
# affine maps: the vertex enumeration against one linear program per face


def _diagonal_forms(u):
    """Diagonal chart forms like ``box4``'s, and the ``box4`` seed-1 form
    whose face x_0 = -1 is degenerate at ref (3, 0, 0): every free point in
    [-0.765, 0.765]^2 is optimal there."""
    forms = [PiecewiseAffineMap.affine(np.diag(d), o) for d, o in (
        ([2.5] + [-1.75] * (u - 1), [0.3] + [0.0] * (u - 1)),
        ([-3.0, 2.0, 4.0][:u], [1.47, -0.2, 0.1][:u]),
        ([1e-3] * u, [0.0] * u))]
    if u == 3:
        forms.append(PiecewiseAffineMap.affine(
            np.diag([-3.3244489823220853, 2.3444489823220853, 2.3444489823220853]),
            np.array([1.47, 0.0, 0.0])))
    return forms


def _batched(pairs):
    """The face minimum of every (map, reference) pair, from one
    ``affine_min_stretch`` call."""
    return [mb.min_rel for mb in geometry.affine_min_stretch(pairs)]


def _diagonal_pairs(u):
    refs = (np.zeros(u), np.eye(u)[0] * 3.0, -np.eye(u)[u - 1] * 0.5,
            np.linspace(-1.3, 0.7, u))
    return [(F.scale(a), ref) for F in _diagonal_forms(u)
            for a in (1.0, 0.0, -1.0, -0.37, 0.01, 3.5e11) for ref in refs]


@pytest.mark.parametrize("u", [2, 3])
def test_one_lp_face_min_equals_per_face_lps_on_diagonal_forms(u):
    pairs = _diagonal_pairs(u)
    want = [_reference_affine_face_min(G, ref) for G, ref in pairs]
    assert [_batched([pair])[0] for pair in pairs] == want
    # every pair a block of one program
    assert _batched(pairs) == want


DEGENERATE = 1.794448982322085    # the value box4's seed-1 certificate carries


def test_degenerate_box4_face_keeps_its_value():
    pair = (_diagonal_forms(3)[-1], np.array([3.0, 0.0, 0.0]))
    assert _batched([pair]) == [DEGENERATE]
    # stacked before, between and after other pairs of both dimensions
    others = _diagonal_pairs(3)[:30] + _diagonal_pairs(2)[:10]
    got = _batched(others[:17] + [pair] + others[17:] + [pair])
    assert got[17] == got[-1] == DEGENERATE


def _dense_pairs(seed, count):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        dim = int(rng.integers(2, 5))
        F = PiecewiseAffineMap.affine(rng.normal(scale=2.0, size=(dim, dim)),
                                      rng.normal(size=dim))
        pairs.append((F, rng.uniform(-2.0, 2.0, size=dim)))
    return pairs


def _assert_dense_minima(pairs, got):
    # the enumeration evaluates each vertex, HiGHS solves the program: on
    # dense forms they may differ by rounding; the minimum never exceeds a
    # sampled boundary value
    for (F, ref), value in zip(pairs, got):
        want = _reference_affine_face_min(F, ref)
        assert abs(value - want) <= 1e-12 * abs(want)
        pts = geometry._face_points(F.dim_in, 9)
        sampled = np.min(np.max(np.abs(F.apply_batch(pts.T).T - ref), axis=1))
        assert value <= sampled + 1e-9


def test_one_lp_face_min_on_dense_maps():
    pairs = _dense_pairs(8200, 40)
    _assert_dense_minima(pairs, [_batched([pair])[0] for pair in pairs])


def test_dense_maps_in_one_batch():
    pairs = _dense_pairs(8201, 40)
    _assert_dense_minima(pairs, _batched(pairs))


@pytest.mark.parametrize("u", [2, 3])
def test_min_stretch_of_an_affine_form_equals_per_face_programs(u):
    # the single-map entry point takes the same path as a batch
    for G, ref in _diagonal_pairs(u):
        mb = min_stretch(G, ref)
        want = _reference_affine_face_min(G, ref)
        assert mb.min_rel == mb.min_attained == want
        assert mb.certified


@pytest.mark.parametrize("scale", [1e-9, 1e12])
def test_scaled_forms_keep_their_minima(scale):
    # scaling a form and its reference scales every face program's t and
    # nothing else: no vertex may be lost to a scale-dependent
    # solvability test.  HiGHS's absolute tolerances make it no oracle at
    # these scales, so the oracle is the unscaled program, scaled.
    pairs = [pair for u in (2, 3) for pair in _diagonal_pairs(u)[::7]] + _dense_pairs(8202, 12)
    got = _batched([(F.scale(scale), ref * scale) for F, ref in pairs])
    for (F, ref), value in zip(pairs, got):
        p = F.pieces[0]
        size = np.abs(p.matrix).sum() + np.abs(p.offset).sum() + np.abs(ref).sum()
        assert abs(value - scale * _reference_affine_face_min(F, ref)) <= 1e-12 * scale * size


def test_face_candidates_counts_without_enumerating(monkeypatch):
    # the closed count is the enumeration's, up to the largest u allowed
    for u in range(2, 7):
        assert geometry.face_candidates(u) == len(geometry._subsets(4 * u - 2, u, u - 1))
    assert geometry.face_candidates(6) == 51_908

    # u = 7 is refused before anything is enumerated, factored or solved
    def nothing(*args, **kwargs):
        raise AssertionError("the face programs were set up")
    for name in ("det", "solve"):
        monkeypatch.setattr(np.linalg, name, nothing)
    monkeypatch.setattr(geometry, "_subsets", nothing)
    monkeypatch.setattr(geometry, "_face_minima", nothing)
    refused = ("an affine map with u = 7 has 425476 candidate vertices per face, above the "
               "limit of 200000")
    with pytest.raises(GeometryError, match=refused):
        geometry.face_candidates(7)
    F = PiecewiseAffineMap.affine(np.eye(7), np.zeros(7))
    with pytest.raises(GeometryError, match=refused):
        geometry.affine_min_stretch([(F, np.zeros(7))])


def test_empty_batch_solves_nothing(monkeypatch):
    def nothing(*args, **kwargs):
        raise AssertionError("a face program was set up")
    monkeypatch.setattr(geometry, "_face_minima", nothing)
    assert geometry.affine_min_stretch([]) == []


def _bench_gen():
    """``bench/gen.py``, loaded without writing bytecode next to it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(gen)
    finally:
        sys.dont_write_bytecode = keep
    return gen


def _bench_box_specs(seed):
    """``bench/gen.py``'s box3 and box4 networks of ``bench/workloads.py``
    at ``seed``, through a serialized round trip as the CLI reads them."""
    gen = _bench_gen()
    rng = np.random.default_rng(seed)
    box3 = gen.golden_ring(rng, 3, 0.01, u=3, s=1)
    box4 = gen.golden_ring(rng, 4, 0.01, u=3, s=1, declared=True)
    return [parse_spec(json.loads(json.dumps(serialize_spec(s)))) for s in (box3, box4)]


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_box4_check_minima_equal_per_face_programs(seed, monkeypatch):
    # every affine cell of the check is a pair of one batch, and each
    # pair's minimum is the one per-face programs give, bit for bit
    pairs = []
    batched = nw.affine_min_stretch

    def captured(batch, *args, **kwargs):
        out = batched(batch, *args, **kwargs)
        pairs.extend(zip(batch, out))
        return out
    monkeypatch.setattr(nw, "affine_min_stretch", captured)
    _, box4 = _bench_box_specs(seed)
    assert theorem2_check(box4).verdict == "pass"
    assert len(pairs) == 44
    for (G, ref), mb in pairs:
        want = _reference_affine_face_min(G, ref)
        assert mb.min_rel == mb.min_attained == want
        assert mb.certified and mb.max_abs == max_stretch(G, ref).max_abs


def test_check_without_affine_cells_enumerates_no_face(monkeypatch):
    calls = []
    enumerate_faces = geometry._face_minima

    def counted(*args, **kwargs):
        calls.append(1)
        return enumerate_faces(*args, **kwargs)
    monkeypatch.setattr(geometry, "_face_minima", counted)
    box3, _ = _bench_box_specs(1)
    assert theorem2_check(box3, resolution=33).verdict == "inconclusive"
    assert theorem2_check(_box_spec(12), resolution=33).verdict == "inconclusive"
    assert not calls


def test_affine_forms_past_the_vertex_limit_are_refused_at_set_up(monkeypatch):
    # u = 7: 425,476 candidate vertices per face; refused when the spec is
    # set up, at the node's forms, before a face program is enumerated
    def nothing(*args, **kwargs):
        raise AssertionError("a face program was set up")
    monkeypatch.setattr(geometry, "_face_minima", nothing)
    spec = _bench_gen().golden_ring(np.random.default_rng(1), 1, 0.0, u=7, s=1, declared=True)
    where = (r"^\$\.nodes\[0\]\.chart_forms: an affine map with u = 7 has 425476 "
             r"candidate vertices per face, above the limit of 200000$")
    with pytest.raises(SpecError, match=where):
        nw.set_up(spec)
    with pytest.raises(SpecError, match=where):
        theorem2_check(spec)


def test_declared_stable_factor_of_dimension_zero_is_refused_at_set_up():
    # the parser refuses a V with dim_in 0; a spec built in memory is
    # refused by the set-up at the same path, not inside a check
    spec = _bench_gen().golden_ring(np.random.default_rng(1), 3, 0.01, u=2, s=0, declared=True)
    where = r"^\$\.nodes\[0\]\.chart_forms\[1\]\.V\.dim_in: dimension must be positive, got 0$"
    with pytest.raises(SpecFormatError, match=where):
        parse_spec(json.loads(json.dumps(serialize_spec(spec))))
    with pytest.raises(SpecError, match=where):
        nw.set_up(spec)
    with pytest.raises(SpecError, match=where):
        theorem2_check(spec)


# ---------------------------------------------------------------------------
# maps on the line: every item of a table fill in one array pass


def _reference_degree_1d(G, q):
    """The endpoint sign change as ``degree_1d`` computed it on its own,
    through the masked evaluation."""
    left, right = (_reference_apply_batch(G, np.array([[-1.0], [1.0]]))[:, 0] - q).tolist()
    if abs(left) <= geometry.EVAL_TIE_TOL or abs(right) <= geometry.EVAL_TIE_TOL:
        raise DegreeUndefinedError(f"target {q} equals a boundary value of the map")
    return DegreeValue((int(np.sign(right)) - int(np.sign(left))) // 2, "one-d-crossing")


def _degree(fn):
    """A degree, or the message of the ``DegreeUndefinedError`` raised instead."""
    try:
        return fn()
    except DegreeUndefinedError as exc:
        return str(exc)


def _end_tie_map(rng, end, reverse):
    """Two pieces meeting at ``end`` (-1 or 1) that differ there by 5e-10,
    inside the continuity tolerance: the end goes to the piece listed
    first, the left one, or with ``reverse`` the right one."""
    s1, s2 = rng.uniform(-4.0, 4.0, size=2)
    c1 = float(rng.uniform(-2.0, 2.0))
    c2 = s1 * end + c1 + 5e-10 - s2 * end
    F = PiecewiseAffineMap.from_breakpoints([end], [(s1, c1), (s2, c2)])
    return PiecewiseAffineMap(1, 1, F.pieces[::-1]) if reverse else F


def _peak_map(rng):
    """A tent whose largest |value| lies at an interior breakpoint, a
    vertex of two cells that is not an end of [-1, 1]."""
    top, peak = float(rng.uniform(5.0, 9.0)), float(rng.uniform(-0.8, 0.8))
    up, down = float(rng.uniform(3.0, 6.0)), -float(rng.uniform(3.0, 6.0))
    return PiecewiseAffineMap.from_breakpoints([peak], [(up, top - up * peak),
                                                        (down, top - down * peak)])


def _line_maps(rng):
    maps = [random_interval_map(rng, slope_scale=6.0) for _ in range(12)]
    maps += [_peak_map(rng) for _ in range(4)]
    return maps + [_end_tie_map(rng, end, reverse)
                   for end in (-1.0, 1.0) for reverse in (False, True)]


def test_line_pass_equals_the_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(7300)
    maps = _line_maps(rng)
    items = [(F, a, ref) for F in maps for a in SCALES
             for ref in (0.0, float(rng.uniform(-3.0, 3.0)))]
    # every item once for its boundary, once more for its box only, in one call
    got = line_stretch(items, items, CellGeometry())
    assert got.max_abs[:len(items)].tobytes() == got.max_abs[len(items):].tobytes()
    degrees = crossing_degrees(got.ends, [ref for _, _, ref in items])
    for n, (F, a, ref) in enumerate(items):
        G = F.scale(a)
        want = _reference_stretch(G, ref, 0, True)
        assert got.min_rel[n].tobytes() == np.float64(want.min_rel).tobytes()
        assert got.max_abs[n].tobytes() == np.float64(want.max_abs).tobytes()
        assert want.max_abs == _reference_exact_max(G, np.array([ref]))
        ends = _reference_apply_batch(G, np.array([[-1.0], [1.0]]))[:, 0] - ref
        assert (got.ends[n] == ends).all()
        assert np.abs(got.ends[n]).tobytes() == np.abs(ends).tobytes()
        degree = str(degrees[n]) if isinstance(degrees[n], Exception) else degrees[n]
        assert degree == _degree(lambda: _reference_degree_1d(G, ref))
        # the scalar entry points are the pass of one item
        _same(min_stretch(G, [ref]), want)
        assert _degree(lambda: degree_1d(G, ref)) == degree


def test_end_on_a_piece_boundary_goes_to_the_first_piece():
    rng = np.random.default_rng(7301)
    for end in (-1.0, 1.0):
        for reverse in (False, True):
            F = _end_tie_map(rng, end, reverse)
            (left, right), = line_stretch([(F, 1.0, 0.0)]).ends
            value = F.pieces[0].matrix[0, 0] * end + F.pieces[0].offset[0]
            assert (right if end > 0 else left) == value
            other = F.pieces[1].matrix[0, 0] * end + F.pieces[1].offset[0]
            assert value != other


def test_reference_at_an_end_value_leaves_the_degree_undefined():
    rng = np.random.default_rng(7302)
    for F in _line_maps(rng):
        for a in SCALES:
            G = F.scale(a)
            for x in (-1.0, 1.0):
                q = float(G.apply([x])[0])
                with pytest.raises(DegreeUndefinedError) as want:
                    _reference_degree_1d(G, q)
                (got,) = crossing_degrees(line_stretch([(F, a, q)]).ends, [q])
                assert isinstance(got, DegreeUndefinedError)
                message = f"target {q} equals a boundary value of the map"
                assert str(got) == str(want.value) == message
                with pytest.raises(DegreeUndefinedError, match="equals a boundary value"):
                    degree_1d(G, q)


@pytest.mark.parametrize("declared", [False, True])
def test_stable_factors_on_the_line_match_the_reference(declared):
    # the box forms' V (s = 1) as the tables hand them over: box items,
    # under every coefficient, about the stable centres and 0
    spec = _box_spec(12, declared=declared)
    forms = [f for node in spec.nodes for f in _resolve_forms(node, TYPE_II).values()]
    items = [(f.V, a, ref) for f in forms for a in SCALES for ref in (0.0, -0.35, 0.6)]
    assert {f.V.dim_in for f in forms} == {1}
    got = line_stretch((), items, CellGeometry())
    for n, (V, a, ref) in enumerate(items):
        want = _reference_exact_max(V.scale(a), np.array([ref]))
        assert got.max_abs[n].tobytes() == np.float64(want).tobytes()
        _same(max_stretch(V.scale(a), [ref]), _reference_stretch(V.scale(a), ref, 0, False))
    assert got.ends.shape == (0, 2) and got.min_rel.shape == (0,)


def test_map_with_no_cell_in_the_box_raises_as_the_reference():
    outside = PiecewiseAffineMap(1, 1, (AffinePiece(np.array([[2.0]]), np.zeros(1),
                                                    np.array([[-1.0]]), np.array([-2.0])),))
    total = random_interval_map(np.random.default_rng(7303))
    want = _outcome(lambda: _reference_stretch(outside, 0.0, 0, True))
    assert want == "map undefined between -1 and 1, inside [-1, 1]"
    cells = CellGeometry()
    for call in (lambda: line_stretch([(total, 1.0, 0.0), (outside, 1.0, 0.0)], (), cells),
                 lambda: line_stretch([(total, 1.0, 0.0)], [(outside, -2.0, 0.5)], cells),
                 lambda: min_stretch(outside, [0.0], cells=cells),
                 lambda: max_stretch(outside, [0.0], cells=cells),
                 lambda: degree_1d(outside, 0.0)):
        assert _outcome(call) == want
    assert len(cells._tables) == 1           # the total map's table only


# ---------------------------------------------------------------------------
# the line's cells: one interval per piece (``line_cells``), against the
# subset enumeration of ``_box_vertices``, and the image boxes against a
# scan of the constraints (``_reference_range_1d``).  The enumeration solves
# through LAPACK where ``line_cells`` divides, so the comparison holds
# under any BLAS kernel only after both round to 12 decimals, as both do.


def _reference_line_table(F):
    """points, owner and ends of a table on the line: each piece's cell
    vertices by subset enumeration, and the first piece holding -1 and 1."""
    verts = [_per_cell([(p.normals, p.bounds)], 1)[0][:, 0] for p in F.pieces]
    ends = [next(i for i, p in enumerate(F.pieces)
                 if np.all(p.normals[:, 0] * x <= p.bounds + geometry.EVAL_TIE_TOL))
            for x in (-1.0, 1.0)]
    return (np.concatenate(verts), np.repeat(np.arange(len(verts)), [len(v) for v in verts]),
            np.array(ends, dtype=np.intp))


def _reference_range_1d(F):
    """The exact range of the scalar map F on the line over [-1, 1]: its
    least and largest values at -1, 1 and every b / n strictly between."""
    xs = {-1.0, 1.0}
    for p in F.pieces:
        for n, b in zip(p.normals[:, 0], p.bounds):
            if abs(n) > 0:
                t = b / n
                if -1.0 < t < 1.0:
                    xs.add(t)
    vals = F.apply_batch(np.array([sorted(xs)]))[0]
    return float(vals.min()), float(vals.max())


def _charted_line_map(rng):
    """(F, G, bps): a continuous map G on the line with breakpoints
    ``bps``, placed so that its cells end at chart coordinates y, some
    outside [-1, 1] and half the time one within 1e-9 of -1 or 1 (on
    either side), and F, G composed with a random chart inside and a random
    scaling outside, with up to two redundant constraints: one of a
    piece's own times a power of two, or a bound past the end of its cell
    (past 1 or -1 where the cell is unbounded).  A copy scaled by another
    factor may bound the cell an ulp off the original; ``line_cells`` keeps
    the tighter bound."""
    ends = rng.uniform(-1.5, 1.5, size=int(rng.integers(0, 4))).tolist()
    if rng.random() < 0.5:
        ends.append(float(rng.choice([-1.0, 1.0])) + float(rng.uniform(-1e-9, 1e-9)))
    lin = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0))
    off = float(rng.uniform(-3.0, 3.0))
    bps = np.sort(lin * np.array(ends) + off)
    slopes = rng.uniform(-6.0, 6.0, size=bps.size + 1)
    coeffs = [(slopes[0], float(rng.uniform(-2.0, 2.0)))]
    for i, b in enumerate(bps):
        value = coeffs[i][0] * b + coeffs[i][1]
        coeffs.append((slopes[i + 1], value - slopes[i + 1] * b))
    G = PiecewiseAffineMap.from_breakpoints(bps.tolist(), coeffs)
    F = G.compose_affine_inner([[lin]], [off]).compose_affine_outer(
        [[float(rng.uniform(-4.0, 4.0))]], [float(rng.uniform(-1.0, 1.0))])
    # piece i's cell in chart coordinates lies between y[i] and y[i + 1]
    y = (np.concatenate([[-np.inf], bps, [np.inf]]) - off) / lin
    pieces = list(F.pieces)
    for _ in range(int(rng.integers(0, 3))):
        i = int(rng.integers(len(pieces)))
        p = pieces[i]
        if p.normals.shape[0] and rng.random() < 0.5:
            j, k = int(rng.integers(p.normals.shape[0])), 2.0 ** int(rng.integers(-3, 4))
            row, bound = k * p.normals[j], k * p.bounds[j]
        else:
            n = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0))
            edge = max(y[i:i + 2]) if n > 0 else min(y[i:i + 2])
            edge = edge if np.isfinite(edge) else np.sign(n)
            row, bound = np.array([n]), n * (edge + np.sign(n) * rng.uniform(1e-6, 0.5))
        pieces[i] = AffinePiece(p.matrix, p.offset, np.vstack([p.normals, row]),
                                np.append(p.bounds, bound))
    return PiecewiseAffineMap(1, 1, tuple(pieces)), G, bps


def _fixture_line_factors():
    from cmnverify import fixtures
    specs = [fixtures.example1(), fixtures.example1(0.2), fixtures.example2(),
             fixtures.example1_node1(), fixtures.theorem1_perm23(), _box_spec(12),
             _box_spec(12, declared=True)]
    return [F for spec in specs for node in spec.nodes
            for f in _resolve_forms(node, spec.coupling.kind).values()
            for F in (f.U, f.V) if F is not None and F.dim_in == 1]


def _image_box(F):
    """The image box validation takes of the local map F on the h-set [-1, 1]
    (``network._image_boxes``), whose identity chart changes no bit of F."""
    node = NodeSystem(F, (HSet("A", AffineChart.shift_1d(0.0)),), TransitionMatrix([[1]]))
    return nw._image_boxes(node, {})[1]


def _same_line_cells(F):
    """Compare the table and the image box with the references; return the
    table's points."""
    table = geometry._CellTable(F)
    points, owner, ends = _reference_line_table(F)
    assert table.points.tobytes() == points.tobytes()
    assert table.owner.tobytes() == owner.tobytes()
    assert table.ends.tobytes() == ends.tobytes()
    (lo,), (hi,) = _image_box(F)
    want_lo, want_hi = _reference_range_1d(F)
    # the box holds the exact range, and passes it by at most what a piece
    # changes over the 1e-9 outside its cell that the vertex test admits,
    # where a neighbour's slope may lie the other way
    tie = 1e-12 * max(1.0, abs(want_lo), abs(want_hi))
    assert lo <= want_lo + tie and hi >= want_hi - tie
    assert max(want_lo - lo, hi - want_hi) <= 2e-9 * F.lipschitz() + tie
    return table.points


def test_fixture_line_cells_equal_the_subset_enumeration():
    factors = _fixture_line_factors()
    assert len(factors) == 31
    for F in factors:
        _same_line_cells(F)


def test_charted_line_cells_equal_the_subset_enumeration():
    rng = np.random.default_rng(7310)
    near_end = 0
    for n in range(10_000):
        F, G, _ = _charted_line_map(rng)
        miss = np.abs(np.abs(_same_line_cells(F)) - 1.0)
        near_end += bool(np.any((miss > 0) & (miss <= 1e-9)))
        if n % 10 == 0:
            _same_line_cells(G)     # the physical map
    assert near_end > 2000     # a vertex within 1e-9 of -1 or 1, not on it


def test_empty_line_pass():
    got = line_stretch([], [])
    assert got.ends.shape == (0, 2) and got.min_rel.size == got.max_abs.size == 0


# ---------------------------------------------------------------------------
# the subset enumeration in one stacked solve, and the gaps between two maps
# on the line in one array pass, against the loops they replaced


def _reference_box_vertices(piece, dim):
    """``_box_vertices`` of one cell as a loop over its constraint subsets:
    one ``det``, one ``solve`` and one feasibility test each."""
    normals = np.vstack([piece.normals, np.eye(dim), -np.eye(dim)])
    bounds = np.concatenate([piece.bounds, np.ones(2 * dim)])
    verts = []
    for combo in itertools.combinations(range(normals.shape[0]), dim):
        a = normals[list(combo)]
        b = bounds[list(combo)]
        if geometry.singular(a):
            continue
        x = np.linalg.solve(a, b)
        if np.all(normals @ x <= bounds + 1e-9):
            verts.append(x)
    if not verts:
        return np.zeros((0, dim))
    return np.unique(np.round(np.asarray(verts), 12), axis=0)


def _random_cell(rng):
    """(piece, dim): a cell in 1 to 4 dimensions with 0 to 4 constraints,
    of one of four kinds: Gaussian rows and bounds; small integer rows and
    bounds, with parallel, repeated and zero rows that make subsets
    singular; hyperplanes through a corner of the box, whose vertices lie
    on it; or the same moved by 1e-11 to 1e-7 either way, so that the
    corner meets them within or past the feasibility tolerance 1e-9."""
    dim, k = int(rng.integers(1, 5)), int(rng.integers(0, 5))
    kind = int(rng.integers(4))
    if kind == 1:
        normals = rng.integers(-2, 3, size=(k, dim)).astype(float)
        bounds = rng.integers(-2, 3, size=k).astype(float)
    else:
        normals = rng.normal(size=(k, dim))
        bounds = (rng.normal(size=k) if kind == 0
                  else normals @ rng.choice([-1.0, 1.0], size=dim))
        if kind == 3:
            bounds += rng.choice([-1.0, 1.0], size=k) * 10.0 ** rng.uniform(-11, -7, size=k)
    return AffinePiece(np.eye(dim), np.zeros(dim), normals, bounds), dim


def _per_cell(cells, dim):
    """``_box_vertices`` of ``cells``, each cell's rounded to 12 decimals
    and sorted without repeats, as its cell table keeps them."""
    verts, owner = geometry._box_vertices(cells, dim)
    return [np.unique(np.round(verts[owner == c], 12), axis=0) for c in range(len(cells))]


def test_batched_box_vertices_equal_the_loop():
    # one cell at a time, then stacks of 2 to 6 cells of one dimension with
    # different constraint counts, padded to a common one
    rng = np.random.default_rng(7320)
    empty = 0
    for _ in range(1000):
        piece, dim = _random_cell(rng)
        want = _reference_box_vertices(piece, dim)
        got, = _per_cell([(piece.normals, piece.bounds)], dim)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        empty += want.shape[0] == 0
    assert 50 < empty < 500
    counts = set()
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        stack = []
        while len(stack) < rng.integers(2, 7):
            piece, d = _random_cell(rng)
            if d == dim:
                stack.append(piece)
        counts.add(len({p.normals.shape[0] for p in stack}))
        got = _per_cell([(p.normals, p.bounds) for p in stack], dim)
        assert len(got) == len(stack)
        for piece, verts in zip(stack, got):
            want = _reference_box_vertices(piece, dim)
            assert verts.shape == want.shape and verts.tobytes() == want.tobytes()
    assert max(counts) >= 3


def test_cell_vertices_do_not_depend_on_the_scale_of_a_row():
    # x0 + x1 + x2 <= 0.5, x0 - x1 <= 0.2, x2 - x0 <= 0.1 meets the unit box
    # in 10 vertices, every one of them kept at any scale of its rows:
    # dropping (0.2, 0, 0.3) would understate the exact max of
    # |x0 + 2 x2 + 10|, 10.8 there, as 9.3
    normals = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [-1.0, 0.0, 1.0]])
    bounds = np.array([0.5, 0.2, 0.1])
    want, = _per_cell([(normals, bounds)], 3)
    assert len(want) == 10 and [0.2, 0.0, 0.3] in want.tolist()
    F = PiecewiseAffineMap(3, 3, (AffinePiece(np.array([[1.0, 0, 2], [0, 0, 0], [0, 0, 0]]),
                                              np.zeros(3), normals, bounds),))
    ref = np.array([-10.0, 0.0, 0.0])
    assert geometry._exact_max(F, ref, [want]) == pytest.approx(10.8, abs=1e-12)
    rng = np.random.default_rng(7322)
    scales = [np.full(3, 10.0 ** e) for e in range(-6, 7)]
    scales += [10.0 ** rng.uniform(-6, 6, size=3) for _ in range(50)]
    for scale in scales:
        got, = _per_cell([(normals * scale[:, None], bounds * scale)], 3)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)
        assert geometry._exact_max(F, ref, [got]) == pytest.approx(10.8, abs=1e-10)


def _reference_gap_1d(F, G):
    """``form_gap`` on the line as a loop over the pairs of pieces, in Python
    floats."""
    gaps, cells = [], [[(lo, hi, p.matrix[0, 0].item(), p.offset[0].item())
                        for p, lo, hi in zip(H.pieces, *geometry.line_cells(H).tolist())]
                       for H in ((F,) if G is F else (F, G))]
    for lo_f, hi_f, a, c in cells[0]:
        for lo_g, hi_g, b, e in cells[-1]:
            lo, hi = max(lo_f, lo_g, -1.0), min(hi_f, hi_g, 1.0)
            if lo <= hi + geometry.EVAL_TIE_TOL:
                gaps += [abs(a * x + c - (b * x + e)) for x in (lo, hi)]
    return float(np.max(gaps, initial=0.0))


def _jumped(rng, F):
    """F with a random piece's offset moved, so that it jumps where that
    piece meets another, or left as it is."""
    pieces = list(F.pieces)
    if rng.random() < 0.5:
        i = int(rng.integers(len(pieces)))
        p = pieces[i]
        jump = rng.normal(scale=10.0 ** rng.integers(-12, 1))
        pieces[i] = AffinePiece(p.matrix, p.offset + jump, p.normals, p.bounds)
    return PiecewiseAffineMap(1, 1, tuple(pieces))


def test_gap_in_one_array_pass_equals_the_loop():
    rng = np.random.default_rng(7321)
    jumps = 0
    for _ in range(1000):
        F, G, _ = _charted_line_map(rng)
        H = _jumped(rng, random_interval_map(rng))
        for pair in ((F, F), (H, H), (F, H), (H, _jumped(rng, F)), (G, G)):
            want = _reference_gap_1d(*pair)
            assert np.float64(geometry.form_gap(*pair)).tobytes() == np.float64(want).tobytes()
        jumps += geometry.form_gap(H, H) > 0
    assert jumps > 250
    # a piece that holds no point (0 x <= -1) has the interval [inf, inf],
    # and a slope 0 times inf is NaN, which no meet may read
    empty = AffinePiece(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), -np.ones(1))
    E = PiecewiseAffineMap(1, 1, (empty, *H.pieces))
    for pair in ((E, E), (E, F), (F, E)):
        want = _reference_gap_1d(*pair)
        assert np.float64(geometry.form_gap(*pair)).tobytes() == np.float64(want).tobytes()
    # a map that leaves part of [-1, 1] uncovered raises as the loop does
    gap = _two_slabs(1, 0.1)
    want = _outcome(lambda: _reference_gap_1d(gap, H))
    assert _outcome(lambda: geometry.form_gap(gap, H)) == want
    message = "map undefined between 0.1 and 0.2, inside [-1, 1]"
    assert _outcome(lambda: geometry.form_gap(H, gap)) == message


def test_vertex_limit_is_refused_before_any_cell_is_enumerated(monkeypatch):
    # a small cell first, then one of 110 constraints in 3 dimensions:
    # C(116, 3) = 253,460 candidate vertices
    small = AffinePiece(np.eye(3), np.zeros(3), np.eye(3)[:1], np.array([0.0]))
    large = AffinePiece(np.eye(3), np.zeros(3), np.tile(-np.eye(3), (37, 1))[:110],
                        np.full(110, 0.0))
    F = PiecewiseAffineMap(3, 3, (small, large))

    def enumerated(cells, dim):
        raise AssertionError("a cell was enumerated")
    monkeypatch.setattr(geometry, "_box_vertices", enumerated)
    with pytest.raises(GeometryError, match="^a chart-form cell has 253460 candidate vertices "
                                            "to enumerate, above the limit of 200000$"):
        CellGeometry().table(F)


# ---------------------------------------------------------------------------
# what the store keeps, and what it refuses to keep


def _two_slabs(dim, gap):
    """Pieces x_0 <= 0.1 and x_0 >= 0.1 + gap."""
    e = np.eye(dim)[:1]
    return PiecewiseAffineMap(dim, dim, (
        AffinePiece(2.0 * np.eye(dim), np.zeros(dim), e, np.array([0.1])),
        AffinePiece(3.0 * np.eye(dim), np.ones(dim), -e, np.array([-0.1 - gap]))))


def test_map_that_is_not_total_raises_every_call_and_stores_nothing():
    # the gap (0.1, 1.1) holds probe points: the totality probe fails
    F = _two_slabs(2, 1.0)
    cells = CellGeometry()
    for _ in range(3):
        with pytest.raises(GeometryError, match="undefined"):
            min_stretch(F, np.zeros(2), resolution=17, cells=cells)
        with pytest.raises(GeometryError, match="undefined"):
            max_stretch(F, np.zeros(2), cells=cells)
    assert not cells._tables

    # the gap (0.1, 0.2) misses the probe but holds face-grid points x_0 = 0.125
    G = _two_slabs(2, 0.1)
    for _ in range(3):
        with pytest.raises(GeometryError, match="undefined"):
            min_stretch(G, np.zeros(2), resolution=17, cells=cells)
    assert [t._rows for t in cells._tables.values()] == [{}]
    assert min_stretch(G, np.zeros(2), resolution=3, cells=cells).min_attained > 0


def test_tables_are_keyed_by_cell_content():
    F = _two_slabs(3, 0.0)
    same_cells = PiecewiseAffineMap(3, 3, tuple(
        AffinePiece(-p.matrix, p.offset + 1.0, p.normals.copy(), p.bounds.copy())
        for p in F.pieces))
    moved = F.compose_affine_inner(2.0 * np.eye(3), np.full(3, 0.05))
    cells = CellGeometry()
    table = cells.table(F)
    assert cells.table(same_cells) is table
    assert cells.table(F.scale(-2.5)) is table
    assert cells.table(moved) is not table
    assert len(cells._tables) == 2


# ---------------------------------------------------------------------------
# apply_batch: the unconstrained first piece skips the mask


@pytest.mark.parametrize("shape", [(1, 3), (257, 3), (0, 3)])
def test_affine_apply_batch_equals_masked_path(shape):
    # coordinate-major batches: contiguous, a transposed view, a block of
    # rows and every third row of a wider array
    rng = np.random.default_rng(sum(shape))
    F = PiecewiseAffineMap.affine(rng.normal(size=(4, 3)), rng.normal(size=4))
    pts = rng.normal(size=shape)
    wide = rng.normal(size=(7, shape[0]))
    for x in (np.ascontiguousarray(pts.T), pts.T, wide[2:5], wide[::3]):
        got = F.apply_batch(x)
        want = _reference_apply_batch(F, x.T).T
        assert got.shape == want.shape
        assert (got == want).all()
        assert not np.shares_memory(got, x)


def test_piecewise_apply_batch_equals_masked_path():
    rng = np.random.default_rng(5)
    F = _arrangement_map(rng, 3, tie_planes=True)
    pts = np.vstack([geometry._face_points(3, 9), rng.uniform(-1, 1, size=(200, 3))])
    wide = np.zeros((6, pts.shape[0]))
    wide[1:4] = pts.T
    for x in (pts.T, wide[1:4]):
        assert (F.apply_batch(x) == _reference_apply_batch(F, x.T).T).all()

