"""Shared cell-only geometry against the stretch bounds computed afresh.

``_reference_stretch`` is the stretch computation as it was before cell
geometry was shared: every call probes totality through a masked
``apply_batch``, enumerates cell vertices, and evaluates the whole face
grid through the map.  With a ``CellGeometry`` store the same bounds must
come out bit for bit, however many maps share the store.

``_reference_affine_face_min`` is the affine face minimum as one linear
program per face; the package solves all faces as blocks of one program.
"""

import itertools

import numpy as np
import pytest

from cmnverify import (AffineChart, CenterScale, CouplingSpec, Graph, HSet, NetworkSpec,
                       NodeSystem, PiecewiseAffineMap, TransitionMatrix, UnifiedSet,
                       theorem2_check)
from cmnverify import geometry
from cmnverify.covering import ProductFormMap
from cmnverify.geometry import (AffinePiece, CellGeometry, GeometryError, StretchBounds,
                                max_stretch, min_stretch)
from cmnverify.network import TYPE_II, _resolve_forms
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
        verts = geometry._piece_box_vertices(p, F.dim_in)
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
    if F.dim_in <= 4:
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
# affine maps: one linear program for all faces against one per face


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


@pytest.mark.parametrize("u", [2, 3])
def test_one_lp_face_min_equals_per_face_lps_on_diagonal_forms(u):
    refs = (np.zeros(u), np.eye(u)[0] * 3.0, -np.eye(u)[u - 1] * 0.5,
            np.linspace(-1.3, 0.7, u))
    for F in _diagonal_forms(u):
        for a in (1.0, 0.0, -1.0, -0.37, 0.01, 3.5e11):
            for ref in refs:
                G = F.scale(a)
                assert geometry._affine_face_min(G, ref) == _reference_affine_face_min(G, ref)


def test_degenerate_box4_face_keeps_its_value():
    # the value box4's seed-1 certificate carries
    F = _diagonal_forms(3)[-1]
    assert geometry._affine_face_min(F, np.array([3.0, 0.0, 0.0])) == 1.794448982322085


def test_one_lp_face_min_on_dense_maps():
    # both answers are HiGHS optima of the same LP; on dense forms they may
    # differ by rounding; the one-LP value never exceeds a sampled boundary value
    rng = np.random.default_rng(8200)
    for _ in range(40):
        dim = int(rng.integers(2, 5))
        F = PiecewiseAffineMap.affine(rng.normal(scale=2.0, size=(dim, dim)),
                                      rng.normal(size=dim))
        ref = rng.uniform(-2.0, 2.0, size=dim)
        got = geometry._affine_face_min(F, ref)
        want = _reference_affine_face_min(F, ref)
        assert abs(got - want) <= 1e-12 * abs(want)
        pts = geometry._face_points(dim, 9)
        sampled = np.min(np.max(np.abs(F.apply_batch(pts.T).T - ref), axis=1))
        assert got <= sampled + 1e-9


@pytest.mark.parametrize("u", [2, 3])
def test_affine_min_stretch_is_one_linprog_call(u, monkeypatch):
    import scipy.optimize
    calls = []
    linprog = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    forms = _diagonal_forms(u)
    for F in forms:
        min_stretch(F, np.zeros(u))
    assert len(calls) == len(forms)


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

