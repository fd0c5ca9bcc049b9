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
    pts = np.asarray(pts, dtype=float)
    out = np.empty((pts.shape[0], F.dim_out))
    todo = np.ones(pts.shape[0], dtype=bool)
    for p in F.pieces:
        hit = todo & p.contains_batch(pts)
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


def _box_node(rng, W, declared):
    """Designed golden-mean node lifted to u = 3, s = 1: the first unstable
    coordinate carries the interval map, the others expand linearly, the
    stable one contracts.  ``declared`` gives each source one affine form."""
    flat = designed_node(rng, W, float(rng.uniform(0.5, 0.9)), "B", unified=True)
    u, s = 3, 1
    gains = np.array([1.0, 2.0, 2.0, 0.3])
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


def _box_spec(seed, d=3, alpha=0.01, declared=False):
    rng = np.random.default_rng(seed)
    nodes = tuple(_box_node(rng, TransitionMatrix(np.array(GOLDEN[k % 2])), declared)
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
        if pts.shape[0] == grid_rows:
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
        sampled = np.min(np.max(np.abs(F.apply_batch(pts) - ref), axis=1))
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
    rng = np.random.default_rng(sum(shape))
    F = PiecewiseAffineMap.affine(rng.normal(size=(4, 3)), rng.normal(size=4))
    pts = rng.normal(size=shape)
    wide = rng.normal(size=(shape[0], 7))
    for x in (pts, wide[:, 2:5], wide[:, ::3]):
        got = F.apply_batch(x)
        want = _reference_apply_batch(F, x)
        assert got.shape == want.shape
        assert (got == want).all()
        assert not np.shares_memory(got, x)


def test_piecewise_apply_batch_equals_masked_path():
    rng = np.random.default_rng(5)
    F = _arrangement_map(rng, 3, tie_planes=True)
    pts = np.vstack([geometry._face_points(3, 9), rng.uniform(-1, 1, size=(200, 3))])
    wide = np.zeros((pts.shape[0], 6))
    wide[:, 1:4] = pts
    for x in (pts, wide[:, 1:4]):
        assert (F.apply_batch(x) == _reference_apply_batch(F, x)).all()
