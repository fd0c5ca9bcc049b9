"""The network-map iteration layer against its masked references, bit for bit.

The package's batches are coordinate-major, (dim, n); the references are
row-major, (n, dim), as the package was before.
``PiecewiseAffineMap.apply_batch`` applies each piece to its columns
gathered by index; ``tests/test_cell_geometry.py::_reference_apply_batch``
is the masked loop over pieces it replaced.  ``locate_batch`` takes each
chart's max-norm as a running maximum over coordinate rows;
``tests/test_dynamics_equivalence.py::_reference_locate_batch`` is the
``.max(axis=1)`` formulation, and ``_reference_step`` there is the network
map on rows.  Points and states are drawn on, and within the tie
tolerances of, shared cell and h-set boundaries, where first-match and
lowest-symbol precedence decide.  Groups of one point take BLAS's
matrix-vector path and are checked on their own.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cmnverify import AffineChart, HSet, NetworkSpec, NodeSystem, fixtures  # noqa: E402
from cmnverify import dynamics as dy, geometry  # noqa: E402
from cmnverify.geometry import GeometryError  # noqa: E402
from cmnverify.network import TYPE_II, _resolve_forms  # noqa: E402
from test_cell_geometry import (_arrangement_map, _box_spec, _outcome,  # noqa: E402
                                _overlapping_map, _reference_apply_batch, _two_slabs)
from test_dynamics_equivalence import (SPECS, _reference_locate_batch,  # noqa: E402
                                       _reference_step)


# ---------------------------------------------------------------------------
# apply_batch against the masked loop, at and near shared cell boundaries


def _bits(a):
    """The float64 array's bit patterns: equal bits, not just equal values
    (-0.0 and 0.0 differ here)."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _apply_cases():
    rng = np.random.default_rng(4200)
    box = _box_spec(11)
    cases = {
        "example1": fixtures.example1().nodes[0].local_map,
        "example1_node2": fixtures.example1().nodes[1].local_map,
        "perm23_node2": fixtures.theorem1_perm23().nodes[1].local_map,
        "arrangement_1d": _arrangement_map(rng, 1, tie_planes=True),
        "overlapping_1d": _overlapping_map(rng, 1),
        "box_local": box.nodes[0].local_map,
        "box_local_2": box.nodes[1].local_map,
    }
    for key, form in sorted(_resolve_forms(box.nodes[0], TYPE_II).items()):
        cases[f"box_form_{key}"] = form.U
    # x_0 in (0.1, 0.6) lies in no cell
    cases["gap_1d"] = _two_slabs(1, 0.5)
    cases["gap_4d"] = _two_slabs(4, 0.5)
    return cases


APPLY_CASES = _apply_cases()
TIE = geometry.EVAL_TIE_TOL
# offsets from a boundary: on it, inside and outside the tie tolerance
NUDGES = (0.0, 0.0, 0.5 * TIE, -0.5 * TIE, TIE, -TIE, 2.0 * TIE, -2.0 * TIE, 1e-9, -1e-9)


def _boundary_points(F, rng, kinds):
    """One point per entry of ``kinds``: -1 for a uniform point of
    [-4.5, 4.5]^dim, else an index into NUDGES for a point that far along
    the largest normal coordinate from a random cell boundary."""
    constraints = [(n, b) for p in F.pieces for n, b in zip(p.normals, p.bounds)]
    pts = rng.uniform(-4.5, 4.5, size=(len(kinds), F.dim_in))
    for x, kind in zip(pts, kinds):
        if kind < 0 or not constraints:
            continue
        n, b = constraints[int(rng.integers(len(constraints)))]
        j = int(np.argmax(np.abs(n)))
        x[j] = 0.0
        x[j] = (b - n @ x) / n[j] + NUDGES[kind]
    return pts


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.sampled_from(sorted(APPLY_CASES)), st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(-1, len(NUDGES) - 1), min_size=1, max_size=40))
def test_apply_batch_is_bit_equal_to_masked_loop(name, seed, kinds):
    F = APPLY_CASES[name]
    pts = _boundary_points(F, np.random.default_rng(seed), kinds)
    _same_apply(F, pts)


def _same_apply(F, pts):
    """``F.apply_batch`` on the columns of ``pts.T`` is bit for bit the
    masked loop on the rows of ``pts``, or raises the same error."""
    want = _outcome(lambda: _reference_apply_batch(F, pts))
    got = _outcome(lambda: F.apply_batch(pts.T).T)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(_bits(got), _bits(want))


def _first_piece(F, pts):
    """Index of the first piece holding each row of ``pts``, -1 for none."""
    owner = np.full(pts.shape[0], -1)
    for i, p in enumerate(F.pieces):
        inside = (np.all(pts @ p.normals.T <= p.bounds + TIE, axis=1)
                  if p.normals.shape[0] else np.ones(pts.shape[0], dtype=bool))
        owner[(owner < 0) & inside] = i
    return owner


@pytest.mark.parametrize("name", sorted(APPLY_CASES))
def test_apply_batch_single_point_groups_are_bit_equal(name):
    # each piece in turn holds exactly one point of the batch while the
    # others hold the rest, so its gather is a one-column product; and
    # each point alone
    F = APPLY_CASES[name]
    rng = np.random.default_rng(7)
    singles = 0
    for _ in range(20):
        pts = _boundary_points(F, rng, rng.integers(-1, len(NUDGES), size=12))
        owner = _first_piece(F, pts)
        pts = pts[owner >= 0]
        owner = owner[owner >= 0]
        for i in np.unique(owner):
            one = np.flatnonzero(owner == i)[:1]
            batch = np.vstack([pts[one], pts[owner != i]])
            singles += batch.shape[0] > 1
            _same_apply(F, batch)
        for row in pts[:3]:
            _same_apply(F, row[None])
    assert singles > 0 or len(F.pieces) == 1


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 1), (1, 2), (1, 4), (1, 24), (2, 2),
                                        (3, 3), (2, 7), (7, 7), (4, 5)])
@pytest.mark.parametrize("points", [1, 2, 500])
def test_product_is_bit_equal_to_row_major_product(rows, cols, points):
    # the three rules of geometry._product: a one-column matrix broadcasts,
    # a one-row matrix is the row-major matrix-vector product, and a matrix
    # up to 7 columns wide goes through BLAS as m @ pts
    rng = np.random.default_rng(rows * 1000 + cols * 10 + points)
    for _ in range(20):
        m = rng.standard_normal((rows, cols)) * rng.uniform(0.1, 1e3)
        pts = rng.standard_normal((points, cols))
        pts[rng.uniform(size=pts.shape) < 0.1] = 0.0
        want = pts @ m.T
        got = geometry._product(m, np.ascontiguousarray(pts.T))
        assert np.array_equal(_bits(got.T), _bits(want))


@pytest.mark.parametrize("name", sorted(APPLY_CASES))
def test_contains_batch_matches_row_major_test(name):
    # every piece's cell test on points on and near the cell boundaries,
    # one constraint (a one-row normal matrix) included
    F = APPLY_CASES[name]
    rng = np.random.default_rng(11)
    for _ in range(10):
        pts = _boundary_points(F, rng, rng.integers(-1, len(NUDGES), size=30))
        for p in F.pieces:
            if not p.normals.shape[0]:
                continue
            want = np.all(pts @ p.normals.T <= p.bounds + TIE, axis=1)
            assert np.array_equal(p.contains_batch(np.ascontiguousarray(pts.T)), want)
            assert np.array_equal(p.contains_batch(pts[:1].T), want[:1])


def test_boundary_points_reach_ties_and_the_gap():
    # the strategy above does meet what it is meant to meet: points that a
    # later piece also holds, and points in no cell
    F = APPLY_CASES["example1"]
    pts = _boundary_points(F, np.random.default_rng(0), [0, 2, 3, 6, 7] * 20)
    holders = sum(p.contains_batch(pts.T).astype(int) for p in F.pieces)
    assert np.any(holders > 1)
    with pytest.raises(GeometryError, match="undefined"):
        APPLY_CASES["gap_1d"].apply_batch(np.array([[0.3]]))


# ---------------------------------------------------------------------------
# locate_batch against the row-max formulation


LOCATE_SPECS = {name: SPECS[name]() for name in ("example1", "example2", "theorem1_perm23",
                                                 "planar_golden_pair", "designed2_d3_weak")}
LOCATE_SPECS["box_u3"] = _box_spec(11)


def _overlapping_members():
    """example1 with node 1's second h-set moved onto [0, 2], overlapping
    the first: not a valid spec, but it tells which symbol wins a row both hold."""
    spec = fixtures.example1()
    node = spec.nodes[0]
    hsets = (node.hsets[0], HSet("M12", AffineChart.shift_1d(-1.0)))
    moved = NodeSystem(node.local_map, hsets, node.transition)
    return NetworkSpec(spec.graph, (moved, spec.nodes[1]), spec.coupling)


LOCATE_SPECS["overlapping_members"] = _overlapping_members()
# chart coordinates: on the unit box's face, inside and outside the tie
# tolerance, and well inside or outside
FACE = (1.0, 1.0 - 5e-13, 1.0 + 5e-13, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 2e-12, 0.3, 1.7)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.sampled_from(sorted(LOCATE_SPECS)), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 30))
def test_locate_batch_matches_row_max_reference(name, seed, rows):
    # every node's block is a member's chart preimage of a point of the
    # unit box with one coordinate on, near or past the box's face
    spec = LOCATE_SPECS[name]
    rng = np.random.default_rng(seed)
    block = spec.block_dim
    states = np.empty((rows, spec.state_dim))
    for k, node in enumerate(spec.nodes):
        y = rng.uniform(-1.0, 1.0, size=(rows, block))
        j = rng.integers(block, size=rows)
        y[np.arange(rows), j] = rng.choice(FACE, size=rows) * rng.choice((-1.0, 1.0), size=rows)
        symbol = rng.integers(1, node.count + 1, size=rows)
        for i in range(1, node.count + 1):
            mask = symbol == i
            chart = node.member_chart(i)
            states[mask, k * block:(k + 1) * block] = chart.invert_batch(y[mask].T).T
    symbols, ties = _reference_locate_batch(spec, states)
    assert np.array_equal(dy.locate_batch(spec, states.T), symbols.T)
    assert dy._ties(spec, states.T) == ties
    # one state at a time: the charts' one-column products
    for r in range(min(rows, 4)):
        assert np.array_equal(dy.locate_batch(spec, states[r:r + 1].T)[:, 0], symbols[r])


# ---------------------------------------------------------------------------
# the network map against the row-major step


def _states(spec, rng, rows):
    """``rows`` states whose node blocks are member-chart preimages of
    points of [-1.2, 1.2]^block, members drawn at random."""
    block = spec.block_dim
    states = np.empty((rows, spec.state_dim))
    for k, node in enumerate(spec.nodes):
        y = rng.uniform(-1.2, 1.2, size=(block, rows))
        symbol = rng.integers(1, node.count + 1, size=rows)
        for r in range(rows):
            states[r, k * block:(k + 1) * block] = \
                node.member_chart(int(symbol[r])).invert(y[:, r])
    return states


@pytest.mark.parametrize("pert", [None, dy.Perturbation(0.01, 3)], ids=["plain", "pert"])
@pytest.mark.parametrize("rows", [1, 2, 500])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_step_batch_is_bit_equal_to_row_major_step(name, rows, pert):
    spec = SPECS[name]()
    states = _states(spec, np.random.default_rng(rows), rows)
    want = _outcome(lambda: _reference_step(spec, states, pert))
    got = _outcome(lambda: dy._step_batch(spec, np.ascontiguousarray(states.T), pert).T)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))
