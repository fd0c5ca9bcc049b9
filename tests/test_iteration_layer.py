"""The network-map iteration layer against its masked references, bit for bit.

``PiecewiseAffineMap.apply_batch`` applies each piece to its rows gathered
by index; ``tests/test_cell_geometry.py::_reference_apply_batch`` is the
masked loop over pieces it replaced.  ``locate_batch`` takes each chart's
max-norm as a running maximum over columns; ``_reference_locate_batch``
below is the ``.max(axis=1)`` formulation.  Points and states are drawn on,
and within the tie tolerances of, shared cell and h-set boundaries, where
first-match and lowest-symbol precedence decide.
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
from test_dynamics_equivalence import SPECS  # noqa: E402


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
    want = _outcome(lambda: _reference_apply_batch(F, pts))
    got = _outcome(lambda: F.apply_batch(pts))
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(_bits(got), _bits(want))


def test_boundary_points_reach_ties_and_the_gap():
    # the strategy above does meet what it is meant to meet: points that a
    # later piece also holds, and points in no cell
    F = APPLY_CASES["example1"]
    pts = _boundary_points(F, np.random.default_rng(0), [0, 2, 3, 6, 7] * 20)
    holders = sum(p.contains_batch(pts).astype(int) for p in F.pieces)
    assert np.any(holders > 1)
    with pytest.raises(GeometryError, match="undefined"):
        APPLY_CASES["gap_1d"].apply_batch(np.array([[0.3]]))


# ---------------------------------------------------------------------------
# locate_batch against the row-max formulation


def _reference_locate_batch(spec, states):
    """``locate_batch`` with each chart's max-norm taken by ``.max(axis=1)``
    and the symbols tried from the lowest up."""
    n = states.shape[0]
    block = spec.block_dim
    symbols = np.zeros((n, spec.d), dtype=np.int64)
    ties = 0
    tol = TIE
    for k, node in enumerate(spec.nodes):
        seg = states[:, k * block:(k + 1) * block]
        found = symbols[:, k]
        for i in range(1, node.count + 1):
            ext = np.abs(node.member_chart(i).apply_batch(seg)).max(axis=1)
            inside = ext <= 1.0 + tol
            ties += int(np.count_nonzero(inside & (np.abs(ext - 1.0) <= tol)))
            found[inside & (found == 0)] = i
    return symbols, ties


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
            states[mask, k * block:(k + 1) * block] = node.member_chart(i).invert_batch(y[mask])
    got = dy.locate_batch(spec, states)
    want = _reference_locate_batch(spec, states)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
