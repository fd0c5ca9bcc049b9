"""``check_covering`` against the scalar implementation it replaced.

``reference_check_covering`` (in ``covering_reference.py``) is the
single-covering check as it was before the covering inequalities had one
implementation: its own thresholds (``1 + STRICT_MARGIN``), its own degree
gating and its own three-valued verdict.  It calls ``min_stretch``,
``max_stretch`` and ``degree_for_map`` through ``cmnverify.network``, so a
test can patch or count one function for both sides.  ``check_covering``
now reads the checkers' tables: the diagonal cell of a one-node row under
the identity coupling.  Verdicts, certificate margins (bit for bit) and
degree values agree, but for these intended differences, each asserted
below:

- no degree is read where the row cannot pass: where the stable inequality
  fails, or where the stretch misses the threshold by less than
  ``STRICT_MARGIN``; the reference read one wherever min stretch - 1 > 0;
- a straddling stretch bound with a known zero degree is "fail"; the
  reference read no degree there and said "inconclusive";
- a degree that raises ``DegreeUndefinedError`` makes the covering
  "inconclusive"; the reference let the error escape;
- the stretch threshold compares the margin min stretch - 1 with
  ``STRICT_MARGIN``, where the reference compared min stretch with
  1 + STRICT_MARGIN, which rounds to 1 + 4504 * 2^-52: a stretch of exactly
  that double passes now and failed before.

Theorem 1's transition pre-check reads the same tables, and
``tests/test_checker_equivalence.py`` compares it, transition by
transition, with this reference.
"""

import numpy as np
import pytest

from cmnverify import (AffineChart, CenterScale, HSet, PiecewiseAffineMap, ProductFormMap,
                       check_covering)
from cmnverify import network as nw
from cmnverify.covering import STRICT_MARGIN
from cmnverify.degree import DegreeUndefinedError, DegreeValue
from conftest import random_interval_map
from covering_reference import (assert_same_outcome, counted, reference_check_covering,
                                replaced)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _is_degree_note(message):
    return message.startswith(("degree 0", "cannot certify the crossing degree"))


def compare(source, target, f, resolution=64):
    """``check_covering`` against the reference on one covering, allowing
    only the intended differences."""
    with counted() as reference_calls:
        want = reference_check_covering(source, target, f, target_id="T",
                                        resolution=resolution)
    with counted() as calls:
        got = check_covering(source, target, f, target_id="T", resolution=resolution)
    # one stretch bound per inequality, as the reference takes
    for name in ("min_stretch", "max_stretch"):
        assert calls[name] == reference_calls[name], name
    if any(m.startswith("max stretch") for m in want.failures):
        # the stable inequality fails: the row cannot pass, no degree is read
        assert got.verdict == want.verdict == "fail"
        assert calls["degree_for_map"] == 0
        assert got.failures == tuple(m for m in want.failures if not _is_degree_note(m))
    elif any("straddles" in m for m in want.failures):
        # a straddling bound: the row may pass, so a degree is read where
        # it is defined, and a known zero decides "fail"
        assert want.verdict == "inconclusive"
        zero = any(m.startswith("degree 0") for m in got.failures)
        assert got.verdict == ("fail" if zero else "inconclusive")
        if zero:
            assert nw.degree_for_map(f.U, target.p_u).value == 0
        assert got.failures[0] == want.failures[0]
    else:
        assert_same_outcome(got, want)
        assert calls["degree_for_map"] == reference_calls["degree_for_map"]
    return got


def _interval(seed):
    return random_interval_map(np.random.default_rng(seed), slope_scale=6.0)


def _sawtooth(height, slope):
    """Planar map, a sawtooth of the given boundary height and slope in each
    coordinate: genuinely piecewise, so its stretch minimum comes from a
    face grid and its degree is outside the supported classes."""
    saw = PiecewiseAffineMap.from_breakpoints([0.0], [(-slope, height - slope),
                                                      (slope, height - slope)])
    pieces = []
    for px in saw.pieces:
        for py in saw.pieces:
            normals = np.vstack([np.hstack([px.normals, np.zeros_like(px.normals)]),
                                 np.hstack([np.zeros_like(py.normals), py.normals])])
            pieces.append(type(px)(np.diag([px.matrix[0, 0], py.matrix[0, 0]]),
                                   np.array([px.offset[0], py.offset[0]]), normals,
                                   np.concatenate([px.bounds, py.bounds])))
    return PiecewiseAffineMap(2, 2, tuple(pieces))


LINE = HSet("I", AffineChart.identity(1, 0))
SQUARE = HSet("Q", AffineChart.identity(2, 0))
STRIP = HSet("S", AffineChart.identity(1, 1))
coordinate = st.floats(-4.0, 4.0, allow_nan=False)
seeds = st.integers(0, 2 ** 32 - 1)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seeds, coordinate)
def test_interval_maps_match_the_reference(seed, center):
    compare(LINE, CenterScale([center], [], 1.0), ProductFormMap(_interval(seed)))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=6, max_size=6))
def test_planar_affine_maps_match_the_reference(values):
    matrix = np.reshape(values[:4], (2, 2))
    if nw.singular(matrix):
        return
    f = ProductFormMap(PiecewiseAffineMap.affine(matrix, values[4:]))
    compare(SQUARE, CenterScale([0.5, -0.5], [], 1.0), f)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seeds, coordinate, st.floats(-1.2, 1.2, allow_nan=False),
       st.floats(-0.5, 0.5, allow_nan=False), st.floats(0.05, 1.0))
def test_maps_with_a_stable_factor_match_the_reference(seed, center, s_slope, s_center,
                                                        radius):
    f = ProductFormMap(_interval(seed), PiecewiseAffineMap.affine([[s_slope]], [0.0]))
    compare(STRIP, CenterScale([center], [s_center], radius), f)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.floats(0.5, 1.5), st.floats(2.0, 30.0), st.integers(3, 129))
def test_sawtooth_grid_bounds_match_the_reference(height, slope, resolution):
    compare(SQUARE, CenterScale([0.0, 0.0], [], 1.0), ProductFormMap(_sawtooth(height, slope)),
            resolution=resolution)


def test_the_generated_cases_reach_every_verdict():
    seen = set()
    for seed in range(200):
        seen.add(compare(LINE, CenterScale([seed % 7 - 3.0], [], 1.0),
                         ProductFormMap(_interval(seed))).verdict)
    seen.add(compare(SQUARE, CenterScale([0.0, 0.0], [], 1.0),
                     ProductFormMap(_sawtooth(1.05, 20.0)), resolution=65).verdict)
    assert seen == {"pass", "fail", "inconclusive"}


# the intended differences, one example each

VEE = PiecewiseAffineMap.from_breakpoints([0.0], [(-3.0, 1.5), (3.0, 1.5)])  # degree 0 at 0


def test_no_degree_is_read_where_the_stable_inequality_fails():
    f = ProductFormMap(VEE, PiecewiseAffineMap.affine([[0.9]], [0.0]))
    target = CenterScale([0.0], [0.0], 0.5)
    with counted() as reference_calls:
        want = reference_check_covering(STRIP, target, f)
    with counted() as calls:
        got = check_covering(STRIP, target, f)
    assert want.verdict == got.verdict == "fail"
    assert reference_calls["degree_for_map"] == 1 and calls["degree_for_map"] == 0
    assert want.failures == ("degree 0 at target center [0.0]",
                             "max stretch 0.9 >= 0.5 relative to stable center [0.0]")
    assert got.failures == want.failures[1:]


def test_straddling_bound_with_a_zero_degree_fails():
    # bounds on the line and affine ones are exact, so only a face grid
    # straddles; the degree of its genuinely piecewise planar map is not
    # computable, so it is replaced by a known zero
    def zero(F, target):
        return DegreeValue(0, "affine-determinant")
    f = ProductFormMap(_sawtooth(1.05, 20.0))
    target = CenterScale([0.0, 0.0], [], 1.0)
    with replaced("degree_for_map", zero):
        want = reference_check_covering(SQUARE, target, f, resolution=65)
        got = check_covering(SQUARE, target, f, resolution=65)
    assert want.verdict == "inconclusive"
    assert got.verdict == "fail"
    assert got.failures == want.failures + ("degree 0 at target center [0.0, 0.0]",)


def test_undefined_degree_is_inconclusive():
    # a planar affine map: its degree goes through ``degree_for_map``
    def undefined(F, target):
        raise DegreeUndefinedError("target on the boundary image")
    f = ProductFormMap(PiecewiseAffineMap.affine(3.0 * np.eye(2), [0.0, 0.0]))
    target = CenterScale([0.0, 0.0], [], 1.0)
    with replaced("degree_for_map", undefined):
        with pytest.raises(DegreeUndefinedError):
            reference_check_covering(SQUARE, target, f)
        got = check_covering(SQUARE, target, f)
    assert got.verdict == "inconclusive"
    assert got.failures == ("cannot certify the crossing degree: target on the boundary image",)


def test_threshold_is_a_margin_comparison():
    threshold = 1.0 + STRICT_MARGIN
    assert threshold == 1.0 + 4504 * 2.0 ** -52
    at = ProductFormMap(PiecewiseAffineMap.affine([[threshold]], [0.0]))
    target = CenterScale([0.0], [], 1.0)
    assert reference_check_covering(LINE, target, at).verdict == "fail"
    got = check_covering(LINE, target, at)
    assert got.verdict == "pass"
    assert got.certificate.unstable_margin == 4504 * 2.0 ** -52
    # just below, both fail, and only the reference reads the degree
    below = ProductFormMap(PiecewiseAffineMap.affine([[1.0 + 4000 * 2.0 ** -52]], [0.0]))
    with counted() as reference_calls:
        want = reference_check_covering(LINE, target, below)
    with counted() as calls:
        got = check_covering(LINE, target, below)
    assert_same_outcome(got, want)
    assert got.verdict == "fail"
    assert reference_calls["degree_for_map"] == 1 and calls["degree_for_map"] == 0
