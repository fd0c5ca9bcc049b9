import itertools
import warnings

import numpy as np
import pytest

from cmnverify import (AffineChart, CenterScale, GeometryError, HSet,
                       PiecewiseAffineMap, UnifiedSet, max_stretch,
                       min_stretch, singular, split_product, unified_validate)
from cmnverify.geometry import box_grid
from conftest import random_interval_map
from test_cell_geometry import _reference_range_1d

U11 = PiecewiseAffineMap.affine([[3.5]], [1.5])   # expands [-1,1] across [-2,5]
U12 = PiecewiseAffineMap.affine([[2.0]], [0.0])


class TestAffineChart:
    def test_identity_fixes_points(self):
        chart = AffineChart.identity(1, 1)
        assert np.allclose(chart.apply([0.3, -0.2]), [0.3, -0.2])

    def test_unit_shift_chart(self):
        chart = AffineChart.shift_1d(-3.0)
        assert chart.apply([2.0])[0] == pytest.approx(-1.0)

    def test_scale_and_offset(self):
        chart = AffineChart(1, 0, [[2.0]], [1.0])
        assert chart.apply([0.5])[0] == pytest.approx(2.0)

    def test_round_trip_on_random_points(self, rng):
        for _ in range(10):
            dim_u = int(rng.integers(1, 3))
            dim_s = int(rng.integers(0, 3))
            m = dim_u + dim_s
            lin = rng.uniform(-2, 2, size=(m, m)) + 3 * np.eye(m)
            chart = AffineChart(dim_u, dim_s, lin, rng.uniform(-1, 1, size=m))
            pts = rng.uniform(-1, 1, size=(m, 100))
            back = chart.invert_batch(chart.apply_batch(pts))
            assert np.max(np.abs(back - pts)) < 1e-12

    def test_singular_chart_rejected(self):
        with pytest.raises(GeometryError):
            AffineChart(1, 1, [[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0])

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_singularity_does_not_depend_on_scale(self, c):
        lin = np.array([[2.0, 1.0, 0.0], [0.0, -1.5, 0.5], [0.3, 0.0, 1.0]])
        chart = AffineChart(2, 1, c * lin, np.zeros(3))
        assert np.allclose(chart.invert(chart.apply([0.5, -0.2, 0.1])), [0.5, -0.2, 0.1])
        rank_two = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(GeometryError, match="singular"):
            AffineChart(2, 1, c * rank_two, np.zeros(3))

    def test_wide_h_set_is_accepted(self):
        # half-width 1000 in four dimensions: |det| of the chart is 1e-12
        chart = AffineChart(2, 2, 1e-3 * np.eye(4), np.zeros(4))
        assert np.allclose(HSet("W", chart).bounding_box()[1], 1000.0)


class TestSingular:
    def test_zero_row_and_dependent_rows(self):
        assert singular(np.zeros((2, 2)))
        assert singular([[1.0, 0.0], [0.0, 0.0]])
        assert singular([[1.0, 2.0], [2.0, 4.0]])
        assert not singular(np.eye(3))

    def test_each_row_scales_freely(self):
        # the rows' scales differ by 1e400; with unit rows the matrix is I
        assert not singular([[1e-200, 0.0], [0.0, 1e200]])
        assert singular([[1e-200, 1e-200], [1e200, 1e200]])

    def test_huge_entries_do_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not singular([[0.8, 0.2], [1e308, 0.8]])
            assert not singular([[1e308, 1e308], [-1e308, 1e308]])

    def test_non_finite_is_singular(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert singular([[np.nan, 0.0], [0.0, 1.0]])
            assert singular([[np.inf, 0.0], [0.0, 1.0]])


class TestPiecewiseAffineMap:
    def test_breakpoint_evaluation(self):
        f = PiecewiseAffineMap.from_breakpoints([0.0], [(-1.0, 0.0), (1.0, 0.0)])
        assert f.apply([-0.5])[0] == pytest.approx(0.5)   # |x|
        assert f.apply([0.5])[0] == pytest.approx(0.5)

    def test_discontinuity_rejected(self):
        with pytest.raises(GeometryError, match="discontinuity"):
            PiecewiseAffineMap.from_breakpoints([0.0], [(1.0, 0.0), (1.0, 5.0)])

    def test_compose_inner_matches_pointwise(self, rng):
        f = random_interval_map(rng)
        for _ in range(20):
            a, b = rng.uniform(0.5, 2.0), rng.uniform(-1, 1)
            g = f.compose_affine_inner([[a]], [b])
            x = rng.uniform(-1, 1)
            assert g.apply([x])[0] == pytest.approx(f.apply([a * x + b])[0], abs=1e-12)

    def test_undefined_region_raises(self):
        piece_only_left = PiecewiseAffineMap(
            1, 1, (PiecewiseAffineMap.from_breakpoints([0.0], [(1, 0), (1, 0)])
                   .pieces[0],))
        with pytest.raises(GeometryError, match="undefined"):
            piece_only_left.apply([0.5])

    def test_split_product_roundtrip(self, rng):
        u_map = random_interval_map(rng)
        v_map = PiecewiseAffineMap.affine([[0.5]], [0.1])
        pieces = []
        for p in u_map.pieces:
            mat = np.zeros((2, 2))
            mat[0, 0] = p.matrix[0, 0]
            mat[1, 1] = 0.5
            normals = np.hstack([p.normals, np.zeros((p.normals.shape[0], 1))])
            pieces.append(type(p)(mat, np.array([p.offset[0], 0.1]),
                                  normals, p.bounds))
        f = PiecewiseAffineMap(2, 2, tuple(pieces))
        U, V = split_product(f, 1)
        for x in np.linspace(-1, 1, 17):
            assert U.apply([x])[0] == pytest.approx(u_map.apply([x])[0], abs=1e-12)
            assert V.apply([x])[0] == pytest.approx(v_map.apply([x])[0], abs=1e-12)

    def test_split_product_rejects_mixing(self):
        f = PiecewiseAffineMap.affine([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(GeometryError):
            split_product(f, 1)

    def test_split_product_piecewise_both_blocks(self, rng):
        # piecewise in x and in y: the split must recover both factors
        u_map = random_interval_map(rng)
        v_map = PiecewiseAffineMap.from_breakpoints([0.0], [(-0.4, 0.1), (0.4, 0.1)])
        pieces = []
        for pu in u_map.pieces:
            for pv in v_map.pieces:
                mat = np.diag([pu.matrix[0, 0], pv.matrix[0, 0]])
                offs = np.array([pu.offset[0], pv.offset[0]])
                normals = np.vstack([np.hstack([pu.normals, np.zeros_like(pu.normals)]),
                                     np.hstack([np.zeros_like(pv.normals), pv.normals])])
                bounds = np.concatenate([pu.bounds, pv.bounds])
                pieces.append(type(pu)(mat, offs, normals, bounds))
        f = PiecewiseAffineMap(2, 2, tuple(pieces))
        U, V = split_product(f, 1)
        for x in np.linspace(-1, 1, 21):
            assert U.apply([x])[0] == pytest.approx(u_map.apply([x])[0], abs=1e-12)
            assert V.apply([x])[0] == pytest.approx(v_map.apply([x])[0], abs=1e-12)


class TestStretch:
    def test_expander_endpoint_minimum(self):
        # |3.5 x + 1.5| over {-1, 1} is min(2, 5)
        assert min_stretch(U11, [0.0]).min_rel == pytest.approx(2.0)

    def test_expander_shifted_reference(self):
        # oracle: endpoint evaluation of |3.5 x + 1.5 - 3|
        oracle = min(abs(3.5 * x + 1.5 - 3.0) for x in (-1.0, 1.0))
        assert oracle == pytest.approx(2.0)
        assert min_stretch(U11, [3.0]).min_rel == pytest.approx(oracle)

    def test_identity_min_stretch_is_one(self):
        for dim in (1, 2, 3):
            f = PiecewiseAffineMap.identity(dim)
            assert min_stretch(f, np.zeros(dim)).min_rel == pytest.approx(1.0)

    def test_expander_maximum(self):
        assert max_stretch(U11, [0.0]).max_abs == pytest.approx(5.0)
        assert max_stretch(U12, [0.0]).max_abs == pytest.approx(2.0)

    def test_constant_map_max_is_reference_norm(self, rng):
        zero = PiecewiseAffineMap.affine([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
        for _ in range(5):
            p = rng.uniform(-3, 3, size=2)
            assert max_stretch(zero, p).max_abs == pytest.approx(np.max(np.abs(p)))

    def test_positive_homogeneity(self, rng):
        f = random_interval_map(rng)
        base_min = min_stretch(f, [0.0]).min_rel
        base_max = max_stretch(f, [0.0]).max_abs
        for _ in range(20):
            c = rng.uniform(-4, 4)
            assert min_stretch(f.scale(c), [0.0]).min_rel == pytest.approx(
                abs(c) * base_min, abs=1e-12)
            assert max_stretch(f.scale(c), [0.0]).max_abs == pytest.approx(
                abs(c) * base_max, abs=1e-12)

    def test_line_minimum_matches_boundary_oracle(self, rng):
        # the boundary of the 1-d unit ball is exactly the two endpoints
        for _ in range(50):
            f = random_interval_map(rng)
            ref = rng.uniform(-2, 2)
            oracle = min(abs(float(f.apply([x])[0]) - ref) for x in (-1.0, 1.0))
            got = min_stretch(f, [ref])
            assert got.certified
            assert got.min_rel == pytest.approx(oracle, abs=1e-12)

    def test_affine_max_dominates_interior_samples(self, rng):
        for dim in (1, 2, 3):
            lin = rng.uniform(-2, 2, size=(dim, dim))
            off = rng.uniform(-1, 1, size=dim)
            f = PiecewiseAffineMap.affine(lin, off)
            ref = rng.uniform(-1, 1, size=dim)
            samples = rng.uniform(-1, 1, size=(100_000, dim))
            brute = float(np.max(np.max(np.abs(samples @ lin.T + off - ref), axis=1)))
            exact = max_stretch(f, ref).max_abs
            assert exact >= brute - 1e-12
            assert exact == pytest.approx(brute, rel=0.05)

    def test_affine_face_minimum_is_exact(self, rng):
        # LP result must match a dense boundary sample from above
        for dim in (2, 3):
            lin = rng.uniform(-2, 2, size=(dim, dim)) + 2.5 * np.eye(dim)
            f = PiecewiseAffineMap.affine(lin, rng.uniform(-0.5, 0.5, size=dim))
            ref = rng.uniform(-0.5, 0.5, size=dim)
            got = min_stretch(f, ref)
            assert got.certified
            pts = []
            grid = np.linspace(-1, 1, 41)
            for i in range(dim):
                for sign in (-1.0, 1.0):
                    for combo in itertools.product(grid, repeat=dim - 1):
                        p = np.empty(dim)
                        p[i] = sign
                        p[[j for j in range(dim) if j != i]] = combo
                        pts.append(p)
            vals = np.max(np.abs(np.array(pts) @ lin.T + f.pieces[0].offset - ref), axis=1)
            assert got.min_rel <= float(np.min(vals)) + 1e-9
            assert got.min_rel == pytest.approx(float(np.min(vals)), abs=0.05)

    def test_grid_bound_brackets_truth(self):
        # sawtooth in each coordinate: boundary minimum is exactly 1.05
        saw = PiecewiseAffineMap.from_breakpoints(
            [0.0], [(-20.0, 1.05 - 20.0), (20.0, 1.05 - 20.0)])  # 1.05 at +-1
        pieces = []
        for px in saw.pieces:
            for py in saw.pieces:
                mat = np.array([[px.matrix[0, 0], 0.0], [0.0, py.matrix[0, 0]]])
                offs = np.array([px.offset[0], py.offset[0]])
                normals = np.vstack([np.hstack([px.normals, np.zeros_like(px.normals)]),
                                     np.hstack([np.zeros_like(py.normals), py.normals])])
                bounds = np.concatenate([px.bounds, py.bounds])
                pieces.append(type(px)(mat, offs, normals, bounds))
        f = PiecewiseAffineMap(2, 2, tuple(pieces))
        got = min_stretch(f, np.zeros(2), resolution=65)
        assert not got.certified
        assert got.min_rel <= 1.05 <= got.min_attained + 1e-12
        fine = min_stretch(f, np.zeros(2), resolution=4001)
        assert fine.min_rel > 1.0

    def test_scalar_range_is_exact(self, rng):
        for _ in range(30):
            f = random_interval_map(rng)
            lo, hi = _reference_range_1d(f)
            xs = np.linspace(-1, 1, 20001)
            vals = f.apply_batch(xs.reshape(1, -1))[0]
            assert lo <= float(np.min(vals)) + 1e-12
            assert hi >= float(np.max(vals)) - 1e-12
            # the sample can miss an extremum by at most slope * spacing / 2
            miss = f.lipschitz() * (2.0 / 20_000) / 2
            assert lo == pytest.approx(float(np.min(vals)), abs=miss + 1e-9)
            assert hi == pytest.approx(float(np.max(vals)), abs=miss + 1e-9)


class TestUnified:
    def golden_family(self):
        chart = AffineChart.shift_1d(0.0)
        members = (("M11", CenterScale([0.0], [], 1.0)),
                   ("M12", CenterScale([3.0], [], 1.0)))
        return UnifiedSet(chart, members)

    def test_spacing_three_family_is_valid(self):
        report = unified_validate(self.golden_family())
        assert report.violations == ()

    def test_wrong_spacing_reported(self):
        family = UnifiedSet(AffineChart.shift_1d(0.0),
                            (("a", CenterScale([0.0], [], 1.0)),
                             ("b", CenterScale([2.0], [], 1.0))))
        report = unified_validate(family)
        assert report.violations
        assert "unstable center" in report.violations[0]

    def test_zero_radius_rejected(self):
        with pytest.raises(GeometryError, match="radius"):
            CenterScale([0.0], [], 0.0)

    def test_stable_center_bounds(self):
        family = UnifiedSet(AffineChart.identity(1, 1),
                            (("a", CenterScale([0.0], [1.5], 1.0)),))
        report = unified_validate(family)
        assert any("stable center" in v for v in report.violations)


class TestHSet:
    def test_membership_via_chart(self):
        h = HSet("M12", AffineChart.shift_1d(-3.0))
        assert h.contains([2.0]) and h.contains([4.0])
        assert not h.contains([4.1])

    def test_bounding_box_of_parallelotope(self):
        chart = AffineChart(2, 0, [[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0])
        lo, hi = HSet("par", chart).bounding_box()
        assert lo == pytest.approx([-2.0, -1.0])
        assert hi == pytest.approx([2.0, 1.0])


class TestBoxGrid:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("per_axis", [2, 4, 5])
    def test_matches_product_order(self, dim, per_axis):
        axis = np.linspace(-1.0, 1.0, per_axis)
        oracle = np.array(list(itertools.product(axis, repeat=dim)))
        assert np.array_equal(box_grid(dim, per_axis), oracle)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_corners_of_a_box(self, dim):
        gen = np.random.default_rng(dim)
        lo = gen.uniform(-3.0, 0.0, dim)
        hi = lo + gen.uniform(0.1, 2.0, dim)
        oracle = np.array(list(itertools.product(*zip(lo, hi))))
        assert np.array_equal(np.where(box_grid(dim, 2) > 0, hi, lo), oracle)
