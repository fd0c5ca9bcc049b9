import math

import numpy as np
import pytest

from cmnverify import (DegreeUndefinedError, GeometryError, PiecewiseAffineMap, degree_1d,
                       degree_affine, degree_for_map)
from conftest import random_interval_map


def crossing_oracle(f: PiecewiseAffineMap, q: float):
    """Signed count of slope crossings of level q inside (-1, 1).

    Enumerates the roots of each affine piece within its cell and sums the
    slope signs.  Returns None on a degenerate configuration (root on a
    cell edge or at +-1, or a flat piece at level q).
    """
    total = 0
    for piece in f.pieces:
        a = float(piece.matrix[0, 0])
        b = float(piece.offset[0])
        lo, hi = -1.0, 1.0
        for n, c in zip(piece.normals[:, 0], piece.bounds):
            if n > 0:
                hi = min(hi, c / n)
            elif n < 0:
                lo = max(lo, c / n)
        if lo >= hi:
            continue
        if a == 0.0:
            if abs(b - q) < 1e-9:
                return None
            continue
        root = (q - b) / a
        if min(abs(root - lo), abs(root - hi), abs(root - 1), abs(root + 1)) < 1e-9:
            return None
        if lo < root < hi:
            total += 1 if a > 0 else -1
    return total


class TestDegree1d:
    def test_expander_crosses_upward(self):
        f = PiecewiseAffineMap.affine([[3.5]], [1.5])
        got = degree_1d(f, 0.0)
        assert got.value == 1
        assert crossing_oracle(f, 0.0) == 1

    def test_orientation_reversal(self):
        assert degree_1d(PiecewiseAffineMap.affine([[-1.0]], [0.0]), 0.0).value == -1

    def test_no_preimage_means_zero(self):
        vee = PiecewiseAffineMap.from_breakpoints([0.0], [(-1.0, 0.0), (1.0, 0.0)])
        assert degree_1d(vee, -0.5).value == 0

    def test_boundary_value_is_an_error(self):
        f = PiecewiseAffineMap.affine([[1.0]], [0.0])
        with pytest.raises(DegreeUndefinedError):
            degree_1d(f, 1.0)

    def test_against_crossing_oracle(self, rng):
        checked = 0
        while checked < 1000:
            f = random_interval_map(rng)
            q = float(rng.uniform(-3, 3))
            want = crossing_oracle(f, q)
            if want is None:
                continue
            left = float(f.apply([-1.0])[0]) - q
            right = float(f.apply([1.0])[0]) - q
            if min(abs(left), abs(right)) < 1e-9:
                continue
            assert degree_1d(f, q).value == want
            checked += 1

    def test_scaling_by_positive_constant_preserves_degree(self, rng):
        for _ in range(50):
            f = random_interval_map(rng)
            try:
                base = degree_1d(f, 0.0)
            except DegreeUndefinedError:
                continue
            c = float(rng.uniform(0.1, 5.0))
            assert degree_1d(f.scale(c), 0.0).value == base.value


class TestDegreeAffine:
    def test_identity(self):
        assert degree_affine(np.eye(2), np.zeros(2), np.zeros(2)).value == 1

    def test_interior_preimage(self):
        # 2x + 1.5 = 0 at x = -0.75, inside the ball, positive slope
        assert degree_affine([[2.0]], [1.5], [0.0]).value == 1

    def test_exterior_preimage(self):
        assert degree_affine([[2.0]], [0.0], [5.0]).value == 0

    def test_singular_rejected(self):
        with pytest.raises(GeometryError):
            degree_affine([[0.0]], [0.0], [0.0])

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_scaling_keeps_the_degree(self, c):
        # scaling the map and the target together keeps the preimage, so
        # the degree must not change; at c = 1e-6 |det| is about 1e-18
        lin = np.array([[2.0, 1.0, 0.0], [0.0, -1.5, 0.5], [0.3, 0.0, 1.0]])
        off = np.array([0.2, -0.1, 0.4])
        for q, want in ((np.zeros(3), -1), (np.array([5.0, 0.0, 0.0]), 0)):
            assert degree_affine(c * lin, c * off, c * q).value == want

    @pytest.mark.parametrize("lin", [np.zeros((2, 2)), [[1.0, 0.0], [0.0, 0.0]],
                                     [[1.0, 2.0], [2.0, 4.0]]])
    def test_zero_or_dependent_rows_rejected(self, lin):
        with pytest.raises(GeometryError):
            degree_affine(lin, np.zeros(2), [0.5, 0.5])

    def test_against_membership_oracle(self, rng):
        checked = 0
        while checked < 1000:
            dim = int(rng.integers(1, 4))
            lin = rng.uniform(-2, 2, size=(dim, dim))
            det = np.linalg.det(lin)
            if abs(det) < 1e-3:
                continue
            off = rng.uniform(-2, 2, size=dim)
            q = rng.uniform(-2, 2, size=dim)
            pre = np.linalg.solve(lin, q - off)
            extent = float(np.max(np.abs(pre)))
            if abs(extent - 1.0) < 1e-6:
                continue
            want = int(np.sign(det)) if extent < 1.0 else 0
            assert degree_affine(lin, off, q).value == want
            checked += 1

    def test_agrees_with_line_formula_when_affine(self, rng):
        for _ in range(100):
            a = float(rng.uniform(-3, 3))
            if abs(a) < 1e-3:
                continue
            b, q = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            f = PiecewiseAffineMap.affine([[a]], [b])
            try:
                line = degree_1d(f, q).value
            except DegreeUndefinedError:
                continue
            assert degree_affine([[a]], [b], [q]).value == line


class TestDegreeComposition:
    """The two facts behind the degree the network checker writes for an
    entry: the product of its rows' degrees, times sign(det)^u of the
    node permutation it composes with."""

    def test_product_matches_block_diagonal_assembly(self, rng):
        for _ in range(200):
            dims = [int(rng.integers(1, 3)) for _ in range(2)]
            blocks, parts = [], []
            ok = True
            for dim in dims:
                lin = rng.uniform(-2, 2, size=(dim, dim))
                if abs(np.linalg.det(lin)) < 1e-3:
                    ok = False
                    break
                off = rng.uniform(-0.3, 0.3, size=dim)
                pre = np.linalg.solve(lin, -off)
                if abs(np.max(np.abs(pre)) - 1.0) < 1e-6:
                    ok = False
                    break
                blocks.append((lin, off))
                parts.append(degree_affine(lin, off, np.zeros(dim)).value)
            if not ok:
                continue
            full = np.zeros((sum(dims), sum(dims)))
            offs = np.concatenate([b[1] for b in blocks])
            pos = 0
            for (lin, _), dim in zip(blocks, dims):
                full[pos:pos + dim, pos:pos + dim] = lin
                pos += dim
            assert math.prod(parts) == degree_affine(full, offs, np.zeros(sum(dims))).value

    def test_composition_with_kronecker_factor(self, rng):
        # post-composing with kron(a, I_u) multiplies the degree by
        # sign(det a)^u, whatever the sign of det a
        checked = 0
        while checked < 50:
            d, u = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            a = rng.uniform(-2, 2, size=(d, d))
            lin = rng.uniform(-2, 2, size=(d * u, d * u))
            if min(abs(np.linalg.det(a)), abs(np.linalg.det(lin))) < 1e-3:
                continue
            off = rng.uniform(-0.3, 0.3, size=d * u)
            q = rng.uniform(-0.3, 0.3, size=d * u)
            if abs(np.max(np.abs(np.linalg.solve(lin, q - off))) - 1.0) < 1e-6:
                continue
            mix = np.kron(a, np.eye(u))
            inner = degree_affine(lin, off, q).value
            outer = int(np.sign(np.linalg.det(a))) ** u
            assert degree_affine(mix @ lin, mix @ off, mix @ q).value == outer * inner
            checked += 1


class TestDispatch:
    def test_line_maps_use_crossings(self, rng):
        f = random_interval_map(rng)
        got = degree_for_map(f, [10.0])
        assert got.method == "one-d-crossing"

    def test_affine_maps_use_determinant(self):
        f = PiecewiseAffineMap.affine(np.eye(2), np.zeros(2))
        assert degree_for_map(f, np.zeros(2)).method == "affine-determinant"

    def test_piecewise_multidim_unsupported(self):
        saw = PiecewiseAffineMap.from_breakpoints([0.0], [(-2.0, 0.0), (2.0, 0.0)])
        pieces = []
        for p in saw.pieces:
            mat = np.diag([p.matrix[0, 0], 1.0])
            normals = np.hstack([p.normals, np.zeros_like(p.normals)])
            pieces.append(type(p)(mat, np.array([p.offset[0], 0.0]), normals, p.bounds))
        f = PiecewiseAffineMap(2, 2, tuple(pieces))
        with pytest.raises(GeometryError):
            degree_for_map(f, np.zeros(2))
