import math

import numpy as np
import pytest

from cmnverify import (AffineChart, CenterScale, CoveringCertificate, DegreeValue,
                       HSet, PiecewiseAffineMap, ProductFormMap, check_covering,
                       persistence_bound)

EXPANDER = ProductFormMap(PiecewiseAffineMap.affine([[3.5]], [1.5]))
SOURCE = HSet("M11", AffineChart.shift_1d(0.0))


def target_at(center: float, r: float = 1.0, stable: bool = False) -> CenterScale:
    return CenterScale([center], [0.0] if stable else [], r)


class TestCheckCovering:
    def test_expander_covers_shifted_target(self):
        out = check_covering(SOURCE, target_at(3.0), EXPANDER, target_id="M12")
        assert out.passed
        cert = out.certificate
        # endpoint arithmetic: |3.5 x + 1.5 - 3| on {-1, 1} is min(5, 2)
        assert cert.unstable_margin == pytest.approx(1.0)
        assert cert.degree.value == 1
        assert math.isinf(cert.stable_margin)
        assert cert.source_id == "M11" and cert.target_id == "M12"

    def test_contraction_cannot_cover(self):
        f = ProductFormMap(PiecewiseAffineMap.affine([[0.5]], [0.0]))
        out = check_covering(SOURCE, target_at(0.0), f)
        assert out.verdict == "fail"
        assert any("min stretch" in msg for msg in out.failures)

    def test_stable_overflow_detected(self):
        source = HSet("S", AffineChart.identity(1, 1))
        f = ProductFormMap(PiecewiseAffineMap.affine([[3.0]], [0.0]),
                           PiecewiseAffineMap.affine([[0.5]], [0.0]))
        out = check_covering(source, CenterScale([0.0], [0.0], 0.4), f)
        assert out.verdict == "fail"
        assert any("max stretch 0.5" in msg for msg in out.failures)

    def test_stable_contraction_passes(self):
        source = HSet("S", AffineChart.identity(1, 1))
        f = ProductFormMap(PiecewiseAffineMap.affine([[3.0]], [0.0]),
                           PiecewiseAffineMap.affine([[0.5]], [0.0]))
        out = check_covering(source, CenterScale([0.0], [0.0], 0.8), f)
        assert out.passed
        assert out.certificate.stable_margin == pytest.approx(0.3)
        assert out.certificate.target_radius == pytest.approx(0.8)

    def test_degree_zero_fails(self):
        vee = PiecewiseAffineMap.from_breakpoints([0.0], [(-3.0, 1.5), (3.0, 1.5)])
        out = check_covering(SOURCE, target_at(0.0), ProductFormMap(vee))
        assert out.verdict == "fail"
        assert any("degree 0" in msg for msg in out.failures)

    def test_strictness_at_the_margin(self):
        barely = ProductFormMap(PiecewiseAffineMap.affine([[1.0 + 1e-13]], [0.0]))
        out = check_covering(SOURCE, target_at(0.0), barely)
        assert out.verdict == "fail"

    def test_grid_bound_yields_inconclusive(self):
        # sawtooth: boundary minimum 1.05, Lipschitz 20; the default grid
        # slack straddles the threshold, a finer grid certifies the pass
        saw = PiecewiseAffineMap.from_breakpoints(
            [0.0], [(-20.0, 1.05 - 20.0), (20.0, 1.05 - 20.0)])
        pieces = []
        for px in saw.pieces:
            for py in saw.pieces:
                mat = np.diag([px.matrix[0, 0], py.matrix[0, 0]])
                offs = np.array([px.offset[0], py.offset[0]])
                normals = np.vstack([np.hstack([px.normals, np.zeros_like(px.normals)]),
                                     np.hstack([np.zeros_like(py.normals), py.normals])])
                bounds = np.concatenate([px.bounds, py.bounds])
                pieces.append(type(px)(mat, offs, normals, bounds))
        u_map = PiecewiseAffineMap(2, 2, tuple(pieces))
        source = HSet("sq", AffineChart.identity(2, 0))
        target = CenterScale([0.0, 0.0], [], 1.0)
        coarse = check_covering(source, target, ProductFormMap(u_map), resolution=65)
        assert coarse.verdict == "inconclusive"
        assert any("grid" in msg for msg in coarse.failures)
        # a finer grid settles the stretch; the degree of a genuinely
        # piecewise planar map stays outside the supported classes
        fine = check_covering(source, target, ProductFormMap(u_map), resolution=4001)
        assert fine.verdict == "inconclusive"
        assert any("degree" in msg for msg in fine.failures)

    def test_affine_plane_map_passes_exactly(self):
        f = ProductFormMap(PiecewiseAffineMap.affine(3.0 * np.eye(2), [0.1, -0.1]))
        source = HSet("sq", AffineChart.identity(2, 0))
        out = check_covering(source, CenterScale([0.0, 0.0], [], 1.0), f)
        assert out.passed
        assert out.certificate.degree.value == 1

    def test_mismatched_split_rejected(self):
        with pytest.raises(Exception):
            check_covering(SOURCE, CenterScale([0.0], [0.0], 1.0), EXPANDER)


class TestPersistence:
    def cert(self, **kw):
        args = dict(source_id="a", target_id="b",
                    degree=DegreeValue(1, "one-d-crossing"),
                    unstable_margin=1.0, stable_margin=math.inf, target_radius=1.0)
        args.update(kw)
        return CoveringCertificate(**args)

    def test_identity_setup_gives_half_margin(self):
        assert persistence_bound(self.cert(), 1.0, 1.0) == pytest.approx(0.5)

    def test_chart_lipschitz_scales_inversely(self):
        base = persistence_bound(self.cert(), 1.0, 1.0)
        assert persistence_bound(self.cert(), 2.0, 1.0) == pytest.approx(base / 2)

    def test_stable_margin_scaled_by_radius(self):
        cert = self.cert(unstable_margin=5.0, stable_margin=0.4, target_radius=0.5)
        assert persistence_bound(cert, 1.0, 1.0) == pytest.approx(0.1)

    def test_zero_margin_unconstructible(self):
        with pytest.raises(ValueError):
            self.cert(unstable_margin=0.0)

    def test_survives_bumps_inside_radius(self, rng):
        # perturbations strictly below the radius keep all inequalities
        out = check_covering(SOURCE, target_at(3.0), EXPANDER)
        eps = persistence_bound(out.certificate, 1.0, 1.0)
        for seed in range(20):
            gen = np.random.default_rng(seed)
            freq, phase = gen.uniform(0.5, 2.5), gen.uniform(0, 2 * np.pi)
            amp = 0.9 * eps

            def bumped(x):
                return float(EXPANDER.U.apply([x])[0]) + amp * math.sin(freq * x + phase)

            assert min(abs(bumped(-1.0) - 3.0), abs(bumped(1.0) - 3.0)) > 1.0
            assert np.sign(bumped(1.0) - 3.0) != np.sign(bumped(-1.0) - 3.0)

    def test_deep_failure_resists_rescaling(self, rng):
        # slack worse than -0.1 cannot be rescued by +-1% input rescaling
        f = ProductFormMap(PiecewiseAffineMap.affine([[0.5]], [0.0]))
        for _ in range(50):
            c = float(rng.uniform(0.99, 1.01))
            out = check_covering(SOURCE, target_at(0.0), ProductFormMap(f.U.scale(c)))
            assert out.verdict == "fail"
