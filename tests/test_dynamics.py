import math

import numpy as np
import pytest

from cmnverify import (AffineChart, CouplingSpec, Graph, HSet, LoopError,
                       NetworkSpec, NeutralCompositionError, NodeSystem, OrbitEscapeError,
                       PiecewiseAffineMap, Perturbation, TransitionMatrix,
                       count_words, empirical_entropy, fixtures, is_admissible,
                       itinerary, kronecker, periodic_point, step, step_power,
                       theorem2_check)
from cmnverify.geometry import GeometryError

PHI = (1.0 + math.sqrt(5.0)) / 2.0


class TestStep:
    def test_fixed_point_of_first_node(self):
        # 3.5 x + 1.5 = x at x = -0.6
        spec = fixtures.example1()
        out = step(spec, [-0.6, 0.0])
        assert out[0] == pytest.approx(-0.6, abs=1e-14)

    def test_full_fixed_point(self):
        # node 2: 3.5 x - 9 = x at x = 3.6 inside [2, 4]
        spec = fixtures.example1()
        out = step(spec, [-0.6, 3.6])
        assert np.allclose(out, [-0.6, 3.6], atol=1e-13)

    def test_zero_amplitude_is_bit_identical(self, rng):
        spec = fixtures.example1(alpha=0.03)
        for _ in range(20):
            x = rng.uniform(-1, 4, size=2)
            assert np.array_equal(step(spec, x), step(spec, x, Perturbation(0.0, 7)))

    def test_perturbation_displacement_bound(self, rng):
        spec = fixtures.example1(alpha=0.1)
        lip = spec.coupling.ambient_map(1).lipschitz()
        for seed in range(10):
            eps = float(rng.uniform(0.0, 0.5))
            pert = Perturbation(eps, seed)
            for _ in range(20):
                x = rng.uniform(-1, 4, size=2)
                gap = np.max(np.abs(step(spec, x, pert) - step(spec, x)))
                assert gap <= eps * (1.0 + lip) + 1e-12

    def test_perturbation_supremum_attained(self, rng):
        pert = Perturbation(0.25, 3)
        xs = rng.uniform(-50, 50, size=(200_000, 2))
        bump = pert.local_bump(0, xs.T)
        assert np.max(np.abs(bump)) <= 0.25 + 1e-15
        assert np.max(np.abs(bump)) > 0.25 * (1 - 1e-4)

    def test_perturbation_draws_its_bumps_once(self, monkeypatch):
        # one generator per bump (each node's and the coupling's), not one
        # per bump per step
        built = []
        default_rng = np.random.default_rng

        def counting(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        spec = fixtures.example1()
        pert = Perturbation(0.01, 3)
        for _ in range(1000):
            step(spec, [-0.6, 3.6], pert)
        assert len(built) <= spec.d + 1

    def test_image_past_float_range_is_refused(self, monkeypatch):
        # 3.5 x + 1.5 overflows for x = 1e308: the local image is not
        # finite, so the interaction (whose cell tests would meet it) is
        # never applied; warnings are errors in this suite
        def no_interaction(*args):
            raise AssertionError("interaction applied to a local image past float range")
        spec = fixtures.example1()
        monkeypatch.setattr(NetworkSpec, "ambient_map", no_interaction)
        with pytest.raises(OrbitEscapeError, match="leaves floating-point range"):
            step(spec, [-1e308, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            step(fixtures.example1(), [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("state", [[0.5], [0.5, 0.5, 7.0]], ids=["short", "long"])
    def test_every_orbit_entry_checks_the_state_length(self, state):
        # a state of the wrong length is refused before it is located or
        # stepped, not cut short or padded
        spec = fixtures.example1()
        calls = (lambda: step(spec, state), lambda: step_power(spec, state, 3),
                 lambda: itinerary(spec, state, 3))
        for call in calls:
            with pytest.raises(GeometryError,
                               match=f"^state has dimension {len(state)}, expected 2$"):
                call()


class TestItinerary:
    def test_fixed_point_gives_constant_word(self):
        spec = fixtures.example1()
        it = itinerary(spec, [-0.6, 3.6], 8)
        assert not it.escaped
        assert it.steps == tuple([(1, 2)] * 8)

    def test_far_point_escapes_immediately(self):
        it = itinerary(fixtures.example1(), [100.0, 100.0], 5)
        assert it.escaped_at == 0
        assert it.steps == ()

    def test_escape_mid_flight(self):
        # starts inside, image of the gap region leaves the family
        spec = fixtures.example1()
        it = itinerary(spec, [0.9, 0.5], 6)
        if it.escaped:
            assert 0 < it.escaped_at <= 6

    def test_boundary_tie_counted_and_kept_inside(self):
        # [-1, 1] boundary point: within 1e-12 counts as inside, tie recorded
        spec = fixtures.example1_node1()
        it = itinerary(spec, [1.0], 1)
        assert not it.escaped
        assert it.steps[0] == (1,)
        assert it.ties >= 1

    def test_survivors_are_admissible(self, rng):
        spec = fixtures.example1()
        report = theorem2_check(spec)
        assert report.passed
        kron = kronecker([n.transition for n in spec.nodes])
        checked = 0
        for _ in range(3000):
            x0 = rng.uniform(-1, 4, size=2)
            it = itinerary(spec, x0, 4)
            if it.escaped or len(it.steps) < 4:
                continue
            word = [2 * (a - 1) + b for a, b in it.steps]
            assert is_admissible(word, kron)
            checked += 1
        assert checked > 10


class TestPeriodicPoint:
    def test_single_node_fixed_point(self):
        cert = periodic_point(fixtures.example1_node1(), [(1,)])
        assert cert.point[0] == pytest.approx(-0.6, abs=1e-14)
        assert cert.period == 1
        assert cert.residual < 1e-14
        assert cert.interior_margins[0] == pytest.approx(0.4)

    def test_period_six_orbit(self):
        spec = fixtures.theorem1_perm23()
        loop = [(1, 1), (2, 2), (1, 3), (2, 1), (1, 2), (2, 3)]
        cert = periodic_point(spec, loop)
        assert cert.period == 6
        assert cert.residual < 1e-10
        assert all(m > 0 for m in cert.interior_margins)
        # orbit returns under the true map
        back = step_power(spec, cert.point, 6)
        assert np.max(np.abs(back - cert.point)) < 1e-10
        # hand-solved node cycles: 2.25 x - 0.25 = x and 2.925 x + 0.325 = x
        assert cert.point[0] == pytest.approx(0.2, abs=1e-12)
        assert cert.point[1] == pytest.approx(-0.325 / 1.925, abs=1e-12)

    def test_inadmissible_loop_rejected(self):
        with pytest.raises(LoopError):
            periodic_point(fixtures.example1_node1(), [(2,), (2,)])  # w22 = 0

    def test_neutral_composition_detected(self):
        shift = PiecewiseAffineMap.from_breakpoints(
            [1.0, 2.0], [(1.0, 3.0), (1.0, 3.0), (1.0, 3.0)])
        node = NodeSystem(shift, (HSet("A", AffineChart.shift_1d(0.0)),
                                  HSet("B", AffineChart.shift_1d(-3.0))),
                          TransitionMatrix([[0, 1], [1, 0]]))
        spec = NetworkSpec(Graph(1, frozenset()), (node,),
                           CouplingSpec("type1", np.eye(1)))
        with pytest.raises(NeutralCompositionError):
            periodic_point(spec, [(1,), (2,)])

    def test_perturbed_orbit_refined(self):
        spec = fixtures.theorem1_perm23()
        loop = [(1, 1), (2, 2), (1, 3), (2, 1), (1, 2), (2, 3)]
        pert = Perturbation(0.01, seed=5)
        cert = periodic_point(spec, loop, pert)
        back = step_power(spec, cert.point, 6, pert)
        assert np.max(np.abs(back - cert.point)) < 1e-10
        assert all(m > 0 for m in cert.interior_margins)

    def test_loop_symbol_out_of_range(self):
        with pytest.raises(LoopError):
            periodic_point(fixtures.example1_node1(), [(5,)])

    @pytest.mark.parametrize("loop", [[(1,), (2,)], [(1, 1, 5), (2, 2, 5)], [(1, 1), (2,)]])
    def test_loop_step_of_wrong_width(self, loop):
        with pytest.raises(LoopError, match="expected 2, one per node"):
            periodic_point(fixtures.theorem1_perm23(), loop)


class TestEmpiricalEntropy:
    def test_single_fixed_point_trap_gives_zero(self):
        # a valid spec: the sampler reads its branches from the set-up
        contraction = PiecewiseAffineMap.affine([[0.5]], [0.0])
        node = NodeSystem(contraction, (HSet("M", AffineChart.shift_1d(0.0)),),
                          TransitionMatrix([[1]]))
        spec = NetworkSpec(Graph(1, frozenset()), (node,),
                           CouplingSpec("type1", np.eye(1)))
        assert empirical_entropy(spec, depth=6, samples=500, seed=1) == 0.0

    def test_deterministic_in_the_seed(self):
        spec = fixtures.example1()
        a = empirical_entropy(spec, depth=8, samples=2000, seed=11)
        b = empirical_entropy(spec, depth=8, samples=2000, seed=11)
        assert a == b

    def test_never_exceeds_word_count_rate(self):
        spec = fixtures.example1()
        kron = kronecker([n.transition for n in spec.nodes])
        for depth in (4, 6, 9):
            est = empirical_entropy(spec, depth=depth, samples=4000, seed=2)
            cap = math.log(count_words(kron, depth)) / (depth - 1)
            assert est <= cap + 1e-12

    def test_tracks_certified_bound(self):
        est = empirical_entropy(fixtures.example1(), depth=10, samples=30_000, seed=3)
        assert abs(est - 2 * math.log(PHI)) < 0.25

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            empirical_entropy(fixtures.example1(), depth=1, samples=10)


class TestPlanarNetwork:
    """Networks with a genuine stable direction (u = 1, s = 1)."""

    def spec(self):
        from test_network import _planar_golden_pair
        return _planar_golden_pair(s_slope=0.3)

    def test_fixed_point_orbit(self):
        spec = self.spec()
        cert = periodic_point(spec, [(1, 2)])
        assert cert.residual < 1e-12
        assert all(m > 0 for m in cert.interior_margins)
        # expanding coordinates sit at the scalar fixed points, stable at 0
        assert cert.point[0] == pytest.approx(-0.6, abs=1e-12)   # 3.5x+1.5 = x
        assert cert.point[1] == pytest.approx(0.0, abs=1e-12)
        assert cert.point[2] == pytest.approx(3.6, abs=1e-12)    # 3.5x-9 = x
        assert cert.point[3] == pytest.approx(0.0, abs=1e-12)

    def test_itinerary_contracts_in_stable_direction(self):
        spec = self.spec()
        it = itinerary(spec, [-0.6, 0.9, 3.6, -0.7], 10)
        assert not it.escaped
        assert it.steps == tuple([(1, 2)] * 10)

    def test_empirical_entropy_with_stable_clamp(self):
        spec = self.spec()
        est = empirical_entropy(spec, depth=8, samples=8000, seed=5)
        kron = kronecker([n.transition for n in spec.nodes])
        assert est <= math.log(count_words(kron, 8)) / 7 + 1e-12
        assert est > 0.5 * 2 * math.log(PHI)
