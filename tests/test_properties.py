"""Randomized end-to-end properties on constructed networks.

The generator inverse-designs interval-map nodes: each source window maps
affinely across the hull of its transition targets with a chosen margin,
with linear bridges over the gaps.  The checkers must then recover exactly
the designed verdicts, margins, entropy bounds, periods, and radii.
"""

import math

import numpy as np
import pytest

from cmnverify import (AffineChart, CenterScale, CouplingSpec, Graph, HSet,
                       NetworkSpec, NodeSystem, PiecewiseAffineMap,
                       TransitionMatrix, UnifiedSet, itinerary, periodic_point,
                       step_power, theorem1_check, theorem2_check, validate_spec)
from conftest import random_transition_matrix


def designed_node(rng, W: TransitionMatrix, margin: float, prefix: str,
                  unified: bool) -> NodeSystem:
    """Node whose every transition has unstable margin exactly >= ``margin``
    (exactly == at the extreme targets)."""
    n = W.n
    reach = 1.0 + margin
    values = {}
    for i in range(1, n + 1):
        targets = [3.0 * (j - 1) for j in W.successors(i)]
        lo, hi = min(targets) - reach, max(targets) + reach
        sign = 1.0 if rng.random() < 0.5 else -1.0
        left, right = (lo, hi) if sign > 0 else (hi, lo)
        values[i] = (left, right)

    breakpoints = []
    pieces = []
    for i in range(1, n + 1):
        left, right = values[i]
        x0 = 3.0 * (i - 1) - 1.0
        slope = (right - left) / 2.0
        pieces.append((slope, left - slope * x0))
        if i < n:
            x1 = x0 + 2.0
            nxt = values[i + 1][0]
            bridge_slope = (nxt - right) / 1.0
            breakpoints.extend([x1, x1 + 1.0])
            pieces.append((bridge_slope, right - bridge_slope * x1))
    local = PiecewiseAffineMap.from_breakpoints(breakpoints, pieces)

    ids = tuple(f"{prefix}{i}" for i in range(1, n + 1))
    hsets = tuple(HSet(mid, AffineChart.shift_1d(-3.0 * i))
                  for i, mid in enumerate(ids))
    fam = None
    if unified:
        fam = UnifiedSet(AffineChart.shift_1d(0.0),
                         tuple((mid, CenterScale([3.0 * i], [], 1.0))
                               for i, mid in enumerate(ids)))
    return NodeSystem(local, hsets, W, unified=fam)


class TestDesignedUnifiedPairs:
    def test_positive_margins_certify_exactly(self, rng):
        for _ in range(25):
            margins = [float(rng.uniform(0.1, 0.9)) for _ in range(2)]
            nodes = tuple(designed_node(rng, random_transition_matrix(rng, n=int(rng.integers(1, 4))),
                                        m, p, unified=True)
                          for m, p in zip(margins, ("A", "B")))
            spec = NetworkSpec(Graph.complete(2), nodes,
                               CouplingSpec("type2", np.eye(2)))
            assert validate_spec(spec).ok
            report = theorem2_check(spec)
            assert report.passed
            oracle = sum(math.log(float(np.max(np.abs(
                np.linalg.eigvals(n.transition.bits.astype(float)))))) for n in nodes)
            assert report.entropy_bound == pytest.approx(oracle, abs=1e-9)
            # the binding entry combines the extreme-target transitions
            assert report.global_eps == pytest.approx(min(margins) / 2.0, abs=1e-9)

    def test_deficient_margins_fail(self, rng):
        for _ in range(10):
            margins = [float(rng.uniform(-0.5, -0.05)), float(rng.uniform(0.1, 0.9))]
            rng.shuffle(margins)
            nodes = tuple(designed_node(rng, random_transition_matrix(rng, n=int(rng.integers(1, 4))),
                                        m, p, unified=True)
                          for m, p in zip(margins, ("A", "B")))
            spec = NetworkSpec(Graph.complete(2), nodes,
                               CouplingSpec("type2", np.eye(2)))
            report = theorem2_check(spec)
            assert report.verdict == "fail"
            assert report.entries.slack[report.binding_entry()] \
                == pytest.approx(min(margins), abs=1e-9)


class TestDesignedTriples:
    def test_three_node_ring(self, rng):
        for _ in range(8):
            margins = [float(rng.uniform(0.2, 0.8)) for _ in range(3)]
            Ws = [random_transition_matrix(rng, n=int(rng.integers(1, 3)))
                  for _ in range(3)]
            nodes = tuple(designed_node(rng, W, m, p, unified=True)
                          for W, m, p in zip(Ws, margins, ("A", "B", "C")))
            spec = NetworkSpec(Graph.complete(3), nodes,
                               CouplingSpec("type2", np.eye(3)))
            report = theorem2_check(spec)
            assert report.passed
            assert len(report.entries) == int(np.prod(
                [w.bits.sum() for w in Ws]))
            assert report.global_eps == pytest.approx(min(margins) / 2.0, abs=1e-9)

            # weak diffusive mixing keeps every certificate; strong mixing
            # collapses the diagonal term far below the crossing threshold
            weak = min(margins) / 80.0
            a_weak = (1 - 3 * weak) * np.eye(3) + weak * np.ones((3, 3))
            assert theorem2_check(NetworkSpec(spec.graph, nodes,
                                              CouplingSpec("type2", a_weak))).passed
            a_strong = 0.1 * np.eye(3) + 0.3 * np.ones((3, 3))
            strong = theorem2_check(NetworkSpec(spec.graph, nodes,
                                                CouplingSpec("type2", a_strong)))
            assert strong.verdict == "fail"


class TestDesignedPermutationPairs:
    def permutation_matrix(self, rng, n):
        perm = rng.permutation(n)
        bits = np.zeros((n, n), dtype=int)
        for i, j in enumerate(perm):
            bits[i, j] = 1
        return TransitionMatrix(bits)

    def test_periodic_certificates(self, rng):
        for _ in range(15):
            dims = [int(rng.integers(1, 4)) for _ in range(2)]
            margins = [float(rng.uniform(0.1, 0.45)) for _ in range(2)]
            nodes = tuple(designed_node(rng, self.permutation_matrix(rng, d),
                                        m, p, unified=False)
                          for d, m, p in zip(dims, margins, ("A", "B")))
            spec = NetworkSpec(Graph.complete(2), nodes,
                               CouplingSpec("type1", np.eye(2)))
            assert validate_spec(spec).ok, validate_spec(spec).errors
            report = theorem1_check(spec)
            assert report.passed

            # the canonical loop through the first symbols closes after the
            # lcm of the cycle lengths through symbol 1: the reported period
            perms = [n.transition.permutation() for n in nodes]
            loop = [(1, 1)]
            while True:
                nxt = tuple(perms[k][loop[-1][k] - 1] for k in range(2))
                if nxt == loop[0]:
                    break
                loop.append(nxt)
            assert report.period == len(loop)
            cert = periodic_point(spec, loop)
            assert cert.residual < 1e-10
            back = step_power(spec, cert.point, cert.period)
            assert float(np.max(np.abs(back - cert.point))) < 1e-10
            track = itinerary(spec, cert.point, 2 * cert.period)
            assert not track.escaped
            assert track.steps[:len(loop)] == tuple(loop)
