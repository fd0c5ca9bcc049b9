import math

import numpy as np
import pytest

from cmnverify import (SymbolSequence, TransitionError, TransitionMatrix,
                       closed_loops, count_words, entropy_lower_bound,
                       is_admissible, kronecker, permutation_loop, spectral_radius)
from conftest import enumerate_words, random_transition_matrix

GOLDEN = TransitionMatrix([[1, 1], [1, 0]])
GOLDEN_T = TransitionMatrix([[0, 1], [1, 1]])
PHI = (1.0 + math.sqrt(5.0)) / 2.0


class TestTransitionMatrix:
    def test_zero_row_rejected(self):
        with pytest.raises(TransitionError):
            TransitionMatrix([[1, 1], [0, 0]])

    def test_zero_column_rejected(self):
        with pytest.raises(TransitionError):
            TransitionMatrix([[1, 0], [1, 0]])

    def test_non_binary_rejected(self):
        with pytest.raises(TransitionError):
            TransitionMatrix([[2, 0], [0, 1]])

    def test_permutation_detection(self):
        swap = TransitionMatrix([[0, 1], [1, 0]])
        assert swap.is_permutation()
        assert swap.permutation() == [2, 1]
        assert not GOLDEN.is_permutation()


class TestSpectralRadius:
    def test_golden_mean_closed_form(self):
        assert spectral_radius(GOLDEN) == pytest.approx(PHI, abs=1e-12)

    def test_identity_is_one(self):
        for n in (1, 2, 4):
            assert spectral_radius(TransitionMatrix(np.eye(n, dtype=int))) \
                == pytest.approx(1.0, abs=1e-12)

    def test_full_matrix_is_its_size(self):
        assert spectral_radius(TransitionMatrix(np.ones((2, 2), dtype=int))) \
            == pytest.approx(2.0, abs=1e-12)
        assert spectral_radius(TransitionMatrix(np.ones((4, 4), dtype=int))) \
            == pytest.approx(4.0, abs=1e-9)

    def test_against_eigenvalue_oracle(self, rng):
        for _ in range(100):
            W = random_transition_matrix(rng)
            want = float(np.max(np.abs(np.linalg.eigvals(W.bits.astype(float)))))
            assert spectral_radius(W) == pytest.approx(want, abs=1e-8)

    def test_periodic_permutation_converges(self):
        cycle = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert spectral_radius(cycle) == pytest.approx(1.0, abs=1e-9)

    def test_reducible_matrix_converges(self):
        # two blocks: a 1-cycle and the golden-mean component
        W = TransitionMatrix([[1, 0, 0], [0, 1, 1], [0, 1, 0]])
        assert spectral_radius(W) == pytest.approx(PHI, abs=1e-9)


class TestEntropyBound:
    def test_two_golden_factors(self):
        assert entropy_lower_bound([GOLDEN, GOLDEN_T]) \
            == pytest.approx(2 * math.log(PHI), abs=1e-12)

    def test_permutation_factor_contributes_nothing(self):
        assert entropy_lower_bound([TransitionMatrix(np.eye(2, dtype=int))]) == 0.0

    def test_full_shift(self):
        assert entropy_lower_bound([TransitionMatrix(np.ones((2, 2), dtype=int))]) \
            == pytest.approx(math.log(2.0), abs=1e-12)

    def test_sum_matches_kronecker_root(self, rng):
        for _ in range(25):
            A = random_transition_matrix(rng, n=int(rng.integers(1, 5)))
            B = random_transition_matrix(rng, n=int(rng.integers(1, 5)))
            lhs = entropy_lower_bound([A, B])
            rhs = math.log(spectral_radius(kronecker([A, B])))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestCountWords:
    def test_golden_mean_small_counts(self):
        # squares of the golden matrix by hand: [[2,1],[1,1]] sums to 5
        assert count_words(GOLDEN, 3) == 5

    def test_length_one_counts_symbols(self, rng):
        for _ in range(10):
            W = random_transition_matrix(rng)
            assert count_words(W, 1) == W.n

    def test_identity_counts_constant_words(self):
        assert count_words(TransitionMatrix(np.eye(2, dtype=int)), 10) == 2

    def test_matches_exhaustive_enumeration(self, rng):
        mats = [GOLDEN, GOLDEN_T] + [random_transition_matrix(rng, n=3)
                                     for _ in range(3)]
        for W in mats:
            for n in (1, 2, 3, 5, 8, 12):
                assert count_words(W, n) == len(enumerate_words(W, n))

    def test_exact_integers_no_overflow(self):
        big = count_words(TransitionMatrix(np.ones((5, 5), dtype=int)), 60)
        assert isinstance(big, int)
        assert big == 25 * 5 ** 58  # sum of entries of (5^(n-1)/5 * ones)

    def test_growth_rate_approaches_log_root(self):
        rate = math.log(count_words(GOLDEN, 20)) / 19
        assert abs(rate - math.log(PHI)) < 0.05


class TestAdmissibility:
    def test_alternating_word(self):
        assert is_admissible((1, 2, 1), GOLDEN_T)

    def test_forbidden_repeat(self):
        assert not is_admissible((1, 1), GOLDEN_T)

    def test_single_symbol_vacuous(self):
        assert is_admissible(SymbolSequence((2,)), GOLDEN)

    def test_out_of_range_symbol(self):
        with pytest.raises(TransitionError):
            is_admissible((1, 3), GOLDEN)


class TestClosedLoops:
    def test_swap_two_cycle(self):
        swap = TransitionMatrix([[0, 1], [1, 0]])
        loops = [tuple(s) for s in closed_loops(swap, 2)]
        assert loops == [(1, 2), (2, 1)]

    def test_fixed_point_only(self):
        loops = [tuple(s) for s in closed_loops(GOLDEN, 1)]
        assert loops == [(1,)]

    def test_identity_constant_loops(self):
        loops = [tuple(s) for s in closed_loops(TransitionMatrix(np.eye(2, dtype=int)), 3)]
        assert loops == [(1, 1, 1), (2, 2, 2)]

    def test_lexicographic_order(self, rng):
        for _ in range(10):
            W = random_transition_matrix(rng, n=3)
            loops = [tuple(s) for s in closed_loops(W, 4)]
            assert loops == sorted(loops)

    def test_count_equals_trace_of_power(self, rng):
        mats = [GOLDEN, GOLDEN_T] + [random_transition_matrix(rng, n=int(rng.integers(1, 5)))
                                     for _ in range(5)]
        for W in mats:
            power = np.eye(W.n, dtype=object)
            for p in range(1, 9):
                power = power @ W.bits.astype(object)
                assert len(list(closed_loops(W, p))) == int(np.trace(power))


def _cycle(n: int) -> TransitionMatrix:
    """The permutation i -> i + 1 (mod n) on n symbols: one n-cycle."""
    return TransitionMatrix(np.roll(np.eye(n, dtype=int), 1, axis=1))


class TestPermutationLoop:
    def test_values(self):
        # the period of a loop of product symbols is the lcm of the cycles'
        assert len(permutation_loop([_cycle(2), _cycle(3)])) == 6
        assert len(permutation_loop([_cycle(4)])) == 4
        assert len(permutation_loop([_cycle(2), _cycle(2)])) == 2
