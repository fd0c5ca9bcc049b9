"""Transition-matrix analytics: Perron roots, word counts, loops.

Symbols are 1-based in every public signature (symbol ``i`` indexes row
``i-1`` of the matrix), matching how transitions are written in reports
and loop arguments.  ``permutation_loop`` builds theorem 1's loop of
product symbols through (1, ..., 1): the period a theorem 1 pass reports
is its length, and the orbit that ``verify``, ``margin`` and ``periodic
--auto`` solve for follows it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class TransitionError(ValueError):
    """Matrix or sequence violates the transition-structure invariants."""


@dataclass(frozen=True)
class TransitionMatrix:
    """0/1 square matrix with every row and column sum at least one."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise TransitionError(f"transition matrix must be square, got {b.shape}")
        if not np.isin(b, (0, 1)).all():
            raise TransitionError("transition matrix entries must be 0 or 1")
        b = b.astype(np.int64)
        if np.any(b.sum(axis=1) < 1):
            raise TransitionError("every row sum must be >= 1")
        if np.any(b.sum(axis=0) < 1):
            raise TransitionError("every column sum must be >= 1")
        object.__setattr__(self, "bits", b)

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    def allows(self, a: int, b: int) -> bool:
        """Whether symbol ``a`` may be followed by symbol ``b`` (1-based)."""
        return bool(self.bits[a - 1, b - 1])

    def successors(self, a: int) -> list[int]:
        return [j + 1 for j in np.flatnonzero(self.bits[a - 1])]

    def predecessors(self, b: int) -> list[int]:
        return [i + 1 for i in np.flatnonzero(self.bits[:, b - 1])]

    def is_permutation(self) -> bool:
        return bool(np.all(self.bits.sum(axis=1) == 1)
                    and np.all(self.bits.sum(axis=0) == 1))

    def permutation(self) -> list[int]:
        """Image list of a permutation matrix: symbol i maps to result[i-1]."""
        if not self.is_permutation():
            raise TransitionError("matrix is not a permutation")
        return [int(np.flatnonzero(row)[0]) + 1 for row in self.bits]


@dataclass(frozen=True)
class SymbolSequence:
    """Finite word of 1-based symbols."""

    symbols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))
        if any(s < 1 for s in self.symbols):
            raise TransitionError("symbols are 1-based positive integers")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


def _power_root(block: np.ndarray) -> float:
    """Perron root of an irreducible 0/1 block by power iteration.

    Iterates on block + I: the self-loops make the block primitive (no
    periodic oscillation) and shift the root by exactly one.
    """
    n = block.shape[0]
    mat = block + np.eye(n)
    v = np.ones(n) / n
    lam = 0.0
    stable = 0
    for _ in range(500_000):
        w = mat @ v
        lam_new = float(np.max(w))
        v = w / lam_new
        if abs(lam_new - lam) <= 1e-12 * max(lam_new, 1.0):
            stable += 1
            if stable >= 3:
                return lam_new - 1.0
        else:
            stable = 0
        lam = lam_new
    raise TransitionError("power iteration failed to converge")


def spectral_radius(W: TransitionMatrix) -> float:
    """Perron root of the transition matrix.

    Closed form up to 2x2.  Otherwise the matrix is split into strongly
    connected components (the spectrum of a block-triangular matrix is the
    union over diagonal blocks) and each irreducible block is handled by
    power iteration; plain iteration on a reducible matrix can converge
    only algebraically when equal component roots are chained.
    """
    b = W.bits.astype(float)
    n = W.n
    if n == 1:
        return float(b[0, 0])
    if n == 2:
        a, c = b[0, 0], b[1, 1]
        disc = (a - c) ** 2 + 4.0 * b[0, 1] * b[1, 0]
        return float((a + c + math.sqrt(disc)) / 2.0)

    reach = W.bits.astype(bool) | np.eye(n, dtype=bool)
    for _ in range(n):
        new = reach | (reach @ reach)
        if np.array_equal(new, reach):
            break
        reach = new
    best = 0.0
    seen: set[int] = set()
    for i in range(n):
        if i in seen:
            continue
        comp = [j for j in range(n) if reach[i, j] and reach[j, i]]
        seen.update(comp)
        if len(comp) == 1:
            best = max(best, float(b[i, i]))
        else:
            best = max(best, _power_root(b[np.ix_(comp, comp)]))
    return best


def entropy_lower_bound(Ws: list[TransitionMatrix] | tuple[TransitionMatrix, ...]) -> float:
    """Sum of the log Perron roots of the factors."""
    if not Ws:
        raise TransitionError("need at least one transition matrix")
    return float(sum(math.log(spectral_radius(W)) for W in Ws))


def _exact_power(bits: np.ndarray, k: int) -> list[list[int]]:
    """Integer matrix power with Python ints (word counts are certificates)."""
    n = bits.shape[0]
    base = [[int(bits[i, j]) for j in range(n)] for i in range(n)]
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]

    while k:
        if k & 1:
            result = mul(result, base)
        base = mul(base, base)
        k >>= 1
    return result


def count_words(W: TransitionMatrix, n: int) -> int:
    """Number of admissible words of length ``n``: the entry sum of W^(n-1)."""
    if n < 1:
        raise TransitionError("word length must be >= 1")
    p = _exact_power(W.bits, n - 1)
    return sum(sum(row) for row in p)


def is_admissible(seq: SymbolSequence | tuple[int, ...] | list[int],
                  W: TransitionMatrix) -> bool:
    """Whether every consecutive symbol pair is an allowed transition."""
    symbols = tuple(seq.symbols if isinstance(seq, SymbolSequence) else seq)
    if any(not 1 <= s <= W.n for s in symbols):
        raise TransitionError(f"symbol out of range 1..{W.n}: {symbols}")
    return all(W.allows(a, b) for a, b in zip(symbols, symbols[1:]))


def closed_loops(W: TransitionMatrix, length: int) -> Iterator[SymbolSequence]:
    """All admissible cyclic words of a given length, lexicographic order."""
    if length < 1:
        raise TransitionError("loop length must be >= 1")

    def extend(word: tuple[int, ...]) -> Iterator[SymbolSequence]:
        if len(word) == length:
            if W.allows(word[-1], word[0]):
                yield SymbolSequence(word)
            return
        for nxt in range(1, W.n + 1):
            if W.allows(word[-1], nxt):
                yield from extend(word + (nxt,))

    for start in range(1, W.n + 1):
        yield from extend((start,))


def permutation_loop(Ws: list[TransitionMatrix] | tuple[TransitionMatrix, ...]
                     ) -> list[tuple[int, ...]]:
    """The closed loop of product symbols through (1, ..., 1) under the
    permutations ``Ws``, one per node: step t holds each node's t-th image
    of symbol 1, and the loop ends before its first return to (1, ..., 1),
    so its length is the lcm of the nodes' cycle lengths through 1.
    ``TransitionError`` names the first node whose matrix is not a
    permutation."""
    perms = []
    for k, W in enumerate(Ws, start=1):
        if not W.is_permutation():
            raise TransitionError(f"node {k}: transition matrix is not a permutation")
        perms.append(W.permutation())
    loop = [(1,) * len(perms)]
    while (nxt := tuple(perm[s - 1] for perm, s in zip(perms, loop[-1]))) != loop[0]:
        loop.append(nxt)
    return loop
