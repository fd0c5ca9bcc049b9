"""Seeded network generator for the benchmark.

Every network is built from *designed* nodes: each source h-set maps
affinely across the hull of its transition targets with a chosen margin,
with linear bridges over the gaps, so the verdict of every family is known
before the checker runs.  ``designed_node`` is a copy of the generator in
``tests/test_properties.py`` (interval nodes), extended to ``u`` unstable
and ``s`` stable directions: the first unstable coordinate carries the
designed interval map, the other unstable coordinates expand linearly and
the stable coordinates contract linearly.  Chart forms are either derived
by the program (piecewise) or declared affine per source symbol.

Specs are written through ``serialize_spec``; every written spec must pass
``validate_spec`` and survive a ``specs_equal`` parse round trip.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from cmnverify import (AffineChart, CenterScale, CouplingSpec, Graph, HSet,
                       NetworkSpec, NodeSystem, PiecewiseAffineMap, ProductFormMap,
                       TransitionMatrix, UnifiedSet, parse_spec, serialize_spec,
                       specs_equal, validate_spec)
from cmnverify.geometry import AffinePiece

GOLDEN = ([[1, 1], [1, 0]], [[0, 1], [1, 1]])
CYCLES3 = ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]])


def designed_node(rng, W: TransitionMatrix, margin, prefix: str,
                  unified: bool, u: int = 1, s: int = 0, declared: bool = False,
                  stable_gain: float = 0.3, radius: float = 1.0) -> NodeSystem:
    """Node whose every transition has unstable margin >= ``margin``
    (exactly == at the extreme targets).

    With ``u == 1`` and ``s == 0`` this is the interval construction of the
    property tests, drawing the same random numbers.  ``margin`` may also
    be a sequence with one margin per source symbol.  Extra unstable
    coordinates expand by ``1.5 + min(margin)``; stable coordinates map
    y -> stable_gain * y, and every member's stable ball has ``radius``.
    ``declared`` stores each source's chart form as one affine piece
    instead of letting the program derive the piecewise form.
    """
    n = W.n
    margins = np.broadcast_to(np.asarray(margin, dtype=float), (n,))
    margin = float(margins.min())
    values = {}
    for i in range(1, n + 1):
        reach = 1.0 + margins[i - 1]
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
    ids = tuple(f"{prefix}{i}" for i in range(1, n + 1))

    if u == 1 and s == 0:
        local = PiecewiseAffineMap.from_breakpoints(breakpoints, pieces)
        hsets = tuple(HSet(mid, AffineChart.shift_1d(-3.0 * i))
                      for i, mid in enumerate(ids))
        fam = None
        if unified:
            fam = UnifiedSet(AffineChart.shift_1d(0.0),
                             tuple((mid, CenterScale([3.0 * i], [], 1.0))
                                   for i, mid in enumerate(ids)))
        return NodeSystem(local, hsets, W, unified=fam)

    dim = u + s
    gains = np.concatenate([[1.0], np.full(u - 1, 1.5 + margin), np.full(s, stable_gain)])
    cells = PiecewiseAffineMap.from_breakpoints(breakpoints, pieces).pieces
    multi = []
    for cell in cells:
        matrix = np.diag(gains)
        matrix[0, 0] = cell.matrix[0, 0]
        offset = np.zeros(dim)
        offset[0] = cell.offset[0]
        normals = np.hstack([cell.normals, np.zeros((cell.normals.shape[0], dim - 1))])
        multi.append(AffinePiece(matrix, offset, normals, cell.bounds.copy()))
    local = PiecewiseAffineMap(dim, dim, tuple(multi))

    centers = [CenterScale(np.eye(u)[0] * 3.0 * i, np.zeros(s), radius) for i in range(n)]
    shared = AffineChart.identity(u, s)
    hsets = tuple(HSet(mid, cs.compose_chart(shared)) for mid, cs in zip(ids, centers))
    fam = UnifiedSet(shared, tuple(zip(ids, centers))) if unified else None
    forms = None
    if declared:
        if not unified:
            raise ValueError("declared forms are generated for unified families only")
        forms = {}
        for i in range(1, n + 1):
            # the cell of source i is piece 2(i-1) of the bridged interval map
            cell = cells[2 * (i - 1)]
            slope, icpt = float(cell.matrix[0, 0]), float(cell.offset[0])
            u_lin = np.diag(gains[:u])
            u_lin[0, 0] = slope
            u_off = np.zeros(u)
            u_off[0] = slope * 3.0 * (i - 1) + icpt
            U = PiecewiseAffineMap.affine(u_lin, u_off)
            V = PiecewiseAffineMap.affine(np.eye(s) * stable_gain * radius, np.zeros(s))
            forms[i] = ProductFormMap(U, V)
    return NodeSystem(local, hsets, W, unified=fam, chart_forms=forms)


def ring_graph(d: int) -> Graph:
    """Bidirectional ring; complete for d <= 3."""
    if d <= 3:
        return Graph.complete(d)
    edges = {(k, k % d + 1) for k in range(1, d + 1)}
    return Graph(d, frozenset(edges | {(b, a) for a, b in edges}))


def diffusive_ring(d: int, alpha: float) -> np.ndarray:
    """(1 - 2 alpha) on the diagonal, alpha to each ring neighbour."""
    if d == 1:
        return np.eye(1)
    a = np.zeros((d, d))
    for k in range(d):
        for nb in {(k - 1) % d, (k + 1) % d} - {k}:
            a[k, nb] += alpha
    a[np.diag_indices(d)] = 1.0 - a.sum(axis=1)
    return a


def golden_ring(rng, d: int, alpha: float, u: int = 1, s: int = 0,
                declared: bool = False) -> NetworkSpec:
    """Ring of golden-mean nodes under diffusive type-II coupling.

    Node margins lie in [0.5, 0.9].  For interval nodes every entry passes
    at alpha = 0.02; at alpha = 0.04 entries whose ring neighbours both sit
    in the two-target symbol fail, so the verdict is fail.
    """
    nodes = []
    for k in range(d):
        W = TransitionMatrix(np.array(GOLDEN[int(rng.integers(2))]))
        margin = float(rng.uniform(0.5, 0.9))
        kw = {}
        if s:
            kw = {"stable_gain": float(rng.uniform(0.2, 0.5)),
                  "radius": float(rng.uniform(0.4, 0.8))}
        nodes.append(designed_node(rng, W, margin, f"N{k + 1}_", unified=True,
                                   u=u, s=s, declared=declared, **kw))
    return NetworkSpec(ring_graph(d), tuple(nodes),
                       CouplingSpec("type2", diffusive_ring(d, alpha)))


def permutation_ring(rng, d: int, alpha: float) -> NetworkSpec:
    """Ring of 3-cycle interval nodes under diffusive type-I coupling.

    Each symbol is weak (margin in [0.15, 0.22]) or strong (margin in
    [0.38, 0.45]); each node has at least one of both, in random order.
    Every entry passes at alpha = 0.02.  At alpha = 0.06 the entries whose
    symbols are all strong pass and every entry with a weak symbol fails:
    a mix, with verdict fail.
    """
    weak, strong = (0.15, 0.22), (0.38, 0.45)
    nodes = []
    for k in range(d):
        W = TransitionMatrix(np.array(CYCLES3[int(rng.integers(2))]))
        third = weak if rng.random() < 0.5 else strong
        margins = rng.permutation([rng.uniform(*weak), rng.uniform(*strong),
                                   rng.uniform(*third)])
        nodes.append(designed_node(rng, W, margins, f"P{k + 1}_", unified=False))
    return NetworkSpec(ring_graph(d), tuple(nodes),
                       CouplingSpec("type1", diffusive_ring(d, alpha)))


def write_spec(spec: NetworkSpec, path: Path) -> Path:
    """Serialize, then check validation and the parse round trip."""
    report = validate_spec(spec)
    if not report.ok:
        raise AssertionError(f"{path.name}: generated spec is invalid: {report.errors}")
    text = json.dumps(serialize_spec(spec), indent=1, sort_keys=True) + "\n"
    if not specs_equal(spec, parse_spec(json.loads(text))):
        raise AssertionError(f"{path.name}: spec does not survive a parse round trip")
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# oracles computed from the spec document alone, without the program


def transitions(doc: dict) -> list[np.ndarray]:
    return [np.array(node["transition"], dtype=np.int64) for node in doc["nodes"]]


def entry_count(doc: dict) -> int:
    """Nonzero Kronecker entries: the product of nnz(W_k)."""
    return math.prod(int(np.count_nonzero(w)) for w in transitions(doc))


def entropy_oracle(doc: dict) -> float:
    """Sum of log Perron roots, from numpy eigenvalues."""
    return float(sum(math.log(float(np.max(np.abs(np.linalg.eigvals(w.astype(float))))))
                     for w in transitions(doc)))


def cycle_length(bits: np.ndarray) -> int:
    """Length of the permutation cycle through the first symbol."""
    cur = 0
    for n in range(1, bits.shape[0] + 1):
        cur = int(np.flatnonzero(bits[cur])[0])
        if cur == 0:
            return n
    raise ValueError("the first symbol is not on a permutation cycle")


def period_oracle(doc: dict) -> int:
    """lcm of the node dimensions: the theorem-1 period."""
    return math.lcm(*[w.shape[0] for w in transitions(doc)])


def loop_oracle(doc: dict) -> int:
    """Length of the canonical loop through the first symbols."""
    return math.lcm(*[cycle_length(w) for w in transitions(doc)])


def word_count(doc: dict, depth: int) -> int:
    """Admissible words of length ``depth`` in the Kronecker product,
    with exact integers."""
    bits = np.ones((1, 1), dtype=object)
    for w in transitions(doc):
        bits = np.kron(bits, w.astype(object))
    power = np.identity(bits.shape[0], dtype=object)
    for _ in range(depth - 1):
        power = power.dot(bits)
    return int(power.sum())
