"""Network iteration: orbits, itineraries, periodic points, perturbations.

The network map applies every node's local map blockwise and then the
coupling.  Periodic points come from exact affine composition along a
declared symbol loop (the piecewise-affine restriction makes the closed
loop solvable in closed form); perturbed networks refine that solution by
damped fixed-point iteration.  The loop and the sampler's pull-back read
each node's affine branch on an h-set by the checkers' own rules
(``_branch``): the piece that evaluation picks at the h-set's centre
(``piece_at``), accepted when ``form_gap``, the vertex rule that audits
chart forms, finds the local map equal to it on the whole h-set.

Stepping and locating read tables built once per spec: each node keeps its
member charts in a per-symbol table filled on first use
(``NodeSystem.member_chart``), and the spec keeps its ambient interaction
map (``NetworkSpec.ambient_map``).

Every batch of points is coordinate-major: a (dim, n) array with one
contiguous row per coordinate and one column per point, here and in the
geometry batch methods it calls (``AffineChart.apply_batch`` and
``invert_batch``, ``AffinePiece.contains_batch``,
``PiecewiseAffineMap.apply_batch``).  An offset add, a product or a
gather then runs along rows of length n, not along a short last axis.
The network map is written once, ``_local_images`` then ``_couple``; the
public ``step``, ``step_power`` and ``itinerary`` run it on a single
state as one column, whose piece each map finds in a plain loop
(``PiecewiseAffineMap.piece_at``).  Every value is bit for bit the one
the row-major (n, dim) layout gives, by the rules of
``geometry._product``: a matrix with one column (a 1-d block, a 1-d
cell's normals) multiplies by broadcasting, where each output is one
rounded product in any evaluation order; a matrix with one row (a cell
with one constraint) takes the row-major matrix-vector product itself;
any other matrix goes through BLAS as ``M @ pts``, whose products equal
the row-major ``pts.T @ M.T`` ones for gathered groups of one point as
well, on the OpenBLAS kernels measured, for matrices up to 7 columns
wide.

Every batch operation works in whole-row passes: a cell test compares
one constraint row at a time, a max-norm is a running maximum over
coordinate rows, and each piece, chart or symbol branch is applied once,
to its columns gathered by index in column order.  So every point meets
the same operands, in the same order, as in a masked loop over pieces or
symbols.  The empirical-entropy sampler draws its scrambled Halton
points itself, each column when a level reads it (``_halton``), picks
predecessors and pulls each node's points back one symbol group at a
time, and its forward extraction keeps only the surviving points, each
with one int64 key of its word; so its memory grows with the samples,
not with the depth.  A word is admissible when each node's symbols follow
that node's own transition matrix, checked step by step during the
extraction, so the n^d x n^d product matrix is never built.  Distinct
words are counted exactly, as the distinct keys of one sort.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .geometry import (CONTINUITY_TOL, EVAL_TIE_TOL, GeometryError, PiecewiseAffineMap, _product,
                       _scatter, form_gap, singular)
from .network import NetworkSpec, SpecError
from .symbolic import is_admissible

RESIDUAL_TOL = 1e-10
# Most quasi-random values one entropy estimate may draw: samples times
# d + state_dim + d (depth - 1) columns.  This bounds the sampler's work;
# its memory grows with samples alone, since it builds one column at a
# time and drops it once read.  12 steps of 100,000 samples on a 2-node
# network draw 2.6 million.
MAX_SAMPLE_DRAWS = 2 ** 24
# Most values the sampler may hold in its states and its first draws,
# samples x (d + state_dim): this bounds its memory.  On a 2-vCPU x86-64
# VM, example1 at the limit (1,048,576 samples of 4 values, depth 2) peaks
# at 147 MB RSS, 35 MB of it the interpreter and its imports; 12 steps of
# 100,000 samples hold 400,000 values and peak at 51 MB.
MAX_SAMPLE_VALUES = 2 ** 22
# Most state values ``simulate`` may keep, (steps + 1) x state_dim.  It
# keeps the orbit twice (as stepped, then coordinate-major) and writes each
# output line as it formats it: on a 2-vCPU KVM host, 2^18 values of a 2-d
# state (theorem1_perm23, whose orbit stays bounded) peak at 48 MB RSS
# (36 MB of it the interpreter and its imports) and take 5.3 s, one
# ``step`` call per state.  So the limit bounds the time.
MAX_ORBIT_VALUES = 2 ** 18


class LoopError(ValueError):
    """A loop or the sampler cannot run on a valid spec: an inadmissible
    loop, or no (invertible) affine branch of a map where one is needed."""


class NeutralCompositionError(ValueError):
    """Composed affine branch has a unit eigenvalue; no isolated fixed point."""


class OrbitEscapeError(ValueError):
    """An iterate of the network map is not finite, or is undefined."""


class NoInvariantSamplesError(RuntimeError):
    """Every sampled trajectory escaped; nothing to estimate."""


@dataclass(frozen=True)
class Perturbation:
    """Bounded smooth bump family with sup-norm exactly ``amplitude``.

    Each perturbed coordinate receives amplitude * sin(freq * x + phase)
    with frequencies and phases drawn from the seed, so the family is
    deterministic, C^0-bounded by the amplitude, and attains it.
    """

    amplitude: float
    seed: int = 0
    _drawn: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("perturbation amplitude must be nonnegative")

    def _params(self, role: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Frequencies and phases of ``role``'s bump on ``dim`` coordinates,
        drawn from ``default_rng([seed, role])`` on first use and kept."""
        params = self._drawn.get((role, dim))
        if params is None:
            rng = np.random.default_rng([int(self.seed), role])
            freq = rng.uniform(0.5, 2.5, size=dim)
            phase = rng.uniform(0.0, 2.0 * math.pi, size=dim)
            params = self._drawn[role, dim] = (freq, phase)
        return params

    def local_bump(self, node_index: int, pts: np.ndarray) -> np.ndarray:
        """Displacement added to node ``node_index`` (0-based) local images,
        for a coordinate-major batch ``pts`` (block, n) of its blocks."""
        freq, phase = self._params(node_index, pts.shape[0])
        return self.amplitude * np.sin(freq[:, None] * pts + phase[:, None])

    def coupling_bump(self, pts: np.ndarray) -> np.ndarray:
        """Displacement added to the coupled image, for a coordinate-major
        batch ``pts`` (state_dim, n) of full states."""
        freq, phase = self._params(999_983, pts.shape[0])
        return self.amplitude * np.sin(freq[:, None] * pts + phase[:, None])


@dataclass(frozen=True)
class Itinerary:
    """Symbol track of an orbit: one h-set index per node per step."""

    steps: tuple[tuple[int, ...], ...]
    escaped_at: int | None
    ties: int = 0

    @property
    def escaped(self) -> bool:
        return self.escaped_at is not None


@dataclass(frozen=True)
class PeriodicOrbitCertificate:
    """Exactly solved periodic point with verified interior margins."""

    point: np.ndarray
    period: int
    residual: float
    interior_margins: tuple[float, ...]

    def __post_init__(self):
        if self.residual >= RESIDUAL_TOL:
            raise ValueError(f"residual {self.residual:.3e} exceeds {RESIDUAL_TOL}")
        if any(m <= 0 for m in self.interior_margins):
            raise ValueError("periodic orbit touches an h-set boundary")


# ---------------------------------------------------------------------------
# stepping


def _apply(F: PiecewiseAffineMap, pts: np.ndarray, name: str) -> np.ndarray:
    """``F.apply_batch(pts)``, or an ``OrbitEscapeError`` naming the map ``name``."""
    try:
        return F.apply_batch(pts)
    except GeometryError as exc:
        raise OrbitEscapeError(f"{name}: {exc}") from None


def _local_images(spec: NetworkSpec, states: np.ndarray,
                  pert: Perturbation | None = None) -> np.ndarray:
    """Every node's local map on its block of each column of ``states``."""
    block = spec.block_dim
    out = np.empty_like(states)
    for k, node in enumerate(spec.nodes):
        seg = states[k * block:(k + 1) * block]
        img = _apply(node.local_map, seg, f"node {k + 1}")
        if pert is not None and pert.amplitude:
            img = img + pert.local_bump(k, seg)
        out[k * block:(k + 1) * block] = img
    return out


def _couple(spec: NetworkSpec, out: np.ndarray, pert: Perturbation | None = None) -> np.ndarray:
    """The interaction on every column of the local images ``out``."""
    coupled = _apply(spec.ambient_map(), out, "the interaction map")
    if pert is not None and pert.amplitude:
        coupled = coupled + pert.coupling_bump(out)
    return coupled


def _step_batch(spec: NetworkSpec, states: np.ndarray,
                pert: Perturbation | None = None) -> np.ndarray:
    """The network map on every column of ``states`` (state_dim, n)."""
    return _couple(spec, _local_images(spec, states, pert), pert)


def state_vector(spec: NetworkSpec, x) -> np.ndarray:
    """``x`` as a flat float state; ``GeometryError`` unless of length state_dim."""
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape[0] != spec.state_dim:
        raise GeometryError(f"state has dimension {v.shape[0]}, "
                            f"expected {spec.state_dim}")
    return v


def step(spec: NetworkSpec, x, pert: Perturbation | None = None) -> np.ndarray:
    """One application of the network map (coupling after local maps):
    ``_step_batch`` on the state as one column, where each map evaluates
    the piece of its one point (``PiecewiseAffineMap.apply_batch``).
    Raises ``OrbitEscapeError``, and no numpy warning, when a map is
    undefined at its argument (``_apply``) or the local images or the image
    are not all finite: past floating-point range no cell test means
    anything, so none is made on such a value.
    """
    state = state_vector(spec, x).reshape(-1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        image = _local_images(spec, state, pert)
        if all(map(math.isfinite, image[:, 0].tolist())):
            image = _couple(spec, image, pert)
    if not all(map(math.isfinite, image[:, 0].tolist())):
        raise OrbitEscapeError("the state leaves floating-point range")
    return image[:, 0]


# ---------------------------------------------------------------------------
# itineraries


def _chart_norms(spec: NetworkSpec, states: np.ndarray):
    """Yield (k, i, ext) for every node k and its symbols i from the highest
    down: ``ext`` is the max-norm of member chart i's image of each column's
    block of ``states`` (state_dim, n), a running ``np.maximum`` over the
    image's coordinate rows."""
    block = spec.block_dim
    for k, node in enumerate(spec.nodes):
        seg = states[k * block:(k + 1) * block]
        for i in range(node.count, 0, -1):
            img = node.member_chart(i).apply_batch(seg)
            np.abs(img, out=img)
            ext = img[0]
            for j in range(1, block):
                np.maximum(ext, img[j], out=ext)
            yield k, i, ext


def locate_batch(spec: NetworkSpec, states: np.ndarray) -> np.ndarray:
    """Symbols (0 = escape), (d, n), of the columns of ``states`` (state_dim, n).

    Node k of a column gets the lowest symbol i whose member chart takes
    the column's block into the unit box, to within EVAL_TIE_TOL in the
    max-norm.  Symbols are tried from the highest down, each overwriting
    the columns it holds, so the lowest one that holds a column is the one
    left.
    """
    symbols = np.zeros((spec.d, states.shape[1]), dtype=np.int64)
    for k, i, ext in _chart_norms(spec, states):
        # symbol i where the chart holds the column: arithmetic on a 0/1
        # factor, several times faster than assignment through a mask
        found = symbols[k]
        found += (i - found) * (ext <= 1.0 + EVAL_TIE_TOL)
    return symbols


def _ties(spec: NetworkSpec, states: np.ndarray) -> int:
    """How many (column, node, symbol) of ``states`` (state_dim, n) have a
    member chart max-norm within EVAL_TIE_TOL of 1."""
    ties = 0
    for _, _, ext in _chart_norms(spec, states):
        # |ext - 1| is exact wherever it can be small (Sterbenz), so a tie
        # always lies inside the tolerance and needs no mask of it
        near = ext - 1.0
        np.abs(near, out=near)
        ties += int(np.count_nonzero(near <= EVAL_TIE_TOL))
    return ties


def itinerary(spec: NetworkSpec, x0, n: int) -> Itinerary:
    """Track which product h-set each of the first ``n`` states occupies.

    Stops at the first state outside every product h-set; boundary hits
    within EVAL_TIE_TOL count as inside and break ties toward the lower
    index, and each counts in ``ties``.
    """
    if n < 1:
        raise ValueError("need at least one step")
    state = state_vector(spec, x0)
    steps: list[tuple[int, ...]] = []
    ties = 0
    for t in range(n):
        col = state.reshape(-1, 1)
        symbols = locate_batch(spec, col)[:, 0]
        ties += _ties(spec, col)
        if np.any(symbols == 0):
            return Itinerary(tuple(steps), t, ties)
        steps.append(tuple(int(s) for s in symbols))
        if t + 1 < n:
            try:
                state = step(spec, state)
            except OrbitEscapeError:
                # a state past floating-point range lies in no h-set
                return Itinerary(tuple(steps), t + 1, ties)
    return Itinerary(tuple(steps), None, ties)


# ---------------------------------------------------------------------------
# periodic points


def _branch(spec: NetworkSpec, k: int, symbol: int):
    """Affine piece of node k's local map on h-set ``symbol``.

    The piece is the one that holds the h-set's centre (``piece_at`` at
    the chart's preimage of 0).  It is the branch when, both carried onto
    the unit box by the h-set's chart, its ``form_gap`` with the local map
    is at most ``CONTINUITY_TOL``: the exact vertex rule that audits
    declared chart forms, so the map is that one affine map wherever it is
    defined on the h-set.  On the line the set-up refuses a map undefined
    on part of an h-set; above it, one undefined at the centre is a
    ``SpecError`` at ``$.nodes[k].map``, and a step into another hole an
    ``OrbitEscapeError``.  A map that is not one affine map there is a
    ``LoopError`` naming the node and the h-set.
    """
    node = spec.nodes[k]
    chart = node.member_chart(symbol)
    try:
        piece = node.local_map.piece_at(chart.invert_batch(np.zeros((node.dim, 1))))
        gap = form_gap(node.local_map.in_chart(chart),
                       PiecewiseAffineMap.affine(piece.matrix, piece.offset).in_chart(chart))
    except GeometryError as exc:
        raise SpecError(f"$.nodes[{k}].map: h-set {symbol}: {exc}") from exc
    if not gap <= CONTINUITY_TOL:
        raise LoopError(f"node {k + 1}, h-set {symbol}: the local map is not one affine "
                        f"map on the h-set (gap {gap:.3e})")
    return piece


def _interaction(spec: NetworkSpec, purpose: str) -> tuple[np.ndarray, np.ndarray]:
    """The interaction's linear part and offset, or a ``LoopError`` naming ``purpose``."""
    ambient = spec.ambient_map()
    if not ambient.is_affine:
        raise LoopError(f"$.coupling.ambient: {purpose} needs an interaction map of one "
                        "affine piece on all of space")
    return ambient.pieces[0].matrix, ambient.pieces[0].offset


def _loop_affine(spec: NetworkSpec, loop) -> tuple[np.ndarray, np.ndarray]:
    """Compose the affine branches of the network map along the loop."""
    block = spec.block_dim
    dim = spec.state_dim
    a_lin, a_off = _interaction(spec, "loop composition")
    # one branch per (node, symbol) the loop visits, found in order of first visit
    branches = {key: _branch(spec, *key)
                for key in dict.fromkeys((k, s) for multi in loop for k, s in enumerate(multi))}
    lin = np.eye(dim)
    off = np.zeros(dim)
    for multi in loop:
        t_lin = np.zeros((dim, dim))
        t_off = np.zeros(dim)
        for k in range(spec.d):
            piece = branches[k, multi[k]]
            sl = slice(k * block, (k + 1) * block)
            t_lin[sl, sl] = piece.matrix
            t_off[sl] = piece.offset
        step_lin = a_lin @ t_lin
        step_off = a_lin @ t_off + a_off
        lin = step_lin @ lin
        off = step_lin @ off + step_off
    return lin, off


def _interior_margin(spec: NetworkSpec, state: np.ndarray,
                     multi: tuple[int, ...]) -> tuple[float, int]:
    block = spec.block_dim
    worst, at = math.inf, 0
    for k in range(spec.d):
        chart = spec.nodes[k].member_chart(multi[k])
        ext = float(np.max(np.abs(chart.apply(state[k * block:(k + 1) * block]))))
        if 1.0 - ext < worst:
            worst, at = 1.0 - ext, k
    return worst, at


def periodic_point(spec: NetworkSpec, loop,
                   pert: Perturbation | None = None) -> PeriodicOrbitCertificate:
    """Solve for the periodic orbit tracking a closed admissible symbol loop.

    The affine branches along the loop compose to z -> L z + c; the orbit
    is the exact solution of (I - L) z = c, verified interior to every
    product h-set it visits and re-checked against the true map.  With a
    perturbation, the affine solution seeds damped quasi-Newton refinement
    (damping 0.5, up to 10^4 iterations, tolerance 1e-12).
    """
    loop = [tuple(int(s) for s in multi) for multi in loop]
    if not loop:
        raise LoopError("loop is empty")
    p = len(loop)
    for t, multi in enumerate(loop):
        if len(multi) != spec.d:
            raise LoopError(f"loop step {t} ({'.'.join(map(str, multi))}) has "
                            f"{len(multi)} symbols, expected {spec.d}, one per node")
    for k in range(spec.d):
        word = [multi[k] for multi in loop] + [loop[0][k]]
        if not 1 <= word[0] <= spec.nodes[k].count:
            raise LoopError(f"node {k + 1}: symbol {word[0]} out of range")
        if not is_admissible(word, spec.nodes[k].transition):
            raise LoopError(f"node {k + 1}: loop {word} is not admissible")

    lin, off = _loop_affine(spec, loop)
    system = np.eye(spec.state_dim) - lin
    if singular(system):
        raise NeutralCompositionError("composed branch has a neutral direction")
    z = np.linalg.solve(system, off)

    if pert is not None and pert.amplitude:
        # plain fixed-point iteration diverges along the expanding
        # directions; use damped quasi-Newton steps with the exact Jacobian
        # of the unperturbed affine branch, which the smooth bump only
        # perturbs slightly
        for _ in range(10_000):
            err = step_power(spec, z, p, pert) - z
            if float(np.max(np.abs(err))) < 1e-12:
                break
            z = z - 0.5 * np.linalg.solve(lin - np.eye(spec.state_dim), err)

    margins = []
    state = z.copy()
    for t, multi in enumerate(loop):
        margin, k = _interior_margin(spec, state, multi)
        if margin <= 0:
            raise LoopError(f"orbit leaves h-set product at step {t}: node {k + 1}, h-set "
                            f"{multi[k]} (margin {margin:.3e})")
        margins.append(margin)
        state = step(spec, state, pert)
    residual = float(np.max(np.abs(state - z)))
    return PeriodicOrbitCertificate(z, p, residual, tuple(margins))


def step_power(spec: NetworkSpec, x, n: int,
               pert: Perturbation | None = None) -> np.ndarray:
    """Iterate the network map ``n`` times (``step``)."""
    state = state_vector(spec, x)
    for _ in range(n):
        state = step(spec, state, pert)
    return state


# ---------------------------------------------------------------------------
# empirical entropy


def _inverse_branches(spec: NetworkSpec):
    """Per node and symbol: inverse of the local affine branch on that h-set."""
    inverses = []
    for k, node in enumerate(spec.nodes):
        per_symbol = {}
        for i in range(1, node.count + 1):
            piece = _branch(spec, k, i)
            if singular(piece.matrix):
                raise LoopError(f"node {k + 1}, h-set {i}: branch not invertible")
            inv = np.linalg.inv(piece.matrix)
            per_symbol[i] = (inv, -inv @ piece.offset)
        inverses.append(per_symbol)
    return inverses


def _primes(n: int) -> list[int]:
    """The first ``n`` primes."""
    primes: list[int] = []
    cand = 2
    while len(primes) < n:
        if all(cand % p for p in primes if p * p <= cand):
            primes.append(cand)
        cand += 1
    return primes


def _halton(n_cols: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    """Owen's randomized Halton points, one (samples,) column at a time.

    Yields ``n_cols`` contiguous columns in column order; column c is the
    scrambled van der Corput sequence in the c-th prime base
    (``_halton_column``).  One ``default_rng(seed)`` shuffles each base's
    permutations just before its column is built, base after base as
    scipy does, and a column depends on no other, so stacked the columns
    are scipy's ``qmc.Halton(d=n_cols, scramble=True,
    seed=seed).random(samples)`` bit for bit, and the first k of them its
    first k columns, whether or not the later ones are ever built.  The
    generator keeps no reference to a column it has yielded.
    """
    rng = np.random.default_rng(seed)
    for base in _primes(n_cols):
        yield _halton_column(rng, base, samples)


def _halton_column(rng: np.random.Generator, base: int, samples: int) -> np.ndarray:
    """The first ``samples`` points of the van der Corput sequence in
    ``base``, scrambled by ``rng``.

    ``rng`` shuffles one copy of ``arange(base)`` per digit that a double
    resolves, and point n sums perm[j][digit j of n] * base**-(j+1) from
    the lowest digit up.  The sums are built a digit level at a time (rows
    q * base**j + r of a level extend row r of the one before) in the same
    order and with the same rounding as scipy's generator.
    """
    perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
    for perm in perms:
        rng.shuffle(perm)
    vals = np.zeros(1)
    b2r = 1.0 / base
    for perm in perms:
        if vals.size < samples:
            rows = -(-samples // vals.size)
            vals = (vals + (perm[:rows] * b2r)[:, None]).ravel()[:samples]
        else:
            # every row below ``samples`` has digit 0 from here on
            vals += perm[0] * b2r
        b2r /= base
    return vals


def _groups(symbols: np.ndarray, count: int) -> list[tuple[int, np.ndarray]]:
    """(symbol, cols) for each symbol 1..count that occurs in ``symbols``;
    ``cols`` are the indices where it occurs, in order."""
    groups = []
    for i in range(1, count + 1):
        cols = np.flatnonzero(symbols == i)
        if cols.size:
            groups.append((i, cols))
    return groups


def _constructed_states(spec: NetworkSpec, depth: int, samples: int,
                        draw: Iterator[np.ndarray]) -> np.ndarray:
    """The sampler's initial states, (state_dim, samples): each a final
    symbol and position drawn in the product h-sets, pulled back
    ``depth - 1`` levels through predecessors drawn at each level.

    ``draw`` yields the Halton columns, and they are read in order: the
    d final symbols (each only until its node's symbol groups exist), each
    node's block of positions, then d predecessor picks per level, each
    dropped after its level.  Every array of the pull-back is local here,
    so none of them outlives the return.
    """
    d = spec.d
    block = spec.block_dim
    a_lin, a_off = _interaction(spec, "entropy sampling")
    if singular(a_lin):
        raise LoopError("$.coupling.ambient: the interaction map is not invertible")
    a_inv = np.linalg.inv(a_lin)
    inverses = _inverse_branches(spec)

    # final symbols, then positions inside the final product h-set; the
    # symbol groups of each level serve both its pull-back and the next
    # level's predecessor pick
    groups = []
    for node in spec.nodes:
        cur = np.minimum((next(draw) * node.count).astype(np.int64), node.count - 1) + 1
        groups.append(_groups(cur, node.count))
    states = np.empty((spec.state_dim, samples))
    for k, node in enumerate(spec.nodes):
        sl = slice(k * block, (k + 1) * block)
        pos = np.array([next(draw) for _ in range(block)])
        for i, cols in groups[k]:
            xi = 2.0 * np.take(pos, cols, axis=1) - 1.0
            _scatter(states[sl], cols, node.member_chart(i).invert_batch(xi * (1.0 - 1e-9)))
    del cur, pos

    # per node and symbol j: the predecessors of j
    preds = [[np.flatnonzero(node.transition.bits[:, j]) + 1 for j in range(node.count)]
             for node in spec.nodes]

    inset = 1.0 - 1e-9
    prev = np.empty((d, samples), dtype=np.int64)
    for _ in range(depth - 1):
        for k in range(d):
            u = next(draw)
            for j, cols in groups[k]:
                options = preds[k][j - 1]
                pick = np.minimum((u[cols] * options.size).astype(np.int64), options.size - 1)
                prev[k][cols] = options[pick]
        del u
        # every column of ``states`` is overwritten below
        states -= a_off[:, None]
        pulled = _product(a_inv, states)
        for k, node in enumerate(spec.nodes):
            sl = slice(k * block, (k + 1) * block)
            groups[k] = _groups(prev[k], node.count)
            for i, cols in groups[k]:
                inv_lin, inv_off = inverses[k][i]
                back = _product(inv_lin, np.take(pulled[sl], cols, axis=1))
                back += inv_off[:, None]
                # keep pulled-back states inside the source set: a no-op for
                # expanding branches, a boundary snap where the dynamics
                # contracts (forward extraction re-derives the actual word)
                chart = node.member_chart(i)
                cc = chart.apply_batch(back)
                np.clip(cc, -inset, inset, out=cc)
                _scatter(states[sl], cols, chart.invert_batch(cc))
        del pulled
    return states


def empirical_entropy(spec: NetworkSpec, depth: int, samples: int, seed: int = 0) -> float:
    """log(distinct depth-n itineraries observed) / (n - 1).

    The invariant set of an expanding network has measure zero, so blind
    forward sampling observes no deep itineraries at all.  Initial states
    are therefore constructed on it: a seeded quasi-random stream picks an
    admissible symbol word and a position, the state is pulled back
    through the inverse affine branches, and its forward itinerary is then
    extracted and counted like any other orbit.  Only words that survive
    all ``depth`` steps and respect the transition structure are counted.
    The stream is Owen's randomized Halton sequence (A. B. Owen, "A
    randomized Halton algorithm in R", arXiv:1706.02808, 2017), equal to
    scipy's ``qmc.Halton(scramble=True, seed=seed)``, so the estimate is
    deterministic for a fixed seed.  A request that would draw more than
    ``MAX_SAMPLE_DRAWS`` values, or hold more than ``MAX_SAMPLE_VALUES``
    (samples x (d + state_dim)), is refused with ``SpecError`` before
    anything is drawn.

    Each Halton column is built when the sampler reads it and dropped
    after, the pull-back's arrays are released before the forward
    extraction, and a word's key is kept only for the samples still
    alive.  So the sampler holds a small multiple of samples x (d +
    state_dim) values at any depth.

    States are coordinate-major, (state_dim, samples).  Each node's
    samples are handled one symbol group at a time, a group being the
    indices of its samples in order, so every sample meets the same
    operands as in a masked loop over symbols.  A group's samples choose
    their predecessors from that symbol's list and are pulled back
    through that symbol's branch.  The forward extraction keeps only the
    surviving samples and one int64 key of each one's word: a step's
    product symbol is one mixed-radix digit in base b = prod_k count_k,
    appended as key * b + code while every key stays below 2**62.  Past
    that, the key becomes rank(key) * n + rank(code) among the n
    survivors, which tells the same words apart.  A word is admissible
    when each node's symbols follow that node's own transition matrix, so
    the n^d x n^d product matrix is never built.  Distinct words are
    counted exactly, as the places where adjacent sorted keys differ.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    if samples < 1:
        raise ValueError("need at least one sample")
    d = spec.d
    n_cols = d + spec.state_dim + d * (depth - 1)
    if n_cols * samples > MAX_SAMPLE_DRAWS:
        raise SpecError(f"{samples} samples at depth {depth} draw {n_cols} x {samples} = "
                        f"{n_cols * samples} quasi-random values, above the limit of "
                        f"{MAX_SAMPLE_DRAWS}")
    if (held := (d + spec.state_dim) * samples) > MAX_SAMPLE_VALUES:
        raise SpecError(f"{samples} samples of {d + spec.state_dim} values each (d + "
                        f"state_dim) hold {held} values, above the limit of "
                        f"{MAX_SAMPLE_VALUES}")

    x = _constructed_states(spec, depth, samples, _halton(n_cols, samples, seed))

    # forward extraction: the constructed states are ordinary initial states.
    # Only the surviving columns are kept, in sample order, each with one
    # int64 ``key`` of its word so far, below the Python int ``bound``.  A
    # word stays ``admissible`` while every node's step from its previous
    # symbol is allowed by that node's own transition matrix.
    radix = [node.count for node in spec.nodes]
    allowed = [node.transition.bits.ravel() == 1 for node in spec.nodes]
    base = math.prod(radix)
    admissible = np.ones(samples, dtype=bool)
    prev = key = None
    for t in range(depth):
        symbols = locate_batch(spec, x)
        ok = symbols[0] > 0
        for k in range(1, d):
            ok &= symbols[k] > 0
        if not ok.all():
            keep = np.flatnonzero(ok)
            admissible = admissible[keep]
            # one array at a time, so each is released before the next is copied
            x = np.take(x, keep, axis=1)
            symbols = np.take(symbols, keep, axis=1)
            if prev is not None:
                key = key[keep]
                prev = np.take(prev, keep, axis=1)
        if x.shape[1] == 0:
            raise NoInvariantSamplesError("no invariant set sampled")
        symbols -= 1
        if prev is not None:
            for k in range(d):
                admissible &= allowed[k][prev[k] * radix[k] + symbols[k]]
        prev = symbols
        code = symbols[0]
        for k in range(1, d):
            code = code * radix[k] + symbols[k]
        if key is None:
            key, bound = code, base
        elif bound * base <= 1 << 62:
            key, bound = key * base + code, bound * base
        else:
            # the word's rank and the step's among the n survivors: one key
            # per distinct (word, step) pair, below n^2 (n < 2^22 samples)
            n = key.size
            key = (np.unique(key, return_inverse=True)[1] * n
                   + np.unique(code, return_inverse=True)[1])
            bound = n * n
        if t + 1 < depth:
            x = _step_batch(spec, x)
    keys = key[admissible]
    if keys.size == 0:
        raise NoInvariantSamplesError("no invariant set sampled")
    # distinct words, exactly: the places where adjacent sorted keys differ
    keys.sort()
    distinct = 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
    return math.log(distinct) / (depth - 1)
