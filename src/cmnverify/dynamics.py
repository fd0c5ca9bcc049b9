"""Network iteration: orbits, itineraries, periodic points, perturbations.

The network map applies every node's local map blockwise and then the
coupling.  Periodic points come from exact affine composition along a
declared symbol loop (the piecewise-affine restriction makes the closed
loop solvable in closed form); perturbed networks refine that solution by
damped fixed-point iteration.  The loop and the sampler's pull-back read
each node's affine branch on an h-set from the spec's set-up, which owns
the branch rule (``network._branch``): nothing here composes a chart.

Stepping and locating read tables built once per spec: each node builds
its one chart per symbol with the node (``NodeSystem.member_chart``), and
the spec keeps its ambient interaction map (``NetworkSpec.ambient_map``).

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
symbols.  The empirical-entropy sampler runs in blocks of
``SAMPLE_BLOCK`` samples.  Each block draws its own rows of the scrambled
Halton points, each column when a level reads it (``_halton``), picks
predecessors and pulls each node's points back one symbol group at a
time, and its forward extraction keeps only the surviving points, each
with the int64 limbs of its word; only those limbs outlive the block.  So
the sampler holds one block's arrays plus one key per kept word, whatever
the depth and the number of samples.  A word is admissible when each
node's symbols follow that node's own transition matrix, checked step by
step during the extraction, so the n^d x n^d product matrix is never
built.  Distinct words are counted exactly over all blocks: one sort of
the keys when a word fits one limb, the distinct rows of limbs otherwise.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .geometry import EVAL_TIE_TOL, GeometryError, _product, _scatter, singular
from .network import LoopError, NetworkSpec, SpecError, _branch
from .symbolic import is_admissible

RESIDUAL_TOL = 1e-10
# Most values one entropy estimate may draw or build: samples times d +
# state_dim + d (depth - 1) columns of quasi-random draws, plus, in each
# block, the scramble permutations of every column, digits(b) x b values
# for the column in prime base b (``_digits``).  This bounds the sampler's
# work before anything is drawn; its memory is one block of samples plus
# the kept words' keys.  12 steps of 100,000 samples on a 2-node network
# draw 2.6 million values and build 73,927 in seven blocks.
MAX_SAMPLE_DRAWS = 2 ** 24
# Samples the sampler draws, constructs and extracts at a time: one block's
# arrays are all it holds besides the kept words' int64 limbs.
SAMPLE_BLOCK = 2 ** 14
# Most state values ``simulate`` may keep, (steps + 1) x state_dim.  It
# keeps the orbit twice (as stepped, then coordinate-major) and writes each
# output line as it formats it: on a 2-vCPU KVM host, 2^18 values of a 2-d
# state (theorem1_perm23, whose orbit stays bounded) peak at 48 MB RSS
# (36 MB of it the interpreter and its imports) and take 5.3 s, one
# ``step`` call per state.  So the limit bounds the time.
MAX_ORBIT_VALUES = 2 ** 18


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


def _apply(F, pts: np.ndarray, name: str) -> np.ndarray:
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
    """The first ``n`` primes: a sieve of Eratosthenes up to Rosser's bound
    n (ln n + ln ln n) on the n-th prime, for n >= 6."""
    limit = 13 if n < 6 else int(n * (math.log(n) + math.log(math.log(n)))) + 1
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve)[:n].tolist()


def _digits(base: int) -> int:
    """Digits of ``base`` a double resolves, each scrambled by its own
    permutation of ``arange(base)``, as scipy's generator does."""
    return math.ceil(54 / math.log2(base)) - 1


def _halton(n_cols: int, lo: int, hi: int, seed: int) -> Iterator[np.ndarray]:
    """Rows [lo, hi) of Owen's randomized Halton points, one column at a time.

    Yields ``n_cols`` contiguous (hi - lo,) columns in column order; column
    c holds points lo..hi-1 of the scrambled van der Corput sequence in
    the c-th prime base (``_halton_column``).  A fresh ``default_rng(seed)``
    shuffles each base's permutations just before its column is built,
    base after base as scipy does, and point n depends on n alone.  So the
    columns are rows [lo, hi) of scipy's ``qmc.Halton(d=n_cols,
    scramble=True, seed=seed).random(hi)`` bit for bit, whatever the other
    blocks, and the first k of them its first k columns, whether or not
    the later ones are ever built.  The generator keeps no reference to a
    column it has yielded.
    """
    rng = np.random.default_rng(seed)
    for base in _primes(n_cols):
        yield _halton_column(rng, base, lo, hi)


def _halton_column(rng: np.random.Generator, base: int, lo: int, hi: int) -> np.ndarray:
    """Points lo..hi-1 of the van der Corput sequence in ``base``,
    scrambled by ``rng``.

    ``rng`` shuffles one copy of ``arange(base)`` per digit that a double
    resolves, and point n is the left fold, from 0.0 and the lowest digit
    up, of perm[j][digit j of n] * base**-(j+1), in the same order and with
    the same rounding as scipy's generator.  The fold of the low m digits,
    base**m <= hi - lo, is tabulated for every remainder mod base**m (rows
    q * base**j + r of a level extend row r of the one before) and read at
    each n; each higher level j then adds one term per run of equal
    n // base**j, a single one once the block lies in one run.
    """
    # ``permuted`` shuffles the rows in order, as scipy's loop of ``shuffle``
    # calls does, and draws the same stream in one call
    perms = rng.permuted(np.repeat(np.arange(base)[None], _digits(base), axis=0), axis=1)
    rows = hi - lo
    table = np.zeros(1)
    b2r = 1.0 / base
    level = 0
    while table.size * base <= rows:
        table = (table + (perms[level] * b2r)[:, None]).ravel()
        b2r /= base
        level += 1
    size = table.size
    start = lo % size
    vals = np.tile(table, -(-(start + rows) // size))[start:start + rows]
    for perm in perms[level:]:
        first, last = lo // size, (hi - 1) // size
        if first == last:
            vals += perm[first % base] * b2r
        else:
            # run q holds the rows n with n // size == q
            edges = np.arange(first, last + 2) * size - lo
            edges[0], edges[-1] = 0, rows
            vals += np.repeat(perm[np.arange(first, last + 1) % base] * b2r,
                              edges[1:] - edges[:-1])
        size *= base
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
                        draw: Iterator[np.ndarray],
                        inverse: tuple[np.ndarray, np.ndarray, list]) -> np.ndarray:
    """The sampler's initial states, (state_dim, samples): each a final
    symbol and position drawn in the product h-sets, pulled back
    ``depth - 1`` levels through predecessors drawn at each level.

    ``inverse`` holds the inverse of the interaction's linear part, its
    offset and the nodes' inverse branches (``_inverse_branches``).
    ``draw`` yields the Halton columns, and they are read in order: the
    d final symbols (each only until its node's symbol groups exist), each
    node's block of positions, then d predecessor picks per level, each
    dropped after its level.  Every array of the pull-back is local here,
    so none of them outlives the return.
    """
    d = spec.d
    block = spec.block_dim
    a_inv, a_off, inverses = inverse

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


def _word_keys(spec: NetworkSpec, x: np.ndarray, depth: int) -> np.ndarray:
    """The words of the columns of ``x`` (state_dim, n) that survive
    ``depth`` steps and are admissible, as int64 limbs, (words, limbs).

    Forward extraction: the constructed states are ordinary initial
    states.  Only the surviving columns are kept, in column order, each
    with the int64 limbs of its word so far.  A step's product symbol is
    one mixed-radix digit in base b = prod_k count_k, appended to the last
    limb as key * b + code while the limb's bound stays at most 2**62, and
    starting a new limb past that; so the limbs depend on the depth alone,
    and equal words have equal limbs.  A word stays admissible while every
    node's step from its previous symbol is allowed by that node's own
    transition matrix, so the n^d x n^d product matrix is never built.
    Returns a (0, 0) array when no column survives.
    """
    d = spec.d
    radix = [node.count for node in spec.nodes]
    allowed = [node.transition.bits.ravel() == 1 for node in spec.nodes]
    base = math.prod(radix)
    admissible = np.ones(x.shape[1], dtype=bool)
    limbs: list[np.ndarray] = []
    key, bound = np.zeros(x.shape[1], dtype=np.int64), 1
    prev = None
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
            key = key[keep]
            limbs = [limb[keep] for limb in limbs]
            if prev is not None:
                prev = np.take(prev, keep, axis=1)
        if x.shape[1] == 0:
            return np.empty((0, 0), dtype=np.int64)
        symbols -= 1
        if prev is not None:
            for k in range(d):
                admissible &= allowed[k][prev[k] * radix[k] + symbols[k]]
        prev = symbols
        code = symbols[0]
        for k in range(1, d):
            code = code * radix[k] + symbols[k]
        if bound * base > 1 << 62:
            limbs.append(key)
            key, bound = code, base
        else:
            key, bound = key * base + code, bound * base
        if t + 1 < depth:
            x = _step_batch(spec, x)
    limbs.append(key)
    return np.stack(limbs, axis=1)[admissible]


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
    deterministic for a fixed seed.  A request whose draws and scramble
    permutations would pass ``MAX_SAMPLE_DRAWS`` values is refused with
    ``SpecError`` before anything is drawn.

    The samples run in blocks of ``SAMPLE_BLOCK``: each block draws its
    own rows of the stream (``_halton``), constructs its states and
    extracts its words (``_word_keys``), and only the words' int64 limbs
    outlive it.  Point n of the stream depends on n alone, so the estimate
    is the one of a single pass over all samples, bit for bit, and the
    sampler holds one block's arrays plus the limbs of each kept word,
    whatever the depth and the number of samples.

    States are coordinate-major, (state_dim, rows).  Each node's samples
    are handled one symbol group at a time, a group being the indices of
    its samples in order, so every sample meets the same operands as in a
    masked loop over symbols.  A group's samples choose their predecessors
    from that symbol's list and are pulled back through that symbol's
    branch.  Distinct words are counted exactly over all blocks: the
    places where adjacent sorted keys differ when a word fits one limb,
    else the distinct rows of limbs.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    if samples < 1:
        raise ValueError("need at least one sample")
    n_cols = spec.d + spec.state_dim + spec.d * (depth - 1)
    # the c-th prime exceeds c, so the permutations of the first
    # isqrt(2 MAX_SAMPLE_DRAWS) + 1 columns alone pass the limit
    bases = _primes(min(n_cols, math.isqrt(2 * MAX_SAMPLE_DRAWS) + 1))
    perms = -(-samples // SAMPLE_BLOCK) * sum(_digits(b) * b for b in bases)
    if n_cols * samples + perms > MAX_SAMPLE_DRAWS:
        raise SpecError(f"{samples} samples at depth {depth} draw {n_cols} x {samples} = "
                        f"{n_cols * samples} quasi-random values and build at least {perms} "
                        f"permutation values, above the limit of {MAX_SAMPLE_DRAWS}")
    a_lin, a_off = _interaction(spec, "entropy sampling")
    if singular(a_lin):
        raise LoopError("$.coupling.ambient: the interaction map is not invertible")
    inverse = (np.linalg.inv(a_lin), a_off, _inverse_branches(spec))

    kept = []
    for lo in range(0, samples, SAMPLE_BLOCK):
        hi = min(lo + SAMPLE_BLOCK, samples)
        draw = _halton(n_cols, lo, hi, seed)
        words = _word_keys(spec, _constructed_states(spec, depth, hi - lo, draw, inverse), depth)
        if words.size:
            kept.append(words)
    if not kept:
        raise NoInvariantSamplesError("no invariant set sampled")
    keys = np.concatenate(kept)
    del kept
    if keys.shape[1] > 1:
        return math.log(np.unique(keys, axis=0).shape[0]) / (depth - 1)
    # one limb: the places where adjacent sorted keys differ
    keys = keys.ravel()
    keys.sort()
    distinct = 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
    return math.log(distinct) / (depth - 1)
