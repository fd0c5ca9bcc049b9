"""Network iteration: orbits, itineraries, periodic points, perturbations.

The network map applies every node's local map blockwise and then the
coupling.  Periodic points come from exact affine composition along a
declared symbol loop (the piecewise-affine restriction makes the closed
loop solvable in closed form); perturbed networks refine that solution by
damped fixed-point iteration.

Stepping and locating read tables built once per spec: each node keeps its
member charts in a per-symbol table filled on first use
(``NodeSystem.member_chart``), and the spec keeps its ambient interaction
map (``NetworkSpec.ambient_map``).  The empirical-entropy sampler draws
its scrambled Halton points itself (``_halton``), picks predecessors from
a padded per-node table, pulls each node's rows back one symbol group at
a time after a stable sort by symbol, and its forward extraction
keeps only the surviving rows with their sample indices, writing each
step's product symbol as one mixed-radix code; the rows that reach every
arithmetic expression are the same, in the same order, as when dead rows
were carried along.  A word is admissible when each node's symbols follow
that node's own transition matrix, checked step by step during the
extraction, so the n^d x n^d product matrix is never built.  Distinct
words are counted exactly: the code rows are sorted lexicographically
and adjacent differences counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, box_grid
from .network import NetworkSpec
from .symbolic import is_admissible

BOUNDARY_TIE_TOL = 1e-12
RESIDUAL_TOL = 1e-10


class LoopError(ValueError):
    """Symbol loop is not admissible for the transition structure."""


class NeutralCompositionError(ValueError):
    """Composed affine branch has a unit eigenvalue; no isolated fixed point."""


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

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("perturbation amplitude must be nonnegative")

    def _params(self, role: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng([int(self.seed), role])
        freq = rng.uniform(0.5, 2.5, size=dim)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=dim)
        return freq, phase

    def local_bump(self, node_index: int, pts: np.ndarray) -> np.ndarray:
        """Displacement added to node ``node_index`` (0-based) local images."""
        freq, phase = self._params(node_index, pts.shape[-1])
        return self.amplitude * np.sin(freq * pts + phase)

    def coupling_bump(self, pts: np.ndarray) -> np.ndarray:
        """Displacement added to the coupled image (full state)."""
        freq, phase = self._params(999_983, pts.shape[-1])
        return self.amplitude * np.sin(freq * pts + phase)


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


def _step_batch(spec: NetworkSpec, states: np.ndarray,
                pert: Perturbation | None = None) -> np.ndarray:
    block = spec.block_dim
    out = np.empty_like(states)
    for k, node in enumerate(spec.nodes):
        seg = states[:, k * block:(k + 1) * block]
        img = node.local_map.apply_batch(seg)
        if pert is not None and pert.amplitude:
            img = img + pert.local_bump(k, seg)
        out[:, k * block:(k + 1) * block] = img
    coupled = spec.ambient_map().apply_batch(out)
    if pert is not None and pert.amplitude:
        coupled = coupled + pert.coupling_bump(out)
    return coupled


def step(spec: NetworkSpec, x, pert: Perturbation | None = None) -> np.ndarray:
    """One application of the network map (coupling after local maps)."""
    v = np.asarray(x, dtype=float).reshape(1, -1)
    if v.shape[1] != spec.state_dim:
        raise GeometryError(f"state has dimension {v.shape[1]}, "
                            f"expected {spec.state_dim}")
    return _step_batch(spec, v, pert)[0]


# ---------------------------------------------------------------------------
# itineraries


def locate_batch(spec: NetworkSpec, states: np.ndarray) -> tuple[np.ndarray, int]:
    """Symbols (0 = escape) per node for a batch of states, plus tie count."""
    n = states.shape[0]
    block = spec.block_dim
    symbols = np.zeros((n, spec.d), dtype=np.int64)
    ties = 0
    for k, node in enumerate(spec.nodes):
        seg = states[:, k * block:(k + 1) * block]
        found = symbols[:, k]
        for i in range(1, node.count + 1):
            ext = np.abs(node.member_chart(i).apply_batch(seg)).max(axis=1)
            inside = ext <= 1.0 + BOUNDARY_TIE_TOL
            ties += int(np.count_nonzero(inside & (np.abs(ext - 1.0) <= BOUNDARY_TIE_TOL)))
            found[inside & (found == 0)] = i
    return symbols, ties


def itinerary(spec: NetworkSpec, x0, n: int) -> Itinerary:
    """Track which product h-set each of the first ``n`` states occupies.

    Stops at the first state outside every product h-set; boundary hits
    within 1e-12 count as inside and break ties toward the lower index.
    """
    if n < 1:
        raise ValueError("need at least one step")
    state = np.asarray(x0, dtype=float).reshape(1, -1)
    steps: list[tuple[int, ...]] = []
    ties = 0
    for t in range(n):
        symbols, tie = locate_batch(spec, state)
        ties += tie
        if np.any(symbols[0] == 0):
            return Itinerary(tuple(steps), t, ties)
        steps.append(tuple(int(s) for s in symbols[0]))
        if t + 1 < n:
            state = _step_batch(spec, state)
    return Itinerary(tuple(steps), None, ties)


# ---------------------------------------------------------------------------
# periodic points


def _branch(spec: NetworkSpec, k: int, symbol: int):
    """Affine piece of node k's local map on h-set ``symbol``.

    Raises when the set straddles a cell boundary; the loop would need
    subdivision before an affine branch exists.
    """
    node = spec.nodes[k]
    chart = node.member_chart(symbol)
    corners = chart.invert_batch(box_grid(node.dim, 2))
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    try:
        idx = node.local_map.single_piece_on_box(lo, hi)
    except GeometryError as exc:
        raise GeometryError(f"node {k + 1}, h-set {symbol}: {exc}") from exc
    return node.local_map.pieces[idx]


def _loop_affine(spec: NetworkSpec, loop) -> tuple[np.ndarray, np.ndarray]:
    """Compose the affine branches of the network map along the loop."""
    block = spec.block_dim
    dim = spec.state_dim
    ambient = spec.ambient_map()
    if not ambient.is_affine:
        raise GeometryError("loop composition needs an affine interaction map")
    a_lin = ambient.pieces[0].matrix
    a_off = ambient.pieces[0].offset
    lin = np.eye(dim)
    off = np.zeros(dim)
    for multi in loop:
        t_lin = np.zeros((dim, dim))
        t_off = np.zeros(dim)
        for k in range(spec.d):
            piece = _branch(spec, k, multi[k])
            sl = slice(k * block, (k + 1) * block)
            t_lin[sl, sl] = piece.matrix
            t_off[sl] = piece.offset
        step_lin = a_lin @ t_lin
        step_off = a_lin @ t_off + a_off
        lin = step_lin @ lin
        off = step_lin @ off + step_off
    return lin, off


def _interior_margin(spec: NetworkSpec, state: np.ndarray,
                     multi: tuple[int, ...]) -> float:
    block = spec.block_dim
    worst = math.inf
    for k in range(spec.d):
        chart = spec.nodes[k].member_chart(multi[k])
        ext = float(np.max(np.abs(chart.apply(state[k * block:(k + 1) * block]))))
        worst = min(worst, 1.0 - ext)
    return worst


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
    for k in range(spec.d):
        word = [multi[k] for multi in loop] + [loop[0][k]]
        if not 1 <= word[0] <= spec.nodes[k].count:
            raise LoopError(f"node {k + 1}: symbol {word[0]} out of range")
        if not is_admissible(word, spec.nodes[k].transition):
            raise LoopError(f"node {k + 1}: loop {word} is not admissible")

    lin, off = _loop_affine(spec, loop)
    system = np.eye(spec.state_dim) - lin
    if abs(np.linalg.det(system)) < 1e-10:
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
        margin = _interior_margin(spec, state, multi)
        if margin <= 0:
            raise LoopError(f"orbit leaves h-set product at step {t} "
                            f"(margin {margin:.3e})")
        margins.append(margin)
        state = step(spec, state, pert)
    residual = float(np.max(np.abs(state - z)))
    return PeriodicOrbitCertificate(z, p, residual, tuple(margins))


def step_power(spec: NetworkSpec, x, n: int,
               pert: Perturbation | None = None) -> np.ndarray:
    """Iterate the network map ``n`` times."""
    state = np.asarray(x, dtype=float).reshape(1, -1)
    for _ in range(n):
        state = _step_batch(spec, state, pert)
    return state[0]


# ---------------------------------------------------------------------------
# empirical entropy


def _inverse_branches(spec: NetworkSpec):
    """Per node and symbol: inverse of the local affine branch on that h-set."""
    inverses = []
    for k, node in enumerate(spec.nodes):
        per_symbol = {}
        for i in range(1, node.count + 1):
            piece = _branch(spec, k, i)
            det = np.linalg.det(piece.matrix)
            if abs(det) < 1e-12:
                raise GeometryError(f"node {k + 1}, h-set {i}: branch not invertible")
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


def _halton(n_cols: int, samples: int, seed: int) -> np.ndarray:
    """Owen's randomized Halton points, ``samples`` rows by ``n_cols``.

    Column c is the scrambled van der Corput sequence in the c-th prime
    base: one ``default_rng(seed)`` shuffles, base after base, one copy of
    ``arange(base)`` per digit that a double resolves, and point n sums
    perm[j][digit j of n] * base**-(j+1) from the lowest digit up.  The
    sums are built a digit level at a time (rows q * base**j + r of a
    level extend row r of the one before) in the same order and with the
    same rounding as scipy's ``qmc.Halton(d=n_cols, scramble=True,
    seed=seed).random(samples)``, so the array is identical to scipy's.
    """
    rng = np.random.default_rng(seed)
    draw = np.empty((n_cols, samples))
    for c, base in enumerate(_primes(n_cols)):
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
        draw[c] = vals
    return draw.T


def _by_symbol(symbols: np.ndarray, count: int):
    """Row order that groups ``symbols`` (values 1..count) with each group
    in row order, and the (symbol, slice of that order) of each group."""
    order = np.argsort(symbols.astype(np.min_scalar_type(count)), kind="stable")
    ends = np.cumsum(np.bincount(symbols, minlength=count + 1))
    return order, [(i, slice(ends[i - 1], ends[i]))
                   for i in range(1, count + 1) if ends[i] > ends[i - 1]]


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
    deterministic for a fixed seed.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    if samples < 1:
        raise ValueError("need at least one sample")

    d = spec.d
    block = spec.block_dim
    ambient = spec.ambient_map()
    if not ambient.is_affine:
        raise GeometryError("entropy sampling needs an affine interaction map")
    a_lin = ambient.pieces[0].matrix
    a_off = ambient.pieces[0].offset
    if abs(np.linalg.det(a_lin)) < 1e-10:
        raise GeometryError("interaction map is not invertible")
    a_inv = np.linalg.inv(a_lin)
    inverses = _inverse_branches(spec)

    n_cols = d + spec.state_dim + d * (depth - 1)
    draw = _halton(n_cols, samples, seed)

    # final symbols, then positions inside the final product h-set
    cur = np.empty((samples, d), dtype=np.int64)
    for k in range(d):
        cur[:, k] = np.minimum((draw[:, k] * spec.nodes[k].count).astype(np.int64),
                               spec.nodes[k].count - 1) + 1
    xi = 2.0 * draw[:, d:d + spec.state_dim] - 1.0
    states = np.empty((samples, spec.state_dim))
    for k, node in enumerate(spec.nodes):
        sl = slice(k * block, (k + 1) * block)
        order, groups = _by_symbol(cur[:, k], node.count)
        seg = xi[order, sl] * (1.0 - 1e-9)
        for i, rows in groups:
            seg[rows] = node.member_chart(i).invert_batch(seg[rows])
        states[order, sl] = seg

    # per node: predecessors of symbol j in row j - 1, padded with zeros
    # past pred_len[j - 1] (every symbol has at least one predecessor)
    pred_rows, pred_len = [], []
    for node in spec.nodes:
        bits = node.transition.bits
        pred_len.append(bits.sum(axis=0))
        table = np.zeros((node.count, int(pred_len[-1].max())), dtype=np.int64)
        for j in range(node.count):
            options = np.flatnonzero(bits[:, j]) + 1
            table[j, :options.size] = options
        pred_rows.append(table)

    col = d + spec.state_dim
    for _ in range(depth - 1):
        prev = np.empty_like(cur)
        for k in range(d):
            row = cur[:, k] - 1
            count = pred_len[k][row]
            pick = np.minimum((draw[:, col] * count).astype(np.int64), count - 1)
            prev[:, k] = pred_rows[k][row, pick]
            col += 1
        pulled = (states - a_off) @ a_inv.T
        inset = 1.0 - 1e-9
        for k, node in enumerate(spec.nodes):
            sl = slice(k * block, (k + 1) * block)
            # each symbol's rows form one contiguous block of ``seg``, in
            # sample order: the same operands, row by row, as a boolean mask
            order, groups = _by_symbol(prev[:, k], node.count)
            seg = pulled[order, sl]
            for i, rows in groups:
                inv_lin, inv_off = inverses[k][i]
                back = seg[rows] @ inv_lin.T + inv_off
                # keep pulled-back states inside the source set: a no-op for
                # expanding branches, a boundary snap where the dynamics
                # contracts (forward extraction re-derives the actual word)
                chart = node.member_chart(i)
                cc = np.clip(chart.apply_batch(back), -inset, inset)
                seg[rows] = chart.invert_batch(cc)
            states[order, sl] = seg
        cur = prev

    # forward extraction: the constructed states are ordinary initial states.
    # Only the surviving rows are kept (``rows`` holds their sample indices),
    # and each step writes the mixed-radix code of its product symbol.  A
    # row's word stays ``admissible`` while every node's step from its
    # previous symbol is allowed by that node's own transition matrix.
    radix = [node.count for node in spec.nodes]
    allowed = [node.transition.bits.ravel() == 1 for node in spec.nodes]
    codes = np.empty((samples, depth), dtype=np.int64)
    rows = np.arange(samples)
    admissible = np.ones(samples, dtype=bool)
    prev = None
    x = states
    for t in range(depth):
        symbols, _ = locate_batch(spec, x)
        ok = np.all(symbols > 0, axis=1)
        if not ok.all():
            rows, x, symbols, admissible = rows[ok], x[ok], symbols[ok], admissible[ok]
            if prev is not None:
                prev = prev[ok]
        if rows.size == 0:
            raise NoInvariantSamplesError("no invariant set sampled")
        symbols = symbols - 1
        if prev is not None:
            for k in range(d):
                admissible &= allowed[k][prev[:, k] * radix[k] + symbols[:, k]]
        prev = symbols
        code = symbols[:, 0]
        for k in range(1, d):
            code = code * radix[k] + symbols[:, k]
        codes[rows, t] = code
        if t + 1 < depth:
            x = _step_batch(spec, x)
    codes = codes[rows[admissible]]
    if codes.shape[0] == 0:
        raise NoInvariantSamplesError("no invariant set sampled")
    # distinct rows, exactly: sort lexicographically (column 0 the primary
    # key) and count the places where adjacent rows differ
    codes = codes[np.lexsort(codes.T[::-1])]
    distinct = 1 + int(np.count_nonzero(np.any(codes[1:] != codes[:-1], axis=1)))
    return math.log(distinct) / (depth - 1)
