"""The empirical-entropy sampler and the simulate command against references.

``reference_entropy`` below is the sampler before its rework: per-symbol
mask loops for the predecessor pick, a ``(samples, depth, d)`` word array
with NaN-filled dead rows during forward extraction, and
``np.unique(..., axis=0)`` for the distinct-word count.  It runs on the
row-major iteration layer the package had before its batches became
coordinate-major: points are the rows of (n, dim) arrays, maps are applied
by a masked loop over pieces (``_reference_step``) and states are located
by a row max (``_reference_locate_batch``).  The sampler must return
exactly the same estimate (``==``, not approximately) and raise
``NoInvariantSamplesError`` in exactly the same cases, whether the
samples fill one block or several.  The simulate digests were recorded
before the rework too.  scipy's scrambled Halton generator is the oracle
both for the reference and for the sampler's own ``_halton``, whose blocks
of rows stack to scipy's points.
"""

import hashlib
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cmnverify import NoInvariantSamplesError, TransitionMatrix, empirical_entropy, fixtures
from cmnverify import dynamics as dy
from cmnverify.cli import main
from cmnverify.geometry import EVAL_TIE_TOL as TIE, GeometryError
from test_cell_geometry import _reference_apply_batch
from test_checker_equivalence import _designed, _ring
from test_network import _planar_golden_pair

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# the row-major iteration layer: every point a row of an (n, dim) array


def _chart_apply(chart, pts):
    return pts @ chart.linear.T + chart.offset


def _chart_invert(chart, pts):
    return (pts - chart.offset) @ chart.inverse_linear.T


def _reference_step(spec, states, pert=None):
    """``dynamics._step_batch`` on the rows of ``states`` (n, state_dim), as
    it was before batches became coordinate-major, with each map applied by
    the masked loop over its pieces."""
    block = spec.block_dim
    out = np.empty_like(states)
    for k, node in enumerate(spec.nodes):
        seg = states[:, k * block:(k + 1) * block]
        img = _reference_apply_batch(node.local_map, seg)
        if pert is not None and pert.amplitude:
            freq, phase = pert._params(k, block)
            img = img + pert.amplitude * np.sin(freq * seg + phase)
        out[:, k * block:(k + 1) * block] = img
    coupled = _reference_apply_batch(spec.ambient_map(), out)
    if pert is not None and pert.amplitude:
        freq, phase = pert._params(999_983, spec.state_dim)
        coupled = coupled + pert.amplitude * np.sin(freq * out + phase)
    return coupled


def _reference_locate_batch(spec, states):
    """Symbols (n, d) and tie count of the rows of ``states`` (n, state_dim),
    with each chart's max-norm taken by ``.max(axis=1)`` and the symbols
    tried from the lowest up."""
    n = states.shape[0]
    block = spec.block_dim
    symbols = np.zeros((n, spec.d), dtype=np.int64)
    ties = 0
    for k, node in enumerate(spec.nodes):
        seg = states[:, k * block:(k + 1) * block]
        found = symbols[:, k]
        for i in range(1, node.count + 1):
            ext = np.abs(_chart_apply(node.member_chart(i), seg)).max(axis=1)
            inside = ext <= 1.0 + TIE
            ties += int(np.count_nonzero(inside & (np.abs(ext - 1.0) <= TIE)))
            found[inside & (found == 0)] = i
    return symbols, ties


def reference_entropy(spec, depth: int, samples: int, seed: int = 0) -> float:
    """The sampler as it was before its rework, kept as the reference."""
    from scipy.stats import qmc

    if depth < 2:
        raise ValueError("depth must be at least 2")
    if samples < 1:
        raise ValueError("need at least one sample")

    d = spec.d
    block = spec.block_dim
    ambient = spec.coupling.ambient_map(block)
    if not ambient.is_affine:
        raise GeometryError("entropy sampling needs an affine interaction map")
    a_lin = ambient.pieces[0].matrix
    a_off = ambient.pieces[0].offset
    if abs(np.linalg.det(a_lin)) < 1e-10:
        raise GeometryError("interaction map is not invertible")
    a_inv = np.linalg.inv(a_lin)
    inverses = dy._inverse_branches(spec)

    n_cols = d + spec.state_dim + d * (depth - 1)
    halton = qmc.Halton(d=n_cols, scramble=True, seed=seed)
    draw = halton.random(samples)

    cur = np.empty((samples, d), dtype=np.int64)
    for k in range(d):
        cur[:, k] = np.minimum((draw[:, k] * spec.nodes[k].count).astype(np.int64),
                               spec.nodes[k].count - 1) + 1
    xi = 2.0 * draw[:, d:d + spec.state_dim] - 1.0
    states = np.empty((samples, spec.state_dim))
    for k in range(d):
        seg = xi[:, k * block:(k + 1) * block] * (1.0 - 1e-9)
        for i in range(1, spec.nodes[k].count + 1):
            mask = cur[:, k] == i
            if np.any(mask):
                chart = spec.nodes[k].member_chart(i)
                states[np.ix_(mask, range(k * block, (k + 1) * block))] = \
                    _chart_invert(chart, seg[mask])

    preds = [{j: spec.nodes[k].transition.predecessors(j)
              for j in range(1, spec.nodes[k].count + 1)} for k in range(d)]

    col = d + spec.state_dim
    for _ in range(depth - 1):
        prev = np.empty_like(cur)
        for k in range(d):
            usel = draw[:, col]
            col += 1
            for j in range(1, spec.nodes[k].count + 1):
                mask = cur[:, k] == j
                if not np.any(mask):
                    continue
                options = preds[k][j]
                pick = np.minimum((usel[mask] * len(options)).astype(np.int64),
                                  len(options) - 1)
                prev[mask, k] = np.asarray(options)[pick]
        pulled = (states - a_off) @ a_inv.T
        inset = 1.0 - 1e-9
        for k in range(d):
            sl = slice(k * block, (k + 1) * block)
            seg = np.empty((samples, block))
            for i in range(1, spec.nodes[k].count + 1):
                mask = prev[:, k] == i
                if not np.any(mask):
                    continue
                inv_lin, inv_off = inverses[k][i]
                back = pulled[mask, sl] @ inv_lin.T + inv_off
                chart = spec.nodes[k].member_chart(i)
                cc = np.clip(_chart_apply(chart, back), -inset, inset)
                seg[mask] = _chart_invert(chart, cc)
            states[:, sl] = seg
        cur = prev

    words = np.full((samples, depth, d), -1, dtype=np.int64)
    alive = np.ones(samples, dtype=bool)
    x = states
    for t in range(depth):
        symbols, _ = _reference_locate_batch(spec, x[alive])
        ok = np.all(symbols > 0, axis=1)
        idx = np.flatnonzero(alive)
        words[idx[ok], t] = symbols[ok]
        alive[idx[~ok]] = False
        if t + 1 < depth and np.any(alive):
            nxt = np.full_like(x, np.nan)
            nxt[alive] = _reference_step(spec, x[alive])
            x = nxt
    full = words[np.all(words.reshape(samples, -1) >= 0, axis=1)]
    if full.shape[0] == 0:
        raise NoInvariantSamplesError("no invariant set sampled")

    kron_bits = spec.nodes[0].transition.bits
    for node in spec.nodes[1:]:
        kron_bits = np.kron(kron_bits, node.transition.bits)
    kw = TransitionMatrix(kron_bits)
    radix = np.array([node.count for node in spec.nodes], dtype=np.int64)
    codes = np.zeros((full.shape[0], depth), dtype=np.int64)
    for k in range(d):
        codes = codes * radix[k] + (full[:, :, k] - 1)
    ok = np.ones(full.shape[0], dtype=bool)
    for t in range(depth - 1):
        ok &= kw.bits[codes[:, t], codes[:, t + 1]] == 1
    codes = codes[ok]
    if codes.shape[0] == 0:
        raise NoInvariantSamplesError("no invariant set sampled")
    distinct = np.unique(codes, axis=0).shape[0]
    return math.log(distinct) / (depth - 1)


def _outcome(fn, spec, depth, samples, seed):
    """The estimate, or the type and message of what was raised."""
    try:
        return fn(spec, depth, samples, seed)
    except NoInvariantSamplesError as exc:
        return (type(exc), str(exc))


FIXTURES = {
    "example1": fixtures.example1,
    "example1_alpha_0.2": lambda: fixtures.example1(alpha=0.2),
    "example1_node1": fixtures.example1_node1,
    "example2": fixtures.example2,
    "theorem1_perm23": fixtures.theorem1_perm23,
}
OTHERS = {
    # stable direction clamped on the pull-back (contraction 0.3, and an
    # expanding "stable" slope 1.1), second member with stable radius 0.8
    "planar_golden_pair": lambda: _planar_golden_pair(s_slope=0.3),
    "planar_golden_overflow": lambda: _planar_golden_pair(s_slope=1.1),
    "designed2_d3_weak": lambda: _designed(103, 3, _ring(3, 0.01), unified=True),
    "designed1_d3_weak": lambda: _designed(203, 3, _ring(3, 0.01), unified=False),
}
# specs where every sampled itinerary escapes or none is admissible
EMPTY = {
    "theorem1_perm23_weak": lambda: fixtures.theorem1_perm23(scale=0.4),
    "designed1_d2_strong": lambda: _designed(202, 2, _ring(2, 0.3), unified=False),
    "designed2_d3_strong": lambda: _designed(103, 3, _ring(3, 0.3), unified=True),
}
SMALL = ((3, 64), (6, 3000))


def _cases():
    for name in FIXTURES:
        for seed in range(4):
            for depth, samples in SMALL:
                yield name, depth, samples, seed
        yield name, 12, 100_000, 1
    for name in OTHERS:
        for seed in range(4):
            for depth, samples in SMALL + ((12, 20_000),):
                yield name, depth, samples, seed
    # product radix 2 * 2 * 3 = 12: one int64 key holds 17 steps, so at
    # depth 20 the keys are ranked
    for seed in range(2):
        yield "designed2_d3_weak", 20, 20_000, seed
    for name in EMPTY:
        for seed in (0, 1):
            for depth, samples in ((2, 1),) + SMALL:
                yield name, depth, samples, seed


SPECS = {**FIXTURES, **OTHERS, **EMPTY}


@pytest.mark.parametrize("name,depth,samples,seed", list(_cases()))
def test_estimate_matches_reference(name, depth, samples, seed):
    want = _outcome(reference_entropy, SPECS[name](), depth, samples, seed)
    got = _outcome(empirical_entropy, SPECS[name](), depth, samples, seed)
    assert got == want


def test_deep_cases_rank_their_keys(monkeypatch):
    # the depth-20 cases above outgrow one int64 key at their 18th step,
    # where the sampler starts a second limb of each word's key; the
    # distinct words are then the distinct rows of limbs
    spec = OTHERS["designed2_d3_weak"]()
    base = math.prod(node.count for node in spec.nodes)
    assert base ** 17 <= 2 ** 62 < base ** 18
    counted = []
    unique = np.unique

    def counting(values, **kwargs):
        counted.append((values.shape, kwargs))
        return unique(values, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    got = empirical_entropy(spec, 20, 20_000, 0)
    monkeypatch.undo()
    # one count, over the kept words of both blocks, two limbs each
    assert len(counted) == 1
    (words, limbs), kwargs = counted[0]
    assert limbs == 2 and 0 < words <= 20_000 and kwargs == {"axis": 0}
    assert got == reference_entropy(spec, 20, 20_000, 0)


def test_empty_cases_raise_in_both():
    # at least one size of every EMPTY spec raises, and on the same inputs
    for name, make in EMPTY.items():
        spec = make()
        with pytest.raises(NoInvariantSamplesError):
            reference_entropy(spec, 6, 3000, 1)
        with pytest.raises(NoInvariantSamplesError):
            empirical_entropy(spec, 6, 3000, 1)


def test_dead_rows_are_dropped(monkeypatch):
    # survivors fall step by step on the diffusive alpha = 0.2 network, so
    # within each block forward extraction locates ever smaller batches,
    # and the two blocks still agree with the single pass of the reference
    sizes = []
    locate = dy.locate_batch

    def counting(spec, states):
        sizes.append(states.shape[1])
        return locate(spec, states)

    monkeypatch.setattr(dy, "locate_batch", counting)
    spec = fixtures.example1(alpha=0.2)
    got = empirical_entropy(spec, 12, 20_000, 1)
    blocks = [sizes[:12], sizes[12:]]
    assert len(sizes) == 24
    assert [b[0] for b in blocks] == [dy.SAMPLE_BLOCK, 20_000 - dy.SAMPLE_BLOCK]
    for b in blocks:
        assert b == sorted(b, reverse=True) and b[-1] < b[0]
    monkeypatch.setattr(dy, "locate_batch", locate)
    assert got == reference_entropy(spec, 12, 20_000, 1)


# (n_cols, samples, seed): one sample; powers of 2 and of 3; counts that are
# no power of any base (777, 1000, 12345, 100000); 31, 40 and 60 columns
HALTON_CASES = [(1, 1, 0), (3, 1, 0), (60, 1, 4), (5, 64, 1), (7, 243, 5), (4, 777, 9),
                (2, 100_000, 11), (26, 100_000, 1), (31, 1000, 2), (40, 1000, 0),
                (60, 12_345, 3)]


def _block_starts(samples: int, rows: int) -> list[int]:
    """First rows of the blocks of ``rows`` over [0, samples): every one
    when there are at most 200, else the first 100 and 100 spread evenly up
    to the last, since each block replays every base's permutations."""
    starts = list(range(0, samples, rows))
    if len(starts) <= 200:
        return starts
    spread = np.linspace(100, len(starts) - 1, 100).astype(int)
    return starts[:100] + [starts[i] for i in spread]


@pytest.mark.parametrize("n_cols,samples,seed", HALTON_CASES)
def test_halton_matches_scipy(n_cols, samples, seed):
    from scipy.stats import qmc

    want = qmc.Halton(d=n_cols, scramble=True, seed=seed).random(samples)
    columns = list(dy._halton(n_cols, 0, samples, seed))
    assert all(c.shape == (samples,) and c.flags.c_contiguous for c in columns)
    assert np.array_equal(np.stack(columns, axis=1), want)
    # columns are built on demand: the first k alone are scipy's first k
    k = (n_cols + 1) // 2
    first = list(itertools.islice(dy._halton(n_cols, 0, samples, seed), k))
    assert np.array_equal(np.stack(first, axis=1), want[:, :k])
    # a block's rows are scipy's rows, where its bounds split every base's
    # runs of equal digits (1 and 7 rows) or only the low digits' (1000)
    for rows in (1, 7, 1000):
        for lo in _block_starts(samples, rows):
            hi = min(lo + rows, samples)
            block = np.stack(list(dy._halton(n_cols, lo, hi, seed)), axis=1)
            assert np.array_equal(block, want[lo:hi]), (rows, lo)


@pytest.mark.parametrize("name", ["example1", "planar_golden_pair"])
@pytest.mark.parametrize("samples", [dy.SAMPLE_BLOCK - 1, dy.SAMPLE_BLOCK, dy.SAMPLE_BLOCK + 1,
                                     2 * dy.SAMPLE_BLOCK + 1])
def test_estimate_across_block_boundaries(name, samples):
    # one short block, one full one, a full one and a block of one sample,
    # two full ones and one of one sample; planar_golden_pair has 2-d blocks
    spec = SPECS[name]()
    assert empirical_entropy(spec, 6, samples, 1) == reference_entropy(spec, 6, samples, 1)


def _sampler_peak(depth: int, samples: int = 20_000) -> int:
    spec = fixtures.example1()
    tracemalloc.start()
    try:
        empirical_entropy(spec, depth, samples, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_memory_does_not_grow_with_depth():
    # the sampler holds each level's Halton column only while that level
    # reads it, so 40 levels peak where 6 do; holding every column at once
    # took 6.1 MB at depth 6 and 17.3 MB at depth 40
    empirical_entropy(fixtures.example1(), 6, 1000, 1)  # fill one-time caches
    shallow, deep = _sampler_peak(6), _sampler_peak(40)
    assert deep <= 1.1 * shallow, (shallow, deep)


def test_sampler_memory_grows_by_the_kept_keys_alone():
    # past one block, each added sample costs its word's key and no more:
    # 8 bytes here, against 102 when every stage was a full-width array
    empirical_entropy(fixtures.example1(), 6, 1000, 1)  # fill one-time caches
    two, eight = _sampler_peak(6, 2 * dy.SAMPLE_BLOCK), _sampler_peak(6, 8 * dy.SAMPLE_BLOCK)
    assert eight - two <= 32 * 6 * dy.SAMPLE_BLOCK, (two, eight)


def test_example1_estimate_at_seed_1():
    assert f"{empirical_entropy(fixtures.example1(), 12, 100_000, 1):.6f}" == "0.996233"


# SHA-256 of ``simulate FIXTURE --steps 200 --seed 1``, recorded before the
# rework; the last one adds ``--pert 0.01 3`` on example1
SIMULATE_GOLDEN = {
    ("example1.json", None):
        "dace2468cbb03326010a3b2170a8ce92d230abe730c78e15b8d08909236b568f",
    ("example1_alpha_0.2.json", None):
        "ef943d789df96f80acbdc170d3199f7f7536e78fa4f66f0e4d3f542f6c149521",
    ("example1_node1.json", None):
        "db7868fcc40f07a81fdefbd09316dd778e4d4a52d36dd045ceab95e66789e4fe",
    ("example2.json", None):
        "eb5a24f683eb38dbfa4ea2084654777c7b70e4a8acb3125ca308ba16addde117",
    ("theorem1_perm23.json", None):
        "bf06b0cb497dd0a31b1ea72c0dd22466299e8a245ea6aad4e7dcc14612b02a10",
    ("example1.json", ("0.01", "3")):
        "4fb7d30b88bdee1ec36e78fc8a4732a1c1a8ff582023b76cf22f863138c65eeb",
}


@pytest.mark.parametrize("name,pert", sorted(SIMULATE_GOLDEN, key=str))
def test_simulate_golden_digest(name, pert, tmp_path):
    out = tmp_path / "traj.jsonl"
    argv = ["simulate", str(FIXDIR / name), "--steps", "200", "--seed", "1",
            "--out", str(out)]
    if pert:
        argv += ["--pert", *pert]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_GOLDEN[(name, pert)]

