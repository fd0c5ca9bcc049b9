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
``NoInvariantSamplesError`` in exactly the same cases.  The simulate
digests were recorded before the rework too.  scipy's scrambled Halton
generator is the oracle both for the reference and for the sampler's own
``_halton``.
"""

import hashlib
import math
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
    # product radix 2 * 2 * 3 = 12: one int64 key holds 17 steps, so
    # depth 20 needs two key columns
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


def test_deep_cases_pack_several_key_columns():
    # the depth-20 cases above count words over more than one key column
    spec = OTHERS["designed2_d3_weak"]()
    base = math.prod(node.count for node in spec.nodes)
    assert base ** 17 <= 2 ** 62 < base ** 18
    assert isinstance(empirical_entropy(spec, 20, 20_000, 0), float)


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
    # forward extraction locates ever smaller batches and still agrees
    sizes = []
    locate = dy.locate_batch

    def counting(spec, states):
        sizes.append(states.shape[1])
        return locate(spec, states)

    monkeypatch.setattr(dy, "locate_batch", counting)
    spec = fixtures.example1(alpha=0.2)
    got = empirical_entropy(spec, 12, 20_000, 1)
    assert sizes[0] == 20_000 and sizes[-1] < sizes[0]
    assert sizes == sorted(sizes, reverse=True)
    monkeypatch.setattr(dy, "locate_batch", locate)
    assert got == reference_entropy(spec, 12, 20_000, 1)


# (n_cols, samples, seed): one sample; powers of 2 and of 3; counts that are
# no power of any base (777, 1000, 12345, 100000); 31, 40 and 60 columns
HALTON_CASES = [(1, 1, 0), (3, 1, 0), (60, 1, 4), (5, 64, 1), (7, 243, 5), (4, 777, 9),
                (2, 100_000, 11), (26, 100_000, 1), (31, 1000, 2), (40, 1000, 0),
                (60, 12_345, 3)]


@pytest.mark.parametrize("n_cols,samples,seed", HALTON_CASES)
def test_halton_matches_scipy(n_cols, samples, seed):
    from scipy.stats import qmc

    want = qmc.Halton(d=n_cols, scramble=True, seed=seed).random(samples)
    assert np.array_equal(dy._halton(n_cols, samples, seed), want)


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

