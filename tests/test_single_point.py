"""Single points and states: the single-point piece lookup against the
batch lookup, bit for bit.

``PiecewiseAffineMap.apply_batch`` evaluates a one-column batch by the
piece ``piece_at`` finds in a plain loop; ``apply``, ``dynamics.step`` and
everything that steps one state go through it.  That piece, and its
value, must be the one ``geometry._first_match``, the lookup of a batch of
many points, picks for the same point, or the same error must be raised:
on every map of the fixtures, of the ``CASES`` networks of
``tests/test_checker_equivalence.py`` (among them the block-2
``_planar_golden_pair``), at random points and at points on a cell
boundary or within a few ``EVAL_TIE_TOL`` of it, where the earlier piece
wins a tie, and at NaN and infinite coordinates.
"""

import math

import numpy as np
import pytest

from cmnverify import dynamics as dy, geometry
from cmnverify.geometry import GeometryError, PiecewiseAffineMap
from test_checker_equivalence import CASES

TIE = geometry.EVAL_TIE_TOL
# offsets from a boundary: on it, inside and outside the tie tolerance
NUDGES = (0.0, 0.5 * TIE, -0.5 * TIE, TIE, -TIE, 2.0 * TIE, -2.0 * TIE)
PERTS = [None, dy.Perturbation(0.01, 3)]


def _bits(a):
    """The float64 array's bit patterns: equal bits, not just equal values
    (-0.0 and 0.0 differ here, and NaN equals itself)."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _outcome(fn):
    """A call's array, or the type and message of the error it raised."""
    try:
        return fn()
    except (GeometryError, dy.OrbitEscapeError) as exc:
        return type(exc).__name__, str(exc)


def _points(F, rng):
    """Random points of [-4.5, 4.5]^dim, one point on each cell constraint
    of F at each of NUDGES along that constraint's largest normal
    coordinate, and points with a NaN and an infinite coordinate."""
    pts = list(rng.uniform(-4.5, 4.5, size=(20, F.dim_in)))
    for p in F.pieces:
        for n, b in zip(p.normals, p.bounds):
            j = int(np.argmax(np.abs(n)))
            for nudge in NUDGES:
                x = rng.uniform(-4.5, 4.5, size=F.dim_in)
                x[j] = 0.0
                x[j] = (b - n @ x) / n[j] + nudge
                pts.append(x)
    for bad in (math.nan, math.inf):
        x = rng.uniform(-1.0, 1.0, size=F.dim_in)
        x[-1] = bad
        pts.append(x)
    return pts


def _same(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


def _matched_piece(F, col):
    """The piece ``_first_match`` picks for the one-column batch ``col``:
    ``piece_at``'s reference."""
    (i, _), = geometry._first_match(F.pieces, col)
    return F.pieces[i]


@pytest.mark.parametrize("name", sorted(CASES))
def test_apply_is_bit_equal_to_a_one_column_batch(name):
    spec = CASES[name]()
    rng = np.random.default_rng(2800)
    maps = [node.local_map for node in spec.nodes] + [spec.ambient_map()]
    with np.errstate(over="ignore", invalid="ignore"):
        for F in maps:
            for x in _points(F, rng):
                col = x[:, None]
                want = _outcome(lambda: _matched_piece(F, col))
                got = _outcome(lambda: F.piece_at(col))
                if isinstance(want, tuple):
                    assert got == want
                    assert _outcome(lambda: F.apply(x)) == want
                    continue
                assert got is want
                value = want.evaluate_batch(np.ascontiguousarray(col))
                _same(F.apply_batch(col), value)
                _same(F.apply(x), value[:, 0])


def _states(spec, rng):
    """States whose node blocks are member-chart preimages of points of
    [-1.2, 1.2]^block, and states whose node blocks all lie on or near a
    cell boundary of their local maps."""
    block = spec.block_dim
    states = []
    for _ in range(20):
        x = np.empty(spec.state_dim)
        for k, node in enumerate(spec.nodes):
            symbol = int(rng.integers(1, node.count + 1))
            x[k * block:(k + 1) * block] = \
                node.member_chart(symbol).invert(rng.uniform(-1.2, 1.2, size=block))
        states.append(x)
    near = []
    for node in spec.nodes:
        # the boundary points, or the random ones of a map with one cell
        pts = _points(node.local_map, rng)
        near.append(pts[20:-2] or pts[:20])
    for _ in range(20):
        states.append(np.concatenate([blocks[int(rng.integers(len(blocks)))]
                                      for blocks in near]))
    return states


@pytest.mark.parametrize("pert", PERTS, ids=["plain", "pert"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_step_is_bit_equal_to_a_one_column_batch(name, pert, monkeypatch):
    # the reference steps the same column with every piece looked up by
    # _first_match
    spec = CASES[name]()
    for x in _states(spec, np.random.default_rng(2801)):
        with monkeypatch.context() as m, np.errstate(over="ignore", invalid="ignore"):
            m.setattr(PiecewiseAffineMap, "piece_at", _matched_piece)
            want = _outcome(lambda: dy._step_batch(spec, x.reshape(-1, 1), pert)[:, 0])
        got = _outcome(lambda: dy.step(spec, x, pert))
        if isinstance(want, np.ndarray) and not np.isfinite(want).all():
            # past floating-point range the batch carries on, a state stops
            assert got == ("OrbitEscapeError", "the state leaves floating-point range")
        else:
            _same(got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_itinerary_and_step_power_follow_the_batch_map(name, monkeypatch):
    # the orbit of one state, stepped a column at a time through
    # _step_batch with _first_match's pieces and located in batches
    spec = CASES[name]()
    for x in _states(spec, np.random.default_rng(2802))[:6]:
        state, steps, escaped = x.reshape(-1, 1), [], None
        with monkeypatch.context() as m, np.errstate(over="ignore", invalid="ignore"):
            m.setattr(PiecewiseAffineMap, "piece_at", _matched_piece)
            for t in range(8):
                symbols = dy.locate_batch(spec, state)[:, 0]
                if np.any(symbols == 0):
                    escaped = t
                    break
                steps.append(tuple(symbols.tolist()))
                if t < 7:
                    state = _outcome(lambda: dy._step_batch(spec, state))
                    if isinstance(state, tuple):
                        break
        got = _outcome(lambda: dy.itinerary(spec, x, 8))
        if isinstance(state, tuple):
            assert got == state
            continue
        assert got.steps == tuple(steps) and got.escaped_at == escaped
        if escaped is None:
            _same(dy.step_power(spec, x, 7), state[:, 0])
