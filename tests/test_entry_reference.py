"""The masked-entry loop against the whole-entry loop it replaced.

``reference_check_entries`` (in ``entry_reference.py``) evaluates every
Kronecker entry whole, all d rows and d columns.  ``network._check_entries``
reads row k of an entry from its masked entry, the entry with every node
outside S_k = supp(a[k, :]) | {k} at choice 0, evaluates each distinct
masked entry a pass reads, and gathers every entry's rows from them.  Both
run on tables of their own from ``_prepare``, and every ``EntryTable``
column must be equal bit for bit, NaN where NaN, with the same dtype.

The networks: the checker-equivalence cases, each at its pass radius
eps* scaled by 0, 0.9 and 10; ``bench/gen.py``'s golden and permutation
rings at a passing and a failing coupling over three seeds; the bench's
box3 and box4; four supports the rings do not have: a star whose hub
row reads every node, a ring row with a zero diagonal coefficient, a node
with no neighbours, and ``per_entry`` overrides whose rows fall in
different patterns or on either side of a block seam; and complete graphs
of bench golden nodes, whose every entry is its own masked entry, over
one pass and over several.  Both loops read a cell of coefficient 0 at its
column's choice 0 (``_Tables.evaluate``); what that rests on, the same
margins, flags and degree at every choice, is checked cell by cell.
"""

import math
import tracemalloc

import numpy as np
import pytest

from cmnverify import CouplingSpec, Graph, NetworkSpec, TransitionMatrix
from cmnverify import network as nw
from entry_reference import reference_check_entries
from test_cell_geometry import _bench_box_specs, _bench_gen
from test_checker_equivalence import CASES, _check, _golden_ring, _with_overrides
from test_properties import designed_node


def _tables(spec, pert_amplitude=0.0, resolution=64):
    """Both loops' entry tables of ``spec``, each from tables of its own."""
    args = (spec, spec.coupling.kind, resolution)
    return (nw._check_entries(spec, *nw._prepare(*args), pert_amplitude),
            reference_check_entries(spec, *nw._prepare(*args), pert_amplitude))


def _assert_same_table(spec, pert_amplitude=0.0, resolution=64):
    got, want = _tables(spec, pert_amplitude, resolution)
    for name in nw.EntryTable.__dataclass_fields__:
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), name
        assert x.tobytes() == y.tobytes(), name    # signed zeros and NaNs too
    return want


def _golden_nodes(seed, d):
    rng = np.random.default_rng(seed)
    golden = TransitionMatrix([[1, 1], [1, 0]])
    return tuple(designed_node(rng, golden, float(rng.uniform(0.3, 0.6)), chr(ord("A") + k),
                               unified=True) for k in range(d))


def _coupled(a, seed=5):
    return NetworkSpec(Graph.complete(len(a)), _golden_nodes(seed, len(a)),
                       CouplingSpec("type2", np.asarray(a)))


def _ring_rows(d, alpha):
    a = (1.0 - 2.0 * alpha) * np.eye(d)
    for k in range(d):
        a[k, (k + 1) % d] += alpha
        a[k, (k - 1) % d] += alpha
    return a


def _star(d=5, alpha=0.03):
    """The hub row reads every node, each spoke only itself and the hub."""
    a = (1.0 - alpha) * np.eye(d)
    a[0, 0] = 1.0 - (d - 1) * alpha
    a[0, 1:] = a[1:, 0] = alpha
    return _coupled(a)


def _zero_diagonal(d=5, alpha=0.02):
    """A ring whose row 2 reads only its neighbours, node 1 strongly, as
    row 1 reads node 2: S_2 still holds node 2, and a pass swaps them."""
    a = _ring_rows(d, alpha)
    a[1, :3] = 0.02, 0.03, 1.1
    a[2, :4] = 0.0, 1.1, 0.0, 0.03
    return _coupled(a)


def _isolated(d=5, alpha=0.02):
    """A ring of d - 1 nodes and one node that reads and feeds nobody: S_k = {k}."""
    a = np.eye(d)
    a[:d - 1, :d - 1] = _ring_rows(d - 1, alpha)
    return _coupled(a)


def _patterned_overrides():
    """A five-node ring with three entries overridden, the first, one in the
    middle and the last, whose rows fall in different patterns."""
    spec = _golden_ring(5, 0.02, unified=True)
    entries = _check(spec).entries
    picks = [(tuple(entries.source[n].tolist()), tuple(entries.target[n].tolist()))
             for n in (0, len(entries) // 2, len(entries) - 1)]
    return _with_overrides(spec, picks)


def _star_overrides():
    """A six-node star, whose hub row reads each of its 729 entries whole,
    with entries 255 and 256 overridden on either side of the whole-entry
    loop's first block seam."""
    spec = _star(6)
    entries = _check(spec).entries
    return _with_overrides(spec, [(tuple(entries.source[n].tolist()),
                                   tuple(entries.target[n].tolist())) for n in (255, 256)])


def _complete(d, alpha):
    """Bench golden nodes coupled all to all: alpha off the diagonal, the
    rest of each unit row sum on it."""
    nodes = _bench_gen().golden_ring(np.random.default_rng(1), d, alpha).nodes
    a = np.full((d, d), alpha)
    a[np.diag_indices(d)] = 0.0
    a[np.diag_indices(d)] = 1.0 - a.sum(axis=1)
    return NetworkSpec(Graph.complete(d), nodes, CouplingSpec("type2", a))


SUPPORTS = {"star": _star, "zero_diagonal": _zero_diagonal, "isolated": _isolated,
            "patterned_overrides": _patterned_overrides, "star_overrides": _star_overrides}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cases_match_the_whole_entry_loop(name):
    spec = CASES[name]()
    report = _check(spec)
    for factor in (0.0, 0.9, 10.0):
        _assert_same_table(spec, factor * report.global_eps)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("ring, sizes, alphas", [
    ("golden_ring", range(2, 9), (0.02, 0.04)),
    ("permutation_ring", range(3, 8), (0.02, 0.06)),
])
def test_bench_rings_match_the_whole_entry_loop(ring, sizes, alphas, seed):
    make = getattr(_bench_gen(), ring)
    verdicts = set()
    for d in sizes:
        for alpha in alphas:
            table = _assert_same_table(make(np.random.default_rng(seed), d, alpha))
            verdicts |= set(table.verdict.tolist())
    assert verdicts == {"pass", "fail"}


def test_bench_boxes_match_the_whole_entry_loop():
    box3, box4 = _bench_box_specs(1)
    assert set(_assert_same_table(box3, resolution=33).verdict.tolist()) == {"inconclusive"}
    assert set(_assert_same_table(box4).verdict.tolist()) == {"pass"}


@pytest.mark.parametrize("name", sorted(SUPPORTS))
def test_supports_match_the_whole_entry_loop(name):
    spec = SUPPORTS[name]()
    report = _check(spec)
    for factor in (0.0, 0.9, 10.0):
        _assert_same_table(spec, factor * report.global_eps)


@pytest.mark.parametrize("alpha, verdicts", [(0.01, {"pass"}), (0.02, {"pass", "fail"})])
def test_complete_graph_matches_the_whole_entry_loop(alpha, verdicts):
    table = _assert_same_table(_complete(5, alpha))
    assert set(table.verdict.tolist()) == verdicts


def test_complete_graph_over_several_passes_matches_the_whole_entry_loop(monkeypatch):
    # 19,683 entries, 2,000 // 9 = 222 to a pass: 89 passes, the last short
    monkeypatch.setattr(nw, "GATHER", 2000)
    assert set(_assert_same_table(_complete(9, 0.002)).verdict.tolist()) == {"pass"}


def test_complete_graph_check_memory_is_bounded():
    # a pass takes GATHER // 9 entries, each its own masked entry: about
    # 14 MiB at the peak, where passes of GATHER entries would take 78 MiB
    spec = _complete(9, 0.002)
    nw.set_up(spec)
    tracemalloc.start()
    try:
        assert _check(spec).verdict == "pass"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("name", ["perm_ring6_overrides", "patterned_overrides",
                                  "star_overrides", "golden_ring6"])
def test_short_blocks_match_the_whole_entry_loop(name, monkeypatch):
    # seams everywhere: patterns evaluated 50 at a time, entries gathered
    # 100 at a time, overridden entries in a later block than the first
    monkeypatch.setattr(nw, "BLOCK", 50)
    monkeypatch.setattr(nw, "GATHER", 100)
    spec = {**CASES, **SUPPORTS}[name]()
    _assert_same_table(spec)


@pytest.mark.parametrize("n, columns", [(2, 70), (5, 7), (5, 40), (128, 7), (128, 20)])
def test_row_keys_tell_rows_apart(n, columns):
    # values that need every bit of their field, in one run of fields or
    # (70 binary, 40 of 3 bits, 20 of 7 bits) in several, each further run
    # renumbered with the key so far
    rng = np.random.default_rng(0)
    ids = rng.integers(0, n, (200, columns))
    ids[:50, 0] = n - 1
    ids[100:] = ids[rng.integers(0, 100, 100)]
    ids[150:, columns - 5] = (ids[150:, columns - 5] + 1) % n
    keys = nw._row_keys(ids, n)
    _, want = np.unique(ids, axis=0, return_inverse=True)
    assert (keys[:, None] == keys[None, :]).tolist() == (want[:, None] == want[None, :]).tolist()


def _bench_u3_ring():
    """A five-node ring of bench nodes with u = 3 and s = 1, whose forms
    are not declared: zero-coefficient cells of face-grid forms."""
    return _bench_gen().golden_ring(np.random.default_rng(2), 5, 0.01, u=3, s=1)


ZERO_COEFFICIENTS = {
    "golden_ring6": lambda: _golden_ring(6, 0.02, unified=True),
    "perm_ring6_overrides": CASES["perm_ring6_overrides"],
    "box4_ring5": lambda: _bench_gen().golden_ring(np.random.default_rng(1), 5, 0.01, u=3,
                                                   s=1, declared=True),
    "u3_ring5": _bench_u3_ring,
    "zero_diagonal": _zero_diagonal,
    "isolated": _isolated,
}


@pytest.mark.parametrize("name", sorted(ZERO_COEFFICIENTS))
def test_zero_coefficient_cells_do_not_depend_on_the_choice(name):
    # what reading such a cell at choice 0 only rests on: under every
    # coupling matrix, a column of coefficient 0 gives the same margins,
    # flags and degree at each choice of its node, for each choice of the
    # row's own node
    spec = ZERO_COEFFICIENTS[name]()
    tables = nw._prepare(spec, spec.coupling.kind, 33)[0]
    width = max(tables.counts)
    cells, stable, radius = [], [], []
    for i, k, m in np.argwhere(tables.zero).tolist():
        column = tables.col[m, [c % tables.counts[m] for c in range(width)]] + tables.coef[i, k, m]
        for own in range(tables.counts[k]):
            cells.append(column + tables.row_u[k, own])
            stable.append(column + tables.row_s[k, own])
            radius.append([tables.radius[k, own]])
    assert cells
    cells = np.array(cells)
    s = tables.s > 0
    rows = tables.decide(cells, np.array(stable) if s else None,
                         np.array(radius) if s else None, 0.0)
    for got in (*rows, tables.deg[cells], tables.deg_known[cells]):
        assert np.array_equal(got, np.broadcast_to(got[:, :1], got.shape))


def _bench_rings():
    gen, rng = _bench_gen(), np.random.default_rng(1)
    return gen.golden_ring(rng, 7, 0.02), gen.permutation_ring(rng, 6, 0.02)


# Entries one check hands to ``_Tables.evaluate``, in one pass each: the
# distinct masked entries, fewer than the patterns of choices over each
# support where rows share them (every row's all-zero one, each choice of
# one node alone shared by the rows that read it), plus each overridden
# entry whole.  A hub row that reads every node makes every entry its own
# masked entry.
EVALUATED = {
    "ring7": (lambda: _bench_rings()[0], 64, 127),
    "perm6": (lambda: _bench_rings()[1], 64, 109),
    "box3": (lambda: _bench_box_specs(1)[0], 33, 27),
    "box4": (lambda: _bench_box_specs(1)[1], 64, 65),
    "perm_ring6_overrides": (CASES["perm_ring6_overrides"], 64, 109 + 2),
    "patterned_overrides": (_patterned_overrides, 64, 91 + 3),
    "star": (_star, 64, 3 ** 5),
    "star_overrides": (_star_overrides, 64, 3 ** 6),
    "isolated": (_isolated, 64, 67),
}


def _cheaper_old_path(spec):
    """Rows the pattern and the whole-entry loops would evaluate, whichever
    is fewer: min(entries, sum_S prod_{m in S} w_m over the distinct
    supports), plus one per override."""
    counts = [int(np.count_nonzero(node.transition.bits)) for node in spec.nodes]
    support = (spec.coupling.matrix != 0) | np.eye(spec.d, dtype=bool)
    patterns = sum(math.prod(w for w, read in zip(counts, row) if read)
                   for row in {tuple(row) for row in support.tolist()})
    return min(math.prod(counts), patterns) + len(spec.coupling.per_entry or ())


@pytest.mark.parametrize("name", sorted(EVALUATED))
def test_evaluated_rows_are_exact(name, monkeypatch):
    make, resolution, want = EVALUATED[name]
    spec = make()
    seen = []
    evaluate = nw._Tables.evaluate

    def counted(self, i, ch, inflation):
        seen.append(len(ch))
        return evaluate(self, i, ch, inflation)
    monkeypatch.setattr(nw._Tables, "evaluate", counted)
    _check(spec, resolution=resolution)
    assert sum(seen) == want <= _cheaper_old_path(spec)
    assert max(seen) <= nw.BLOCK
