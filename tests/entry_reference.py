"""The checkers' entry loop as it was before it evaluated row patterns,
kept as the oracle for ``network._check_entries``.

``reference_check_entries`` evaluates every Kronecker entry whole, in
numpy blocks of ``BLOCK`` entries: all d rows and d columns of each, under
its own ``per_entry`` matrix or the shared one, with one ``tau_search``
per distinct feasibility matrix through a dict keyed by its bytes.  The
row-pattern loop must fill every ``EntryTable`` column with the same
values, bit for bit, and the same dtypes.  ``_perm_sign`` is the
checker's sign of a stack of permutations, as it was then.
"""

from __future__ import annotations

import math

import numpy as np

from cmnverify.network import (EntryTable, NetworkSpec, _Margins, _Tables, _verdict,
                               persistence_bound, tau_search)

BLOCK = 256  # entries per vectorized block; bounds the (entries, d, d) tensors


def _perm_sign(tau) -> np.ndarray:
    """Sign of each permutation tau[..., :] (1-based images): (-1) ** (number of inversions)."""
    tau = np.asarray(tau)
    return 1 - 2 * (np.triu(tau[..., :, None] > tau[..., None, :]).sum(axis=(-2, -1)) % 2)


def reference_check_entries(spec: NetworkSpec, tables: _Tables, own: dict[int, np.ndarray],
                   chart_lip: float, pert_amplitude: float) -> EntryTable:
    """Evaluate the coupled row inequalities for every nonzero Kronecker entry.

    An entry picks one choice per node; entries run in ``itertools.product``
    order over the choices, and are evaluated in numpy blocks of ``BLOCK``,
    each entry under its own ``per_entry`` matrix (``own``, which ``tables``
    lists in order after the shared one) or the shared one.
    ``tau_search`` runs once per distinct feasibility matrix; each block
    fills its rows of the table's columns, and its passing entries must
    have positive margins and a nonzero degree.
    """
    d, u = spec.d, spec.nodes[0].dim_u
    coupling_lip = spec.coupling.lipschitz()
    inflation = pert_amplitude * chart_lip * (1.0 + coupling_lip)
    total = math.prod(tables.counts)
    nodes = np.arange(d)
    # the coupling matrix of each entry: 0 the shared one, n the n-th override
    matrix_of = np.zeros(total, dtype=int)
    matrix_of[list(own)] = np.arange(1, len(own) + 1)
    choice = np.stack(np.unravel_index(np.arange(total), tables.counts), axis=1)
    sources, targets = (np.array([[getattr(ch, attr) for ch in node] for node in tables.grid])
                        for attr in ("source", "target"))
    table = EntryTable(sources[nodes, choice], targets[nodes, choice],
                       np.empty(total, dtype="<U12"), np.empty(total),
                       np.zeros((total, d), dtype=int), np.zeros(total, dtype=int),
                       *np.full((3, total), math.nan))
    taus: dict = {}

    def tau_for(feasibility: np.ndarray) -> tuple[int, ...] | None:
        key = feasibility.tobytes()
        if key not in taus:
            taus[key] = tau_search(feasibility)
        return taus[key]

    for start in range(0, total, BLOCK):
        block = slice(start, min(start + BLOCK, total))
        rows, cells = tables.evaluate(matrix_of[block], choice[block], inflation)
        found = [tau_for(f) for f in rows.feas_sure]
        table.verdict[block] = [_verdict(tau is not None, tau is None and tau_for(f) is not None)
                                for tau, f in zip(found, rows.feas_maybe)]
        table.slack[block] = np.min(np.max(rows.slack, axis=2), axis=1)
        pe = np.flatnonzero(table.verdict[block] == "pass")[:, None]
        cols = np.array([tau for tau in found if tau is not None], dtype=int).reshape(-1, d) - 1
        unstable = rows.margin_lo[pe, nodes, cols].min(axis=1)
        stable = rows.margin_s[pe, nodes, cols].min(axis=1)
        degree = _perm_sign(cols + 1) ** u * np.prod(tables.deg[cells[pe, nodes, cols]], axis=1)
        if not (np.all(unstable > 0) and np.all(stable > 0)):
            raise ValueError("certificate margins must be strictly positive")
        if np.any(degree == 0):
            raise ValueError("certificate degree must be nonzero")
        at = start + pe[:, 0]
        radius = tables.radius[nodes, choice[at]].min(axis=1)
        table.slack[at] = np.minimum(unstable, stable) - inflation
        table.tau[at], table.degree[at] = cols + 1, degree
        table.unstable_margin[at], table.stable_margin[at] = unstable, stable
        table.admissible_eps[at] = [
            persistence_bound(_Margins(*margins), chart_lip, coupling_lip)
            for margins in zip(unstable.tolist(), stable.tolist(), radius.tolist())]
    return table
