"""h-sets, affine charts, unified families, and stretch bounds.

Everything here uses the max-norm: unit balls are boxes, the boundary of
the unstable ball is the union of the box faces.  That choice makes every
bound in this module either exact (interval endpoints, cell vertices, the
vertices of each affine face program) or conservatively certified (face
grids with an explicit Lipschitz slack).

A stretch bound needs two kinds of work.  The cell-only part depends on a
map's cells alone (``dim_in`` and every piece's ``normals`` and
``bounds``): whether the cells cover the box (exact on the line, from the
intervals of ``line_cells``), the vertices of each cell inside the unit
box, and for a face grid the first piece that holds each grid point.  The
rest evaluates the pieces' matrices and offsets against a reference.
``CellGeometry`` keeps the cell-only part keyed by cell content, so maps
that share their cells (a chart form and all its scalings ``U.scale(a)``)
share it; a checker keeps one ``CellGeometry`` for the length of one check
and passes it to every stretch function.  Called without one, those
functions compute everything afresh, as for a single query.

``affine_min_stretch`` and ``line_stretch`` take whole batches, of affine
maps and of maps on the line; ``min_stretch`` and ``max_stretch`` hand
them such a map as a batch of one.  ``form_gap`` is the one exact rule for
where two maps, or two pieces of one, differ, in every dimension.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

DET_TOL = 1e-10          # least |det| of a matrix with unit rows that counts as invertible
CONTINUITY_TOL = 1e-9    # adjacent pieces must agree on shared boundaries
EVAL_TIE_TOL = 1e-12     # within this of a boundary counts as on it
# Most constraint subsets one cell-vertex enumeration may solve.  Each takes
# about 15-20 us on a 2-vCPU x86-64 VM, so this is a few seconds: a
# 6-dimensional h-set pair (134,596 subsets) is decided, a 7-dimensional one
# (1,184,040) refused.
MAX_VERTEX_CANDIDATES = 200_000
TILE = 16                # face-grid points per free axis of one tile of ``_grid_min``
# Most rows of one sample grid or face grid, checked before it is allocated:
# 2^22 rows of 8 coordinates take 256 MiB.  A 5^9 sample grid is built, a
# 5^10 one refused; a 3-dimensional face grid may have up to 836 points per
# axis, a 4-dimensional one 80.
MAX_GRID_POINTS = 2 ** 22


class GeometryError(ValueError):
    """Invalid chart, set, or map data."""


def _as_vector(x, n: int | None = None) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise GeometryError(f"expected a vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise GeometryError(f"dimension mismatch: expected {n}, got {v.shape[0]}")
    return v


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise GeometryError(f"expected a matrix, got shape {a.shape}")
    return a


def _unit_row_det(a: np.ndarray) -> float:
    """det(a) with every row scaled to unit length, 0 for a zero row; each
    row is divided by its largest absolute entry first, so no norm overflows."""
    top = np.max(np.abs(a), axis=1, keepdims=True)
    if not np.all(top > 0):
        return 0.0
    a = a / top
    return float(np.linalg.det(a / np.linalg.norm(a, axis=1, keepdims=True)))


def singular(matrix) -> bool:
    """Whether a square matrix counts as singular: a zero row, or |det| below
    ``DET_TOL`` (or NaN) once every row is scaled to unit length, where
    Hadamard's bound makes |det| at most 1.  Scaling a row never changes
    the answer.  Every invertibility test of the package is this one."""
    return not abs(_unit_row_det(_as_matrix(matrix))) >= DET_TOL


def _require_grid(points: int, what: str) -> None:
    if points > MAX_GRID_POINTS:
        raise GeometryError(f"{what} = {points} points is above the limit of "
                            f"{MAX_GRID_POINTS} grid points")


def box_grid(dim: int, per_axis: int) -> np.ndarray:
    """Grid over the unit box [-1, 1]^dim, ``per_axis`` points per axis.

    Rows run with the last axis fastest (``itertools.product`` order);
    ``per_axis = 2`` gives the box corners.  Refused, before anything is
    allocated, above ``MAX_GRID_POINTS`` points.
    """
    _require_grid(per_axis ** dim, f"a grid of {per_axis}^{dim}")
    axis = np.linspace(-1.0, 1.0, per_axis)
    return axis[np.indices((per_axis,) * dim).reshape(dim, per_axis ** dim).T]


def _product(m: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``m @ pts`` for a coordinate-major batch ``pts`` (dim, n), with the
    bits of the row-major product ``pts.T @ m.T``.

    - One column in ``m`` (a 1-d block, a 1-d cell's normals): the
      broadcast product.  Every output is one rounded product, the same in
      any evaluation order, and BLAS's slow path for a one-column matrix
      is skipped.  Adding 0.0 turns a product of -0.0 into BLAS's +0.0,
      the sum it accumulates from zero, and changes nothing else.
    - One row (a cell with one constraint): the row-major matrix-vector
      product itself, on the points as rows.  BLAS's dot products over
      columns round differently.
    - Otherwise ``m @ pts`` through BLAS.  On the OpenBLAS kernels
      measured (SkylakeX with fused multiply-add, Prescott without) its
      products equal the row-major ones bit for bit for matrices up to 7
      columns wide, and for a single point at any width; from 8 columns
      (Prescott) or 16 (SkylakeX) a batch may differ in the last bit.
    """
    if m.shape[1] == 1:
        out = m * pts
        out += 0.0
        return out
    if m.shape[0] == 1:
        return (np.ascontiguousarray(pts.T) @ m[0])[None]
    return m @ pts


def _scatter(out: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
    """``out[:, cols] = vals``, one row at a time: several times faster than
    numpy's assignment through a column index of a 2-d array."""
    for row, v in zip(out, vals):
        row[cols] = v


@dataclass(frozen=True)
class AffineChart:
    """Invertible affine change of coordinates x -> linear @ x + offset.

    ``dim_u`` leading coordinates are unstable (expanding), the remaining
    ``dim_s`` are stable.  Rejected when ``singular(linear)``, whatever its scale.
    """

    dim_u: int
    dim_s: int
    linear: np.ndarray
    offset: np.ndarray
    inverse_linear: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.dim_u + self.dim_s
        if self.dim_u < 0 or self.dim_s < 0 or m == 0:
            raise GeometryError("chart needs nonnegative dims with u + s >= 1")
        lin = _as_matrix(self.linear)
        if lin.shape != (m, m):
            raise GeometryError(f"chart linear part must be {m}x{m}, got {lin.shape}")
        off = _as_vector(self.offset, m)
        if singular(lin):
            raise GeometryError("chart is numerically singular")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "inverse_linear", np.linalg.inv(lin))

    @property
    def dim(self) -> int:
        return self.dim_u + self.dim_s

    def apply(self, point) -> np.ndarray:
        return self.apply_batch(_as_vector(point, self.dim)[:, None])[:, 0]

    def invert(self, point) -> np.ndarray:
        return self.invert_batch(_as_vector(point, self.dim)[:, None])[:, 0]

    def apply_batch(self, pts: np.ndarray) -> np.ndarray:
        """The chart on every column of the coordinate-major batch ``pts``
        (dim, n): one row per coordinate, one column per point."""
        out = _product(self.linear, pts)
        out += self.offset[:, None]
        return out

    def invert_batch(self, pts: np.ndarray) -> np.ndarray:
        """The inverse chart on every column of ``pts`` (dim, n)."""
        return _product(self.inverse_linear, pts - self.offset[:, None])

    def lipschitz(self) -> float:
        """Operator max-norm of the linear part (max absolute row sum)."""
        return float(np.max(np.sum(np.abs(self.linear), axis=1)))

    @staticmethod
    def identity(dim_u: int, dim_s: int = 0) -> "AffineChart":
        m = dim_u + dim_s
        return AffineChart(dim_u, dim_s, np.eye(m), np.zeros(m))

    @staticmethod
    def shift_1d(b: float) -> "AffineChart":
        """One-dimensional chart x -> x + b with a full unstable direction."""
        return AffineChart(1, 0, np.array([[1.0]]), np.array([float(b)]))


@dataclass(frozen=True)
class HSet:
    """Compact set carried by an affine chart onto the unit product box.

    The physical set is chart^-1([-1,1]^u x [-1,1]^s); it is nonempty and
    compact by construction.
    """

    id: str
    chart: AffineChart

    @property
    def dim_u(self) -> int:
        return self.chart.dim_u

    @property
    def dim_s(self) -> int:
        return self.chart.dim_s

    @property
    def dim(self) -> int:
        return self.chart.dim

    def contains(self, point) -> bool:
        return bool(np.max(np.abs(self.chart.apply(point))) <= 1.0 + EVAL_TIE_TOL)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Box hull of the set: of the chart preimages of the unit-box corners."""
        v = self.chart.invert_batch(box_grid(self.dim, 2).T)
        return v.min(axis=1), v.max(axis=1)


@dataclass(frozen=True)
class CenterScale:
    """Recentering map g(x, y) = (x - p_u, (y - p_s) / r) with 0 < r <= 1."""

    p_u: np.ndarray
    p_s: np.ndarray
    r: float

    def __post_init__(self):
        object.__setattr__(self, "p_u", np.atleast_1d(np.asarray(self.p_u, dtype=float)))
        object.__setattr__(self, "p_s", np.atleast_1d(np.asarray(self.p_s, dtype=float))
                           if np.size(self.p_s) else np.zeros(0))
        object.__setattr__(self, "r", float(self.r))
        if not 0.0 < self.r <= 1.0:
            raise GeometryError(f"stable radius must satisfy 0 < r <= 1, got {self.r}")
        if not math.isfinite(1.0 / self.r):
            # a subnormal radius: the chart would scale by an infinite 1/r
            raise GeometryError(f"stable radius {self.r} has no finite reciprocal")

    @property
    def dim_u(self) -> int:
        return self.p_u.shape[0]

    @property
    def dim_s(self) -> int:
        return self.p_s.shape[0]

    def compose_chart(self, chart: AffineChart) -> AffineChart:
        """The chart g o c, mapping the member set onto the unit box."""
        if chart.dim_u != self.dim_u or chart.dim_s != self.dim_s:
            raise GeometryError("center/scale dims do not match the chart split")
        scale = np.concatenate([np.ones(self.dim_u), np.full(self.dim_s, 1.0 / self.r)])
        p = np.concatenate([self.p_u, self.p_s])
        lin = scale[:, None] * chart.linear
        off = scale * (chart.offset - p)
        return AffineChart(chart.dim_u, chart.dim_s, lin, off)


@dataclass(frozen=True)
class UnifiedSet:
    """Family of disjoint h-sets sharing one ambient chart.

    Under the shared chart the i-th member is the unit unstable ball at
    (3(i-1), 0, ..., 0) times a stable ball of radius r_i at its stable
    center.
    """

    chart: AffineChart
    members: tuple[tuple[str, CenterScale], ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple((str(i), cs) for i, cs in self.members))

    @property
    def count(self) -> int:
        return len(self.members)

    def member_chart(self, index: int) -> AffineChart:
        """Chart of member ``index`` (0-based): recentering after the shared chart."""
        _, cs = self.members[index]
        return cs.compose_chart(self.chart)


@dataclass(frozen=True)
class UnifiedValidation:
    violations: tuple[str, ...]


def unified_validate(n: UnifiedSet) -> UnifiedValidation:
    """Check the unified-family invariants; report every violated clause,
    each after the path of the ``members`` entry it is about."""
    tol = 1e-9  # centers and spacing are compared to this tolerance
    bad: list[str] = []
    d = n.count
    if d < 1:
        return UnifiedValidation(("members: member count must be >= 1",))
    u = n.chart.dim_u
    s = n.chart.dim_s
    for i, (mid, cs) in enumerate(n.members):
        where = f"members[{i}]: member {i + 1} ({mid})"
        if cs.dim_u != u or cs.dim_s != s:
            bad.append(f"{where}: split ({cs.dim_u},{cs.dim_s}) != ({u},{s})")
            continue
        want = np.zeros(u)
        want[0] = 3.0 * i
        if np.max(np.abs(cs.p_u - want)) > tol:
            bad.append(f"{where}: unstable center {cs.p_u.tolist()} "
                       f"!= (3({i + 1}-1), 0, ...) = {want.tolist()}")
        if s > 0:
            if abs(cs.p_s[0]) >= 1.0:
                bad.append(f"{where}: |stable center| = {abs(cs.p_s[0])} >= 1")
            if s > 1 and np.max(np.abs(cs.p_s[1:])) > tol:
                bad.append(f"{where}: stable center has nonzero tail")
    for i, j in itertools.combinations(range(d), 2):
        sep = np.max(np.abs(n.members[i][1].p_u - n.members[j][1].p_u))
        if sep <= 2.0 + tol:
            bad.append(f"members[{j}]: members {i + 1} and {j + 1}: unstable balls overlap "
                       f"(spacing {sep})")
    return UnifiedValidation(tuple(bad))


# ---------------------------------------------------------------------------
# piecewise-affine maps


@dataclass(frozen=True)
class AffinePiece:
    """One affine piece, active on the polytope normals @ x <= bounds."""

    matrix: np.ndarray
    offset: np.ndarray
    normals: np.ndarray
    bounds: np.ndarray

    @functools.cached_property
    def limits(self) -> np.ndarray:
        """``bounds + EVAL_TIE_TOL``: the right-hand sides every evaluation
        compares the constraint values with, computed once per piece."""
        return self.bounds + EVAL_TIE_TOL

    def contains_batch(self, pts: np.ndarray, tol: float = EVAL_TIE_TOL) -> np.ndarray:
        """Columns of the coordinate-major batch ``pts`` (dim, n) in the
        cell, to within ``tol``.

        The constraint values ``normals @ pts`` are compared one constraint
        row at a time and ANDed.
        """
        if self.normals.shape[0] == 0:
            return np.ones(pts.shape[1], dtype=bool)
        vals = _product(self.normals, pts)
        lim = self.limits if tol == EVAL_TIE_TOL else self.bounds + tol
        inside = vals[0] <= lim[0]
        for j in range(1, lim.shape[0]):
            inside &= vals[j] <= lim[j]
        return inside

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        """The affine map on every column of ``pts`` (dim_in, n)."""
        out = _product(self.matrix, pts)
        out += self.offset[:, None]
        return out


def _first_match(pieces: tuple[AffinePiece, ...], pts: np.ndarray):
    """Yield (i, hit) for every piece i that is the first to hold some
    columns of the coordinate-major batch ``pts`` (dim, n); ``hit`` marks
    those columns.

    A point on a shared boundary (within EVAL_TIE_TOL) goes to the earlier
    piece.  Raises after the last piece when some point lies in no cell.
    """
    todo = np.ones(pts.shape[1], dtype=bool)
    for i, p in enumerate(pieces):
        hit = p.contains_batch(pts)
        hit &= todo
        if hit.any():
            yield i, hit
            todo ^= hit
        if not todo.any():
            return
    raise GeometryError(f"map undefined at {int(np.count_nonzero(todo))} of "
                        f"{pts.shape[1]} points")


@dataclass(frozen=True)
class PiecewiseAffineMap:
    """Continuous map given by affine pieces on polytope cells.

    Cell interiors are pairwise disjoint and cover the (possibly unbounded)
    domain; evaluation on a shared boundary picks the first matching piece,
    which is harmless because adjacent pieces agree there to within 1e-9.
    """

    dim_in: int
    dim_out: int
    pieces: tuple[AffinePiece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise GeometryError("a piecewise-affine map needs at least one piece")
        for p in self.pieces:
            if p.matrix.shape != (self.dim_out, self.dim_in):
                raise GeometryError(f"piece matrix shape {p.matrix.shape} != "
                                    f"({self.dim_out},{self.dim_in})")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def affine(matrix, offset) -> "PiecewiseAffineMap":
        m = _as_matrix(matrix)
        o = _as_vector(offset, m.shape[0])
        piece = AffinePiece(m, o, np.zeros((0, m.shape[1])), np.zeros(0))
        return PiecewiseAffineMap(m.shape[1], m.shape[0], (piece,))

    @staticmethod
    def identity(dim: int) -> "PiecewiseAffineMap":
        return PiecewiseAffineMap.affine(np.eye(dim), np.zeros(dim))

    @staticmethod
    def from_breakpoints(breakpoints, pieces) -> "PiecewiseAffineMap":
        """1-d map from sorted breakpoints and per-interval (slope, intercept).

        len(pieces) == len(breakpoints) + 1; continuity at each breakpoint is
        required to within 1e-9.
        """
        bps = [float(b) for b in breakpoints]
        if sorted(bps) != bps:
            raise GeometryError("breakpoints must be sorted ascending")
        if len(pieces) != len(bps) + 1:
            raise GeometryError("need exactly one piece more than breakpoints")
        coeffs = [(float(a), float(c)) for a, c in pieces]
        for i, b in enumerate(bps):
            left = coeffs[i][0] * b + coeffs[i][1]
            right = coeffs[i + 1][0] * b + coeffs[i + 1][1]
            if abs(left - right) > CONTINUITY_TOL:
                raise GeometryError(f"discontinuity {abs(left - right):.3e} at "
                                    f"breakpoint {b} (pieces {i} and {i + 1})")
        out: list[AffinePiece] = []
        for i, (a, c) in enumerate(coeffs):
            normals, bounds = [], []
            if i > 0:
                normals.append([-1.0])
                bounds.append(-bps[i - 1])
            if i < len(bps):
                normals.append([1.0])
                bounds.append(bps[i])
            out.append(AffinePiece(np.array([[a]]), np.array([c]),
                                   np.array(normals).reshape(-1, 1), np.array(bounds)))
        return PiecewiseAffineMap(1, 1, tuple(out))

    # -- basic queries -------------------------------------------------------

    @property
    def is_affine(self) -> bool:
        return len(self.pieces) == 1 and self.pieces[0].normals.shape[0] == 0

    def apply(self, x) -> np.ndarray:
        """The map at the single point ``x``: ``apply_batch`` on it as one column."""
        return self.apply_batch(_as_vector(x, self.dim_in)[:, None])[:, 0]

    @functools.cached_property
    def _line_rows(self) -> tuple[tuple[tuple[float, float], ...], ...]:
        """Per piece of a map on the line, its (normal, limit) pairs as floats."""
        return tuple(tuple(zip(p.normals[:, 0].tolist(), p.limits.tolist()))
                     for p in self.pieces)

    def piece_at(self, col: np.ndarray) -> AffinePiece:
        """The first piece whose cell holds the one-column batch ``col``
        (dim_in, 1), found in a plain loop over the pieces with no mask,
        gather or scatter: ``apply_batch``'s lookup for one column, and
        the piece ``_first_match`` picks for it.  A piece holds the point
        when every constraint value is at most its limit, as in
        ``contains_batch``: on the line the one rounded product n x, in
        Python floats, which ``_product``'s broadcast rounds the same; above
        it ``_product`` itself.  A NaN coordinate lies in no cell.  Raises
        ``GeometryError`` when no cell holds the point."""
        if self.dim_in == 1:
            x = float(col[0, 0])
            for p, rows in zip(self.pieces, self._line_rows):
                for n, lim in rows:
                    if not n * x <= lim:
                        break
                else:
                    return p
        else:
            for p in self.pieces:
                if not p.normals.shape[0] or (_product(p.normals, col)[:, 0] <= p.limits).all():
                    return p
        raise GeometryError("map undefined at 1 of 1 points")

    def apply_batch(self, pts: np.ndarray) -> np.ndarray:
        """The map on every column of the coordinate-major batch ``pts``
        (dim_in, n), each column by its first matching piece; the result
        is (dim_out, n).

        A one-column ndarray, a single point, is evaluated by its piece
        (``piece_at``), with no mask, gather or scatter.  Otherwise each
        piece is applied once, to its columns gathered by index in column
        order (several times faster than by boolean mask); when one piece
        holds every column, to all of ``pts`` as one contiguous block, the
        same operands as that gather.  Products follow ``_product``, so
        every value is the row-major layout's bit for bit.
        """
        if isinstance(pts, np.ndarray) and pts.shape[1:] == (1,):
            return self.piece_at(pts).evaluate_batch(pts)
        pts = np.asarray(pts, dtype=float)
        first = self.pieces[0]
        if first.normals.shape[0] == 0:
            # the first piece holds every point
            return first.evaluate_batch(np.ascontiguousarray(pts))
        groups = [(i, np.flatnonzero(hit)) for i, hit in _first_match(self.pieces, pts)]
        if len(groups) == 1:
            return self.pieces[groups[0][0]].evaluate_batch(np.ascontiguousarray(pts))
        out = np.empty((self.dim_out, pts.shape[1]))
        for i, cols in groups:
            _scatter(out, cols, self.pieces[i].evaluate_batch(np.take(pts, cols, axis=1)))
        return out

    def lipschitz(self) -> float:
        """Max over pieces of the operator max-norm of the linear part."""
        return max(float(np.max(np.sum(np.abs(p.matrix), axis=1))) for p in self.pieces)

    # -- algebra -------------------------------------------------------------

    def scale(self, c: float) -> "PiecewiseAffineMap":
        c = float(c)
        if c == 1.0:    # scaling by 1 changes no value, and no map is ever mutated
            return self
        reps = tuple(AffinePiece(c * p.matrix, c * p.offset, p.normals, p.bounds)
                     for p in self.pieces)
        return PiecewiseAffineMap(self.dim_in, self.dim_out, reps)

    def compose_affine_inner(self, linear, offset) -> "PiecewiseAffineMap":
        """The map x -> F(linear @ x + offset); cells pull back exactly."""
        lin = _as_matrix(linear)
        off = _as_vector(offset, lin.shape[0])
        if lin.shape[0] != self.dim_in:
            raise GeometryError("inner map output dim does not match")
        reps = []
        for p in self.pieces:
            reps.append(AffinePiece(p.matrix @ lin, p.matrix @ off + p.offset,
                                    p.normals @ lin, p.bounds - p.normals @ off))
        return PiecewiseAffineMap(lin.shape[1], self.dim_out, tuple(reps))

    def in_chart(self, chart: AffineChart) -> "PiecewiseAffineMap":
        """The map on ``chart``'s coordinates, x -> F(chart^-1(x)): on the
        unit box, the map on the set the chart carries there."""
        return self.compose_affine_inner(chart.inverse_linear,
                                         -chart.inverse_linear @ chart.offset)

    def compose_affine_outer(self, linear, offset) -> "PiecewiseAffineMap":
        """The map x -> linear @ F(x) + offset."""
        lin = _as_matrix(linear)
        off = _as_vector(offset, lin.shape[0])
        if lin.shape[1] != self.dim_out:
            raise GeometryError("outer map input dim does not match")
        reps = tuple(AffinePiece(lin @ p.matrix, lin @ p.offset + off, p.normals, p.bounds)
                     for p in self.pieces)
        return PiecewiseAffineMap(self.dim_in, lin.shape[0], reps)

    def range_1d(self, lo: float = -1.0, hi: float = 1.0) -> tuple[float, float]:
        """Exact (min, max) of a scalar 1-d map over [lo, hi]: its values at
        lo, hi and the ends of each cell's interval (``line_cells``)."""
        if self.dim_in != 1 or self.dim_out != 1:
            raise GeometryError("range_1d needs a scalar map on the line")
        xs = np.unique(np.append(np.clip(line_cells(self, lo, hi), lo, hi), [lo, hi]))
        vals = self.apply_batch(xs[None])
        return float(vals.min()), float(vals.max())


def line_cells(F: PiecewiseAffineMap, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """Rows low and high of each piece's interval for the map F on the line
    (+-inf where unbounded, low > high where empty): n x <= b bounds x by
    b / n, and with n = 0 empties the piece when b < -EVAL_TIE_TOL, as
    evaluation does.  Raises ``GeometryError`` when the intervals leave
    more than EVAL_TIE_TOL of [lo, hi] uncovered."""
    ends = []
    for p in F.pieces:
        a, b = -math.inf, math.inf
        for n, c in zip(p.normals[:, 0].tolist(), p.bounds.tolist()):
            if n > 0:
                b = min(b, c / n)
            elif n < 0:
                a = max(a, c / n)
            elif c < -EVAL_TIE_TOL:
                a = math.inf
        ends.append((a, b))
    reach = lo          # covered so far, sweeping the pieces that meet [lo, hi] by start
    for a, b in [*sorted(ends), (hi, hi)]:
        if max(a, lo) <= min(b, hi):
            if a > reach + EVAL_TIE_TOL:
                raise GeometryError(f"map undefined between {reach:.6g} and {a:.6g}, "
                                    f"inside [{lo:g}, {hi:g}]")
            reach = max(reach, b)
    return np.array(ends).T


# ---------------------------------------------------------------------------
# stretch bounds


@dataclass(frozen=True)
class StretchBounds:
    """Bounds on |F - ref| over the unit box and its boundary.

    min_rel:      lower bound on min over the boundary: exact for 1-d maps,
                  the least value at the vertices of the face programs for
                  affine maps (no solver tolerance, only the rounding of
                  each vertex's solve and evaluation), grid minimum less
                  Lipschitz slack otherwise
    max_abs:      exact max over the closed box
    certified:    True for 1-d and affine maps, where min_rel is the
                  minimum itself; False when it carries grid-plus-Lipschitz
                  slack
    min_attained: smallest boundary value actually evaluated; an upper bound
                  on the true minimum, used to separate failure from
                  inconclusiveness.  On a face grid it is the minimum over
                  every grid point, bit for bit, although only the tiles
                  whose lower bound |g(c)| - sum |M| h - cushion (centre c,
                  half-widths h) lies below it are evaluated
    """

    min_rel: float
    max_abs: float
    certified: bool
    min_attained: float

    def __post_init__(self):
        if self.min_rel > self.max_abs + 1e-12:
            raise GeometryError("min stretch bound exceeds max stretch bound")


@functools.cache
def _subsets(rows: int, size: int, axes: int) -> np.ndarray:
    """The ``size``-subsets of ``rows`` rows ending in the box's faces x_i
    <= 1, then -x_i <= 1, of ``axes`` axes, less the singular ones with
    both faces of an axis."""
    subsets = np.array(list(itertools.combinations(range(rows), size)), dtype=np.intp)
    axis = np.where(subsets >= rows - 2 * axes, (subsets - rows) % axes, -1 - np.arange(size))
    return subsets[np.all(np.diff(np.sort(axis, axis=1), axis=1) != 0, axis=1)]


def _box_vertices(cells: list[tuple[np.ndarray, np.ndarray]], dim: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of each cell ``normals @ x <= bounds`` inside the unit box,
    once per constraint subset that meets there, and each one's cell, in
    cell order, from one stacked ``det``, ``solve`` and feasibility product.
    Rows 0 x <= 1 (met by every point, singular in a subset) pad the cells
    to one count before the box's faces, so each cell solves the matrices
    of its own enumeration.  Cells go in chunks of ``MAX_VERTEX_CANDIDATES``
    subsets; refused before any solve when one cell has more than that."""
    m = max((n.shape[0] for n, _ in cells), default=0)
    if (count := math.comb(m + 2 * dim, dim)) > MAX_VERTEX_CANDIDATES:
        raise GeometryError(f"{count} candidate cell vertices to enumerate, above the "
                            f"limit of {MAX_VERTEX_CANDIDATES}")
    normals, bounds = np.zeros((len(cells), m + 2 * dim, dim)), np.ones((len(cells), m + 2 * dim))
    normals[:, m:] = np.vstack([np.eye(dim), -np.eye(dim)])
    for c, (n, b) in enumerate(cells):
        normals[c, :n.shape[0]], bounds[c, :n.shape[0]] = n, b
    subsets = _subsets(m + 2 * dim, dim, dim)
    step = max(1, MAX_VERTEX_CANDIDATES // len(subsets))
    verts, owner = [np.zeros((0, dim))], [np.zeros(0, dtype=np.intp)]
    for start in range(0, len(cells), step):
        n, b = normals[start:start + step], bounds[start:start + step]
        a = n[:, subsets]
        solvable = np.abs(np.linalg.det(a)) >= 1e-12
        x = np.zeros((*solvable.shape, dim, 1))
        x[solvable] = np.linalg.solve(a[solvable], b[:, subsets][solvable][:, :, None])
        keep = solvable & np.all(n[:, None] @ x <= b[:, None, :, None] + 1e-9, axis=(2, 3))
        verts.append(x[keep][:, :, 0])
        owner.append(np.nonzero(keep)[0] + start)
    return np.concatenate(verts), np.concatenate(owner)


def _meets(F: PiecewiseAffineMap, G: PiecewiseAffineMap) -> tuple[np.ndarray, ...]:
    """The cell-only part of ``form_gap(F, G)``, from F's and G's cells
    alone.  On the line: ``x``, where x[0, i, j] and x[1, i, j] are the
    ends of the meet of F's piece i and G's piece j inside [-1, 1], and
    ``held``, the meets that are not empty (to ``EVAL_TIE_TOL``).  Above
    it: the vertices of each meet, each one's owner, an index into the
    piece pairs, and the pairs (i, j) of F's piece i and G's piece j."""
    if F.dim_in == 1:
        lo_f, hi_f = line_cells(F)
        lo_g, hi_g = (lo_f, hi_f) if G is F else line_cells(G)
        x = np.stack([np.maximum.outer(np.maximum(lo_f, -1.0), np.maximum(lo_g, -1.0)),
                      np.minimum.outer(np.minimum(hi_f, 1.0), np.minimum(hi_g, 1.0))])
        return x, x[0] <= x[1] + EVAL_TIE_TOL
    pairs = list(itertools.combinations(range(len(F.pieces)), 2) if G is F
                 else itertools.product(range(len(F.pieces)), range(len(G.pieces))))
    if not pairs:
        return np.zeros((0, F.dim_in)), np.zeros(0, dtype=np.intp), pairs
    verts, owner = _box_vertices([(np.vstack([F.pieces[i].normals, G.pieces[j].normals]),
                                   np.concatenate([F.pieces[i].bounds, G.pieces[j].bounds]))
                                  for i, j in pairs], F.dim_in)
    return verts, owner, pairs


def form_gap(F: PiecewiseAffineMap, G: PiecewiseAffineMap,
             cells: CellGeometry | None = None) -> float:
    """Largest |F - G| at the vertices of every nonempty meet inside the
    unit box of a piece of F with a piece of G (two pieces of F when G is
    F); 0 when no pieces meet.  Both are affine on a meet, so this is F's
    largest jump where two pieces meet, or for continuous F and G that
    cover the box their largest difference.  On the line: the ends of each
    meet (``line_cells``, which raises where a map leaves part of [-1, 1]
    uncovered), to ``EVAL_TIE_TOL``, in one array pass; above it, one
    ``_box_vertices`` over the meets, to its 1e-9.  The meets depend on
    the two maps' cells alone (``_meets``): above the line ``cells`` keeps
    them, so maps that share their cells take only the differences; on the
    line they cost less than the key they would be kept by."""
    with np.errstate(over="ignore", invalid="ignore"):    # an empty meet may end at inf
        meets = cells.meets(F, G) if cells is not None and F.dim_in > 1 else _meets(F, G)
        if F.dim_in == 1:
            def rows(H: PiecewiseAffineMap) -> tuple[np.ndarray, np.ndarray]:
                """H's pieces' slopes and offsets."""
                return np.array([(p.matrix[0, 0], p.offset[0]) for p in H.pieces]).T

            x, held = meets
            a, c = rows(F)
            b, e = (a, c) if G is F else rows(G)
            gaps = np.abs(a[:, None] * x + c[:, None] - (b * x + e))
            return float(gaps.max(initial=0.0, where=held))
        verts, owner, pairs = meets
        if not pairs:
            return 0.0
        diff = np.array([F.pieces[i].matrix - G.pieces[j].matrix for i, j in pairs])
        shift = np.array([F.pieces[i].offset - G.pieces[j].offset for i, j in pairs])
        gaps = (diff[owner] @ verts[:, :, None])[:, :, 0] + shift[owner]
        return float(np.abs(gaps).max(initial=0.0))


def _exact_max(F: PiecewiseAffineMap, ref: np.ndarray, vertices: list[np.ndarray]) -> float:
    """Exact max of |F - ref| over the unit box, from the cell vertices
    ``vertices[i]`` of each piece i inside the box."""
    best = None
    for p, verts in zip(F.pieces, vertices):
        if verts.shape[0] == 0:
            continue
        vals = verts @ p.matrix.T + p.offset - ref
        m = float(np.max(np.abs(vals)))
        best = m if best is None else max(best, m)
    if best is None:
        raise GeometryError("no cell of the map meets the unit box")
    return best


def face_grid_points(dim: int, resolution: int) -> int:
    """Rows of the face grid over the boundary of the unit box in ``dim``
    dimensions: 2 dim faces of resolution^(dim - 1) points."""
    return 2 * dim * resolution ** (dim - 1)


def max_face_resolution(dim: int) -> int:
    """Largest resolution whose face grid in ``dim`` >= 2 dimensions has at
    most ``MAX_GRID_POINTS`` rows."""
    n = int((MAX_GRID_POINTS / (2 * dim)) ** (1.0 / (dim - 1)))
    while face_grid_points(dim, n + 1) <= MAX_GRID_POINTS:
        n += 1
    while face_grid_points(dim, n) > MAX_GRID_POINTS:
        n -= 1
    return n


def _face_points(dim: int, resolution: int) -> np.ndarray:
    """Grid over the boundary of the unit box, resolution points per axis.

    Face (i, sign) is the grid of the other dim - 1 axes with coordinate i
    pinned to sign; faces run i-major, sign -1 before +1.  Refused, before
    anything is allocated, above ``MAX_GRID_POINTS`` points.
    """
    _require_grid(face_grid_points(dim, resolution),
                  f"a face grid of 2*{dim}*{resolution}^{dim - 1}")
    free = np.ascontiguousarray(box_grid(dim - 1, resolution))
    return np.vstack([np.insert(free, i, sign, axis=1)
                      for i in range(dim) for sign in (-1.0, 1.0)])


def face_candidates(u: int) -> int:
    """Candidate vertices of one face program of an affine map with u
    unstable directions (``affine_min_stretch``), counted without
    enumerating them: the u-subsets of its rows with k >= 1 of the 2u
    residual rows and one bound on each of u - k of the u - 1 free axes.
    Raises ``GeometryError`` above ``MAX_VERTEX_CANDIDATES`` (u >= 7)."""
    count = sum(math.comb(2 * u, k) * math.comb(u - 1, u - k) * 2 ** (u - k)
                for k in range(1, u + 1))
    if count > MAX_VERTEX_CANDIDATES:
        raise GeometryError(f"an affine map with u = {u} has {count} candidate vertices per "
                            f"face, above the limit of {MAX_VERTEX_CANDIDATES}")
    return count


def _face_minima(groups: list[list[tuple[PiecewiseAffineMap, np.ndarray]]]) -> np.ndarray:
    """The least stretch over the box boundary of each (F, ref) of
    ``groups``, shape (groups, pairs per group): every group has as many
    pairs, and all pairs of a group share one u x u matrix A.

    Face (i, sign) pins x_i to sign.  Its program in (y, t), y the other
    coordinates, has the rows (M y + c)_j <= t, then -(M y + c)_j <= t,
    then y_l <= 1 and -y_l <= 1, with M = A less column i and c =
    A[:, i] * sign + offset - ref, rounded in that order.  Its least t
    sits at a vertex, where u rows hold with equality, so every u-subset
    of the rows (``_subsets``, less the structurally singular ones) is
    solved with ``np.linalg.solve``, and each solution y in the box (to
    1e-9) is clipped to it and evaluated: max_j |M_j y + c_j|, summed in
    column order before c.  A face's least value is the minimum; the
    pair's is the least over its 2u faces.

    A subset counts as solvable when its matrix, with every column of M
    scaled by the power of two that brings its largest entry into [0.5,
    1) (a factor from 2^-1021 to 2^1021) and every row to unit length, has
    |det| of at least ``DET_TOL``: no scaling of the map or of a
    coordinate changes that decision, and the power-of-two scaling, which
    the solve keeps, changes no bit of a solution short of underflow.
    The two signs of an axis share the matrices, and so do the pairs of a
    group: each matrix is factored once, for 2 right-hand sides per pair.
    Work goes in chunks of at most ``MAX_VERTEX_CANDIDATES`` solutions,
    or one block (one group, one pinned axis).
    """
    u, pairs = groups[0][0][0].dim_in, len(groups[0])
    a = np.array([g[0][0].pieces[0].matrix for g in groups])
    offset = np.array([[F.pieces[0].offset for F, _ in g] for g in groups])
    ref = np.array([[r for _, r in g] for g in groups])
    # block (g, i): group g's programs with x_i pinned; column 2 p + k of
    # their right-hand sides is pair p's face with sign -1 (k = 0) or +1
    cols = np.array([np.delete(np.arange(u), i) for i in range(u)])
    free = np.moveaxis(a[:, :, cols], 2, 1).reshape(-1, u, u - 1)
    c = (a.transpose(0, 2, 1)[:, :, :, None, None] * np.array([-1.0, 1.0])
         + offset.transpose(0, 2, 1)[:, None, :, :, None])
    c -= ref.transpose(0, 2, 1)[:, None, :, :, None]
    c = c.reshape(free.shape[0], u, 2 * pairs)
    scale = np.ldexp(1.0, -np.clip(np.frexp(np.abs(free).max(axis=1))[1], -1021, 1021))
    bounds = np.vstack([np.eye(u - 1), -np.eye(u - 1)])
    rows = np.zeros((free.shape[0], 4 * u - 2, u))
    rows[:, :u, :-1] = free * scale[:, None]
    rows[:, u:2 * u, :-1] = -rows[:, :u, :-1]
    rows[:, :2 * u, -1] = -1.0
    normed = rows.copy()
    normed[:, :2 * u] /= np.linalg.norm(rows[:, :2 * u], axis=2, keepdims=True)
    normed[:, 2 * u:, :-1] = bounds
    rows[:, 2 * u:, :-1] = bounds * scale[:, None]
    rhs = np.concatenate([-c, c, np.ones((free.shape[0], 2 * u - 2, 2 * pairs))], axis=1)
    subsets = _subsets(4 * u - 2, u, u - 1)
    least = np.empty((free.shape[0], 2 * pairs))
    step = max(1, MAX_VERTEX_CANDIDATES // (len(subsets) * 2 * pairs))
    for start in range(0, free.shape[0], step):
        solvable = np.abs(np.linalg.det(normed[start:start + step][:, subsets])) >= DET_TOL
        # every block of a finite map has solvable subsets: one residual
        # row and u - 1 bounds have |det| = that row's unit t coefficient
        block, subset = np.nonzero(solvable)
        block += start
        picked = block[:, None], subsets[subset]
        z = np.linalg.solve(rows[picked], rhs[picked])
        # y[l]: coordinate l of every solution, (solutions, right-hand sides)
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.moveaxis(z[:, :-1], 1, 0) * scale[block].T[:, :, None]
            keep = np.all(np.abs(y) <= 1.0 + 1e-9, axis=0)
        np.clip(y, -1.0, 1.0, out=y)
        m, cj = free[block], c[block]
        top = np.zeros(y.shape[1:])
        for j in range(u):
            v = m[:, j, 0, None] * y[0]
            for k in range(1, u - 1):
                v += m[:, j, k, None] * y[k]
            v += cj[:, j]
            np.maximum(top, np.abs(v, out=v), out=top)
        top[~keep] = np.inf
        count = solvable.sum(axis=1)
        least[start:start + step] = np.minimum.reduceat(top, np.cumsum(count) - count, axis=0)
    return least.reshape(len(groups), u, pairs, 2).min(axis=(1, 3))


def affine_min_stretch(pairs: list[tuple[PiecewiseAffineMap, np.ndarray]],
                       cells: CellGeometry | None = None) -> list[StretchBounds]:
    """``min_stretch`` of every affine map F, dim_in = u >= 2, about its
    reference, for each (F, ref) in ``pairs``: the least |F(x) - ref| at
    the vertices of the face programs (``_face_minima``).  A linear
    program's optimum sits at a vertex, so that is the minimum, with no
    solver tolerance: each vertex carries the rounding of one ``solve``
    and one evaluation only.  Pairs whose maps share one matrix share its
    programs, up to ``MAX_VERTEX_CANDIDATES`` solutions per face program;
    the groups of one u and as many pairs go through one stack of ``det``
    and ``solve`` calls.  Refused before any work when a face has more than
    ``MAX_VERTEX_CANDIDATES`` candidate vertices (``face_candidates``).
    ``max_abs`` comes from the cell vertices, as in ``max_stretch``.
    """
    if not pairs:
        return []
    cells = CellGeometry() if cells is None else cells
    pairs = [(F, _as_vector(ref, F.dim_out)) for F, ref in pairs]
    runs: dict[bytes, list[list[int]]] = {}
    for n, (F, _) in enumerate(pairs):
        count = face_candidates(F.dim_in)
        shared = runs.setdefault(F.pieces[0].matrix.tobytes(), [[]])
        if 2 * count * (len(shared[-1]) + 1) > MAX_VERTEX_CANDIDATES:
            shared.append([])
        shared[-1].append(n)
    max_abs = [_exact_max(F, ref, cells.table(F).vertices) for F, ref in pairs]
    stacks: dict[tuple[int, int], list[list[int]]] = {}
    for run in itertools.chain.from_iterable(runs.values()):
        stacks.setdefault((pairs[run[0]][0].dim_in, len(run)), []).append(run)
    least = np.empty(len(pairs))
    for stack in stacks.values():
        least[np.ravel(stack)] = _face_minima([[pairs[n] for n in run] for run in stack]).ravel()
    return [StretchBounds(v, top, True, v) for v, top in zip(least.tolist(), max_abs)]


class LineStretch(NamedTuple):
    """``line_stretch``'s bounds: ``ends`` and ``min_rel`` one row per
    boundary item, ``max_abs`` one per item, the boundary items first."""

    ends: np.ndarray      # (n, 2): a F(-1) - ref and a F(1) - ref
    min_rel: np.ndarray   # the lesser |end|: the min stretch, exact
    max_abs: np.ndarray   # max |a F - ref| over [-1, 1], exact, from the cell vertices


def line_stretch(boundary, box=(), cells: CellGeometry | None = None) -> LineStretch:
    """Exact stretch bounds of scaled maps on the line, all in one array pass.

    An item (F, a, ref) stands for the map a F about the reference ref (a
    number, or a vector of one), with F scalar on the line.  Each
    ``boundary`` item gets its endpoint values a F(+-1) - ref, each from
    the first piece holding the endpoint, and its min stretch, the lesser
    of their absolute values; every item gets its max, the largest
    |a F - ref| at the vertices of F's cells inside [-1, 1]
    (``_exact_max``'s).  A value is computed as ``F.scale(a).apply_batch``
    and ``_exact_max`` compute it, so it is theirs bit for bit: fl(a M) x,
    plus 0.0, plus fl(a o), less ref.  The endpoint pieces and the
    vertices come from ``cells``, once per cell structure, since scaling
    keeps the cells.  A boundary item whose min exceeds its max raises, as
    ``StretchBounds`` does.
    """
    items = [*boundary, *box]
    if not items:
        return LineStretch(np.zeros((0, 2)), np.zeros(0), np.zeros(0))
    cells = CellGeometry() if cells is None else cells
    forms: list[PiecewiseAffineMap] = []
    slot: dict[int, int] = {}
    for F, _, _ in items:
        if id(F) not in slot:
            if F.dim_in != 1 or F.dim_out != 1:
                raise GeometryError("line_stretch needs scalar maps on the line")
            slot[id(F)] = len(forms)
            forms.append(F)
    tables = [cells.table(F) for F in forms]
    # every piece of every form, numbered form after form; ``first_piece[f]``
    # is the number of form f's first piece
    slope = np.array([p.matrix[0, 0] for F in forms for p in F.pieces])
    height = np.array([p.offset[0] for F in forms for p in F.pieces])
    first_piece = np.cumsum([0] + [len(F.pieces) for F in forms])
    form = np.array([slot[id(F)] for F, _, _ in items])
    coef = np.array([a for _, a, _ in items], dtype=float)
    ref = np.array([_as_vector(r, 1)[0] for _, _, r in items])

    n = len(boundary)
    end_piece = np.array([f + t.ends for f, t in zip(first_piece, tables)])[form[:n]]
    ends = (coef[:n, None] * slope[end_piece]) * np.array([-1.0, 1.0])
    ends += 0.0
    ends += coef[:n, None] * height[end_piece]
    ends -= ref[:n, None]
    low = np.abs(ends).min(axis=1)

    # the vertices of each item's form, item after item
    size = np.array([t.points.size for t in tables])
    count = size[form]
    start = np.cumsum(count) - count
    at = np.arange(count.sum()) + np.repeat((np.cumsum(size) - size)[form] - start, count)
    x = np.concatenate([t.points for t in tables])[at]
    owner = np.concatenate([f + t.owner for f, t in zip(first_piece, tables)])[at]
    item = np.repeat(np.arange(len(items)), count)
    vals = (coef[item] * slope[owner]) * x
    vals += 0.0
    vals += coef[item] * height[owner]
    vals -= ref[item]
    np.abs(vals, out=vals)
    top = np.maximum.reduceat(vals, start)
    if np.any(low > top[:n] + 1e-12):
        raise GeometryError("min stretch bound exceeds max stretch bound")
    return LineStretch(ends, low, top)


class _CellTable:
    """Cell-only geometry of one cell structure.

    ``vertices[i]`` are the vertices of piece i's cell inside the unit box,
    from ``_box_vertices`` when first read.  On the line, ``points`` holds
    them flat instead, with the piece ``owner`` of each: the ends of the
    piece's interval (``line_cells``) and of [-1, 1] that meet its
    constraints and the box to 1e-9; ``ends`` are the first pieces holding
    -1 and 1.
    ``face_rows(pieces, pts, tiles, resolution)`` gives, per piece, the rows
    of the face grid ``pts`` that the piece is the first to hold, sorted
    tile-major by ``tiles``, and the offsets of each tile's run among them:
    the piece's rows in tile t are ``rows[offsets[t]:offsets[t + 1]]``, so
    the tiles ``_grid_min`` keeps are contiguous slices.  Built only for a
    total map, decided by ``line_cells`` on the line and sampled on 5
    points per axis in 2 to 4 dimensions (a check's one sample), with no
    cell of more than ``MAX_VERTEX_CANDIDATES`` candidate vertices.
    """

    def __init__(self, F: PiecewiseAffineMap):
        if F.dim_in == 1:
            points = []
            for p, *ends in zip(F.pieces, *line_cells(F)):
                x = np.array([*ends, -1.0, 1.0])
                x = x[np.abs(x) <= 1.0 + 1e-9]
                points.append(np.unique(np.round(x[p.contains_batch(x[None], 1e-9)], 12)))
            self.points = np.concatenate(points)
            self.owner = np.repeat(np.arange(len(F.pieces)), [len(x) for x in points])
            self.ends = np.zeros(2, dtype=np.intp)
            for i, hit in _first_match(F.pieces, np.array([[-1.0, 1.0]])):
                self.ends[hit] = i
        else:
            count = max(math.comb(p.normals.shape[0] + 2 * F.dim_in, F.dim_in) for p in F.pieces)
            if count > MAX_VERTEX_CANDIDATES:
                raise GeometryError(f"a chart-form cell has {count} candidate vertices to "
                                    f"enumerate, above the limit of {MAX_VERTEX_CANDIDATES}")
            if F.dim_in <= 4:
                # cheap totality probe; vertex enumeration alone would silently
                # ignore an uncovered patch of the ball
                for _ in _first_match(F.pieces, box_grid(F.dim_in, 5).T):
                    pass
            self._cells, self._dim = [(p.normals, p.bounds) for p in F.pieces], F.dim_in
        self._rows: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    @functools.cached_property
    def vertices(self) -> list[np.ndarray]:
        verts, owner = _box_vertices(self._cells, self._dim)
        return [np.unique(np.round(v, 12), axis=0) for v in np.split(
            verts, np.cumsum(np.bincount(owner, minlength=len(self._cells)))[:-1])]

    def face_rows(self, pieces: tuple[AffinePiece, ...], pts: np.ndarray,
                  tiles: "_FaceTiles", resolution: int) -> list[tuple[np.ndarray, np.ndarray]]:
        if resolution not in self._rows:
            empty = np.zeros(0, dtype=np.intp)
            rows = [(empty, np.zeros(tiles.centre.shape[0] + 1, dtype=np.intp))] * len(pieces)
            everything = np.arange(tiles.centre.shape[0] + 1)
            for i, hit in _first_match(pieces, pts.T):
                held = hit[tiles.order]
                rows[i] = (tiles.order[held], np.searchsorted(tiles.tile[held], everything))
            self._rows[resolution] = rows
        return self._rows[resolution]


def _cell_key(F: PiecewiseAffineMap) -> tuple:
    """F's cell content: ``dim_in`` and every piece's ``normals`` and
    ``bounds``, byte for byte, in piece order."""
    return (F.dim_in, tuple((a.dtype.str, a.shape, a.tobytes())
                            for p in F.pieces for a in (p.normals, p.bounds)))


class CellGeometry:
    """Cell-only geometry shared by the maps that have the same cells.

    Tables are keyed by cell content: ``dim_in`` and every piece's
    ``normals`` and ``bounds``, byte for byte, in piece order.  A map and
    its scalings ``F.scale(a)`` share one table; ``compose_affine_inner``
    moves the cells and gets its own.  The meets of two maps' pieces, which
    ``form_gap`` reads, are kept per pair of cell contents.  Face grids and
    their tiles are kept per (dimension, resolution) and shared by every
    table.  Everything lives as long as the ``CellGeometry`` object: a
    spec's set-up (``network.set_up``) makes one, builds the table of every
    factor of its chart forms and keeps it on the spec, so every check of
    that spec shares it, with a face grid for each resolution it used.
    """

    def __init__(self):
        self._tables: dict = {}
        self._meets: dict = {}
        self._faces: dict[tuple[int, int], np.ndarray] = {}
        self._tiles: dict[tuple[int, int], _FaceTiles] = {}

    def table(self, F: PiecewiseAffineMap) -> _CellTable:
        key = _cell_key(F)
        if key not in self._tables:
            self._tables[key] = _CellTable(F)
        return self._tables[key]

    def meets(self, F: PiecewiseAffineMap, G: PiecewiseAffineMap) -> tuple[np.ndarray, ...]:
        """``_meets(F, G)``, kept per pair of cell structures (and whether G
        is F, which pairs each piece with the later ones only)."""
        key = (_cell_key(F), None if G is F else _cell_key(G))
        if key not in self._meets:
            self._meets[key] = _meets(F, G)
        return self._meets[key]

    def face_points(self, dim: int, resolution: int) -> np.ndarray:
        if (dim, resolution) not in self._faces:
            self._faces[dim, resolution] = _face_points(dim, resolution)
        return self._faces[dim, resolution]

    def face_tiles(self, dim: int, resolution: int) -> "_FaceTiles":
        if (dim, resolution) not in self._tiles:
            self._tiles[dim, resolution] = _FaceTiles(dim, resolution)
        return self._tiles[dim, resolution]


class _FaceTiles:
    """The face grid ``_face_points(dim, resolution)`` cut into tiles of
    ``TILE`` points per free axis (fewer in the last tile of an axis).

    Tiles run face-major like the grid, then in row-major order of their
    place on the face.  ``order`` lists the grid rows tile-major (grid order
    within a tile) and ``tile[n]`` is the tile of row ``order[n]``.  Tile t
    holds the grid points x with |x - centre[t]| <= half[t] coordinate by
    coordinate (to a relative 2^-52, see ``_tile_bounds``); ``face[t]`` is
    its face, which pins one coordinate: there ``centre`` is the sign and
    ``half`` is 0.
    """

    def __init__(self, dim: int, resolution: int):
        free, n = dim - 1, resolution
        across = -(-n // TILE)                      # tiles per free axis
        # tile of each row of one face, rows in ``box_grid`` order
        place = np.ravel_multi_index(np.indices((n,) * free).reshape(free, -1) // TILE,
                                     (across,) * free)
        first = np.argsort(place, kind="stable")
        faces = np.arange(2 * dim)[:, None]
        self.order = (first + faces * n ** free).ravel()
        self.tile = (place[first] + faces * across ** free).ravel()
        self.face = np.repeat(np.arange(2 * dim), across ** free)
        axis = np.linspace(-1.0, 1.0, n)
        lo = axis[np.arange(across) * TILE]
        hi = axis[np.minimum(np.arange(1, across + 1) * TILE, n) - 1]
        mid = (lo + hi) / 2
        reach = np.maximum(hi - mid, mid - lo)
        spot = np.indices((across,) * free).reshape(free, -1).T
        self.centre = np.vstack([np.insert(mid[spot], i, sign, axis=1)
                                 for i in range(dim) for sign in (-1.0, 1.0)])
        self.half = np.vstack([np.insert(reach[spot], i, 0.0, axis=1)
                               for i in range(dim) for _ in (-1.0, 1.0)])


def _face_min(sub: np.ndarray, piece: AffinePiece, ref: np.ndarray) -> float:
    """min over the rows of ``sub`` of max |piece(x) - ref|.

    The row max runs column by column: the same values as ``np.max(...,
    axis=1)``, without numpy's slow reduction along a short last axis.
    """
    vals = sub @ piece.matrix.T
    vals += piece.offset
    vals -= ref
    np.abs(vals, out=vals)
    row_max = vals[:, 0].copy()
    for j in range(1, vals.shape[1]):
        np.maximum(row_max, vals[:, j], out=row_max)
    return np.min(row_max)


def _tile_bounds(piece: AffinePiece, ref: np.ndarray, tiles: _FaceTiles) -> np.ndarray:
    """Per tile, a lower bound on max |piece(x) - ref| over its grid points
    x, as ``_face_min`` computes it in floating point.

    Output j is bounded by |g_j(c)| - sum_l |M_jl| h_l - cushion_j, with
    g = M x + o - ref, c the tile's centre and h its half-widths; the
    bound is the largest over j.  Rounding: with eps = 2^-53 and
    S_j = sum_l |M_jl| + |o_j| + |ref_j|, every computed g_j at a point of
    the box (the grid points and the centres, all in [-1, 1]) is a sum of
    dim + 2 terms within gamma_(dim+2) S_j of the exact value, whatever
    the summation order or fused multiply-adds; the computed half-widths
    and the sum over l err by a relative (dim + 2) eps, on a total of at
    most S_j; the two subtractions forming the bound round by at most eps
    each on values below 4 S_j.  Together that is below
    (4 dim + 16) eps S_j, and the cushion (dim + 4) (2^-49 S_j + 2^-1022)
    exceeds it with room for the rounding of S_j itself and for underflow.
    An output whose free-coordinate coefficients on the tile's face are all
    exactly 0 gets no cushion: its products with the free coordinates are
    exact zeros and the pinned one is exact, so it is the same float at the
    centre and at every point of the face, and the bound is its value.
    """
    m = piece.matrix
    g = tiles.centre @ m.T
    g += piece.offset
    g -= ref
    spread = tiles.half @ np.abs(m).T
    size = np.abs(m).sum(axis=1) + np.abs(piece.offset) + np.abs(ref)
    used = m != 0
    # moving[i, j]: output j has a nonzero coefficient off axis i
    moving = np.repeat((used.sum(axis=1) - used.T) > 0, 2, axis=0)
    cushion = np.where(moving, (m.shape[1] + 4) * (2.0 ** -49 * size + 2.0 ** -1022), 0.0)
    bound = np.abs(g) - spread - cushion[tiles.face]
    return bound.max(axis=1)


def _grid_min(pieces: tuple[AffinePiece, ...], ref: np.ndarray, pts: np.ndarray,
              tiles: _FaceTiles, parts: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """min over the face grid of max |F(x) - ref|, each row by its first
    piece: the full grid's minimum bit for bit, from the few tiles that can
    hold it.

    Every (piece, tile) gets the lower bound of ``_tile_bounds``, or inf
    where the piece holds no row of the tile.  The pair with the least
    bound is evaluated exactly, giving v*; then every pair whose bound is
    not at least v* is, and the answer is the least value found.  A
    skipped pair's rows are all at least its bound, so at least v*.
    Values come from ``_face_min`` on gathered rows: a row's value in a
    product of 2 or more rows is the one the full product gives it, so a
    gather from a piece with 2 or more rows keeps at least 2 (a 1-row
    product takes the matrix-vector path, which may round differently).
    """
    bounds = np.full((len(pieces), tiles.centre.shape[0]), np.inf)
    for k, (p, (_, offsets)) in enumerate(zip(pieces, parts)):
        held = offsets[1:] > offsets[:-1]
        if held.any():
            bounds[k, held] = _tile_bounds(p, ref, tiles)[held]

    def value(k: int, keep: np.ndarray) -> float:
        rows, offsets = parts[k]
        start, count = offsets[keep], offsets[keep + 1] - offsets[keep]
        sel = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
        if sel.size == 1 < rows.size:
            sel = np.array([sel[0], 1 if sel[0] == 0 else 0])
        return _face_min(np.take(pts, rows[sel], axis=0), pieces[k], ref)

    k, t = np.unravel_index(np.argmin(bounds), bounds.shape)
    best = value(k, np.array([t]))
    bounds[k, t] = np.inf
    for k in range(len(pieces)):
        keep = np.flatnonzero(~(bounds[k] >= best))
        if keep.size:
            best = min(best, value(k, keep))
    return float(best)


def min_stretch(F: PiecewiseAffineMap, ref, resolution: int = 64,
                cells: CellGeometry | None = None) -> StretchBounds:
    """Lower-bound min |F(x) - ref| over the boundary of the unit box.

    Exact for maps on the line: ``line_stretch`` of the one item (F, 1,
    ref), the lesser endpoint value.  For affine maps it is
    ``affine_min_stretch`` of the one pair (F, ref): the least value at the
    vertices of the 2u face programs.  Otherwise a face grid with Lipschitz
    slack, flagged certified=False.  The grid minimum is a branch and bound
    over tiles of ``TILE`` points per free axis: each (piece, tile) is
    bounded below by |g(c)| - sum_l |M_jl| h_l less a rounding cushion,
    with g = M x + o - ref at the tile's centre c and h its half-widths,
    and only the tiles whose bound is below the best value found are
    evaluated.  The result equals the minimum over the whole grid bit for
    bit (``_grid_min``).  ``cells`` holds the cell-only geometry to reuse.
    """
    ref = _as_vector(ref, F.dim_out)
    cells = CellGeometry() if cells is None else cells
    if F.dim_in == 1:
        line = line_stretch([(F, 1.0, ref)], (), cells)
        least = float(line.min_rel[0])
        return StretchBounds(least, float(line.max_abs[0]), True, least)
    if F.is_affine:
        return affine_min_stretch([(F, ref)], cells)[0]
    table = cells.table(F)
    max_abs = _exact_max(F, ref, table.vertices)
    dim = F.dim_in
    if resolution < 2:
        raise GeometryError("grid resolution must be at least 2")
    pts = cells.face_points(dim, resolution)
    tiles = cells.face_tiles(dim, resolution)
    attained = _grid_min(F.pieces, ref, pts, tiles,
                         table.face_rows(F.pieces, pts, tiles, resolution))
    spacing = 2.0 / (resolution - 1)
    slack = F.lipschitz() * spacing / 2.0
    return StretchBounds(max(attained - slack, 0.0), max_abs, False, attained)


def max_stretch(F: PiecewiseAffineMap, ref, cells: CellGeometry | None = None) -> StretchBounds:
    """Exact max |F(x) - ref| over the closed unit box (cell-vertex maximum);
    on the line, ``line_stretch`` of the one item (F, 1, ref)."""
    ref = _as_vector(ref, F.dim_out)
    cells = CellGeometry() if cells is None else cells
    if F.dim_in == 1:
        return StretchBounds(0.0, float(line_stretch((), [(F, 1.0, ref)], cells).max_abs[0]),
                             True, 0.0)
    return StretchBounds(0.0, _exact_max(F, ref, cells.table(F).vertices), True, 0.0)


def split_product(F: PiecewiseAffineMap, u: int, cells: CellGeometry | None = None
                  ) -> tuple[PiecewiseAffineMap, PiecewiseAffineMap | None]:
    """Split F(x, y) on the unit box into block components (U(x), V(y)).

    Each piece must be block diagonal, each cell constraint act on one
    block.  U and V take each piece's blocks, once per distinct piece (to 12
    decimals); U x V is then F wherever F is defined on the box exactly
    when U and V are continuous, as ``form_gap`` decides (U is F when s =
    0), with meets read from ``cells`` when given.  Raises GeometryError
    when F is not of product form or jumps.
    """
    tol = CONTINUITY_TOL
    s = F.dim_in - u
    if F.dim_out != F.dim_in:
        raise GeometryError("product split needs a square map")
    U, V = F, None
    if s:
        blocks, found = (slice(0, u), slice(u, None)), ({}, {})
        for p in F.pieces:
            if np.max(np.abs(p.matrix[:u, u:])) > tol or np.max(np.abs(p.matrix[u:, :u])) > tol:
                raise GeometryError("map mixes unstable and stable blocks")
            on = [np.any(np.abs(p.normals[:, b]) > tol, axis=1) for b in blocks]
            if np.any(on[0] & on[1]):
                raise GeometryError("cell constraint mixes the two blocks")
            for b, keep, out in zip(blocks, on, found):
                part = AffinePiece(p.matrix[b, b].copy(), p.offset[b].copy(),
                                   p.normals[keep][:, b], p.bounds[keep])
                out.setdefault(tuple(np.round(a, 12).tobytes() for a in (
                    part.matrix, part.offset, part.normals, part.bounds)), part)
        U, V = (PiecewiseAffineMap(n, n, tuple(out.values())) for n, out in zip((u, s), found))
    for H in (U,) if V is None else (U, V):
        if not (gap := form_gap(H, H, cells)) <= tol:
            raise GeometryError(f"a chart form jumps by {gap:.3e} where two of its pieces "
                                f"meet; it must be continuous")
    return U, V
