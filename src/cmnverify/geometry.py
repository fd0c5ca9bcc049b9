"""h-sets, affine charts, unified families, and stretch bounds.

Everything here uses the max-norm: unit balls are boxes, the boundary of
the unstable ball is the union of the box faces.  That choice makes every
bound in this module either exact (interval endpoints, cell vertices),
a HiGHS linear-program optimum in floating point (affine face minima, not
one-sided), or conservatively certified (face grids with an explicit
Lipschitz slack).

A stretch bound needs two kinds of work.  The cell-only part depends on a
map's cells alone (``dim_in`` and every piece's ``normals`` and
``bounds``): the totality probe, the vertices of each cell inside the unit
box, and for a face grid the first piece that holds each grid point.  The
rest evaluates the pieces' matrices and offsets against a reference.
``CellGeometry`` keeps the cell-only part keyed by cell content, so maps
that share their cells (a chart form and all its scalings ``U.scale(a)``)
share it; a checker keeps one ``CellGeometry`` for the length of one check
and passes it to ``min_stretch`` and ``max_stretch``.  Called without one,
those functions compute everything afresh, as for a single query.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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
        p = _as_vector(point, self.dim)
        return self.linear @ p + self.offset

    def invert(self, point) -> np.ndarray:
        p = _as_vector(point, self.dim)
        return self.inverse_linear @ (p - self.offset)

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

    def vertices(self) -> np.ndarray:
        """Physical vertices: chart preimages of the unit-box corners."""
        return self.chart.invert_batch(box_grid(self.dim, 2).T).T

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        v = self.vertices()
        return v.min(axis=0), v.max(axis=0)


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
    """Check the unified-family invariants; report every violated clause."""
    tol = 1e-9  # centers and spacing are compared to this tolerance
    bad: list[str] = []
    d = n.count
    if d < 1:
        return UnifiedValidation(("member count must be >= 1",))
    u = n.chart.dim_u
    s = n.chart.dim_s
    for i, (mid, cs) in enumerate(n.members):
        if cs.dim_u != u or cs.dim_s != s:
            bad.append(f"member {i + 1} ({mid}): split ({cs.dim_u},{cs.dim_s}) != ({u},{s})")
            continue
        want = np.zeros(u)
        want[0] = 3.0 * i
        if np.max(np.abs(cs.p_u - want)) > tol:
            bad.append(f"member {i + 1} ({mid}): unstable center {cs.p_u.tolist()} "
                       f"!= (3({i + 1}-1), 0, ...) = {want.tolist()}")
        if s > 0:
            if abs(cs.p_s[0]) >= 1.0:
                bad.append(f"member {i + 1} ({mid}): |stable center| = {abs(cs.p_s[0])} >= 1")
            if s > 1 and np.max(np.abs(cs.p_s[1:])) > tol:
                bad.append(f"member {i + 1} ({mid}): stable center has nonzero tail")
    for i, j in itertools.combinations(range(d), 2):
        sep = np.max(np.abs(n.members[i][1].p_u - n.members[j][1].p_u))
        if sep <= 2.0 + tol:
            bad.append(f"members {i + 1} and {j + 1}: unstable balls overlap (spacing {sep})")
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

    def contains(self, x: np.ndarray) -> bool:
        if self.normals.shape[0] == 0:
            return True
        return bool(np.all(self.normals @ x <= self.bounds + EVAL_TIE_TOL))

    def contains_batch(self, pts: np.ndarray, tol: float = EVAL_TIE_TOL) -> np.ndarray:
        """Columns of the coordinate-major batch ``pts`` (dim, n) in the
        cell, to within ``tol``.

        The constraint values ``normals @ pts`` are compared one constraint
        row at a time and ANDed.
        """
        if self.normals.shape[0] == 0:
            return np.ones(pts.shape[1], dtype=bool)
        vals = _product(self.normals, pts)
        lim = self.bounds + tol
        inside = vals[0] <= lim[0]
        for j in range(1, lim.shape[0]):
            inside &= vals[j] <= lim[j]
        return inside

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x + self.offset

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

    def piece_index_at(self, x) -> int:
        v = _as_vector(x, self.dim_in)
        for i, p in enumerate(self.pieces):
            if p.contains(v):
                return i
        raise GeometryError(f"map is undefined at {v.tolist()}")

    def apply(self, x) -> np.ndarray:
        v = _as_vector(x, self.dim_in)
        return self.pieces[self.piece_index_at(v)].evaluate(v)

    def apply_batch(self, pts: np.ndarray) -> np.ndarray:
        """The map on every column of the coordinate-major batch ``pts``
        (dim_in, n), each column by its first matching piece; the result
        is (dim_out, n).

        Each piece is applied once, to its columns gathered by index in
        column order (several times faster than by boolean mask); when one
        piece holds every column, to all of ``pts`` as one contiguous
        block, the same operands as that gather.  Products follow
        ``_product``, so every value is the row-major layout's bit for bit.
        """
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

    def compose_affine_outer(self, linear, offset) -> "PiecewiseAffineMap":
        """The map x -> linear @ F(x) + offset."""
        lin = _as_matrix(linear)
        off = _as_vector(offset, lin.shape[0])
        if lin.shape[1] != self.dim_out:
            raise GeometryError("outer map input dim does not match")
        reps = tuple(AffinePiece(lin @ p.matrix, lin @ p.offset + off, p.normals, p.bounds)
                     for p in self.pieces)
        return PiecewiseAffineMap(self.dim_in, lin.shape[0], reps)

    def single_piece_on_box(self, lo, hi) -> int:
        """Index of the unique piece whose cell contains the whole box [lo, hi].

        Raises if the box straddles a cell boundary (the map is not affine
        there), which callers treat as a subdivision error.
        """
        lo = _as_vector(lo, self.dim_in)
        hi = _as_vector(hi, self.dim_in)
        corners = np.where(box_grid(self.dim_in, 2) > 0, hi, lo).T
        for i, p in enumerate(self.pieces):
            if bool(np.all(p.contains_batch(corners, tol=1e-9))):
                return i
        raise GeometryError("box is not contained in a single affine piece")

    def range_1d(self, lo: float = -1.0, hi: float = 1.0) -> tuple[float, float]:
        """Exact (min, max) of a scalar 1-d map over [lo, hi]."""
        if self.dim_in != 1 or self.dim_out != 1:
            raise GeometryError("range_1d needs a scalar map on the line")
        xs = {lo, hi}
        for p in self.pieces:
            for n, b in zip(p.normals[:, 0], p.bounds):
                if abs(n) > 0:
                    t = b / n
                    if lo < t < hi:
                        xs.add(t)
        vals = [float(self.apply([t])[0]) for t in sorted(xs)]
        return min(vals), max(vals)


# ---------------------------------------------------------------------------
# stretch bounds


@dataclass(frozen=True)
class StretchBounds:
    """Bounds on |F - ref| over the unit box and its boundary.

    min_rel:      lower bound on min over the boundary: exact for 1-d maps,
                  HiGHS's floating-point LP optimum for affine maps (not
                  one-sided), grid minimum less Lipschitz slack otherwise
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


def vertex_candidates(piece: AffinePiece, dim: int) -> int:
    """How many constraint subsets ``_piece_box_vertices`` solves for
    ``piece``: C(n, dim) over the cell's constraints and the 2 dim faces of
    the unit box."""
    return math.comb(piece.normals.shape[0] + 2 * dim, dim)


def _piece_box_vertices(piece: AffinePiece, dim: int) -> np.ndarray:
    """Vertices of (cell of ``piece``) intersected with the unit box.

    Refused, before any solve, when there are more than
    ``MAX_VERTEX_CANDIDATES`` constraint subsets to try.
    """
    count = vertex_candidates(piece, dim)
    if count > MAX_VERTEX_CANDIDATES:
        raise GeometryError(f"{count} candidate cell vertices to enumerate, above the "
                            f"limit of {MAX_VERTEX_CANDIDATES}")
    normals = np.vstack([piece.normals, np.eye(dim), -np.eye(dim)])
    bounds = np.concatenate([piece.bounds, np.ones(2 * dim)])
    n = normals.shape[0]
    verts = []
    for combo in itertools.combinations(range(n), dim):
        a = normals[list(combo)]
        b = bounds[list(combo)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if np.all(normals @ x <= bounds + 1e-9):
            verts.append(x)
    if not verts:
        return np.zeros((0, dim))
    return np.unique(np.round(np.asarray(verts), 12), axis=0)


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


def _affine_face_min(F: PiecewiseAffineMap, ref: np.ndarray) -> float:
    """Min of |F - ref| over the box boundary for an affine map, dim >= 2.

    Face (i, sign) is a small linear program: minimize t subject to
    -t <= (F(x) - ref)_j <= t with coordinate i pinned to sign and the
    others in [-1, 1].  The 2 dim faces are independent blocks of one LP,
    solved in one HiGHS call, and the answer is the least of the blocks'
    t.  It is HiGHS's floating-point optimum, not a one-sided bound.
    """
    from scipy.optimize import linprog

    piece = F.pieces[0]
    dim, m = F.dim_in, F.dim_out
    # block of face k: rows 2m k .. 2m (k+1), variables (free coords, t)
    # at columns dim k .. dim (k+1); faces run i-major, sign -1 before +1
    a_ub = np.zeros((2 * dim * 2 * m, 2 * dim * dim))
    b_ub = np.empty(2 * dim * 2 * m)
    for k, (i, sign) in enumerate(itertools.product(range(dim), (-1.0, 1.0))):
        r, c = 2 * m * k, dim * k
        a_free = np.delete(piece.matrix, i, axis=1)
        a_ub[r:r + m, c:c + dim - 1] = a_free
        a_ub[r + m:r + 2 * m, c:c + dim - 1] = -a_free
        a_ub[r:r + 2 * m, c + dim - 1] = -1.0
        base = piece.matrix[:, i] * sign + piece.offset - ref
        b_ub[r:r + m] = -base
        b_ub[r + m:r + 2 * m] = base
    cost = np.tile(np.eye(dim)[-1], 2 * dim)
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=([(-1.0, 1.0)] * (dim - 1) + [(0.0, None)]) * (2 * dim),
                  method="highs")
    if not res.success:
        raise GeometryError(f"face minimization failed: {res.message}")
    return float(np.min(res.x[dim - 1::dim]))


class _CellTable:
    """Cell-only geometry of one cell structure.

    ``vertices[i]`` are the vertices of piece i's cell inside the unit box.
    ``face_rows(pieces, pts, tiles, resolution)`` gives, per piece, the rows
    of the face grid ``pts`` that the piece is the first to hold, sorted
    tile-major by ``tiles``, and the offsets of each tile's run among them:
    the piece's rows in tile t are ``rows[offsets[t]:offsets[t + 1]]``, so
    the tiles ``_grid_min`` keeps are contiguous slices.  Built only for a
    total map: the totality probe raises before anything is kept.
    """

    def __init__(self, F: PiecewiseAffineMap):
        if F.dim_in <= 4:
            # cheap totality probe; vertex enumeration alone would silently
            # ignore an uncovered patch of the ball
            for _ in _first_match(F.pieces, box_grid(F.dim_in, 5).T):
                pass
        self.vertices = [_piece_box_vertices(p, F.dim_in) for p in F.pieces]
        self._rows: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

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


class CellGeometry:
    """Cell-only geometry shared by the maps that have the same cells.

    Tables are keyed by cell content: ``dim_in`` and every piece's
    ``normals`` and ``bounds``, byte for byte, in piece order.  A map and
    its scalings ``F.scale(a)`` share one table; ``compose_affine_inner``
    moves the cells and gets its own.  Face grids and their tiles are kept
    per (dimension, resolution) and shared by every table.  Everything
    lives as long as the ``CellGeometry`` object, which a checker holds for
    one check.
    """

    def __init__(self):
        self._tables: dict = {}
        self._faces: dict[tuple[int, int], np.ndarray] = {}
        self._tiles: dict[tuple[int, int], _FaceTiles] = {}

    def table(self, F: PiecewiseAffineMap) -> _CellTable:
        key = (F.dim_in, tuple((a.dtype.str, a.shape, a.tobytes())
                               for p in F.pieces for a in (p.normals, p.bounds)))
        if key not in self._tables:
            self._tables[key] = _CellTable(F)
        return self._tables[key]

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


def _stretch(F: PiecewiseAffineMap, ref, resolution: int, want_min: bool,
             cells: CellGeometry | None) -> StretchBounds:
    ref = _as_vector(ref, F.dim_out)
    cells = CellGeometry() if cells is None else cells
    table = cells.table(F)
    max_abs = _exact_max(F, ref, table.vertices)
    if not want_min:
        return StretchBounds(0.0, max_abs, True, 0.0)
    dim = F.dim_in
    if dim == 1:
        vals = [float(np.max(np.abs(F.apply([x]) - ref))) for x in (-1.0, 1.0)]
        m = min(vals)
        return StretchBounds(m, max_abs, True, m)
    if F.is_affine:
        m = _affine_face_min(F, ref)
        return StretchBounds(m, max_abs, True, m)
    if resolution < 2:
        raise GeometryError("grid resolution must be at least 2")
    pts = cells.face_points(dim, resolution)
    tiles = cells.face_tiles(dim, resolution)
    attained = _grid_min(F.pieces, ref, pts, tiles,
                         table.face_rows(F.pieces, pts, tiles, resolution))
    spacing = 2.0 / (resolution - 1)
    slack = F.lipschitz() * spacing / 2.0
    return StretchBounds(max(attained - slack, 0.0), max_abs, False, attained)


def min_stretch(F: PiecewiseAffineMap, ref, resolution: int = 64,
                cells: CellGeometry | None = None) -> StretchBounds:
    """Lower-bound min |F(x) - ref| over the boundary of the unit box.

    Exact for 1-d maps (endpoint evaluation).  For affine maps it is the
    optimum of one linear program over all faces, as HiGHS computes it in
    floating point (not one-sided).  Otherwise a face grid with Lipschitz
    slack, flagged certified=False.  The grid minimum is a branch and bound
    over tiles of ``TILE`` points per free axis: each (piece, tile) is
    bounded below by |g(c)| - sum_l |M_jl| h_l less a rounding cushion,
    with g = M x + o - ref at the tile's centre c and h its half-widths,
    and only the tiles whose bound is below the best value found are
    evaluated.  The result equals the minimum over the whole grid bit for
    bit (``_grid_min``).  ``cells`` holds the cell-only geometry to reuse.
    """
    return _stretch(F, ref, resolution, True, cells)


def max_stretch(F: PiecewiseAffineMap, ref, cells: CellGeometry | None = None) -> StretchBounds:
    """Exact max |F(x) - ref| over the closed unit box (cell-vertex maximum)."""
    return _stretch(F, ref, 0, False, cells)


def split_product(F: PiecewiseAffineMap, u: int) -> tuple[PiecewiseAffineMap,
                                                          PiecewiseAffineMap | None]:
    """Split F(x, y) on the unit box into block components (U(x), V(y)).

    Requires every piece touching the box to be block diagonal with cell
    constraints separating the two blocks; the result is verified against F
    on a deterministic sample grid.  Raises GeometryError when F is not of
    product form.
    """
    tol = CONTINUITY_TOL
    s = F.dim_in - u
    if F.dim_out != F.dim_in:
        raise GeometryError("product split needs a square map")
    if s == 0:
        return F, None

    def block_pieces(rows, cols):
        out = {}
        for p in F.pieces:
            if np.max(np.abs(p.matrix[np.ix_(rows, [c for c in range(F.dim_in)
                                                    if c not in cols])])) > tol:
                raise GeometryError("map mixes unstable and stable blocks")
            keep = []
            for n, b in zip(p.normals, p.bounds):
                on_cols = np.max(np.abs(n[cols])) > tol if len(cols) else False
                on_other = np.max(np.abs(np.delete(n, cols))) > tol
                if on_cols and on_other:
                    raise GeometryError("cell constraint mixes the two blocks")
                if on_cols:
                    keep.append((n[cols], b))
            key_n = np.array([k[0] for k in keep]).reshape(-1, len(cols))
            key_b = np.array([k[1] for k in keep])
            key = (np.round(p.matrix[np.ix_(rows, cols)], 12).tobytes(),
                   np.round(p.offset[rows], 12).tobytes(),
                   np.round(key_n, 12).tobytes(), np.round(key_b, 12).tobytes())
            out.setdefault(key, AffinePiece(p.matrix[np.ix_(rows, cols)],
                                            p.offset[rows], key_n, key_b))
        return PiecewiseAffineMap(len(cols), len(rows), tuple(out.values()))

    U = block_pieces(list(range(u)), list(range(u)))
    V = block_pieces(list(range(u, F.dim_in)), list(range(u, F.dim_in)))
    grid = box_grid(F.dim_in, 5).T
    full = F.apply_batch(grid)
    ux = U.apply_batch(grid[:u])
    vy = V.apply_batch(grid[u:])
    if np.max(np.abs(full - np.vstack([ux, vy]))) > 10 * tol:
        raise GeometryError("map is not of product form on the unit box")
    return U, V
