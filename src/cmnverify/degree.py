"""Local Brouwer degree for the map classes the certifier needs.

Two rules, picked by ``degree_for_map``: the crossing count of a
piecewise-affine map on the line, read from its endpoint values
(``crossing_degrees``, for many maps at once), and the determinant sign
of an affine map in any dimension.  A target value hit exactly on the
domain boundary (to within ``EVAL_TIE_TOL``) is a hard error: the degree
is undefined there and silently nudging the target would fabricate
certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (EVAL_TIE_TOL, GeometryError, PiecewiseAffineMap, _as_matrix,
                       _as_vector, _unit_row_det, line_stretch, singular)


class DegreeUndefinedError(ValueError):
    """Target value lies on the image of the domain boundary."""


@dataclass(frozen=True)
class DegreeValue:
    """Signed degree plus the rule that produced it."""

    value: int
    method: str  # affine-determinant | one-d-crossing

    def __bool__(self) -> bool:
        return self.value != 0


def degree_affine(linear, offset, target) -> DegreeValue:
    """Degree of x -> linear @ x + offset over the open unit box at ``target``.

    sgn(det linear) when the unique preimage is interior, 0 when it is
    outside; a preimage on the boundary is an error.  A map that
    ``geometry.singular`` calls singular is an error too; that test, and
    the sign taken from the row-scaled determinant, do not change when the
    map is scaled.
    """
    lin = _as_matrix(linear)
    off = _as_vector(offset, lin.shape[0])
    tgt = _as_vector(target, lin.shape[0])
    if singular(lin):
        raise GeometryError("degree of a singular affine map is undefined")
    pre = np.linalg.solve(lin, tgt - off)
    extent = float(np.max(np.abs(pre)))
    if abs(extent - 1.0) <= EVAL_TIE_TOL:
        raise DegreeUndefinedError(f"preimage {pre.tolist()} lies on the box boundary")
    value = int(np.sign(_unit_row_det(lin))) if extent < 1.0 else 0
    return DegreeValue(value, "affine-determinant")


def crossing_degrees(ends: np.ndarray, targets) -> list[DegreeValue | DegreeUndefinedError]:
    """Degree over (-1, 1) of each scalar map whose endpoint values less
    its target are a row (left, right) of ``ends`` (``line_stretch``'s):
    half the endpoint sign change.  Where an endpoint value is within
    ``EVAL_TIE_TOL`` of 0 the degree is undefined, and the error saying so
    takes the degree's place in the list, unraised."""
    out: list[DegreeValue | DegreeUndefinedError] = []
    for q, (left, right) in zip(targets, np.reshape(ends, (-1, 2)).tolist()):
        if abs(left) <= EVAL_TIE_TOL or abs(right) <= EVAL_TIE_TOL:
            out.append(DegreeUndefinedError(f"target {q} equals a boundary value of the map"))
        else:
            out.append(DegreeValue((int(np.sign(right)) - int(np.sign(left))) // 2,
                                   "one-d-crossing"))
    return out


def degree_1d(U: PiecewiseAffineMap, target: float) -> DegreeValue:
    """Degree of a scalar map over (-1, 1): ``crossing_degrees`` of its
    endpoint values from ``line_stretch``."""
    if U.dim_in != 1 or U.dim_out != 1:
        raise GeometryError("degree_1d needs a scalar map on the line")
    q = float(target)
    (degree,) = crossing_degrees(line_stretch([(U, 1.0, q)]).ends, [q])
    if isinstance(degree, DegreeUndefinedError):
        raise degree
    return degree


def degree_for_map(U: PiecewiseAffineMap, target) -> DegreeValue:
    """Dispatch: 1-d crossing count, or the affine determinant rule.

    Genuinely piecewise maps in two or more unstable dimensions are outside
    the supported classes and raise.
    """
    if U.dim_in == 1 and U.dim_out == 1:
        return degree_1d(U, float(np.atleast_1d(target)[0]))
    if U.is_affine:
        piece = U.pieces[0]
        return degree_affine(piece.matrix, piece.offset, target)
    raise GeometryError("degree is only computed for 1-d piecewise or affine maps")
