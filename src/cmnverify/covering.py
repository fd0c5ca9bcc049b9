"""Covering certificates, covering outcomes and explicit persistence radii.

A covering certificate witnesses three strict inequalities for a map in
chart coordinates: the unstable part stretches past the target's unit ball
(minimum stretch > 1 relative to the target center), it does so with
nonzero degree, and the stable part lands strictly inside the target's
stable ball.  These are exactly the conditions that drive the straight-line
crossing homotopy, so no homotopy is ever constructed.  ``network`` decides
them, for ``check_covering`` as for every Kronecker entry.  Outcomes are
three-valued: a grid bound that straddles a threshold proves nothing, so
it yields "inconclusive", never "fail".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degree import DegreeValue
from .geometry import AffinePiece, GeometryError, PiecewiseAffineMap

STRICT_MARGIN = 1e-12  # inequalities are strict: pass needs margin above this


class MarginError(ValueError):
    """Persistence radius requested from a certificate without slack."""


@dataclass(frozen=True)
class ProductFormMap:
    """Chart-coordinate form (U(x), V(y)) of a local map; V absent when s = 0."""

    U: PiecewiseAffineMap
    V: PiecewiseAffineMap | None = None

    @property
    def dim_u(self) -> int:
        return self.U.dim_in

    @property
    def dim_s(self) -> int:
        return self.V.dim_in if self.V is not None else 0

    def __post_init__(self):
        if self.U.dim_out != self.U.dim_in:
            raise GeometryError("unstable factor must map R^u to R^u")
        if self.V is not None and self.V.dim_out != self.V.dim_in:
            raise GeometryError("stable factor must map R^s to R^s")

    def joined(self) -> PiecewiseAffineMap:
        """U x V as one map of (x, y): a block-diagonal piece on the product
        of the cells of each pair of a U piece and a V piece."""
        if self.V is None:
            return self.U
        u, s = self.dim_u, self.dim_s

        def diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return np.block([[a, np.zeros((len(a), s))], [np.zeros((len(b), u)), b]])
        return PiecewiseAffineMap(u + s, u + s, tuple(
            AffinePiece(diag(p.matrix, q.matrix), np.concatenate([p.offset, q.offset]),
                        diag(p.normals, q.normals), np.concatenate([p.bounds, q.bounds]))
            for p in self.U.pieces for q in self.V.pieces))


@dataclass(frozen=True)
class CoveringCertificate:
    """Witness that one covering relation holds, with explicit slack."""

    source_id: str
    target_id: str
    degree: DegreeValue
    unstable_margin: float        # min stretch relative to target center, minus 1
    stable_margin: float          # target radius minus max stable stretch; inf when s = 0
    target_radius: float          # stable radius of the target (1.0 when s = 0)
    admissible_eps: float = 0.0   # filled in by persistence_bound

    def __post_init__(self):
        if self.unstable_margin <= 0 or self.stable_margin <= 0:
            raise ValueError("certificate margins must be strictly positive")
        if self.degree.value == 0:
            raise ValueError("certificate degree must be nonzero")


@dataclass(frozen=True)
class CoveringOutcome:
    """Result of checking one covering relation: pass, fail, or inconclusive."""

    verdict: str                                # "pass" | "fail" | "inconclusive"
    certificate: CoveringCertificate | None
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def persistence_bound(cert: CoveringCertificate, chart_lip: float,
                      coupling_lip: float) -> float:
    """Explicit radius under which the certificate survives perturbation.

    Any pair of local-map and coupling perturbations of ambient sup-norm
    below the returned value leaves all three covering inequalities
    satisfied with positive slack.  The factor chart_lip converts ambient
    displacement into chart coordinates; a local-map perturbation also
    passes through one application of the coupling, hence the
    (1 + coupling_lip) divisor.  Conservative by design.
    """
    if cert.unstable_margin <= 0 or cert.stable_margin <= 0:
        raise MarginError("persistence radius needs strictly positive margins")
    if chart_lip <= 0 or coupling_lip < 0:
        raise ValueError("Lipschitz factors must be positive")
    stable_term = cert.stable_margin * cert.target_radius
    margin = min(cert.unstable_margin, stable_term)
    return margin / (chart_lip * (1.0 + coupling_lip))
