"""Single covering relations and explicit persistence radii.

A covering certificate witnesses three strict inequalities for a map in
chart coordinates: the unstable part stretches past the target's unit ball
(minimum stretch > 1 relative to the target center), it does so with
nonzero degree, and the stable part lands strictly inside the target's
stable ball.  These are exactly the conditions that drive the straight-line
crossing homotopy, so no homotopy is ever constructed.

Verdicts are three-valued.  A conservative grid bound that fails an
inequality proves nothing, so it yields "inconclusive", never "fail";
failures always come with an attained witness value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .degree import DegreeValue, degree_for_map
from .geometry import (CellGeometry, CenterScale, GeometryError, HSet, PiecewiseAffineMap,
                       min_stretch, max_stretch)

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


def check_covering(source: HSet, target: CenterScale, f: ProductFormMap,
                   target_id: str = "", resolution: int = 64,
                   cells: CellGeometry | None = None) -> CoveringOutcome:
    """Check that ``source`` covers the member at ``target`` under ``f``.

    Passing needs all three of: min stretch of U relative to the target's
    unstable center > 1, nonzero degree of U at that center, and max
    stretch of V relative to the stable center < the stable radius.  The
    failure report names each violated inequality with its slack.
    ``cells`` is passed on to ``min_stretch`` and ``max_stretch``: a store
    of cell-only geometry shared with other calls on maps of the same
    cells; without one, each call works its cells out afresh.
    """
    u, s = source.dim_u, source.dim_s
    if f.dim_u != u or f.dim_s != s:
        raise GeometryError(f"map split ({f.dim_u},{f.dim_s}) does not match "
                            f"source h-set split ({u},{s})")
    if target.dim_u != u or target.dim_s != s:
        raise GeometryError("target center/scale split does not match the source")
    if u == 0:
        raise GeometryError("covering needs at least one unstable direction")

    failures: list[str] = []
    definite_fail = False
    undecided = False

    ub = min_stretch(f.U, target.p_u, resolution=resolution, cells=cells)
    if ub.min_rel > 1.0 + STRICT_MARGIN:
        unstable_margin = ub.min_rel - 1.0
    elif ub.min_attained <= 1.0 + STRICT_MARGIN:
        # a boundary point was evaluated at or below the threshold
        unstable_margin = ub.min_attained - 1.0
        definite_fail = True
        failures.append(f"min stretch {ub.min_attained:.6g} <= 1 "
                        f"relative to target center {target.p_u.tolist()}")
    else:
        unstable_margin = ub.min_rel - 1.0
        undecided = True
        failures.append(f"min-stretch bound [{ub.min_rel:.6g}, {ub.min_attained:.6g}] "
                        "straddles 1; grid too coarse to decide")

    deg = None
    if unstable_margin > 0 and not undecided:
        # the positive margin keeps the target center off the boundary image,
        # so the degree is well defined when it is computable at all
        try:
            deg = degree_for_map(f.U, target.p_u)
        except GeometryError as exc:
            undecided = True
            failures.append(f"cannot certify the crossing degree: {exc}")
        else:
            if deg.value == 0:
                definite_fail = True
                failures.append(f"degree 0 at target center {target.p_u.tolist()}")

    if s == 0:
        stable_margin = math.inf
    else:
        sb = max_stretch(f.V, target.p_s, cells=cells)
        stable_margin = target.r - sb.max_abs
        if stable_margin <= STRICT_MARGIN:
            definite_fail = True
            failures.append(f"max stretch {sb.max_abs:.6g} >= {target.r:.6g} "
                            f"relative to stable center {target.p_s.tolist()}")

    if failures:
        verdict = "fail" if definite_fail else "inconclusive"
        return CoveringOutcome(verdict, None, tuple(failures))
    cert = CoveringCertificate(source.id, target_id or "target", deg,
                               unstable_margin, stable_margin, target.r)
    return CoveringOutcome("pass", cert, ())


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
