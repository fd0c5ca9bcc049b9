"""The single-covering check as it was before the covering inequalities
had one implementation, kept as the reference for ``check_covering`` and
theorem 1's transition pre-check, with helpers to count or replace the
geometry and degree functions both sides call through
``cmnverify.network``."""

import contextlib
import math

from cmnverify import network as nw
from cmnverify.covering import STRICT_MARGIN, CoveringCertificate, CoveringOutcome
from cmnverify.geometry import GeometryError


def reference_check_covering(source, target, f, target_id="", resolution=64):
    """The single-covering check as it was, with its own three-valued logic."""
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

    ub = nw.min_stretch(f.U, target.p_u, resolution=resolution)
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
        try:
            deg = nw.degree_for_map(f.U, target.p_u)
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
        sb = nw.max_stretch(f.V, target.p_s)
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


GEOMETRY = ("min_stretch", "max_stretch", "degree_for_map")


BATCHES = ("affine_min_stretch", "line_stretch", "crossing_degrees")


def count_batches(counts):
    """Wrappers of ``network``'s batch functions, by name, that count each
    item in ``counts`` as the scalar call it stands for: the (map,
    reference) pairs of ``affine_min_stretch`` and the boundary items of
    ``line_stretch`` as ``min_stretch`` calls, its other items as
    ``max_stretch`` calls, and the rows of ``crossing_degrees`` as
    ``degree_for_map`` calls.  The checkers hand their affine cells, and
    their cells on the line, to these in one call for all, where the
    reference makes one scalar call per cell."""
    originals = {name: getattr(nw, name) for name in BATCHES}

    def affine(pairs, *args, **kwargs):
        counts["min_stretch"] += len(pairs)
        return originals["affine_min_stretch"](pairs, *args, **kwargs)

    def line(boundary, box=(), *args, **kwargs):
        counts["min_stretch"] += len(boundary)
        counts["max_stretch"] += len(box)
        return originals["line_stretch"](boundary, box, *args, **kwargs)

    def degrees(ends, targets):
        counts["degree_for_map"] += len(targets)
        return originals["crossing_degrees"](ends, targets)
    return {"affine_min_stretch": affine, "line_stretch": line, "crossing_degrees": degrees}


@contextlib.contextmanager
def counted():
    """Count the calls of ``network``'s geometry and degree functions
    inside the block, by name, with the items of its batch functions as
    the calls they stand for (``count_batches``)."""
    originals = {name: getattr(nw, name) for name in (*GEOMETRY, *BATCHES)}
    calls = {name: 0 for name in GEOMETRY}

    def wrapper(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return call
    for name in GEOMETRY:
        setattr(nw, name, wrapper(name))
    for name, batch in count_batches(calls).items():
        setattr(nw, name, batch)
    try:
        yield calls
    finally:
        for name, original in originals.items():
            setattr(nw, name, original)


@contextlib.contextmanager
def replaced(name, value):
    original = getattr(nw, name)
    setattr(nw, name, value)
    try:
        yield
    finally:
        setattr(nw, name, original)


def assert_same_outcome(got, want):
    """Equal outcomes, with the certificate margins equal bit for bit."""
    assert got == want
    if want.certificate is not None:
        for field in ("unstable_margin", "stable_margin", "target_radius"):
            assert (getattr(got.certificate, field).hex()
                    == getattr(want.certificate, field).hex()), field
