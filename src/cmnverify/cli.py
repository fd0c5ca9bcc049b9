"""Command-line front end.

Commands: verify | entropy | periodic | margin | simulate.  Exit codes are
the stable contract: 0 success/pass, 1 failed or inconclusive
certification (or a failed operation), 2 unreadable or invalid spec.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from . import __version__
from .dynamics import (MAX_ORBIT_VALUES, LoopError, NeutralCompositionError, OrbitEscapeError,
                       Perturbation, empirical_entropy, locate_batch, periodic_point,
                       state_vector, step)
from .geometry import GeometryError
from .network import (SpecError, TYPE_I, conjugacy_audit, entry_failures, set_up, theorem1_check,
                      theorem2_check, validate_spec)
from .specio import (FORMAT_VERSION, SpecFormatError, canonical_json, certificate_document,
                     load_spec, spec_digest)
from .symbolic import permutation_loop, spectral_radius

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2


def _load(path: str):
    """Spec and digest of the file at ``path``, with its ``set_up`` built:
    every command refuses a spec the same way, before any work."""
    with open(path, "rb") as fh:
        raw = fh.read()
    spec = load_spec(io.BytesIO(raw))
    report = validate_spec(spec)
    for err in report.errors:
        print(f"invalid spec: {err}", file=sys.stderr)
    for warning in () if report.errors else report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    set_up(spec)    # refuses an invalid spec with its errors
    return spec, spec_digest(raw)


def _certify(spec, grid: int):
    """Theorem 1 for type-I coupling, theorem 2 for type-II, and the orbit
    documents of a theorem 1 pass.  A failed local covering makes theorem 1
    "fail", and an orbit of the network map itself that is not confirmed
    makes its pass "inconclusive"; the third value (None otherwise) says
    why, as it is printed on stderr."""
    if spec.coupling.kind != TYPE_I:
        return theorem2_check(spec, resolution=grid), [], None
    report = theorem1_check(spec, resolution=grid)
    if report.hypothesis is not None:
        print(report.hypothesis, file=sys.stderr)
    if not report.passed:
        return report, [], report.hypothesis
    loop = permutation_loop([node.transition for node in spec.nodes])
    try:
        return report, [_orbit_doc(loop, periodic_point(spec, loop))], None
    except (LoopError, NeutralCompositionError) as exc:
        reason = f"periodic orbit not confirmed: {exc}"
        print(reason, file=sys.stderr)
        return (replace(report, verdict="inconclusive", global_eps=0.0, period=None), [],
                reason)


def _write(lines, out: str | None) -> None:
    """Each of ``lines`` and a newline, to the file ``out`` or else to stdout."""
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as fh:
        for line in lines:
            fh.write(line + "\n")


def _orbit_doc(loop, orbit) -> dict:
    return {"loop": [list(multi) for multi in loop],
            "period": orbit.period,
            "point": [float(v) for v in orbit.point],
            "residual": orbit.residual,
            "interior_margins": [float(m) for m in orbit.interior_margins]}


def cmd_verify(args) -> int:
    spec, digest = _load(args.spec)
    report, orbits, _ = _certify(spec, args.grid)
    extras = {"periodic_orbits": orbits} if orbits else {}
    if spec.coupling.ambient is not None:
        audit = conjugacy_audit(spec, seed=args.seed)
        extras["conjugacy_residual"] = audit.worst_residual
        if not audit.ok:
            print(f"conjugacy audit failed (worst residual "
                  f"{audit.worst_residual:.3e})", file=sys.stderr)
    doc = certificate_document(report, digest, __version__, extras)
    _write([canonical_json(doc)], args.out)
    summary = f"verdict {report.verdict}"
    if report.entropy_bound is not None:
        summary += f", entropy bound {report.entropy_bound:.6f}"
    if report.period is not None:
        summary += f", period {report.period}"
    print(summary, file=sys.stderr)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_entropy(args) -> int:
    spec, _ = _load(args.spec)
    bound = sum(math.log(spectral_radius(n.transition)) for n in spec.nodes)
    lines = [f"bound {bound:.6f}"]     # printed after the estimate: a failure prints none
    if args.empirical:
        est = empirical_entropy(spec, *args.empirical)
        lines += [f"empirical {est:.6f}", f"gap {est - bound:+.6f}"]
    _write(lines, None)
    return EXIT_PASS


def cmd_periodic(args) -> int:
    spec, digest = _load(args.spec)
    loop = args.loop or permutation_loop([node.transition for node in spec.nodes])
    cert = periodic_point(spec, loop)
    doc = {"format_version": FORMAT_VERSION, "spec_digest": digest, **_orbit_doc(loop, cert)}
    _write([canonical_json(doc)], args.out)
    print(f"period {cert.period}, residual {cert.residual:.3e}", file=sys.stderr)
    return EXIT_PASS


def cmd_margin(args) -> int:
    spec, _ = _load(args.spec)
    report, _, reason = _certify(spec, args.grid)
    if reason is not None:
        # a hypothesis or the orbit decides, not an entry
        print(f"certification fails: verdict {report.verdict}, {reason}")
        return EXIT_FAIL
    entries, b = report.entries, report.binding_entry()
    verdict, slack = entries.verdict[b].item(), entries.slack[b].item()
    binding = (f"binding entry {tuple(entries.source[b].tolist())}->"
               f"{tuple(entries.target[b].tolist())} (slack {slack:.6g})")
    if not report.passed:
        print(f"certification fails: verdict {report.verdict}, {binding}")
        for failure in entry_failures(verdict, slack):
            print(f"  {failure}")
        return EXIT_FAIL
    print(f"eps* {report.global_eps:.6g}")
    print(binding)
    return EXIT_PASS


def cmd_simulate(args) -> int:
    spec, _ = _load(args.spec)
    values = (args.steps + 1) * spec.state_dim
    if values > MAX_ORBIT_VALUES:
        raise SpecError(f"{args.steps} steps keep {args.steps + 1} x {spec.state_dim} = "
                        f"{values} state values, above the limit of {MAX_ORBIT_VALUES}")
    states = np.empty((args.steps + 1, spec.state_dim))
    if args.x0:
        states[0] = state_vector(spec, args.x0)
    else:
        # uniform on the box hull of each node's h-sets, as validation built them
        boxes = [np.array(node_boxes) for node_boxes in set_up(spec).report.boxes]
        lo = np.concatenate([b[:, 0].min(axis=0) for b in boxes])
        hi = np.concatenate([b[:, 1].max(axis=0) for b in boxes])
        states[0] = np.random.default_rng(args.seed).uniform(lo, hi)
    pert = Perturbation(*args.pert) if args.pert else None
    for t in range(1, args.steps + 1):
        try:
            states[t] = step(spec, states[t - 1], pert)
        except OrbitEscapeError as exc:
            raise OrbitEscapeError(f"step {t} of {args.steps}: {exc}") from None
    # the whole orbit, coordinate-major, located in one batch; each line is
    # written as it is formatted
    symbols = locate_batch(spec, np.ascontiguousarray(states.T))
    _write((canonical_json({"t": t, "state": states[t].tolist(),
                            "symbols": symbols[:, t].tolist()})
            for t in range(args.steps + 1)), args.out)
    return EXIT_PASS


# Option types: each turns one command-line word into its value, or raises
# ArgumentTypeError, which argparse reports as a usage error (exit 2).


def _integer(name: str, least: int):
    """Type of an integer option value ``name`` that must be at least ``least``."""
    bound = {0: "a nonnegative integer", 1: "a positive integer"}.get(
        least, f"an integer >= {least}")

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"{name} must be {bound}, got {value}")
        return value
    return parse


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _amplitude(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"EPS must be nonnegative, got {text}")
    return value


def _state(text: str) -> list[float]:
    return [_finite(v) for v in text.split(",")]


def _loop(text: str) -> list[tuple[int, ...]]:
    symbol = _integer("a node symbol", 1)
    try:
        return [tuple(symbol(t) for t in stop.split(".")) for stop in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"invalid loop {text!r}: {exc}") from None


def _fields(*types):
    """Action of an option with one value per type in ``types``, each read
    by its own type; stores the tuple of values."""
    class Fields(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            try:
                setattr(namespace, self.dest, tuple(t(v) for t, v in zip(types, values)))
            except argparse.ArgumentTypeError as exc:
                raise argparse.ArgumentError(self, str(exc)) from None
    return Fields


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmnverify",
        description="Certify covering structure, entropy bounds, periodic "
                    "orbits, and perturbation margins of coupled map networks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    spec_help = "path to a network spec file (JSON)"
    grid_help = "points per face axis for certified grid bounds (at least 2)"
    kind_help = "The coupling kind picks the check: theorem 1 for type1, theorem 2 for type2."
    grid = _integer("GRID", 2)
    seed = _integer("SEED", 0)

    p = sub.add_parser("verify", help="run a theorem check, emit a certificate",
                       description=kind_help)
    p.add_argument("spec", help=spec_help)
    p.add_argument("--grid", type=grid, default=64, help=grid_help)
    p.add_argument("--seed", type=seed, default=0, help="seed of the conjugacy audit")
    p.add_argument("--out", help="write the certificate here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("entropy", help="print sum log rho(W_k), the entropy of the "
                                       "unperturbed shift, a lower bound only where "
                                       "verify passes")
    p.add_argument("spec", help=spec_help)
    p.add_argument("--empirical", nargs=3, metavar=("DEPTH", "SAMPLES", "SEED"),
                   action=_fields(_integer("DEPTH", 2), _integer("SAMPLES", 1), seed),
                   help="also estimate from sampled itineraries "
                        "(DEPTH >= 2, SAMPLES >= 1, SEED >= 0)")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("periodic", help="solve for a periodic orbit on a loop")
    p.add_argument("spec", help=spec_help)
    p.add_argument("--out", help="write the orbit document here")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--loop", type=_loop,
                       help="steps separated by commas, node symbols "
                            "within a step by dots (e.g. '1.2,2.1')")
    group.add_argument("--auto", action="store_true",
                       help="canonical loop through the first symbols")
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("margin", help="print the admissible perturbation radius",
                       description=kind_help)
    p.add_argument("spec", help=spec_help)
    p.add_argument("--grid", type=grid, default=64, help=grid_help)
    p.set_defaults(func=cmd_margin)

    p = sub.add_parser("simulate", help="iterate the network map")
    p.add_argument("spec", help=spec_help)
    p.add_argument("--steps", type=_integer("STEPS", 0), default=20)
    p.add_argument("--x0", type=_state, help="comma-separated initial state")
    p.add_argument("--seed", type=seed, default=0,
                   help="seed of the random initial state when --x0 is absent")
    p.add_argument("--pert", nargs=2, metavar=("EPS", "SEED"),
                   action=_fields(_amplitude, seed),
                   help="sinusoidal perturbation amplitude (>= 0) and seed (>= 0)")
    p.add_argument("--out", help="write the trajectory (JSON lines) here")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecFormatError, SpecError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (LoopError, NeutralCompositionError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
