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
from dataclasses import replace

import numpy as np

from . import __version__
from .dynamics import (LoopError, NeutralCompositionError, Perturbation,
                       empirical_entropy, locate_batch, periodic_point, state_vector,
                       step)
from .geometry import GeometryError
from .network import (SpecError, TYPE_I, conjugacy_audit, require_finite_step, theorem1_check,
                      theorem2_check, validate_spec)
from .specio import (SpecFormatError, canonical_json, certificate_document,
                     load_spec, spec_digest)
from .symbolic import spectral_radius

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2


def _load(path: str, iterated: bool = False):
    """Spec and digest of the file at ``path``; ``iterated``: the command
    iterates the network map, so its interaction must stay finite."""
    with open(path, "rb") as fh:
        raw = fh.read()
    spec = load_spec(io.BytesIO(raw))
    report = validate_spec(spec)
    if not report.ok:
        for err in report.errors:
            print(f"invalid spec: {err}", file=sys.stderr)
        raise SpecFormatError("; ".join(report.errors))
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if iterated:
        require_finite_step(spec)
    return spec, spec_digest(raw)


def _run_check(spec, grid: int):
    """Theorem 1 for type-I coupling, theorem 2 for type-II."""
    if spec.coupling.kind == TYPE_I:
        return theorem1_check(spec, resolution=grid)
    return theorem2_check(spec, resolution=grid)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _orbit_doc(loop, orbit) -> dict:
    return {"loop": [list(multi) for multi in loop],
            "period": orbit.period,
            "point": [float(v) for v in orbit.point],
            "residual": orbit.residual,
            "interior_margins": [float(m) for m in orbit.interior_margins]}


def cmd_verify(args) -> int:
    spec, digest = _load(args.spec)
    report = _run_check(spec, args.grid)
    extras = {}
    if spec.coupling.ambient is not None:
        audit = conjugacy_audit(spec, seed=args.seed)
        extras["conjugacy_residual"] = audit.worst_residual
        if not audit.ok:
            print(f"conjugacy audit failed (worst residual "
                  f"{audit.worst_residual:.3e})", file=sys.stderr)
    if report.theorem == 1 and report.passed:
        loop = _auto_loop(spec)
        try:
            extras["periodic_orbits"] = [_orbit_doc(loop, periodic_point(spec, loop))]
        except (LoopError, NeutralCompositionError) as exc:
            # the covering relations hold for the chart-coordinate model, but
            # the network map's own orbit is not confirmed: neither proof nor
            # counterexample
            print(f"periodic orbit not confirmed: {exc}", file=sys.stderr)
            report = replace(report, verdict="inconclusive", global_eps=0.0, period=None)
    doc = certificate_document(report, digest, __version__, extras)
    _write(canonical_json(doc), args.out)
    summary = f"verdict {report.verdict}"
    if report.entropy_bound is not None:
        summary += f", entropy bound {report.entropy_bound:.6f}"
    if report.period is not None:
        summary += f", period {report.period}"
    print(summary, file=sys.stderr)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_entropy(args) -> int:
    spec, _ = _load(args.spec, iterated=args.empirical is not None)
    bound = sum(math.log(spectral_radius(n.transition)) for n in spec.nodes)
    print(f"bound {bound:.6f}")
    if args.empirical:
        est = empirical_entropy(spec, *args.empirical)
        print(f"empirical {est:.6f}")
        print(f"gap {est - bound:+.6f}")
    return EXIT_PASS


def _auto_loop(spec) -> list[tuple[int, ...]]:
    """Canonical closed loop through the first symbols of every node."""
    perms = []
    for k, node in enumerate(spec.nodes, start=1):
        if not node.transition.is_permutation():
            raise LoopError(f"node {k}: --auto needs permutation transitions")
        perms.append(node.transition.permutation())
    loop = [tuple(1 for _ in spec.nodes)]
    while True:
        nxt = tuple(perms[k][loop[-1][k] - 1] for k in range(spec.d))
        if nxt == loop[0]:
            return loop
        loop.append(nxt)


def cmd_periodic(args) -> int:
    spec, digest = _load(args.spec, iterated=True)
    loop = _auto_loop(spec) if args.auto else args.loop
    cert = periodic_point(spec, loop)
    doc = {"format_version": "1", "spec_digest": digest, **_orbit_doc(loop, cert)}
    _write(canonical_json(doc), args.out)
    print(f"period {cert.period}, residual {cert.residual:.3e}", file=sys.stderr)
    return EXIT_PASS


def cmd_margin(args) -> int:
    spec, _ = _load(args.spec)
    report = _run_check(spec, args.grid)
    if not report.passed:
        binding = report.binding_entry()
        print(f"certification fails: verdict {report.verdict}, binding entry "
              f"{binding.source_index}->{binding.target_index} "
              f"(slack {binding.slack:.6g})")
        for failure in binding.failures:
            print(f"  {failure}")
        return EXIT_FAIL
    binding = report.binding_entry()
    print(f"eps* {report.global_eps:.6g}")
    print(f"binding entry {binding.source_index}->{binding.target_index} "
          f"(slack {binding.slack:.6g})")
    return EXIT_PASS


def cmd_simulate(args) -> int:
    spec, _ = _load(args.spec, iterated=True)
    if args.x0:
        state = state_vector(spec, args.x0)
    else:
        # uniform on the box hull of each node's h-sets
        boxes = [np.array([h.bounding_box() for h in node.hsets]) for node in spec.nodes]
        lo = np.concatenate([b[:, 0].min(axis=0) for b in boxes])
        hi = np.concatenate([b[:, 1].max(axis=0) for b in boxes])
        state = np.random.default_rng(args.seed).uniform(lo, hi)
    pert = Perturbation(*args.pert) if args.pert else None
    lines = []
    for t in range(args.steps + 1):
        symbols = locate_batch(spec, state.reshape(-1, 1))[:, 0]
        lines.append({"t": t, "state": [float(v) for v in state],
                      "symbols": [int(s) for s in symbols]})
        if t < args.steps:
            state = step(spec, state, pert)
    _write("\n".join(canonical_json(line) for line in lines), args.out)
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

    p = sub.add_parser("entropy", help="print the certified entropy lower bound")
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
    except (SpecFormatError, SpecError, GeometryError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (LoopError, NeutralCompositionError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
