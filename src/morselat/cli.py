"""Command-line surface: analyze, lift, verify, birkhoff.

Exit codes: 0 success, 2 unreadable or malformed input, a verify flag
out of range, lift's --direct or pins off a grid's attractor side, an
interval map whose image leaves its domain or cannot be evaluated there, or
an output path that cannot be written (the message names the path, field,
flag, position or cell), 3 enumeration bound
overflow (on a grid the bound counts Morse sets, not cells; on a finite
system analyze counts cycles; in verify, the states of each system), an
invalid MORSELAT_MAX_ENUM, an interval map over grid.SAMPLE_LIMIT, or a
grid over grid.CELL_LIMIT cells, 4 lift
obstruction, 5 a family that is not a lattice or sublattice, whose
elements no block realizes, or with a pin that is not an attracting block
for its attractor, 6 a lift that fails one of its own checks (verify(),
the step audit, the section, the top, the embedding: "lift_check") or a
theory cross-check that fails inside analyze or lift, such as Eq (6) or a
complement law ("internal_check").
Errors are emitted as one JSON object on stderr; ERRORS in this module maps
each exception type to its exit code.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from . import dynsys_lift, formats, verify
from .expr import ParseError
from .grid import (
    DEFAULT_PADDING,
    DEFAULT_SAMPLES,
    ImageOutOfDomain,
    NotAnAttractingBlock,
    NotARepellingBlock,
    comb_att_lattice,
    grid_attractor_lift,
    grid_lift_problem,
)
from .lattice import NotALattice, NotASublattice, SetLattice, booleanize
from .lifting import LiftError, ObstructionFound, lift
from .order import InternalCheckFailed, TooLarge, enum_bound, union_over
from .formats import InputError, RunConfig

EXIT_PARSE = 2
EXIT_BOUND = 3
EXIT_OBSTRUCTION = 4
EXIT_SUBLATTICE = 5
EXIT_LIFT_CHECK = 6

# exception type -> (exit code, error kind, extra JSON fields); first match wins
ERRORS = (
    (ParseError, EXIT_PARSE, "parse", lambda e: {"position": e.position}),
    (InputError, EXIT_PARSE, "parse", lambda e: {}),
    (ImageOutOfDomain, EXIT_PARSE, "domain", lambda e: {"cell": e.cell}),
    (OSError, EXIT_PARSE, "io", lambda e: {}),
    (TooLarge, EXIT_BOUND, "bound", lambda e: {}),
    (
        ObstructionFound,
        EXIT_OBSTRUCTION,
        "obstruction",
        lambda e: {"step": e.step, "q": formats.poset_label(e.q), "alpha": sorted(map(formats.poset_label, e.alpha))},
    ),
    (LiftError, EXIT_LIFT_CHECK, "lift_check", lambda e: {}),
    (InternalCheckFailed, EXIT_LIFT_CHECK, "internal_check", lambda e: {}),
    (NotASublattice, EXIT_SUBLATTICE, "not_a_sublattice", lambda e: {}),
    (NotALattice, EXIT_SUBLATTICE, "not_a_lattice", lambda e: {}),
    ((NotAnAttractingBlock, NotARepellingBlock), EXIT_SUBLATTICE, "not_a_block", lambda e: {}),
)


def _fail(code: int, kind: str, message: str, **extra) -> int:
    payload = {"error": kind, "message": message}
    payload.update(extra)
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON at position {exc.pos}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return doc


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    config = RunConfig("analyze", [args.input], args.output, args.format, seed=args.seed)
    doc = _read_json(args.input)
    if doc.get("type") in ("interval_map", "cell_map"):
        cmap = formats.load_gridmap(doc)
        if doc["type"] == "interval_map":
            config.grid = {
                "domain": doc["domain"],
                "cells": doc["cells"],
                "expr": doc["expr"],
                "samples_per_cell": doc.get("samples_per_cell", DEFAULT_SAMPLES),
                "padding": doc.get("padding", DEFAULT_PADDING),
            }
        else:
            config.grid = {"domain": [cmap.grid.lo, cmap.grid.hi], "cells": cmap.n}
        lat = comb_att_lattice(cmap)
        if args.format == "dot":
            _emit(formats.hasse_dot(lat), args.output)
            return 0
        payload = formats.lattice_payload(lat, config)
        payload["attractors"] = [formats.cellset_payload(lat.labels(m), cmap.grid) for m in lat.masks]
        _emit(formats.dumps(payload), args.output)
        return 0
    system = formats.load_system(doc)
    att = system.att_lattice()
    rep = system.rep_lattice()
    if args.format == "dot":
        _emit(formats.hasse_dot(att), args.output)
        return 0
    payload = formats.lattice_payload(att, config)
    payload["attractors"] = [att.labels(m) for m in att.masks]
    payload["repellers"] = [rep.labels(m) for m in rep.masks]
    payload["anbhd_count"], payload["rnbhd_count"] = system.neighborhood_counts()
    payload["dual_pairs"] = [
        {"attractor": att.labels(m), "repeller": att.labels(system._dual_mask(m, True))} for m in att.masks
    ]
    square = system.commuting_square_check()
    payload["diagram_commutes"] = bool(square)
    _emit(formats.dumps(payload), args.output)
    return 0


def cmd_lift(args) -> int:
    config = RunConfig("lift", [args.input, args.sublattice], args.output, seed=args.seed)
    doc = _read_json(args.input)
    subdoc = _read_json(args.sublattice)
    elements = formats.load_sublattice(subdoc)
    on_grid = doc.get("type") in ("interval_map", "cell_map")
    with formats.input_field("side"):
        side = subdoc.get("side", "attractor" if on_grid else "repeller")
        if side not in ("attractor", "repeller"):
            raise ValueError(f'must be "attractor" or "repeller", got {side!r}')
    if not (on_grid and side == "attractor"):
        for flag, given in (("--direct", args.direct), ("pins", "pins" in subdoc)):
            if given:
                raise InputError(f"{flag!r} applies only to the attractor side of a grid map")
    if on_grid:
        cmap = formats.load_gridmap(doc)
        with formats.input_field("elements"):
            cells = [formats.cell_indices(e, cmap.n) for e in subdoc["elements"]]
        with formats.input_field("pins"):
            pins = {
                formats.cell_indices(image, cmap.n): formats.cell_indices(block, cmap.n)
                for image, block in subdoc.get("pins", [])
            }
        if side == "repeller":
            cert = lift(grid_lift_problem(cmap, cells))
        else:
            cert = grid_attractor_lift(cmap, cells, direct=args.direct, pinned=pins)
    else:
        system = formats.load_system(doc)
        with formats.input_field("elements"):
            unknown = set().union(*elements) - set(system.states)
            if unknown:
                raise ValueError(f"unknown state {min(unknown, key=repr)!r}")
        if side == "attractor":
            cert = dynsys_lift.attractor_lift(system, elements)
        else:
            cert = dynsys_lift.repeller_lift(system, elements)
    _emit(formats.dumps(formats.certificate_payload(cert, config)), args.output)
    return 0


def cmd_verify(args) -> int:
    flags = (("--exhaustive", args.exhaustive, 0), ("--random", args.random, 0), ("--max-states", args.max_states, 1))
    for flag, value, least in flags:
        if value < least:
            raise InputError(f"{flag} must be at least {least}, got {value}")
    if args.exhaustive or args.random:
        exhaustive, count, max_states = args.exhaustive, args.random, args.max_states
    else:
        exhaustive, count, max_states = 3, 100, 6
    # every tag is invariant under relabelling, so one map per isomorphism
    # class decides the N^N labelled maps, and the report counts those
    parts = []
    if exhaustive:
        parts.append(verify.map_classes(exhaustive))
    if count:
        parts.append(verify.random_systems(count, max_states, args.seed))
    # streamed, so that each system and its caches are freed once its tags ran
    results = verify.run_verification(itertools.chain(*parts))
    covered = (exhaustive ** exhaustive if exhaustive else 0) + count
    lines = []
    all_ok = True
    for res in results:
        status = "pass" if res.passed else "FAIL"
        lines.append(f"{res.tag:<12} {status}  ({covered} systems)")
        if not res.passed:
            all_ok = False
            lines.append(f"    counterexample: {res.counterexample!r}")
    report = "\n".join(lines) + "\n"
    _emit(report, args.output)
    return 0 if all_ok else 1


def cmd_birkhoff(args) -> int:
    config = RunConfig("birkhoff", [args.input], args.output, args.format, seed=args.seed)
    doc = _read_json(args.input)
    if "covers" in doc or "leq" in doc:
        poset = formats.load_poset(doc)
        lat = SetLattice.from_poset(poset)
    else:
        elements = formats.element_sets(doc.get("elements", []))
        with formats.input_field("universe"):
            universe = formats.distinct_labels(doc.get("universe"))
        lat = SetLattice.of_sets(universe, elements)
    if args.format == "dot":
        _emit(formats.hasse_dot(lat), args.output)
        return 0
    rep = booleanize(lat)
    payload = formats.lattice_payload(lat, config, rep.ground)
    payload["booleanization_ground"] = [formats.sorted_labels(e, lat) for e in rep.ground.carrier]
    # round trip: joining the Birkhoff image of each element recovers it
    ground = [lat.mask_of(c) for c in rep.ground.carrier]
    payload["round_trip_ok"] = all(union_over(ground, j) == m for m, j in zip(lat.masks, rep.j_masks))
    _emit(formats.dumps(payload), args.output)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The four-subcommand parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="morselat",
        description="attractor/repeller lattices and constructive lattice lifting",
    )
    parser.add_argument("--version", action="version", version=formats.VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="attractor/repeller lattices of a system or grid map")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("lift", help="lift a sublattice to neighborhoods")
    p.add_argument("input")
    p.add_argument("sublattice")
    p.add_argument("-o", "--output")
    p.add_argument("--direct", action="store_true", help="attractor-side route without duality")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="run the proposition suites over a corpus")
    p.add_argument(
        "--exhaustive", type=int, default=0, metavar="N", help="every map on N states, as one map per isomorphism class"
    )
    p.add_argument("--random", type=int, default=0, metavar="COUNT")
    p.add_argument("--max-states", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")

    p = sub.add_parser("birkhoff", help="down-set lattice, irreducibles, Booleanization")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        enum_bound()
    except ValueError as exc:
        return _fail(EXIT_BOUND, "bound", str(exc))
    try:
        # looked up per call, so that a wrapped cmd_* function is the one run
        return globals()[f"cmd_{args.command}"](args)
    except Exception as exc:
        for types, code, kind, extra in ERRORS:
            if isinstance(exc, types):
                return _fail(code, kind, str(exc), **extra(exc))
        raise


if __name__ == "__main__":
    sys.exit(main())
