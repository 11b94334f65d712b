"""Command-line surface: analyze, lift, verify, birkhoff.

Exit codes: 0 success, 2 unreadable or malformed input, an interval map
whose image leaves its domain, or an output path that cannot be written
(the message names the path, position or cell), 3 enumeration bound
overflow or an invalid MORSELAT_MAX_ENUM, 4 lift obstruction, 5 a family
that is not a lattice or sublattice, or whose elements no block realizes.
Errors are emitted as one JSON object on stderr; ERRORS in this module maps
each exception type to its exit code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import dynsys_lift, formats, verify
from .expr import ParseError
from .grid import (
    ImageOutOfDomain,
    NotAnAttractingBlock,
    NotARepellingBlock,
    comb_att_lattice,
    grid_attractor_lift,
    grid_lift_problem,
)
from .lattice import NotALattice, NotASublattice, SetLattice, booleanize, join_irreducibles
from .lifting import ObstructionFound, lift
from .order import TooLarge, enum_bound
from .formats import InputError, RunConfig

EXIT_PARSE = 2
EXIT_BOUND = 3
EXIT_OBSTRUCTION = 4
EXIT_SUBLATTICE = 5

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
        lambda e: {"step": e.step, "q": str(e.q), "alpha": [str(x) for x in sorted(e.alpha, key=str)]},
    ),
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
                "samples_per_cell": doc.get("samples_per_cell", 32),
                "padding": doc.get("padding", 1e-9),
            }
        else:
            config.grid = {"domain": [cmap.grid.lo, cmap.grid.hi], "cells": cmap.n}
        lat = comb_att_lattice(cmap)
        if args.format == "dot":
            _emit(formats.hasse_dot(lat), args.output)
            return 0
        payload = formats.lattice_payload(lat, config)
        payload["attractors"] = [formats.cellset_payload(e, cmap.grid) for e in lat.elements]
        _emit(formats.dumps(payload), args.output)
        return 0
    system = formats.load_system(doc)
    att = system.att_lattice()
    rep = system.rep_lattice()
    if args.format == "dot":
        _emit(formats.hasse_dot(att), args.output)
        return 0
    payload = formats.lattice_payload(att, config)
    payload["attractors"] = [formats.sorted_labels(e, att.universe) for e in att.elements]
    payload["repellers"] = [formats.sorted_labels(e, rep.universe) for e in rep.elements]
    payload["anbhd_count"], payload["rnbhd_count"] = system.neighborhood_counts()
    payload["dual_pairs"] = [
        {
            "attractor": formats.sorted_labels(e, att.universe),
            "repeller": formats.sorted_labels(system.dual_repeller(e), att.universe),
        }
        for e in att.elements
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
    if doc.get("type") in ("interval_map", "cell_map"):
        cmap = formats.load_gridmap(doc)
        cells = [frozenset(int(c) for c in e) for e in elements]
        side = subdoc.get("side", "attractor")
        pins = {
            frozenset(map(int, image)): frozenset(map(int, block))
            for image, block in subdoc.get("pins", [])
        }
        if side == "repeller":
            cert = lift(grid_lift_problem(cmap, cells))
        else:
            cert = grid_attractor_lift(cmap, cells, direct=args.direct, pinned=pins)
    else:
        system = formats.load_system(doc)
        side = subdoc.get("side", "repeller")
        if side == "attractor":
            cert = dynsys_lift.attractor_lift(system, elements)
        else:
            cert = dynsys_lift.repeller_lift(system, elements)
    _emit(formats.dumps(formats.certificate_payload(cert, config)), args.output)
    return 0


def cmd_verify(args) -> int:
    config = RunConfig(
        "verify",
        [],
        args.output,
        bounds={"exhaustive": args.exhaustive, "max_states": args.max_states},
        seed=args.seed,
    )
    parts = []
    if args.exhaustive:
        parts.append(verify.all_systems(args.exhaustive))
    if args.random:
        parts.append(verify.random_systems(args.random, args.max_states, args.seed))
    if not parts:
        parts = [verify.all_systems(3), verify.random_systems(100, 6, args.seed)]
    # streamed, so that each system and its caches are freed once its tags ran
    results = verify.run_verification(itertools.chain(*parts))
    lines = []
    all_ok = True
    for res in results:
        status = "pass" if res.passed else "FAIL"
        lines.append(f"{res.tag:<12} {status}  ({res.systems} systems)")
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
        elements = [frozenset(e) for e in doc.get("elements", [])]
        universe = doc.get("universe")
        if universe is None:
            raise InputError("lattice file needs a 'universe' array")
        lat = SetLattice(universe, elements)
    jl = join_irreducibles(lat)
    rep = booleanize(lat)
    if args.format == "dot":
        _emit(formats.hasse_dot(lat), args.output)
        return 0
    payload = formats.lattice_payload(lat, config)
    payload["booleanization_ground"] = [
        formats.sorted_labels(e, lat.universe) for e in jl.carrier
    ]
    # round trip: joining the Birkhoff image of each element recovers it
    payload["round_trip_ok"] = all(
        frozenset().union(*rep.j[a]) == a if rep.j[a] else a == frozenset()
        for a in lat.elements
    )
    _emit(formats.dumps(payload), args.output)
    return 0


def main(argv=None) -> int:
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
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("lift", help="lift a sublattice to neighborhoods")
    p.add_argument("input")
    p.add_argument("sublattice")
    p.add_argument("-o", "--output")
    p.add_argument("--direct", action="store_true", help="attractor-side route without duality")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("verify", help="run the proposition suites over a corpus")
    p.add_argument("--exhaustive", type=int, default=0, metavar="N", help="all maps on N states")
    p.add_argument("--random", type=int, default=0, metavar="COUNT")
    p.add_argument("--max-states", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("birkhoff", help="down-set lattice, irreducibles, Booleanization")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_birkhoff)

    args = parser.parse_args(argv)
    try:
        enum_bound()
    except ValueError as exc:
        return _fail(EXIT_BOUND, "bound", str(exc))
    try:
        return args.fn(args)
    except Exception as exc:
        for types, code, kind, extra in ERRORS:
            if isinstance(exc, types):
                return _fail(code, kind, str(exc), **extra(exc))
        raise


if __name__ == "__main__":
    sys.exit(main())
