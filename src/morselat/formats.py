"""Stable file formats: poset/system/gridmap inputs, lattice/certificate
outputs, and the DOT emitter for Hasse diagrams.

Every JSON payload embeds the run configuration and tool version so outputs
are reproducible byte for byte; set-valued fields serialize as sorted arrays.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .dynsys import FiniteDynSys
from .grid import CellGrid, CellMap, ingest_interval_map
from .lattice import SetLattice, join_irreducibles
from .lifting import LiftCertificate
from .order import Poset

VERSION = "0.1.0"


class InputError(ValueError):
    """Malformed input file; the message carries position or field detail."""


@dataclass
class RunConfig:
    command: str
    inputs: list = field(default_factory=list)
    output: str | None = None
    format: str = "json"
    bounds: dict = field(default_factory=dict)
    seed: int | None = None
    grid: dict = field(default_factory=dict)

    def payload(self) -> dict:
        return {"config": asdict(self), "version": VERSION}


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- inputs -------------------------------------------------------------------


def load_poset(doc: dict) -> Poset:
    if "elements" not in doc:
        raise InputError("poset file needs an 'elements' array")
    elements = list(doc["elements"])
    if not elements:
        raise InputError("poset file has an empty 'elements' array")
    if "covers" in doc:
        return Poset.from_covers(elements, [tuple(e) for e in doc["covers"]])
    if "leq" in doc:
        return Poset.from_relation(elements, doc["leq"])
    raise InputError("poset file needs 'covers' or 'leq'")


def load_system(doc: dict) -> FiniteDynSys:
    if doc.get("time") == "continuous":
        raise InputError(
            "continuous-time systems are not supported; only discrete time (T = Z) is implemented"
        )
    if doc.get("type") != "finite":
        raise InputError("system file needs \"type\": \"finite\"")
    states = doc.get("states")
    if not states:
        raise InputError("system file has no states")
    table = doc.get("map")
    if not isinstance(table, dict):
        raise InputError("system file needs a 'map' object")
    return FiniteDynSys(states, table)


def load_gridmap(doc: dict) -> CellMap:
    kind = doc.get("type")
    try:
        if kind == "interval_map":
            lo, hi = doc["domain"]
            grid = CellGrid(float(lo), float(hi), int(doc["cells"]))
            return ingest_interval_map(
                doc["expr"],
                grid,
                samples_per_cell=int(doc.get("samples_per_cell", 32)),
                padding=float(doc.get("padding", 1e-9)),
            )
        if kind == "cell_map":
            # explicit multivalued arrows, for combinatorial models that do
            # not come from sampling an interval map
            lo, hi = doc.get("domain", [0.0, float(doc["cells"])])
            grid = CellGrid(float(lo), float(hi), int(doc["cells"]))
            return CellMap(grid, tuple(frozenset(map(int, a)) for a in doc["arrows"]))
    except KeyError as exc:
        raise InputError(f"gridmap file is missing {exc}") from exc
    raise InputError("gridmap file needs \"type\": \"interval_map\" or \"cell_map\"")


def load_sublattice(doc: dict) -> list:
    if "elements" not in doc:
        raise InputError("sublattice file needs an 'elements' array of supports")
    return [frozenset(e) for e in doc["elements"]]


# -- outputs ------------------------------------------------------------------


def sorted_labels(members, universe) -> list:
    order = {u: i for i, u in enumerate(universe)}
    return sorted(members, key=lambda m: order[m])


def lattice_payload(lat: SetLattice, config: RunConfig) -> dict:
    jl = join_irreducibles(lat)
    out = config.payload()
    out.update(
        {
            "universe": list(lat.universe),
            "elements": [sorted_labels(e, lat.universe) for e in lat.elements],
            "join_irreducibles": [sorted_labels(e, lat.universe) for e in jl.carrier],
            "hasse": [list(pair) for pair in lat.covers()],
        }
    )
    return out


def certificate_payload(cert: LiftCertificate, config: RunConfig) -> dict:
    poset = cert.problem.poset
    label = lambda p: sorted(p) if isinstance(p, frozenset) else p
    out = config.payload()
    out.update(
        {
            "poset": {
                "elements": [label(p) for p in poset.carrier],
                "covers": [[label(a), label(b)] for a, b in poset.covers()],
            },
            "assignment": [
                {
                    "downset": sorted(label(p) for p in d),
                    "neighborhood": sorted(cert.table[d]),
                }
                for d in sorted(cert.table, key=lambda d: (len(d), sorted(label(p) for p in d)))
            ],
            "audit": [
                {
                    "q": label(step.q),
                    "mu": sorted(label(p) for p in step.mu),
                    "lambda": sorted(label(p) for p in step.lam_before),
                    "atom": sorted(step.atom),
                    "checks": {k: bool(v) for k, v in step.checks.items()},
                }
                for step in cert.audit
            ],
            "top_preserved": cert.top_preserved,
        }
    )
    return out


def cellset_payload(cells, grid: CellGrid) -> dict:
    return {
        "cells": sorted(cells),
        "support": [[a, b] for a, b in grid.support(cells)],
    }


# -- DOT ---------------------------------------------------------------------


def _dot_id(label) -> str:
    text = ",".join(str(x) for x in sorted(label, key=str)) if isinstance(label, frozenset) else str(label)
    return '"{%s}"' % text if isinstance(label, frozenset) else f'"{text}"'


def hasse_dot(obj) -> str:
    """DOT digraph of the cover relation (transitive reduction) of a poset or lattice."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    if isinstance(obj, SetLattice):
        names = {i: _dot_id(e) for i, e in enumerate(obj.elements)}
        for i in names:
            lines.append(f"  n{i} [label={names[i]}];")
        for i, j in obj.covers():
            lines.append(f"  n{i} -> n{j};")
    else:
        index = {p: i for i, p in enumerate(obj.carrier)}
        for p, i in index.items():
            lines.append(f"  n{i} [label={_dot_id(p)}];")
        for a, b in obj.covers():
            lines.append(f"  n{index[a]} -> n{index[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_dot(text: str):
    """Minimal DOT reader used by tests: returns (node ids, edge pairs)."""
    nodes = set()
    edges = set()
    body = text.strip()
    if not body.startswith("digraph") or not body.endswith("}"):
        raise InputError("not a digraph")
    for line in body.splitlines()[1:-1]:
        line = line.strip().rstrip(";")
        if not line or line.startswith("rankdir"):
            continue
        if "->" in line:
            a, b = [part.strip() for part in line.split("->")]
            edges.add((a, b))
            nodes.update((a, b))
        else:
            nodes.add(line.split(" ")[0])
    return nodes, edges
