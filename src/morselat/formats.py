"""Stable file formats: poset/system/gridmap inputs, lattice/certificate
outputs, and the DOT emitter for Hasse diagrams.

Every JSON payload embeds the run configuration and tool version so outputs
are reproducible byte for byte; set-valued fields serialize as sorted arrays.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from .dynsys import FiniteDynSys
from .grid import DEFAULT_PADDING, DEFAULT_SAMPLES, CellGrid, CellMap, ingest_interval_map
from .lattice import SetLattice, join_irreducibles
from .lifting import LiftCertificate, down_label, poset_label
from .order import Poset, TooLarge, members

VERSION = "0.1.0"


class InputError(ValueError):
    """Malformed input file; the message carries position or field detail."""


@contextmanager
def input_field(name: str):
    """Report a TypeError or ValueError raised inside, other than TooLarge, as an InputError naming the field."""
    try:
        yield
    except TooLarge:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid {name!r}: {exc}") from exc


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
        """The fields by name, shared, not deep-copied: a payload is written out, never changed."""
        return {"config": {f.name: getattr(self, f.name) for f in fields(self)}, "version": VERSION}


def dumps(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` and a newline, written directly.

    Dicts (with string keys), lists and tuples are laid out here; strings go
    through the C string encoder, ints through ``_int_text``, and any
    other scalar through ``json.dumps``, so the text is the stdlib's byte for
    byte at a fraction of its pure-Python indenting encoder's cost; an int
    longer than the interpreter's int-to-str digit limit is written in full.
    """
    out = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii


def _int_text(x: int) -> str:
    """int.__repr__(x), past the int-to-str digit limit 600 digits at a time (no limit is below 640)."""
    try:
        return int.__repr__(x)
    except ValueError:
        rest, chunks = abs(x), []
        while rest >= 10**600:
            rest, low = divmod(rest, 10**600)
            chunks.append(f"{low:0600d}")
        chunks.append(str(rest))
        return ("-" if x < 0 else "") + "".join(reversed(chunks))


# the text of a scalar of exactly this type (keyed by type, so a bool is no int here)
_SCALAR = {str: _encode_str, int: _int_text, bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _write(x, newline: str, out: list) -> None:
    """Append the text of x to out; newline is the line break and indent x starts at.

    A scalar of a type in _SCALAR, the bulk of a payload, is looked up by
    its exact type and, inside a dict or list, written in place with no call
    of _write.  Subclasses of dict, list and tuple take the isinstance path
    below; any other scalar, subclasses of str and int too, goes through
    ``json.dumps``, which writes the same text.
    """
    encode = _SCALAR.get(type(x))
    if encode is not None:
        out.append(encode(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(x.items()):
            encode = _SCALAR.get(type(value))
            if encode is None:
                out.append(sep + _encode_str(key) + ": ")
                _write(value, inner, out)
            else:
                out.append(sep + _encode_str(key) + ": " + encode(value))
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in x:
            encode = _SCALAR.get(type(value))
            if encode is None:
                out.append(sep)
                _write(value, inner, out)
            else:
                out.append(sep + encode(value))
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(x))


# -- inputs -------------------------------------------------------------------


def load_poset(doc: dict) -> Poset:
    if "elements" not in doc:
        raise InputError("poset file needs an 'elements' array")
    with input_field("elements"):
        elements = distinct_labels(doc["elements"])
    if not elements:
        raise InputError("poset file has an empty 'elements' array")
    if "covers" in doc:
        with input_field("covers"):
            covers = doc["covers"]
            if not all(isinstance(e, list) and len(e) == 2 for e in covers):
                raise ValueError("each cover must be an array of two elements")
            return Poset.from_covers(elements, covers)
    if "leq" in doc:
        with input_field("leq"):
            leq = doc["leq"]
            rows_ok = isinstance(leq, list) and all(isinstance(row, list) for row in leq)
            if not (rows_ok and all(isinstance(x, bool) for row in leq for x in row)):
                raise TypeError("must be an array of arrays of true and false")
            return Poset.from_relation(elements, leq)
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
    with input_field("states"):
        distinct_labels(states)
    with input_field("map"):
        return FiniteDynSys(states, table)


def load_gridmap(doc: dict) -> CellMap:
    kind = doc.get("type")
    if kind not in ("interval_map", "cell_map"):
        raise InputError("gridmap file needs \"type\": \"interval_map\" or \"cell_map\"")
    try:
        cells = doc["cells"]
        # a cell_map gives explicit multivalued arrows, for combinatorial
        # models that do not come from sampling an interval map
        domain = doc["domain"] if kind == "interval_map" else doc.get("domain", [0.0, cells])
        source = doc["expr"] if kind == "interval_map" else doc["arrows"]
    except KeyError as exc:
        raise InputError(f"gridmap file is missing {exc}") from exc
    with input_field("cells"):
        n = _integer(cells)
        if n <= 0:
            raise ValueError(f"must be positive, got {cells!r}")
    with input_field("domain"):
        lo, hi = domain
        grid = CellGrid(_number(lo), _number(hi), n)
    if kind == "cell_map":
        with input_field("arrows"):
            return CellMap(grid, tuple(cell_indices(a, n) for a in source))
    with input_field("samples_per_cell"):
        samples = _integer(doc.get("samples_per_cell", DEFAULT_SAMPLES))
        if samples < 2:
            raise ValueError("must be at least 2")
    with input_field("padding"):
        padding = _number(doc.get("padding", DEFAULT_PADDING))
        if not 0 <= padding < math.inf:
            raise ValueError(f"must be finite and nonnegative, got {padding!r}")
    with input_field("expr"):
        if not isinstance(source, str):
            raise TypeError(f"{source!r} is not a string")
    return ingest_interval_map(source, grid, samples_per_cell=samples, padding=padding)


def distinct_labels(items) -> list:
    """items itself if it is an array of distinct labels, none of them an array or object."""
    if not isinstance(items, list):
        raise TypeError(f"{items!r} is not an array")
    if len(set(items)) != len(items):  # an array or object label raises TypeError here
        raise ValueError("labels are not unique")
    return items


def _integer(x) -> int:
    """x itself if it is a JSON integer; a float or a boolean is refused, not truncated."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{x!r} is not an integer")
    return x


def _number(x) -> float:
    """x as a float if it is a JSON number; a string or a boolean is refused, not converted."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def cell_indices(items, n: int) -> frozenset:
    """Cell indices of an input file, each an integer naming one of the grid's n cells."""
    cells = frozenset(map(_integer, items))
    outside = [c for c in cells if not 0 <= c < n]
    if outside:
        raise ValueError(f"cell {min(outside)} is not one of the {n} cells")
    return cells


def load_sublattice(doc: dict) -> list:
    if "elements" not in doc:
        raise InputError("sublattice file needs an 'elements' array of supports")
    return element_sets(doc["elements"])


def element_sets(elements) -> list:
    """The elements of a lattice or sublattice file, each an array of labels, as frozensets."""
    with input_field("elements"):
        out = []
        for e in elements:
            if not isinstance(e, list):
                raise TypeError(f"element {e!r} is not an array")
            out.append(frozenset(e))
        return out


# -- outputs ------------------------------------------------------------------


def sorted_labels(members, lat: SetLattice) -> list:
    """The members in the order of the lattice's universe, through its one label index."""
    return sorted(members, key=lat._uindex.__getitem__)


def lattice_payload(lat: SetLattice, config: RunConfig, jl: Poset | None = None) -> dict:
    """The lattice with its J(L); pass jl when the caller has computed it already."""
    jl = jl if jl is not None else join_irreducibles(lat)
    out = config.payload()
    out.update(
        {
            "universe": list(lat.universe),
            "elements": [lat.labels(m) for m in lat.masks],
            "join_irreducibles": [sorted_labels(e, lat) for e in jl.carrier],
            "hasse": [list(pair) for pair in lat.covers()],
        }
    )
    return out


def certificate_payload(cert: LiftCertificate, config: RunConfig) -> dict:
    poset, universe = cert.problem.poset, cert.problem.universe
    downs = {d: down_label(poset, d) for d in cert.table}
    out = config.payload()
    out.update(
        {
            "poset": {
                "elements": [poset_label(p) for p in poset.carrier],
                "covers": [[poset_label(a), poset_label(b)] for a, b in poset.covers()],
            },
            "assignment": [
                {"downset": downs[d], "neighborhood": sorted(members(universe, cert.table[d]))}
                for d in sorted(downs, key=lambda d: (len(downs[d]), downs[d]))
            ],
            "audit": [
                {
                    "q": poset_label(poset.carrier[step.q]),
                    "mu": down_label(poset, step.mu),
                    "lambda": down_label(poset, step.lam_before),
                    "atom": sorted(members(universe, step.atom)),
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
    if isinstance(obj, SetLattice):
        labels, edges = obj.elements, obj.covers()
    else:
        labels, edges = obj.carrier, [(obj.index[a], obj.index[b]) for a, b in obj.covers()]
    lines = ["digraph hasse {", "  rankdir=BT;"]
    lines += [f"  n{i} [label={_dot_id(p)}];" for i, p in enumerate(labels)]
    lines += [f"  n{i} -> n{j};" for i, j in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
