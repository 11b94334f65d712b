"""Seeded structural fuzzing of the documented input formats through ``cli.main``.

Each case takes one valid document of a documented format (a finite system,
an interval map, a cell map, a sublattice with or without pins, a poset, a
lattice file), changes it at one place, in its JSON tree or in its text,
and runs ``analyze``, ``lift`` or ``birkhoff`` on it.  Whatever the input,
the run must end in a documented exit code (see ``cli``) other than 6,
which reports a failed internal check, a fault of the program, not of its
input.  On success the output is on stdout and nothing on stderr; on
failure stderr holds exactly one JSON object naming the error, and no
traceback.  No exception may
escape ``cli.main``.  The cases are drawn from a fixed seed, so a failure
names a case that reproduces.
"""

import json
import random

import pytest

from morselat import cli

SEED = 29
CASES_PER_COMMAND = 45
# every documented exit code but 6, a failed internal check
INPUT_EXIT_CODES = {0, 2, 3, 4, 5}

SYSTEM = {"type": "finite", "states": ["m", "z", "a", "b"], "map": {"m": "z", "z": "z", "a": "b", "b": "b"}}
INTERVAL = {"type": "interval_map", "domain": [-1, 1], "cells": 8, "expr": "(x + x^3)/2", "samples_per_cell": 4}
CELL_MAP = {"type": "cell_map", "cells": 4, "arrows": [[0], [0], [1, 2], [1, 3]]}
EXACT_SUB = {"side": "attractor", "elements": [[], ["z"], ["b"], ["z", "b"]]}
CELL_SUB = {"side": "attractor", "elements": [[], [0], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3]], "pins": [[[0], [0]]]}
INTERVAL_SUB = {"side": "repeller", "elements": [[], [0, 1, 2, 3, 4, 5, 6, 7]]}
POSET = {"elements": ["1", "2", "3"], "covers": [["1", "2"], ["1", "3"]]}
LATTICE = {"universe": ["a", "b"], "elements": [[], ["a"], ["b"], ["a", "b"]]}

# (command, input document, sublattice document or None)
COMMANDS = {
    "analyze-system": ("analyze", SYSTEM, None),
    "analyze-interval": ("analyze", INTERVAL, None),
    "analyze-cell-map": ("analyze", CELL_MAP, None),
    "lift-system": ("lift", SYSTEM, EXACT_SUB),
    "lift-cell-map": ("lift", CELL_MAP, CELL_SUB),
    "lift-interval": ("lift", INTERVAL, INTERVAL_SUB),
    "birkhoff-poset": ("birkhoff", POSET, None),
    "birkhoff-lattice": ("birkhoff", LATTICE, None),
}

# values a node may be replaced by: every JSON type, and numbers at and past the edges a format checks
REPLACEMENTS = [None, True, False, 0, -1, 1, 2, 7, 0.5, -2.5, 1e300, "", "x", "z", [], [0], [[0]], [["z"]], {}, {"a": 1}]


def _nodes(doc, path=()):
    """Every path into the JSON tree, the root first."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


def _mutate(doc, rng):
    """(description, text): one structural change of the document, at a node of its tree or in its text."""
    doc = json.loads(json.dumps(doc))
    text = json.dumps(doc)
    kind = rng.choice(["replace", "replace", "delete", "duplicate", "insert", "rename", "truncate", "splice"])
    if kind == "truncate":
        cut = rng.randrange(len(text))
        return f"truncate at {cut}", text[:cut]
    if kind == "splice":
        at = rng.randrange(len(text) + 1)
        piece = rng.choice(["[", "]", "{", "}", ",", ":", '"', "0", "-", "\\", "é", "\x00"])
        return f"splice {piece!r} at {at}", text[:at] + piece + text[at:]
    path = rng.choice(list(_nodes(doc)))
    parent, key = None, None
    node = doc
    for step in path:
        parent, key, node = node, step, node[step]
    if kind == "replace":
        value = rng.choice(REPLACEMENTS)
        if parent is None:
            return f"root -> {value!r}", json.dumps(value)
        parent[key] = value
        return f"{list(path)} -> {value!r}", json.dumps(doc)
    if kind in ("duplicate", "insert") and isinstance(node, list):
        value = rng.choice(node) if node and kind == "duplicate" else rng.choice(REPLACEMENTS)
        node.insert(rng.randint(0, len(node)), value)
        return f"{kind} {value!r} into {list(path)}", json.dumps(doc)
    if kind == "rename" and isinstance(node, dict) and node:
        old = rng.choice(sorted(node))
        node[old + "_"] = node.pop(old)
        return f"rename {list(path) + [old]}", json.dumps(doc)
    if parent is None:
        return "root -> {}", "{}"
    del parent[key]
    return f"delete {list(path)}", json.dumps(doc)


def _cases(name):
    command, doc, sub = COMMANDS[name]
    rng = random.Random(f"{SEED}:{name}")
    for _ in range(CASES_PER_COMMAND):
        if sub is not None and rng.random() < 0.5:
            what, sub_text = _mutate(sub, rng)
            yield command, json.dumps(doc), sub_text, f"sublattice: {what}"
        else:
            what, doc_text = _mutate(doc, rng)
            yield command, doc_text, None if sub is None else json.dumps(sub), f"input: {what}"


@pytest.mark.parametrize("name", COMMANDS)
def test_mutated_inputs_exit_with_a_documented_code(name, tmp_path, capsys):
    for i, (command, doc_text, sub_text, what) in enumerate(_cases(name)):
        argv = [command, str(tmp_path / f"{i}-input.json")]
        (tmp_path / f"{i}-input.json").write_text(doc_text)
        if sub_text is not None:
            argv.append(str(tmp_path / f"{i}-sub.json"))
            (tmp_path / f"{i}-sub.json").write_text(sub_text)
        try:
            rc = cli.main(argv)
        except Exception as exc:
            pytest.fail(f"case {i} ({what}): {exc!r} escaped cli.main")
        out = capsys.readouterr()
        assert rc in INPUT_EXIT_CODES, (i, what, rc, out.err)
        assert "Traceback" not in out.err, (i, what)
        if rc == 0:
            assert out.out and not out.err, (i, what)
            continue
        assert not out.out and out.err.endswith("\n") and out.err.count("\n") == 1, (i, what, out.err)
        err = json.loads(out.err)
        assert isinstance(err, dict) and {"error", "message"} <= set(err), (i, what, err)
