"""`analyze`, `lift`, `birkhoff` and `verify` output, byte for byte against data/golden.

Each golden is the CLI output with ``config.inputs`` cut to the inputs' file
names, so it does not depend on where the inputs were written.
G1 at 256 and 1024 cells is pinned too, the larger by the SHA-256 of its
output (231 KB) in ``g1_1024.analyze.json.sha256``.
``verify_witnesses.json`` holds the witness every ``verify`` check returns on
seeded systems whose tables were corrupted after construction.  After a
deliberate change of output, regenerate all the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import tempfile

import pytest

from morselat import FiniteDynSys, cli, ds2, ds3, verify

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"

G1 = "(x + x^3)/2"
G2 = "piecewise(x<=0: 0, (5/2)*x*(1-x))"


def interval(expression, cells):
    return {"type": "interval_map", "domain": [-1, 1], "cells": cells, "expr": expression}


INPUTS = {
    "g1_12": interval(G1, 12),
    "g1_14": interval(G1, 14),
    "g1_16": interval(G1, 16),
    "g2_12": interval(G2, 12),
    "g2_16": interval(G2, 16),
    "tripod": {"type": "cell_map", "cells": 4, "arrows": [[0], [0], [1, 2], [1, 3]]},
    "ds1": {
        "type": "finite",
        "states": ["m", "z", "a", "b"],
        "map": {"m": "z", "z": "z", "a": "b", "b": "b"},
    },
}
FORMATS = ("json", "dot")
# analyze in JSON only, in full or by digest: G1 past the cubic lattice
# check's wall, and a 10-state map with 5 cycles (|Att| = 32), the size of
# the benchmark's short-cycle maps
SHORT_CYCLES = {"s0": "s0", "s1": "s2", "s2": "s1", "s3": "s3", "s4": "s5",
                "s5": "s4", "s6": "s6", "s7": "s0", "s8": "s4", "s9": "s8"}
LARGE = {
    "g1_256": interval(G1, 256),
    "g1_1024": interval(G1, 1024),
    "short_cycles": {"type": "finite", "states": list(SHORT_CYCLES), "map": SHORT_CYCLES},
}
DIGESTS = ("g1_1024",)

G1_12_ATT = [
    [], [5, 6], [4, 5, 6], [5, 6, 7], [4, 5, 6, 7], [1, 2, 3, 4, 5, 6], [5, 6, 7, 8, 9, 10],
    [0, 1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 7], [4, 5, 6, 7, 8, 9, 10], [5, 6, 7, 8, 9, 10, 11],
    [0, 1, 2, 3, 4, 5, 6, 7], [4, 5, 6, 7, 8, 9, 10, 11], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], list(range(12)),
]
G1_12_REP = [
    [], [0], [11], [0, 1], [0, 11], [10, 11], [0, 1, 11], [0, 10, 11], [0, 1, 10, 11],
    [0, 1, 2, 3, 4], [7, 8, 9, 10, 11], [0, 1, 2, 3, 4, 11], [0, 7, 8, 9, 10, 11],
    [0, 1, 2, 3, 4, 10, 11], [0, 1, 7, 8, 9, 10, 11], [0, 1, 2, 3, 4, 7, 8, 9, 10, 11], list(range(12)),
]
TRIPOD_ATT = [[], [0], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3]]

# name -> (system in INPUTS, sublattice file, extra CLI arguments)
LIFTS = {
    "ds1_rep": ("ds1", {"side": "repeller", "elements": [[], ["m", "z"], ["a", "b"], ["m", "z", "a", "b"]]}, []),
    "ds1_att": ("ds1", {"side": "attractor", "elements": [[], ["z"], ["b"], ["z", "b"]]}, []),
    "g1_12_rep": ("g1_12", {"side": "repeller", "elements": G1_12_REP}, []),
    "g1_12_att": ("g1_12", {"side": "attractor", "elements": G1_12_ATT}, []),
    "g1_12_att_direct": ("g1_12", {"side": "attractor", "elements": G1_12_ATT}, ["--direct"]),
    "tripod_att": ("tripod", {"side": "attractor", "elements": TRIPOD_ATT}, []),
    "tripod_att_direct_pinned": (
        "tripod",
        {"side": "attractor", "elements": TRIPOD_ATT, "pins": [[[0], [0, 1]]]},
        ["--direct"],
    ),
}


def seeded_poset(seed: int, n: int) -> dict:
    """A poset file on n elements: each pair i < j related with probability 0.4."""
    rng = random.Random(seed)
    labels = [f"p{i}" for i in range(n)]
    covers = [[labels[i], labels[j]] for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return {"elements": labels, "covers": covers}


BIRKHOFF = {
    "antichain": {"elements": ["a", "b", "c"], "covers": []},
    "chain": {"elements": ["a", "b", "c", "d"], "covers": [["a", "b"], ["b", "c"], ["c", "d"]]},
    "n_poset": {"elements": ["a", "b", "c", "d"], "covers": [["a", "c"], ["b", "c"], ["b", "d"]]},
    "seeded7": seeded_poset(1, 7),
    # 101 down-sets: the top size band of the benchmark's birkhoff ops
    "seeded13": seeded_poset(7, 13),
    "lattice": {
        "universe": ["x", "y", "z", "w"],
        "elements": [[], ["x"], ["y"], ["x", "y"], ["x", "y", "z"], ["x", "y", "w"], ["x", "y", "z", "w"]],
    },
}
VERIFY = ["verify", "--exhaustive", "3", "--random", "30", "--max-states", "8", "--seed", "1"]
# all 3125 maps on 5 states, pinned as the labelled all_systems(5) route reported them
VERIFY_EXHAUSTIVE_5 = ["verify", "--exhaustive", "5"]


# verify_witnesses.json: every tag's witness on SystemData tables corrupted
# after construction, so that a change of how a check reads its tables shows
WITNESS_SYSTEMS = dict(count=20, max_states=7, seed=3)
WITNESS_FAMILIES = ("fwd", "bwd", "invariant", "attracting", "repelling", "att_elems", "rep_elems")


def _plain(value):
    """A witness as JSON: tuples to lists, sets to sorted lists."""
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def _corruptions(rng, sd):
    """One flipped bit of omega and of alpha, then each family with one member dropped or one added."""
    size = 1 << sd.n
    for name in ("omega", "alpha"):
        yield name, rng.randrange(size), 1 << rng.randrange(sd.n)
    for name in WITNESS_FAMILIES:
        family = getattr(sd, name)
        members = set(family)
        outside = [m for m in range(size) if m not in members]
        if family and (not outside or rng.random() < 0.5):
            yield name, "drop", family[rng.randrange(len(family))]
        else:
            yield name, "add", outside[rng.randrange(len(outside))]


def _corrupt(sd, name, how, value):
    table = list(getattr(sd, name))
    if how == "drop":
        table.remove(value)
    elif how == "add":
        table = sorted(table + [value])
    else:
        table[how] ^= value
    setattr(sd, name, table)


def witnesses() -> str:
    rng = random.Random(WITNESS_SYSTEMS["seed"])
    entries = []
    for sys in verify.random_systems(**WITNESS_SYSTEMS):
        for corruption in list(_corruptions(rng, verify.SystemData(sys))):
            sd = verify.SystemData(sys)
            _corrupt(sd, *corruption)
            found = {}
            for tag, check in verify.CHECKS:
                try:
                    witness = check(sd)
                except Exception as exc:  # inconsistent tables can make a check raise; that is its outcome
                    witness = {"raises": f"{type(exc).__name__}: {exc}"}
                if witness is not None:
                    found[tag] = _plain(witness)
            entries.append({"map": [sys.next[s] for s in sys.states], "corrupt": list(corruption),
                            "witnesses": found})
    return json.dumps(entries, indent=1) + "\n"


def run(directory, argv, docs) -> str:
    """The CLI output of ``argv`` after the named input files, with their paths cut to file names."""
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv[:1] + list(paths.values()) + argv[1:]) == 0
    text = out.getvalue()
    for name, path in paths.items():
        text = text.replace(json.dumps(path), json.dumps(f"{name}.json"))
    return text


def analyze(directory, name, fmt) -> str:
    return run(directory, ["analyze", "--format", fmt], {name: INPUTS[name] if name in INPUTS else LARGE[name]})


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest() + "\n"


def lift(directory, name) -> str:
    system, sublattice, extra = LIFTS[name]
    return run(directory, ["lift"] + extra, {system: INPUTS[system], f"{name}.sub": sublattice})


def birkhoff(directory, name, fmt) -> str:
    return run(directory, ["birkhoff", "--format", fmt], {name: BIRKHOFF[name]})


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_analyze_matches_golden(tmp_path, name, fmt):
    assert analyze(str(tmp_path), name, fmt) == (GOLDEN / f"{name}.analyze.{fmt}").read_text()


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_analyze_matches_golden(tmp_path, name):
    text = analyze(str(tmp_path), name, "json")
    if name in DIGESTS:
        assert sha256(text) == (GOLDEN / f"{name}.analyze.json.sha256").read_text()
    else:
        assert text == (GOLDEN / f"{name}.analyze.json").read_text()


@pytest.mark.parametrize("name", sorted(LIFTS))
def test_lift_matches_golden(tmp_path, name):
    assert lift(str(tmp_path), name) == (GOLDEN / f"{name}.lift.json").read_text()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(BIRKHOFF))
def test_birkhoff_matches_golden(tmp_path, name, fmt):
    assert birkhoff(str(tmp_path), name, fmt) == (GOLDEN / f"{name}.birkhoff.{fmt}").read_text()


def finite_doc(sys) -> dict:
    return {
        "type": "finite",
        "states": [str(s) for s in sys.states],
        "map": {str(s): str(t) for s, t in sys.next.items()},
    }


def test_exact_analyze_lists_no_neighborhoods(tmp_path, monkeypatch):
    # analyze counts the neighbourhoods in closed form and checks diagram (1)
    # on each attractor and its basin, so it lists no neighbourhood
    docs = {"ds1": INPUTS["ds1"], "ds2": finite_doc(ds2()), "ds3": finite_doc(ds3())}
    argv = lambda fmt: ["analyze", "--format", fmt]
    expected = {
        (name, fmt): run(str(tmp_path), argv(fmt), {name: doc}) for name, doc in docs.items() for fmt in FORMATS
    }

    def refuse(self):
        raise AssertionError("analyze listed the neighborhoods")

    monkeypatch.setattr(FiniteDynSys, "_attracting_masks", refuse)
    monkeypatch.setattr(FiniteDynSys, "_repelling_masks", refuse)
    for (name, fmt), text in expected.items():
        assert run(str(tmp_path), argv(fmt), {name: docs[name]}) == text
    for fmt in FORMATS:
        assert expected["ds1", fmt] == (GOLDEN / f"ds1.analyze.{fmt}").read_text()


def test_verify_report_matches_golden(tmp_path):
    assert run(str(tmp_path), VERIFY, {}) == (GOLDEN / "verify.txt").read_text()


def test_verify_exhaustive_5_matches_golden(tmp_path):
    assert run(str(tmp_path), VERIFY_EXHAUSTIVE_5, {}) == (GOLDEN / "verify_exhaustive5.txt").read_text()


def test_verify_witnesses_match_golden():
    assert witnesses() == (GOLDEN / "verify_witnesses.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(INPUTS):
            for fmt in FORMATS:
                (GOLDEN / f"{name}.analyze.{fmt}").write_text(analyze(tmp, name, fmt))
        for name in sorted(LARGE):
            text = analyze(tmp, name, "json")
            if name in DIGESTS:
                (GOLDEN / f"{name}.analyze.json.sha256").write_text(sha256(text))
            else:
                (GOLDEN / f"{name}.analyze.json").write_text(text)
        for name in sorted(LIFTS):
            (GOLDEN / f"{name}.lift.json").write_text(lift(tmp, name))
        for name in sorted(BIRKHOFF):
            for fmt in FORMATS:
                (GOLDEN / f"{name}.birkhoff.{fmt}").write_text(birkhoff(tmp, name, fmt))
        (GOLDEN / "verify.txt").write_text(run(tmp, VERIFY, {}))
        (GOLDEN / "verify_exhaustive5.txt").write_text(run(tmp, VERIFY_EXHAUSTIVE_5, {}))
    (GOLDEN / "verify_witnesses.json").write_text(witnesses())
