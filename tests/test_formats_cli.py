import collections
import contextlib
import dataclasses
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morselat import FiniteDynSys, LiftCertificate, SetLattice, TooLarge, cli, ds1, dynsys, dynsys_lift, grid
from morselat.formats import (
    InputError,
    RunConfig,
    dumps,
    hasse_dot,
    lattice_payload,
    load_gridmap,
    load_poset,
    load_system,
)
from morselat.grid import comb_inv
from morselat.lifting import lift
from morselat.verify import SystemData
from conftest import parse_dot

DS1_DOC = {
    "type": "finite",
    "states": ["m", "z", "a", "b"],
    "map": {"m": "z", "z": "z", "a": "b", "b": "b"},
}

G1_DOC = {
    "type": "interval_map",
    "domain": [-1, 1],
    "cells": 16,
    "expr": "(x + x^3)/2",
    "samples_per_cell": 32,
    "padding": 1e-9,
}

P3_DOC = {"elements": ["1", "2", "3"], "covers": [["1", "2"], ["1", "3"]]}

TRIPOD_DOC = {"type": "cell_map", "cells": 4, "arrows": [[0], [0], [1, 2], [1, 3]]}
TRIPOD_ATT = [[], [0], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3]]
TRIPOD_REP = [[], [2], [3], [2, 3], [0, 1, 2, 3]]


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def main_in_capped_child(argv):
    """(exit code, stderr) of the CLI run in a child process with its address space capped at 1.5 GB."""
    limit = 1_500_000_000
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    child = subprocess.run(
        [sys.executable, "-m", "morselat.cli"] + argv,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    return child.returncode, child.stderr


class TestLoaders:
    def test_poset_roundtrip(self):
        p = load_poset(P3_DOC)
        assert p.leq("1", "2") and not p.leq("2", "3")

    def test_system(self):
        sys = load_system(DS1_DOC)
        assert sys.next == ds1().next

    def test_continuous_time_rejected(self):
        with pytest.raises(InputError) as err:
            load_system({**DS1_DOC, "time": "continuous"})
        assert "discrete" in str(err.value)

    def test_gridmap(self):
        cmap = load_gridmap(G1_DOC)
        assert cmap.n == 16

    def test_missing_fields(self):
        with pytest.raises(InputError):
            load_system({"type": "finite", "states": []})
        with pytest.raises(InputError):
            load_poset({"covers": []})


class TestDot:
    def test_hasse_of_lattice_is_transitively_reduced(self, sys1):
        att = sys1.att_lattice()
        nodes, edges = parse_dot(hasse_dot(att))
        # the square: bottom covers nothing, two atoms, one top: four covers
        assert len([n for n in nodes if n.startswith("n")]) == 4
        assert len(edges) == 4

    def test_hasse_of_poset(self, p3):
        nodes, edges = parse_dot(hasse_dot(p3))
        assert len(edges) == 2

    def test_no_transitive_edges(self):
        labels = ["a", "b", "c"]
        elems = [frozenset(labels[:k]) for k in range(4)]
        lat = SetLattice.of_sets(labels, elems)
        _, edges = parse_dot(hasse_dot(lat))
        assert len(edges) == 3  # a chain of four has three covers


class TestByteStability:
    def test_lattice_payload_is_stable(self, sys1):
        config = RunConfig("analyze", ["system.json"], seed=0)
        a = dumps(lattice_payload(sys1.att_lattice(), config))
        b = dumps(lattice_payload(ds1().att_lattice(), config))
        assert a == b
        payload = json.loads(a)
        assert payload["version"] and payload["config"]["seed"] == 0

    def test_analyze_golden(self, tmp_path, capsys):
        path = write(tmp_path, "system.json", DS1_DOC)
        out = tmp_path / "out.json"
        assert cli.main(["analyze", path, "-o", str(out)]) == 0
        first = out.read_text()
        assert cli.main(["analyze", path, "-o", str(out)]) == 0
        assert out.read_text() == first
        payload = json.loads(first)
        assert len(payload["attractors"]) == 4
        assert len(payload["repellers"]) == 4
        assert payload["diagram_commutes"] is True
        assert {"attractor": ["z"], "repeller": ["a", "b"]} in payload["dual_pairs"]


class TestCliAnalyze:
    def test_grid_analyze(self, tmp_path):
        path = write(tmp_path, "gridmap.json", G1_DOC)
        out = tmp_path / "lat.json"
        assert cli.main(["analyze", path, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["elements"]) == 17
        assert payload["attractors"][0]["cells"] == []

    def test_grid_analyze_above_sixteen_cells(self, tmp_path):
        path = write(tmp_path, "gridmap.json", dict(G1_DOC, cells=64))
        out = tmp_path / "lat.json"
        assert cli.main(["analyze", path, "-o", str(out)]) == 0
        cells = [frozenset(a["cells"]) for a in json.loads(out.read_text())["attractors"]]
        assert len(cells) == 17
        cmap = load_gridmap(dict(G1_DOC, cells=64))
        for a in cells:
            assert cmap.image(a) <= a and comb_inv(a, cmap) == a

    def test_grid_bound_counts_morse_sets(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MORSELAT_MAX_ENUM", "2")
        path = write(tmp_path, "gridmap.json", G1_DOC)
        assert cli.main(["analyze", path]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "bound" and "7 Morse sets" in err["message"]

    def test_exact_bound_counts_cycles(self, tmp_path, monkeypatch, capsys):
        # exact analyze enumerates the unions of cycles, so its bound counts
        # cycles; verify's 2^n tables and the neighbourhood listings count states
        rng = random.Random(5)
        while True:
            targets = [rng.randrange(64) for _ in range(64)]
            if len(FiniteDynSys(range(64), dict(enumerate(targets))).cycles()) == 4:
                break
        doc = {
            "type": "finite",
            "states": [str(i) for i in range(64)],
            "map": {str(i): str(t) for i, t in enumerate(targets)},
        }
        out = tmp_path / "m64.json"
        assert cli.main(["analyze", write(tmp_path, "m64.json", doc), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["attractors"]) == 16 and payload["diagram_commutes"] is True
        monkeypatch.setenv("MORSELAT_MAX_ENUM", "2")
        three = {"type": "finite", "states": ["a", "b", "c", "d"], "map": {"a": "a", "b": "b", "c": "c", "d": "a"}}
        assert cli.main(["analyze", write(tmp_path, "three.json", three)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "bound" and "3 cycles" in err["message"]
        assert cli.main(["analyze", write(tmp_path, "ds1.json", DS1_DOC)]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "--exhaustive", "3"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "bound" and "3 states" in err["message"]

    def test_analyze_cross_checks_each_dual_once(self, tmp_path, monkeypatch):
        # Eq (6) checks A* against A+ = _splus(A) and Eq (7) R* against
        # R- = _sminus(R); dual_pairs and the commuting square share both
        from morselat import FiniteDynSys

        calls = []
        for name in ("_splus", "_sminus"):
            real = getattr(FiniteDynSys, name)
            monkeypatch.setattr(
                FiniteDynSys, name, lambda self, m, real=real, name=name: calls.append((name, self.unmask(m))) or real(self, m)
            )
        path = write(tmp_path, "system.json", DS1_DOC)
        out = tmp_path / "a.json"
        assert cli.main(["analyze", path, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        attractors = {frozenset(a) for a in payload["attractors"]}
        repellers = {frozenset(p["repeller"]) for p in payload["dual_pairs"]}
        eq6 = [x for name, x in calls if name == "_splus" and x in attractors]
        eq7 = [x for name, x in calls if name == "_sminus"]
        assert len(eq6) == len(attractors) == 4 and set(eq6) == attractors
        assert len(eq7) == len(repellers) == 4 and set(eq7) == repellers

    @pytest.mark.parametrize(
        "command, docs, field",
        [
            ("analyze", [dict(G1_DOC, domain=[1, -1])], "domain"),
            ("analyze", [dict(G1_DOC, cells=0)], "cells"),
            ("analyze", [dict(G1_DOC, samples_per_cell=1)], "samples_per_cell"),
            ("analyze", [dict(G1_DOC, padding=-1)], "padding"),
            ("analyze", [dict(TRIPOD_DOC, arrows=[[0], [0], [1, 2], [1, 4]])], "arrows"),
            ("analyze", [dict(TRIPOD_DOC, arrows=[[0], [], [1, 2], [1, 3]])], "arrows"),
            ("analyze", [dict(DS1_DOC, states=["m", "z", "a", "a"])], "states"),
            ("analyze", [dict(DS1_DOC, map={"m": "z", "z": "q", "a": "b", "b": "b"})], "map"),
            ("birkhoff", [{"universe": ["a", "b"], "elements": [1, 2]}], "elements"),
            ("lift", [DS1_DOC, {"side": "repeller", "elements": [1, 2]}], "elements"),
            ("birkhoff", [{"universe": ["a", "b"], "elements": [[], "a", "b", "ab"]}], "elements"),
            ("lift", [DS1_DOC, {"side": "repeller", "elements": [[], ["m", "z"], "ab", list("mzab")]}], "elements"),
            ("lift", [TRIPOD_DOC, {"elements": [[], ["x"], [0, 1, 2, 3]]}], "elements"),
            ("lift", [TRIPOD_DOC, {"elements": [[], [0], [0, 1, 2, 3]], "pins": [[0, 1]]}], "pins"),
            ("lift", [TRIPOD_DOC, {"elements": [[], [9], [0, 1, 2, 3]]}], "elements"),
            ("lift", [TRIPOD_DOC, {"elements": [[], [0], [0, 1, 2, 3]], "pins": [[[0], [7]]]}], "pins"),
            ("lift", [DS1_DOC, {"side": "repeller", "elements": [[], ["q"], list("mzab")]}], "elements"),
            ("lift", [DS1_DOC, {"side": "sideways", "elements": [[], ["m", "z"], ["a", "b"], list("mzab")]}], "side"),
            # grid integer fields take JSON integers only, not floats, strings or booleans
            ("lift", [TRIPOD_DOC, {"elements": [[], [0], [0, 1, 2], [0, 1.5, 3], [0, 1, 2, 3]]}], "elements"),
            ("lift", [TRIPOD_DOC, {"elements": TRIPOD_ATT, "pins": [[[0], [0, 1.0]]]}], "pins"),
            ("analyze", [{"type": "cell_map", "cells": 2, "arrows": [[0.7], ["1"]]}], "arrows"),
            ("analyze", [{"type": "cell_map", "cells": 2, "arrows": [[True], [1]]}], "arrows"),
            ("analyze", [dict(TRIPOD_DOC, cells=4.5)], "cells"),
            ("analyze", [dict(G1_DOC, samples_per_cell=8.9)], "samples_per_cell"),
            # poset and lattice files for birkhoff
            ("birkhoff", [dict(P3_DOC, elements=5)], "elements"),
            ("birkhoff", [dict(P3_DOC, elements=[["1"]])], "elements"),
            ("birkhoff", [dict(P3_DOC, elements=["1", "2", "1"])], "elements"),
            ("birkhoff", [dict(P3_DOC, covers=[["1"]])], "covers"),
            ("birkhoff", [dict(P3_DOC, covers=[["1", "4"]])], "covers"),
            ("birkhoff", [dict(P3_DOC, covers=[["1", "2"], ["2", "1"]])], "covers"),
            ("birkhoff", [{"elements": ["1", "2"], "leq": [[True, True]]}], "leq"),
            ("birkhoff", [{"elements": ["1", "2"], "leq": [[True, True], [True, True]]}], "leq"),
            ("birkhoff", [{"elements": ["1", "2"], "leq": {"00": None, "01": None}}], "leq"),
            ("birkhoff", [{"universe": 5, "elements": [[]]}], "universe"),
            # interval maps: a string expression and finite numbers only
            ("analyze", [dict(G1_DOC, expr=5)], "expr"),
            ("analyze", [dict(G1_DOC, domain=[math.nan, 1])], "domain"),
            ("analyze", [dict(G1_DOC, domain=[-1, math.inf])], "domain"),
            ("analyze", [dict(G1_DOC, domain=[-1e308, 1e308])], "domain"),
            ("analyze", [dict(G1_DOC, padding=math.nan)], "padding"),
            ("analyze", [dict(G1_DOC, padding=math.inf)], "padding"),
            ("analyze", [dict(G1_DOC, domain=["-1", "1"])], "domain"),
            ("analyze", [dict(G1_DOC, domain=[-1, True])], "domain"),
            ("analyze", [dict(G1_DOC, padding=True)], "padding"),
            ("analyze", [dict(G1_DOC, padding="0.001")], "padding"),
            # a poset's leq matrix takes JSON booleans only
            ("birkhoff", [{"elements": ["1", "2"], "leq": [[True, "0"], [False, True]]}], "leq"),
            ("birkhoff", [{"elements": ["1", "2"], "leq": [[True, 1], [0, True]]}], "leq"),
            ("birkhoff", [{"elements": ["1", "2"], "leq": [[True, None], [False, True]]}], "leq"),
            # --direct and pins apply only to the attractor side of a grid map (a string is a flag)
            ("lift", [DS1_DOC, {"side": "attractor", "elements": [[], ["z"], ["z", "b"]], "pins": [[["z"], ["a"]]]}], "pins"),
            ("lift", [DS1_DOC, {"side": "attractor", "elements": [[], ["z"], ["z", "b"]]}, "--direct"], "--direct"),
            ("lift", [DS1_DOC, {"side": "repeller", "elements": [[], ["m", "z"], ["a", "b"], list("mzab")]}, "--direct"], "--direct"),
            ("lift", [TRIPOD_DOC, {"side": "repeller", "elements": TRIPOD_REP, "pins": [[[0], [3]]]}], "pins"),
            ("lift", [TRIPOD_DOC, {"side": "repeller", "elements": TRIPOD_REP}, "--direct"], "--direct"),
            # a cell count far beyond the arrows given is refused before anything of that size is
            # allocated; these rows run in a child process under a 1.5 GB address-space cap
            ("analyze", [dict(TRIPOD_DOC, cells=10**8)], "arrows"),
            ("analyze", [dict(TRIPOD_DOC, cells=10**30)], "arrows"),
        ],
    )
    def test_malformed_field_exit_2(self, tmp_path, capsys, command, docs, field):
        paths = [doc if isinstance(doc, str) else write(tmp_path, f"input{i}.json", doc) for i, doc in enumerate(docs)]
        if any(isinstance(doc, dict) and doc.get("cells", 0) > 10**6 for doc in docs):
            code, err = main_in_capped_child([command] + paths)
        else:
            code, err = cli.main([command] + paths), capsys.readouterr().err
        assert code == 2
        err = json.loads(err)
        assert err["error"] == "parse" and repr(field) in err["message"]

    @pytest.mark.parametrize(
        "doc, message",
        [
            (dict(G1_DOC, cells=10**8), "100000000 cells x 32 samples per cell exceeds the sampling limit"),
            (dict(G1_DOC, samples_per_cell=10**12), "16 cells x 1000000000000 samples per cell exceeds the sampling limit"),
        ],
        ids=["cells", "samples_per_cell"],
    )
    def test_oversized_interval_map_exit_3(self, tmp_path, doc, message):
        # cells x samples_per_cell is checked before any cell is sampled; run
        # in a child process under a 1.5 GB address-space cap
        start = time.perf_counter()
        code, err = main_in_capped_child(["analyze", write(tmp_path, "input.json", doc)])
        assert time.perf_counter() - start < 10
        assert code == 3
        err = json.loads(err)
        assert err["error"] == "bound" and message in err["message"]

    @pytest.mark.parametrize("kind", ["interval_map", "cell_map"])
    def test_grid_past_the_cell_limit_exit_3(self, tmp_path, capsys, kind):
        # refused before any cell is sampled or any arrow mask is built
        n = grid.CELL_LIMIT + 1
        doc = dict(G1_DOC, cells=n, samples_per_cell=2) if kind == "interval_map" else {
            "type": "cell_map", "cells": n, "arrows": [[0]] * n}
        start = time.perf_counter()
        assert cli.main(["analyze", write(tmp_path, "input.json", doc)]) == 3
        assert time.perf_counter() - start < 10
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "bound", "message": f"{n} cells exceeds the cell limit {grid.CELL_LIMIT}"}

    @pytest.mark.parametrize("kind", ["interval_map", "cell_map"])
    def test_largest_grid_analyzes_under_the_memory_cap(self, tmp_path, kind):
        # a grid's arrow masks and their transpose take memory quadratic in its
        # cells; at the cell limit they must fit under a 1.5 GB address-space cap.
        # In the cell map every arrow mask and every preimage mask is full width
        n = grid.CELL_LIMIT
        doc = dict(G1_DOC, cells=n, samples_per_cell=2) if kind == "interval_map" else {
            "type": "cell_map", "cells": n, "arrows": [[n - 1]] * (n - 1) + [list(range(n))]}
        code, err = main_in_capped_child(["analyze", write(tmp_path, "input.json", doc), "-o", str(tmp_path / "out.json")])
        assert (code, err) == (0, "")
        assert json.loads((tmp_path / "out.json").read_text())["config"]["grid"]["cells"] == n

    def test_dot_output_parses(self, tmp_path):
        path = write(tmp_path, "system.json", DS1_DOC)
        out = tmp_path / "h.dot"
        assert cli.main(["analyze", path, "--format", "dot", "-o", str(out)]) == 0
        nodes, edges = parse_dot(out.read_text())
        assert edges

    def test_empty_states_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"type": "finite", "states": [], "map": {}})
        assert cli.main(["analyze", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse"

    def test_bad_expression_exit_2_with_position(self, tmp_path, capsys):
        doc = dict(G1_DOC, expr="(x +")
        path = write(tmp_path, "gridmap.json", doc)
        assert cli.main(["analyze", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "position" in err

    @pytest.mark.parametrize(
        "expression",
        # each recurses past Python's stack limit unless refused
        ["(" * 400 + "x" + ")" * 400, "-" * 2000 + "x", "x" + " + x" * 2000],
        ids=["400 parentheses", "2000 minus signs", "2000 terms"],
    )
    def test_deep_expression_exit_2(self, tmp_path, capsys, expression):
        path = write(tmp_path, "gridmap.json", dict(G1_DOC, expr=expression))
        assert cli.main(["analyze", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse" and "levels of nesting" in err["message"]

    def test_bound_overflow_exit_3(self, tmp_path, monkeypatch, capsys):
        # DS1 has two cycles
        monkeypatch.setenv("MORSELAT_MAX_ENUM", "1")
        path = write(tmp_path, "system.json", DS1_DOC)
        assert cli.main(["analyze", path]) == 3

    def test_bad_bound_setting_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MORSELAT_MAX_ENUM", "abc")
        path = write(tmp_path, "system.json", DS1_DOC)
        assert cli.main(["analyze", path]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "bound" and "'abc'" in err["message"]

    def test_missing_file_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        assert cli.main(["analyze", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse" and path in err["message"]

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "image.png"
        path.write_bytes(b"\xff\xfe\x00")
        assert cli.main(["analyze", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse" and str(path) in err["message"]

    def test_non_object_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "list.json", [1, 2])
        assert cli.main(["analyze", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "parse"

    @pytest.mark.parametrize("command", [["analyze", "SYSTEM"], ["verify", "--exhaustive", "1"]])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, command):
        argv = [write(tmp_path, "system.json", DS1_DOC) if a == "SYSTEM" else a for a in command]
        out = str(tmp_path / "absent" / "out.json")
        assert cli.main(argv + ["-o", out]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io" and out in err["message"]

    def test_image_out_of_domain_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "gridmap.json", dict(G1_DOC, expr="2*x"))
        assert cli.main(["analyze", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "domain" and err["cell"] == 0

    # a division by zero, a complex value, an overflow
    @pytest.mark.parametrize("expression", ["x/0", "x^0.5", "10^400*x"])
    def test_sample_that_cannot_be_evaluated_exit_2(self, tmp_path, capsys, expression):
        path = write(tmp_path, "gridmap.json", dict(G1_DOC, expr=expression))
        assert cli.main(["analyze", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "domain" and err["cell"] == 0

    def test_huge_padding_reaches_every_cell(self, tmp_path):
        path = write(tmp_path, "gridmap.json", dict(G1_DOC, cells=4, padding=1e308))
        out = tmp_path / "lat.json"
        assert cli.main(["analyze", path, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["attractors"][-1]["cells"] == [0, 1, 2, 3]

    @pytest.mark.parametrize("flag, value", [("--exhaustive", "-1"), ("--random", "-3"), ("--max-states", "0")])
    def test_verify_flag_out_of_range_exit_2(self, capsys, flag, value):
        assert cli.main(["verify", flag, value]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse" and flag in err["message"]

    def test_cell_map_analyze(self, tmp_path):
        path = write(tmp_path, "tripod.json", {"type": "cell_map", "cells": 4, "arrows": [[0], [0], [1, 2], [1, 3]]})
        out = tmp_path / "lat.json"
        assert cli.main(["analyze", path, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["elements"] == [[], [0], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3]]
        assert [a["cells"] for a in payload["attractors"]] == payload["elements"]
        assert payload["config"]["grid"] == {"domain": [0.0, 4.0], "cells": 4}


DS1_REPELLERS = [[], ["m", "z"], ["a", "b"], ["m", "z", "a", "b"]]


class TestCliLift:
    def test_ds1_repeller_lift(self, tmp_path):
        spath = write(tmp_path, "system.json", DS1_DOC)
        lpath = write(
            tmp_path,
            "sub.json",
            {"side": "repeller", "elements": [[], ["m", "z"], ["a", "b"], ["m", "z", "a", "b"]]},
        )
        out = tmp_path / "cert.json"
        assert cli.main(["lift", spath, lpath, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["top_preserved"] is True
        assert {"downset": [], "neighborhood": []} in payload["assignment"]
        assert all(step["checks"]["Eq (22)"] for step in payload["audit"])

    def test_ds1_attractor_side(self, tmp_path):
        spath = write(tmp_path, "system.json", DS1_DOC)
        lpath = write(
            tmp_path,
            "sub.json",
            {"side": "attractor", "elements": [[], ["z"], ["z", "b"]]},
        )
        assert cli.main(["lift", spath, lpath, "-o", str(tmp_path / "c.json")]) == 0

    def test_g1_attractor_family(self, tmp_path):
        spath = write(tmp_path, "gridmap.json", G1_DOC)
        lpath = write(
            tmp_path,
            "sub.json",
            {
                "side": "attractor",
                "elements": [
                    [],
                    [7, 8],
                    list(range(9)),
                    list(range(7, 16)),
                    list(range(16)),
                ],
            },
        )
        assert cli.main(["lift", spath, lpath, "-o", str(tmp_path / "c.json")]) == 0

    def test_not_a_sublattice_exit_5(self, tmp_path, capsys):
        spath = write(tmp_path, "gridmap.json", G1_DOC)
        lpath = write(
            tmp_path,
            "sub.json",
            {"side": "attractor", "elements": [[], [7, 8], list(range(9)), list(range(7, 16))]},
        )
        assert cli.main(["lift", spath, lpath]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "not_a_sublattice"

    def test_not_a_lattice_exit_5(self, tmp_path, capsys):
        # closed under union and comb_inv(cap), but comb_inv({1}) = {} so
        # {1} is not below the top in the induced order
        spath = write(tmp_path, "tripod.json", TRIPOD_DOC)
        lpath = write(tmp_path, "sub.json", {"side": "attractor", "elements": [[], [1], [0, 1, 2, 3]]})
        assert cli.main(["lift", spath, lpath]) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "not_a_lattice"

    def test_no_attracting_block_exit_5(self, tmp_path, capsys):
        # {2} is a lattice element, but no attracting block has walk-core {2}
        spath = write(tmp_path, "tripod.json", TRIPOD_DOC)
        lpath = write(tmp_path, "sub.json", {"side": "attractor", "elements": [[], [2], [0, 1, 2, 3]]})
        assert cli.main(["lift", spath, lpath]) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "not_a_block"

    @pytest.mark.parametrize("pin", [[[0], [1]], [[0], [0, 2]]])
    def test_pin_that_is_not_an_attracting_block_exit_5(self, tmp_path, capsys, pin):
        # {1} and {0, 2} each have an arrow leaving them
        spath = write(tmp_path, "tripod.json", TRIPOD_DOC)
        lpath = write(tmp_path, "sub.json", {"side": "attractor", "elements": TRIPOD_ATT, "pins": [pin]})
        assert cli.main(["lift", spath, lpath, "--direct"]) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "not_a_block"

    def test_exact_lift_bytes_do_not_depend_on_hash_seed(self, tmp_path):
        states = [f"s{i}" for i in range(8)]
        spath = write(
            tmp_path,
            "system.json",
            {
                "type": "finite",
                "states": states,
                "map": {"s0": "s1", "s1": "s7", "s2": "s3", "s3": "s4", "s4": "s2", "s5": "s5", "s6": "s6", "s7": "s5"},
            },
        )
        lpath = write(
            tmp_path,
            "sub.json",
            {
                "side": "repeller",
                "elements": [[], ["s6"], ["s2", "s3", "s4", "s6"], ["s0", "s1", "s5", "s6", "s7"], states],
            },
        )
        # the obstruction error of the tripod: its q and alpha are sets of cells
        tpath = write(tmp_path, "tripod.json", TRIPOD_DOC)
        ppath = write(tmp_path, "pinned.json", {"side": "attractor", "elements": TRIPOD_ATT, "pins": [[[0], [0]]]})
        src = os.path.dirname(os.path.dirname(cli.__file__))
        for args, code, stream in (([spath, lpath], 0, "stdout"), ([tpath, ppath, "--direct"], 4, "stderr")):
            outputs = []
            for seed in ("1", "2"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
                run = subprocess.run(
                    [sys.executable, "-m", "morselat.cli", "lift", *args], env=env, capture_output=True
                )
                assert run.returncode == code
                outputs.append(getattr(run, stream))
            assert outputs[0] == outputs[1]

    def test_unknown_state_exit_2(self, tmp_path, capsys):
        spath = write(tmp_path, "system.json", DS1_DOC)
        lpath = write(tmp_path, "sub.json", {"side": "repeller", "elements": [[], ["q", "m"], ["p", "z"]]})
        assert cli.main(["lift", spath, lpath]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "parse", "message": "invalid 'elements': unknown state 'p'"}

    def test_failed_certificate_check_exit_6(self, tmp_path, capsys, monkeypatch):
        # k(0) becomes {m}: h and K membership still hold, so verify() fails on k(0) itself
        real = LiftCertificate.verify

        def corrupted(cert):
            cert.table[0] = 0b1
            real(cert)

        monkeypatch.setattr(LiftCertificate, "verify", corrupted)
        spath = write(tmp_path, "system.json", DS1_DOC)
        lpath = write(tmp_path, "sub.json", {"side": "repeller", "elements": DS1_REPELLERS})
        assert cli.main(["lift", spath, lpath]) == 6
        assert json.loads(capsys.readouterr().err) == {"error": "lift_check", "message": "k(0) != 0"}

    def test_inconsistent_section_exit_6(self, tmp_path, capsys, monkeypatch):
        # a section that sends every element of L to 0 has the wrong h image at {m, z}
        real = dynsys_lift._repeller_problem
        monkeypatch.setattr(
            dynsys_lift, "_repeller_problem", lambda *args: dataclasses.replace(real(*args), section=lambda l: 0)
        )
        spath = write(tmp_path, "system.json", DS1_DOC)
        lpath = write(tmp_path, "sub.json", {"side": "repeller", "elements": DS1_REPELLERS})
        assert cli.main(["lift", spath, lpath]) == 6
        assert json.loads(capsys.readouterr().err) == {
            "error": "lift_check",
            "message": "section for ['m', 'z'] has the wrong h image",
        }

    def test_obstruction_exit_4(self, tmp_path, capsys):
        # the branched cell map: pinning the central attractor to its minimal
        # block leaves no conditioners, the mechanism behind non-spaciousness
        spath = write(
            tmp_path,
            "tripod.json",
            {
                "type": "cell_map",
                "cells": 4,
                "arrows": [[0], [0], [1, 2], [1, 3]],
            },
        )
        lpath = write(
            tmp_path,
            "sub.json",
            {
                "side": "attractor",
                "elements": [[], [0], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3]],
                "pins": [[[0], [0]]],
            },
        )
        assert cli.main(["lift", spath, lpath, "--direct"]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "obstruction"
        assert "step" in err
        # q and alpha are poset labels, printed as the certificate prints them
        assert err["q"] == [0, 1, 2]
        assert err["alpha"] == [[0], [0, 1, 3]]
        assert err["message"] == (
            "step 1: no conditioner family for q=[0, 1, 2]: "
            "v_mu ^ v_alpha escapes k(lambda) at alpha=[[0], [0, 1, 3]], excess [1]"
        )
        # without the pin and with a fatter seed the duality route succeeds
        lpath2 = write(
            tmp_path,
            "sub2.json",
            {"side": "attractor", "elements": [[], [0], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3]]},
        )
        assert cli.main(["lift", spath, lpath2, "-o", str(tmp_path / "ok.json")]) == 0

    def test_obstructed_dual_falls_back_to_the_direct_route(self, tmp_path, monkeypatch):
        # the repeller lift of the dual problem is obstructed (step 0, excess
        # [4]), yet the attractor problem lifts directly
        doc = {"type": "cell_map", "cells": 6, "arrows": [[0], [1], [5], [2], [1, 5], [3]]}
        elements = [[], [0, 1], [2, 3, 5], [0, 1, 2, 3, 5]]
        spath = write(tmp_path, "map.json", doc)
        lpath = write(tmp_path, "sub.json", {"side": "attractor", "elements": elements})
        assignments = []
        for flags in ([], ["--direct"]):
            out = tmp_path / "out.json"
            assert cli.main(["lift", spath, lpath, "-o", str(out), *flags]) == 0
            assignments.append(json.loads(out.read_text())["assignment"])
        assert assignments[0] == assignments[1]
        direct = []
        monkeypatch.setattr(grid, "lift", lambda problem: direct.append(problem) or lift(problem))
        grid.grid_attractor_lift(load_gridmap(doc), elements).verify()
        assert len(direct) == 1


# -- exact lift families that are not sublattices, through the CLI ----------------

# the states out of sorted order: z <-> y a 2-cycle, x fixed, w -> x
SWAP_DOC = {"type": "finite", "states": ["z", "y", "x", "w"], "map": {"z": "y", "y": "z", "x": "x", "w": "x"}}
FIXED3_DOC = {"type": "finite", "states": ["x", "y", "w"], "map": {"x": "x", "y": "y", "w": "w"}}
MEETLESS = [[], ["x", "y"], ["y", "w"], ["x", "y", "w"]]
MEETLESS_MESSAGE = "family is not meet-closed: ['x', 'y'] ^ ['y', 'w'] = ['y'] missing"
_REAL_INIT = FiniteDynSys.__init__


def leaky_cycle_of_z(self, states, next_map):
    """FiniteDynSys.__init__, except that the walk's cycle through z also holds state 0 (m on DS1),
    as if z mapped to m too: {z} is then no longer invariant."""
    _REAL_INIT(self, states, next_map)
    z = self.mask("z")
    self._cycles = tuple(c | 1 if c == z else c for c in self._cycles)


# (system, side, elements, a patch of FiniteDynSys.__init__ or None, the error message)
EXACT_FAMILY_ROWS = {
    "union of cycles made non-invariant": (
        DS1_DOC, "attractor", [[], ["z"], ["b"], ["z", "b"]], leaky_cycle_of_z, "['z'] is not an attractor",
    ),
    "attractors missing a meet": (FIXED3_DOC, "attractor", MEETLESS, None, MEETLESS_MESSAGE),
    "repellers missing a meet": (FIXED3_DOC, "repeller", MEETLESS, None, MEETLESS_MESSAGE),
    "non-attractor in universe order": (
        SWAP_DOC, "attractor", [[], ["z", "y"], ["x", "w"], ["z", "y", "x"]], None, "['x', 'w'] is not an attractor",
    ),
    "non-repeller in universe order": (
        SWAP_DOC, "repeller", [[], ["z", "y"], ["z", "y", "x"], ["z", "y", "x", "w"]], None,
        "['z', 'y', 'x'] is not a repeller",
    ),
}


@pytest.mark.parametrize("row", EXACT_FAMILY_ROWS)
def test_exact_family_that_is_no_sublattice_exits_5(row, tmp_path, monkeypatch, capsys):
    """Each row exits 5 with one JSON error naming the element or the pair, and no traceback."""
    doc, side, elements, init, message = EXACT_FAMILY_ROWS[row]
    if init is not None:
        monkeypatch.setattr(FiniteDynSys, "__init__", init)
    spath = write(tmp_path, "system.json", doc)
    lpath = write(tmp_path, "sub.json", {"side": side, "elements": elements})
    assert cli.main(["lift", spath, lpath]) == 5
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": "not_a_sublattice", "message": message}


# -- theory cross-checks that fail inside analyze or lift, through the CLI ---------

DS1_ATTRACTORS = [[], ["z"], ["b"], ["z", "b"]]


def flip_bit_0(real):
    return lambda self, m: real(self, m) ^ 1


def wrong_when_called_from(caller):
    """A patch of a predicate that negates its answer in ``caller`` only, so that one call site sees it wrong."""

    def patch(real):
        def patched(self, m):
            return real(self, m) != (sys._getframe(1).f_code.co_name == caller)

        return patched

    return patch


# (command, system, sublattice or None, (owner of the patched attribute, its name, patch of the real one),
# words the message names the check by)
INTERNAL_CHECK_ROWS = {
    "complement law": (
        "lift", DS1_DOC, {"side": "attractor", "elements": DS1_ATTRACTORS},
        (FiniteDynSys, "_is_repelling_nbhd", wrong_when_called_from("_is_attracting_nbhd")),
        "complement law U attracting iff U^c repelling failed",
    ),
    "block complement law": (
        "lift", TRIPOD_DOC, {"side": "attractor", "elements": TRIPOD_ATT, "pins": [[[0], [0]]]},
        (grid.CellMap, "preimage", lambda real: lambda self, cells: self.all_cells()),
        "block complement law failed",
    ),
    "Eq (6)": (
        "analyze", DS1_DOC, None,
        (dynsys, "_inv_plus", lambda real: lambda pre1, m: real(pre1, m) ^ 1),
        "Eq (6) cross-check failed: A* != A+",
    ),
    "basin check": (
        "analyze", DS1_DOC, None, (FiniteDynSys, "_splus", flip_bit_0), "basin cross-check failed: omega(basin(A)) != A",
    ),
    "Eq (7)": (
        "analyze", DS1_DOC, None, (FiniteDynSys, "_sminus", flip_bit_0), "Eq (7) cross-check failed: R* != R-",
    ),
}


@pytest.mark.parametrize("row", INTERNAL_CHECK_ROWS)
def test_failed_internal_check_exits_6(row, tmp_path, monkeypatch, capsys):
    """Each row breaks one theory cross-check: exit 6 with one JSON error naming the check, and no traceback."""
    command, doc, sub, (owner, name, patch), words = INTERNAL_CHECK_ROWS[row]
    monkeypatch.setattr(owner, name, patch(getattr(owner, name)))
    argv = [command, write(tmp_path, "system.json", doc)]
    if sub is not None:
        argv.append(write(tmp_path, "sub.json", sub))
    assert cli.main(argv) == 6
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and "Traceback" not in out.err
    err = json.loads(out.err)
    assert set(err) == {"error", "message"} and err["error"] == "internal_check"
    assert words in err["message"]


class TestCliVerifyBirkhoff:
    def test_verify_small_corpus(self, tmp_path):
        out = tmp_path / "report.txt"
        assert cli.main(["verify", "--exhaustive", "3", "-o", str(out)]) == 0
        text = out.read_text()
        assert "P2.11" in text and "FAIL" not in text

    def test_verify_above_the_bound_exit_3(self, monkeypatch, capsys):
        # SystemData refuses the system before it builds any 2^n table
        monkeypatch.setenv("MORSELAT_MAX_ENUM", "3")
        with pytest.raises(TooLarge):
            SystemData(ds1())
        assert cli.main(["verify", "--exhaustive", "4"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "bound" and "4 states" in err["message"]

    def test_birkhoff_p3(self, tmp_path, monkeypatch):
        import morselat.formats
        import morselat.lattice

        calls = []
        real = morselat.lattice.join_irreducibles
        counted = lambda lat: calls.append(lat) or real(lat)
        monkeypatch.setattr(morselat.lattice, "join_irreducibles", counted)
        monkeypatch.setattr(morselat.formats, "join_irreducibles", counted)
        path = write(tmp_path, "poset.json", P3_DOC)
        out = tmp_path / "b.json"
        assert cli.main(["birkhoff", path, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["elements"]) == 5
        assert len(payload["join_irreducibles"]) == 3
        assert payload["round_trip_ok"] is True
        assert len(calls) == 1  # J(L) serves both the Booleanization and the payload

    def test_birkhoff_makes_one_cover_pass(self, tmp_path, monkeypatch):
        import morselat.lattice

        passes = []
        real = morselat.lattice.cover_masks
        monkeypatch.setattr(morselat.lattice, "cover_masks", lambda strict: passes.append(strict) or real(strict))
        family = {"universe": ["a", "b"], "elements": [[], ["a"], ["b"], ["a", "b"]]}
        # J(L), the Booleanization and hasse all read at most one general pass
        # on a lattice file, and none on a poset file, whose covers O(P) reads
        # off the poset
        for doc, most in ((family, 1), (P3_DOC, 0)):
            passes.clear()
            path = write(tmp_path, "input.json", doc)
            assert cli.main(["birkhoff", path, "-o", str(tmp_path / "b.json")]) == 0
            assert len(passes) <= most

    def test_birkhoff_round_trip_is_computed(self, tmp_path, monkeypatch):
        # a Booleanization that drops the highest join-irreducible from the
        # top's j no longer joins back to the top
        real = cli.booleanize

        def broken(lat):
            rep = real(lat)
            j = list(rep.j_masks)
            j[-1] ^= 1 << (j[-1].bit_length() - 1)
            return dataclasses.replace(rep, j_masks=tuple(j))

        monkeypatch.setattr(cli, "booleanize", broken)
        path = write(tmp_path, "poset.json", P3_DOC)
        out = tmp_path / "b.json"
        assert cli.main(["birkhoff", path, "-o", str(out)]) == 0
        assert '"round_trip_ok": false' in out.read_text()

    def test_birkhoff_on_a_poset_builds_no_element_view(self, tmp_path, monkeypatch):
        # O(P), its covers, J(L), the Booleanization, the payload and the
        # round trip all read the masks: no element becomes a frozenset
        docs = [P3_DOC, {"elements": list("abcde"), "covers": [["a", "c"], ["b", "c"], ["b", "d"]]}]
        paths = [write(tmp_path, f"poset{i}.json", doc) for i, doc in enumerate(docs)]
        expected = []
        for path in paths:
            assert cli.main(["birkhoff", path, "-o", str(tmp_path / "b.json")]) == 0
            expected.append((tmp_path / "b.json").read_text())

        def refuse(self):
            raise AssertionError("birkhoff built the frozenset view of the elements")

        monkeypatch.setattr(SetLattice, "elements", property(refuse))
        for path, text in zip(paths, expected):
            assert cli.main(["birkhoff", path, "-o", str(tmp_path / "b.json")]) == 0
            assert (tmp_path / "b.json").read_text() == text
            assert '"round_trip_ok": true' in text

    def test_exact_lift_crosses_labels_once(self, tmp_path, monkeypatch):
        # each family is masked once and becomes one SetLattice, checked as a
        # ring of sets and lifted on masks: no element becomes a frozenset
        three_cycle = {"type": "finite", "states": ["p", "q", "r"], "map": {"p": "q", "q": "r", "r": "p"}}
        runs = [
            (DS1_DOC, {"side": "attractor", "elements": DS1_ATTRACTORS}),
            (DS1_DOC, {"side": "repeller", "elements": DS1_REPELLERS}),
            (three_cycle, {"side": "attractor", "elements": [[], ["p", "q", "r"]]}),
            (three_cycle, {"side": "repeller", "elements": [[], ["p", "q", "r"]]}),
        ]
        paths = [(write(tmp_path, f"s{i}.json", doc), write(tmp_path, f"l{i}.json", sub)) for i, (doc, sub) in enumerate(runs)]
        out = tmp_path / "c.json"
        expected = []
        for spath, lpath in paths:
            assert cli.main(["lift", spath, lpath, "-o", str(out)]) == 0
            expected.append(out.read_text())

        def refuse(self):
            raise AssertionError("the exact lift built the frozenset view of the elements")

        inits = []
        real_init = SetLattice.__init__
        monkeypatch.setattr(SetLattice, "elements", property(refuse))
        monkeypatch.setattr(SetLattice, "__init__", lambda self, *args, **kw: inits.append(args) or real_init(self, *args, **kw))
        for (spath, lpath), text in zip(paths, expected):
            inits.clear()
            assert cli.main(["lift", spath, lpath, "-o", str(out)]) == 0
            assert out.read_text() == text
            assert len(inits) == 1

    def test_birkhoff_antichain(self, tmp_path):
        path = write(tmp_path, "poset.json", {"elements": ["a", "b", "c"], "covers": []})
        out = tmp_path / "b.json"
        assert cli.main(["birkhoff", path, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["elements"]) == 8

    def test_birkhoff_chain(self, tmp_path):
        path = write(
            tmp_path,
            "poset.json",
            {"elements": ["a", "b", "c", "d"], "covers": [["a", "b"], ["b", "c"], ["c", "d"]]},
        )
        out = tmp_path / "b.json"
        assert cli.main(["birkhoff", path, "-o", str(out)]) == 0
        assert len(json.loads(out.read_text())["elements"]) == 5

    def test_birkhoff_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["birkhoff", str(path)]) == 2

    def test_birkhoff_not_a_lattice_exit_5(self, tmp_path, capsys):
        path = write(tmp_path, "lattice.json", {"universe": ["a", "b"], "elements": [[], ["a"], ["b"]]})
        assert cli.main(["birkhoff", path]) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "not_a_lattice"

    def test_birkhoff_element_outside_the_universe_exit_5(self, tmp_path, capsys):
        path = write(tmp_path, "lattice.json", {"universe": ["a", "b"], "elements": [[], ["c"]]})
        assert cli.main(["birkhoff", path]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "not_a_lattice" and "'c'" in err["message"]


class TestOneParserPerProcess:
    """main builds its parser once per process; no call leaves state in it for the next."""

    CALLS = [
        (["analyze", "{system}", "--format", "dot"], ["analyze", "{system}"]),
        (["lift", "{grid}", "{attractors}", "--direct"], ["lift", "{grid}", "{attractors}"]),
        (["verify", "--seed", "5"], ["verify"]),
    ]

    @pytest.mark.parametrize("first, second", CALLS)
    def test_second_call_matches_a_fresh_process(self, tmp_path, capsys, first, second):
        paths = {
            "system": write(tmp_path, "system.json", DS1_DOC),
            "grid": write(tmp_path, "tripod.json", TRIPOD_DOC),
            "attractors": write(tmp_path, "sub.json", {"side": "attractor", "elements": TRIPOD_ATT}),
        }
        first, second = ([arg.format(**paths) for arg in argv] for argv in (first, second))
        cli.main(first)
        capsys.readouterr()
        code = cli.main(second)
        out, err = capsys.readouterr()
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        fresh = subprocess.run([sys.executable, "-m", "morselat.cli"] + second, env=env, capture_output=True, text=True)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from([1e-9, -0.0, math.inf, -math.inf, math.nan, 1e308, 5e-324])
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "\ud800"])
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)


def stdlib_text(x):
    """json.dumps's indented text of x, with the interpreter's int-to-str digit limit lifted for this call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(x, sort_keys=True, indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=400, deadline=None)
@given(JSON_TREES)
@example([3**10000, -(10**8000)])  # 4772 and 8001 digits, more than the interpreter writes at once
def test_dumps_writes_the_stdlib_text(x):
    assert dumps(x) == stdlib_text(x)


# -- fuzzed input fields --------------------------------------------------------

FUZZ_CASES = [
    ("analyze", [DS1_DOC]),
    ("analyze", [G1_DOC]),
    ("analyze", [TRIPOD_DOC]),
    ("lift", [DS1_DOC, {"side": "repeller", "elements": [[], ["m", "z"], ["a", "b"], list("mzab")]}]),
    ("lift", [TRIPOD_DOC, {"side": "attractor", "elements": TRIPOD_ATT, "pins": [[[0], [0, 1]]]}]),
    ("birkhoff", [P3_DOC]),
    ("birkhoff", [{"elements": ["1", "2"], "leq": [[True, True], [False, True]]}]),
    ("birkhoff", [{"universe": ["a", "b"], "elements": [[], ["a"], ["b"], ["a", "b"]]}]),
]
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 64)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e308])
    | st.text(max_size=4)
    | st.text(alphabet="abmz0123x+-*/^().", max_size=6)
)


def _nested(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


JSON_VALUES = _SCALARS | _nested(_SCALARS) | _nested(_SCALARS | _nested(_SCALARS))


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(FUZZ_CASES), data=st.data())
def test_fuzzed_field_exits_with_a_documented_code(case, data):
    command, docs = case
    which = data.draw(st.integers(0, len(docs) - 1))
    field = data.draw(st.sampled_from(sorted(docs[which])))
    docs = [dict(doc, **{field: data.draw(JSON_VALUES)}) if i == which else doc for i, doc in enumerate(docs)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(os.path.join(tmp, f"input{i}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command] + paths)
    assert code in (0, 2, 3, 4, 5)
    if code:
        assert "error" in json.loads(err.getvalue().splitlines()[-1])


class Label(str):
    pass


class Count(int):
    pass


def test_dumps_writes_subclasses_as_the_stdlib():
    x = {Label("k"): [Count(3), Label("v"), collections.OrderedDict(b=1, a=True)], "t": (None, 2.5)}
    assert dumps(x) == json.dumps(x, sort_keys=True, indent=2) + "\n"
