import json
import os
import subprocess
import sys

import pytest

from morselat import SetLattice, cli, ds1
from morselat.formats import (
    InputError,
    RunConfig,
    dumps,
    hasse_dot,
    lattice_payload,
    load_gridmap,
    load_poset,
    load_system,
    parse_dot,
)

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


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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
        lat = SetLattice(labels, elems)
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

    def test_bound_overflow_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MORSELAT_MAX_ENUM", "2")
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

    def test_cell_map_analyze(self, tmp_path):
        path = write(tmp_path, "tripod.json", {"type": "cell_map", "cells": 4, "arrows": [[0], [0], [1, 2], [1, 3]]})
        out = tmp_path / "lat.json"
        assert cli.main(["analyze", path, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["elements"] == [[], [0], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3]]
        assert [a["cells"] for a in payload["attractors"]] == payload["elements"]
        assert payload["config"]["grid"] == {"domain": [0.0, 4.0], "cells": 4}


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
        src = os.path.dirname(os.path.dirname(cli.__file__))
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-m", "morselat.cli", "lift", spath, lpath],
                env=env, capture_output=True, check=True,
            )
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]

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
        # without the pin and with a fatter seed the duality route succeeds
        lpath2 = write(
            tmp_path,
            "sub2.json",
            {"side": "attractor", "elements": [[], [0], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3]]},
        )
        assert cli.main(["lift", spath, lpath2, "-o", str(tmp_path / "ok.json")]) == 0


class TestCliVerifyBirkhoff:
    def test_verify_small_corpus(self, tmp_path):
        out = tmp_path / "report.txt"
        assert cli.main(["verify", "--exhaustive", "3", "-o", str(out)]) == 0
        text = out.read_text()
        assert "P2.11" in text and "FAIL" not in text

    def test_birkhoff_p3(self, tmp_path):
        path = write(tmp_path, "poset.json", P3_DOC)
        out = tmp_path / "b.json"
        assert cli.main(["birkhoff", path, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["elements"]) == 5
        assert len(payload["join_irreducibles"]) == 3
        assert payload["round_trip_ok"] is True

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
