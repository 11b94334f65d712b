"""`analyze` output on the fixtures, byte for byte against data/golden.

Each golden is the CLI output with ``config.inputs`` cut to the input's file
name, so it does not depend on where the input was written.  After a
deliberate change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from morselat import cli

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


def analyze(directory, name, fmt) -> str:
    """The CLI output for INPUTS[name], with the input path cut to its file name."""
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(INPUTS[name], fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", path, "--format", fmt]) == 0
    return out.getvalue().replace(json.dumps(path), json.dumps(f"{name}.json"))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_analyze_matches_golden(tmp_path, name, fmt):
    assert analyze(str(tmp_path), name, fmt) == (GOLDEN / f"{name}.analyze.{fmt}").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(INPUTS):
            for fmt in FORMATS:
                (GOLDEN / f"{name}.analyze.{fmt}").write_text(analyze(tmp, name, fmt))
