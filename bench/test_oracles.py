"""The benchmark's oracles against hand-known values.

    python3 -m pytest bench/test_oracles.py

These tests import nothing from morselat: they pin the reference
computations that judge the program's outputs.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import CellArrows, ExactMap, FinitePoset, Mismatch, check_birkhoff, check_certificate  # noqa: E402
from workloads import TRIPOD, _g1, bounded_sublattices, engine_false_obstruction, lift_found, sampled_arrows  # noqa: E402

S = frozenset


def ds1():
    return ExactMap("mzab", {"m": "z", "z": "z", "a": "b", "b": "b"})


def test_ds1_ledger():
    m = ds1()
    assert m.attractors() == {S(), S("z"), S("b"), S("zb")}
    assert m.repellers() == {S(), S("mz"), S("ab"), S("mzab")}
    assert m.dual_repeller(S("z")) == S("ab")
    assert m.dual_repeller(S()) == S("mzab")
    # each basin has one transient state over a fixed point: (1 + 2) * (1 + 2)
    assert m.nbhd_count() == 9


def test_ds1_maps_h_and_neighbourhoods():
    m = ds1()
    assert m.inv(S("mzab")) == S("zb")
    assert m.inv(S("mza")) == S("z")
    assert m.inv_plus(S("ma")) == S()
    assert m.inv_plus(S("mza")) == S("mz")
    assert m.is_attracting_nbhd(S("mz")) and not m.is_attracting_nbhd(S("m"))
    assert m.is_repelling_nbhd(S("m")) and not m.is_repelling_nbhd(S("z"))


def test_three_cycle_has_two_attractors():
    m = ExactMap([0, 1, 2], {0: 1, 1: 2, 2: 0})
    assert m.attractors() == {S(), S({0, 1, 2})}
    assert m.nbhd_count() == 2


def test_tripod_lattices():
    cm = CellArrows(TRIPOD)
    assert cm.attractors() == {S(), S({0}), S({0, 1, 2}), S({0, 1, 3}), S({0, 1, 2, 3})}
    assert cm.repellers() == {S(), S({2}), S({3}), S({2, 3}), S({0, 1, 2, 3})}
    assert cm.walk_core(S({0, 1})) == S({0})
    assert cm.inv_plus(S({1, 2})) == S({2})
    assert cm.is_attracting_block(S({0, 1})) and not cm.is_attracting_block(S({1}))
    assert cm.is_repelling_block(S({2})) and not cm.is_repelling_block(S({1}))


def test_tripod_lifts_exist_on_every_route():
    cm = CellArrows(TRIPOD)
    att, rep = cm.attractors(), cm.repellers()
    assert lift_found(cm, "attractor", att, True)
    assert lift_found(cm, "attractor", att, False)
    assert lift_found(cm, "repeller", rep, False)


def test_tripod_direct_route_is_a_false_obstruction_for_the_engine():
    cm = CellArrows(TRIPOD)
    att = cm.attractors()
    # the direct route anchors k({0}) at the block {0}; the only lift needs {0, 1}
    assert not lift_found(cm, "attractor", att, True, capped=True)
    assert lift_found(cm, "attractor", att, False, capped=True)
    assert engine_false_obstruction(TRIPOD)


def test_g1_has_seventeen_attractors_at_sixteen_cells():
    cm = CellArrows(sampled_arrows(_g1, -1.0, 1.0, 16))
    assert len(cm.attractors()) == 17


@pytest.mark.parametrize(
    "elements, covers, count, pairs",
    [
        (["1", "2", "3"], [("1", "2"), ("1", "3")], 5, 5),
        (["a", "b", "c"], [], 8, 12),
        (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")], 5, 4),
    ],
)
def test_down_sets(elements, covers, count, pairs):
    p = FinitePoset(elements, covers)
    downs = p.down_sets()
    assert len(downs) == count == len(set(downs))
    full = S(elements)
    assert sum(len(p.minimal(full - d)) for d in downs) == pairs


def test_birkhoff_check_rejects_a_wrong_count():
    p = FinitePoset(["1", "2", "3"], [("1", "2"), ("1", "3")])
    elements = [[], ["1"], ["1", "2"], ["1", "3"], ["1", "2", "3"]]
    out = {
        "elements": elements,
        "booleanization_ground": [["1"], ["1", "2"], ["1", "3"]],
        "join_irreducibles": [["1"], ["1", "2"], ["1", "3"]],
        "hasse": [[0, 1], [1, 2], [1, 3], [2, 4], [3, 4]],
        "round_trip_ok": True,
    }
    check_birkhoff(p, out)
    with pytest.raises(Mismatch):
        check_birkhoff(p, dict(out, hasse=out["hasse"][:-1]))


def test_boolean_square_has_four_bounded_sublattices():
    family = {S(), S("a"), S("b"), S("ab")}
    assert len(list(bounded_sublattices(family))) == 4


def _ds1_repeller_certificate(top_neighbourhood):
    # J(Rep) = {mz}, {ab}; k is the identity on them
    return {
        "poset": {"elements": [["m", "z"], ["a", "b"]], "covers": []},
        "assignment": [
            {"downset": [], "neighborhood": []},
            {"downset": [["m", "z"]], "neighborhood": ["m", "z"]},
            {"downset": [["a", "b"]], "neighborhood": ["a", "b"]},
            {"downset": [["a", "b"], ["m", "z"]], "neighborhood": top_neighbourhood},
        ],
        "top_preserved": True,
    }


def test_certificate_check():
    m = ds1()
    cert = _ds1_repeller_certificate(["a", "b", "m", "z"])
    check_certificate(cert, m.inv_plus, m.is_repelling_nbhd, m.ambient, m.repellers())
    with pytest.raises(Mismatch):
        check_certificate(_ds1_repeller_certificate(["a", "b", "z"]), m.inv_plus, m.is_repelling_nbhd,
                          m.ambient, m.repellers())
