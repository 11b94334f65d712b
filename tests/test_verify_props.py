"""Spot checks of the proposition suites on small corpora.

The full-scale runs (all 4-state maps, 500 random systems) live in the
acceptance module; here the suites run on every system with up to three
states plus a seeded random batch, which already exercises every branch.
"""

import random

import pytest

from morselat import FiniteDynSys, verify
from morselat.dynsys import _inv, _inv_plus, _reach, ds1, ds2
from morselat.order import union_over
from morselat.verify import (
    CHECKS,
    SystemData,
    _restricted_masks,
    all_systems,
    check_p3_1,
    random_systems,
    run_verification,
)


@pytest.fixture(scope="module")
def small_corpus():
    systems = []
    for n in (1, 2, 3):
        systems.extend(all_systems(n))
    systems.extend(random_systems(60, 6, seed=1234))
    return systems


def test_corpus_sizes():
    assert len(list(all_systems(2))) == 4
    assert len(list(all_systems(3))) == 27
    assert len(list(all_systems(4))) == 256


def test_random_corpus_is_reproducible():
    a = [dict(s.next) for s in random_systems(10, 5, seed=9)]
    b = [dict(s.next) for s in random_systems(10, 5, seed=9)]
    assert a == b


def test_all_tags_pass_on_small_corpus(small_corpus):
    results = run_verification(small_corpus)
    failed = [r for r in results if not r.passed]
    assert not failed, f"failing tags: {[(r.tag, r.counterexample) for r in failed]}"
    assert {r.tag for r in results} == {tag for tag, _ in CHECKS}


def test_limit_tables_match_direct_computation():
    sys = FiniteDynSys("mzab", {"m": "z", "z": "z", "a": "b", "b": "b"})
    sd = SystemData(sys)
    for m in range(16):
        u = sys.unmask(m)
        assert sys.mask(sys.omega(u)) == sd.omega[m]
        assert sys.mask(sys.alpha(u)) == sd.alpha[m]


def _seeded_maps(count, n, seed):
    rng = random.Random(seed)
    return [FiniteDynSys(range(n), {s: rng.randrange(n) for s in range(n)}) for _ in range(count)]


def _backward_sources(sd, m):
    """The states of m reached inside m from the cycles inside m, walked directly."""
    out = sum(c for c in sd.cycles if not c & ~m)
    while sd.img[out] & m & ~out:
        out |= sd.img[out] & m
    return out


@pytest.mark.parametrize("corpus", ["all 4-state", "seeded 8-state"])
def test_tables_match_the_direct_computations(corpus):
    systems = all_systems(4) if corpus == "all 4-state" else _seeded_maps(12, 8, seed=5)
    for sys in systems:
        sd = SystemData(sys)
        for m in range(1 << sd.n):
            assert sd.img[m] == union_over(sys._img1, m)
            assert sd.pre[m] == union_over(sys._pre1, m)
            assert sd.inv[m] == _inv(sys._cycles, m)
            assert sd.invplus[m] == _inv_plus(sys._pre1, m)
            assert sd.omega_union[m] == union_over(sd.omega_pt, m)
            assert sd.alpha_union[m] == union_over(sd.alpha_pt, m)
            assert sd.splus[m] == sum(1 << i for i in range(sd.n) if not sd.omega_pt[i] & m)
            assert sd.sminus[m] == _reach(sys._img1, sum(c for c in sd.cycles if not c & m))
            assert sd.backward_sources[m] == _backward_sources(sd, m)


def test_each_dual_is_computed_once_per_system(monkeypatch):
    # counts the computations with their Eq (6)/(7) cross-checks, over every tag
    calls = []
    for name in ("_attractor_star", "_repeller_star"):
        real = getattr(FiniteDynSys, name)
        monkeypatch.setattr(
            FiniteDynSys, name, lambda self, m, real=real, name=name: calls.append((name, m)) or real(self, m)
        )
    for sys in _seeded_maps(5, 7, seed=2):
        calls.clear()
        run_verification([sys])
        assert calls and len(calls) == len(set(calls))


def test_checks_detect_a_broken_operator(monkeypatch):
    # sanity of the harness itself: corrupt one omega value and the
    # additivity tag must notice; corrupt Inv of the whole space, an
    # attracting neighborhood, and P3.1 must notice
    sys = FiniteDynSys((0, 1), {0: 1, 1: 1})
    sd = SystemData(sys)
    sd.omega = list(sd.omega)
    sd.omega[1] = 3
    from morselat.verify import check_p2_11

    assert check_p2_11(sd) is not None
    sd = SystemData(sys)
    assert check_p3_1(sd) is None
    sd.inv[3] = 3
    assert check_p3_1(sd) is not None


def test_restricted_masks_are_the_restricted_lattices():
    # P3.7 and P3.28 build no lattice of the restricted system; here each one
    # is built with its full validation and must list, in order, the sets
    # they read: every map of at most 4 states and 100 of 5 to 10 states
    systems = [sys for n in range(1, 5) for sys in all_systems(n)]
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(5, 10)
        systems.append(FiniteDynSys(range(n), {s: rng.randrange(n) for s in range(n)}))
    sides = (
        (FiniteDynSys._recurrent_unions, FiniteDynSys.att_lattice),
        (FiniteDynSys._basin_unions, FiniteDynSys.rep_lattice),
    )
    for sys in systems:
        for masks_of, lattice_of in sides:
            for e in masks_of(sys):
                if e:
                    lat = lattice_of(sys.restrict(sys.unmask(e)))
                    assert [sys.unmask(m) for m in _restricted_masks(sys, e, masks_of)] == list(lat.elements)


def test_p3_7_and_p3_28_fire_from_the_restricted_side(monkeypatch):
    # the 2-cycle {0, 1} and the fixed point 3 with 2 in its basin, with the
    # lowest state of every restriction made a fixed point: restricted to
    # {0, 1} the map gains the foreign attractor {0}, restricted to {2, 3}
    # the foreign repeller {2}; the unrestricted system's tables are intact
    sys = FiniteDynSys(range(4), {0: 1, 1: 0, 2: 3, 3: 3})
    real = FiniteDynSys.restrict

    def restrict(self, subset):
        sub = real(self, subset)
        low = sub.states[0]
        return FiniteDynSys(sub.states, {**sub.next, low: low})

    monkeypatch.setattr(FiniteDynSys, "restrict", restrict)
    results = run_verification([sys], tags={"P3.7", "P3.28"})
    assert [(r.tag, r.passed, r.counterexample) for r in results] == [
        ("P3.7", False, (sys.next, (frozenset({0, 1}), frozenset({0})))),
        ("P3.28", False, (sys.next, (frozenset({2, 3}), frozenset({2})))),
    ]


def entry(name, i, value):
    """Set entry i of the SystemData table ``name``."""

    def corrupt(sd):
        getattr(sd, name)[i] = value

    return corrupt


def extra(name, *masks):
    """Append masks to the SystemData family ``name``."""
    return lambda sd: setattr(sd, name, getattr(sd, name) + list(masks))


def memo(key, value):
    """Set one entry of the system's memo of duals."""
    return lambda sd: sd.sys._duals.__setitem__(key, value)


def method_at(name, m, value):
    """Make the system's method ``name`` return value at the mask m."""

    def corrupt(sd):
        real = getattr(sd.sys, name)
        setattr(sd.sys, name, lambda x: value if x == m else real(x))

    return corrupt


def fixed_point_and_feeder():
    return FiniteDynSys((0, 1), {0: 0, 1: 0})


def fs(*items):
    return frozenset(items)


# one corruption of a table (or of the system's memo or one method) after
# SystemData is built, and the counterexample the tag must report:
# (id, tag, system, corruption, witness).  On ds1, m -> z -> z and a -> b -> b,
# masks have bit 1 for m, 2 for z, 4 for a and 8 for b; ds2 is the 3-cycle
VERIFY_REPORTS = [
    ("P2.5", "P2.5", ds1, entry("img", 1, 1), fs("m")),
    ("C2.6", "C2.6", ds1, extra("fwdbwd", 1), fs("m")),
    ("L2.7 union", "L2.7", ds1, entry("inv", 3, 3), (fs("m", "z"), fs("b"), "union")),
    ("L2.7 intersection", "L2.7", fixed_point_and_feeder, entry("inv", 2, 3), (fs(1), fs(1), "intersection")),
    ("P2.8 distributivity", "P2.8", ds2, extra("invariant", 1, 6), (fs(0, 1, 2), fs(0), fs(1, 2), "distributivity")),
    ("L2.10", "L2.10", ds1, entry("invplus", 1, 1), fs("m")),
    ("P2.11 v", "P2.11", ds1, entry("omega_union", 1, 3), (fs("m"), "v")),
    ("P2.11 vii", "P2.11", ds1, entry("backward_sources", 1, 1), (fs("m"), "vii")),
    ("P2.13 vi Inv+ outside alpha", "P2.13", ds1, entry("invplus", 2, 6), (fs("z"), "vi")),
    ("P2.13 vi Inv+ != alpha", "P2.13", ds1, entry("invplus", 3, 2), (fs("m", "z"), "vi")),
    ("P2.13 vii not backward invariant", "P2.13", ds1, entry("pre", 3, 7), (fs("m", "z"), "vii")),
    ("P2.13 vii surjective", "P2.13", ds2, entry("inv", 7, 3), (fs(0, 1, 2), "vii")),
    ("P2.13 viii", "P2.13", ds1, extra("fwdbwd", 1), (fs("m"), "viii")),
    ("P2.15", "P2.15", ds1, entry("alpha_pt", 1, 0), ("z", fs("z"))),
    ("P2.16 S+", "P2.16", ds1, entry("splus", 0, 1), (fs(), "S+ not forward-backward invariant")),
    ("P2.16 S-", "P2.16", ds1, entry("sminus", 0, 1), (fs(), "S- not invariant")),
    ("P2.16 S meets S+", "P2.16", ds1, entry("splus", 2, 15), (fs("z"), "invariant S meets S+")),
    ("P2.16 S meets S-", "P2.16", ds1, entry("sminus", 3, 10), (fs("m", "z"), "forward-backward invariant S meets S-")),
    ("P3.12", "P3.12", ds1, entry("invplus", 1, 1), (fs("m"), "repeller not forward-backward invariant")),
    ("P4.7 join law", "P4.7", ds1, memo((2, True), 13), (fs("z"), fs("b"), "join law")),
    ("P4.7 meet law", "P4.7", ds1, entry("inv", 0, 2), (fs(), fs(), "meet law")),
    ("P4.7 involution", "P4.7", ds1, memo((12, False), 3), (fs("z"), "involution")),
    ("D1 Inv", "D1", ds1, method_at("_omega_mask", 2, 10),
     ("Inv(U) != omega(U) on an attracting neighborhood", fs("z"))),
    ("D1 complement", "D1", ds1, method_at("_alpha_mask", 12, 13),
     ("U attracting but U^c not repelling", fs("m", "z"))),
    ("D1 Inv+", "D1", ds1, method_at("_alpha_mask", 12, 8), ("Inv+(U^c) != alpha(U^c)", fs("m", "z"))),
    ("T3.19", "T3.19", ds1, memo((2, True), 13), (fs("z"), fs("a", "b"))),
]


@pytest.mark.parametrize(
    "tag, make, corrupt, witness", [r[1:] for r in VERIFY_REPORTS], ids=[r[0] for r in VERIFY_REPORTS]
)
def test_each_verify_report_fires(monkeypatch, tag, make, corrupt, witness):
    class Corrupted(SystemData):
        def __init__(self, sys):
            super().__init__(sys)
            corrupt(self)

    sys = make()
    assert run_verification([sys], tags={tag})[0].passed
    monkeypatch.setattr(verify, "SystemData", Corrupted)
    (result,) = run_verification([make()], tags={tag})
    assert (result.passed, result.counterexample) == (False, (sys.next, witness))
