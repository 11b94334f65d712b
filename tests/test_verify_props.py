"""Spot checks of the proposition suites on small corpora.

The full-scale runs (all 4-state maps, 500 random systems) live in the
acceptance module; here the suites run on every system with up to three
states plus a seeded random batch, which already exercises every branch.
"""

import random

import pytest

from morselat import FiniteDynSys
from morselat.dynsys import _inv, _inv_plus, _reach
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
