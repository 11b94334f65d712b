import random

import pytest

from conftest import commuting_square_oracle
from morselat import (
    FiniteDynSys,
    InvalidOrbit,
    NotAnAttractor,
    NotARepeller,
    NotForwardInvariant,
    Orbit,
    ds1,
    ds2,
)
from morselat.verify import SystemData, all_systems, check_d1


def S(labels):
    return frozenset(labels)


class TestImages:
    def test_one_step_image(self, sys1):
        assert sys1.image(S("m")) == S("z")

    def test_preimage_mirrors_the_interval_example(self, sys1):
        # the finite mimic of the quadratic map: f^-1 of the invariant point
        # picks up its extra preimage
        assert sys1.preimage(S("b")) == S("ab")

    def test_zero_step_is_identity(self, sys1):
        assert sys1.image(S("ma"), t=0) == S("ma")

    def test_preimage_may_be_empty(self, sys1):
        assert sys1.preimage(S("m")) == S("")

    def test_reachable_forward(self, sys1):
        assert sys1.reachable_forward(S("m")) == S("mz")

    def test_reachable_backward(self, sys1):
        assert sys1.reachable_backward(S("z")) == S("mz")

    def test_reachable_forward_full(self, sys1):
        assert sys1.reachable_forward(S("mzab")) == S("mzab")


class TestInvarianceClasses:
    def test_fixed_point_invariant_not_strong(self, sys1):
        flags = sys1.classify_invariance(S("b"))
        assert flags.invariant and flags.forward
        assert not flags.strong and not flags.backward

    def test_forward_but_not_invariant(self, sys1):
        flags = sys1.classify_invariance(S("mz"))
        assert flags.forward and not flags.invariant
        assert flags.backward  # m has no preimage at all

    def test_phase_space_forward_backward(self, sys1):
        assert sys1.classify_invariance(S("mzab")).forward_backward

    def test_consistency_strong(self, sys2):
        flags = sys2.classify_invariance(S({0, 1, 2}))
        assert flags.strong == (flags.invariant and flags.forward_backward)
        assert flags.strong


class TestInvOperators:
    def test_inv_of_everything(self, sys1):
        assert sys1.inv(S("mzab")) == S("zb")

    def test_inv_prunes_transients(self, sys1):
        assert sys1.inv(S("mza")) == S("z")

    def test_inv_empty(self, sys1):
        assert sys1.inv(S("")) == S("")

    def test_inv_plus_keeps_forward_closed(self, sys1):
        assert sys1.inv_plus(S("mz")) == S("mz")

    def test_inv_plus_escapees(self, sys1):
        assert sys1.inv_plus(S("ma")) == S("")

    def test_inv_plus_full(self, sys1):
        assert sys1.inv_plus(S("mzab")) == S("mzab")


class TestLimitSets:
    def test_omega_of_point(self, sys1):
        assert sys1.omega(S("m")) == S("z")

    def test_omega_of_space_equals_inv(self, sys1):
        assert sys1.omega(S("mzab")) == S("zb") == sys1.inv(S("mzab"))

    def test_omega_empty(self, sys1):
        assert sys1.omega(S("")) == S("")

    def test_alpha_accumulates_preimages(self, sys1):
        assert sys1.alpha(S("z")) == S("mz")

    def test_alpha_can_be_empty(self, sys1):
        assert sys1.alpha(S("m")) == S("")

    def test_alpha_on_surjective_cycle(self, sys2):
        assert sys2.alpha(S({0})) == S({0, 1, 2})


class TestOrbits:
    def test_constant_backward_orbit(self, sys1):
        orbit = Orbit(pre=(), cycle=("z",))
        assert sys1.alpha_orbital(orbit) == S("z")

    def test_cycle_backward_orbit(self, sys2):
        orbits = sys2.backward_orbits_through(0)
        assert len(orbits) == 1
        assert sys2.alpha_orbital(orbits[0]) == S({0, 1, 2})

    def test_orbital_alpha_is_invariant_and_inside_alpha(self, sys1, sys2, sys3):
        for sys in (sys1, sys2, sys3):
            for x in sys.states:
                for orbit in sys.backward_orbits_through(x):
                    a = sys.alpha_orbital(orbit)
                    assert a
                    assert sys.image(a) == a
                    assert a <= sys.alpha(S({x}))

    def test_invalid_orbit_rejected(self, sys1):
        with pytest.raises(InvalidOrbit):
            sys1.alpha_orbital(Orbit(pre=("m",), cycle=("b",)))

    def test_forward_orbit_direction_rejected(self, sys1):
        with pytest.raises(InvalidOrbit):
            sys1.alpha_orbital(Orbit(pre=(), cycle=("z",), backward=False))

    # per system and direction: a valid orbit, one with a broken link, one whose cycle does not close
    @pytest.mark.parametrize("make, backward, valid, broken_link, open_cycle", [
        (ds1, False, (("m",), ("z",)), (("m",), ("b",)), ((), ("m", "z"))),
        (ds1, True, (("z",), ("z",)), (("m",), ("b",)), ((), ("z", "m"))),
        (ds2, False, ((0,), (1, 2, 0)), ((0,), (2, 0, 1)), ((), (0, 1))),
        (ds2, True, ((0,), (2, 1, 0)), ((0,), (1, 2, 0)), ((), (2, 1))),
    ])
    def test_orbit_links_in_both_directions(self, make, backward, valid, broken_link, open_cycle):
        sys = make()
        sys.validate_orbit(Orbit(*valid, backward))
        for pre, cycle in (broken_link, open_cycle):
            with pytest.raises(InvalidOrbit):
                sys.validate_orbit(Orbit(pre, cycle, backward))


class TestDualSets:
    def test_dual_plus(self, sys1):
        assert sys1.dual_plus(S("z")) == S("ab")

    def test_dual_minus(self, sys1):
        assert sys1.dual_minus(S("ab")) == S("z")

    def test_dual_plus_of_space_is_empty(self, sys1):
        assert sys1.dual_plus(S("mzab")) == S("")

    def test_dual_minus_matches_its_orbit_definition(self):
        # S- from the orbits themselves: the states with some backward orbit
        # whose orbital alpha-limit misses S, on every map of four states
        for sys in all_systems(4):
            alphas = {x: [sys.alpha_orbital(o) for o in sys.backward_orbits_through(x)] for x in sys.states}
            for m in range(16):
                s = sys.unmask(m)
                expected = {x for x, orbit_alphas in alphas.items() if any(not a & s for a in orbit_alphas)}
                assert sys.dual_minus(s) == expected


class TestRestrict:
    def test_restriction_to_invariant_is_surjective(self, sys1):
        sub = sys1.restrict(S("zb"))
        assert set(sub.states) == set("zb")
        assert sub.is_surjective()

    def test_restriction_to_space_is_identity(self, sys1):
        sub = sys1.restrict(S("mzab"))
        assert sub.next == sys1.next

    def test_restriction_need_not_be_surjective(self, sys1):
        sub = sys1.restrict(S("mz"))
        assert not sub.is_surjective()

    def test_rejects_non_forward_invariant(self, sys1):
        with pytest.raises(NotForwardInvariant):
            sys1.restrict(S("ma"))


class TestRegionsAndNeighborhoods:
    def test_mz_is_both_trapping_and_repelling(self, sys1):
        trap = sys1.is_trapping_region(S("mz"))
        rep = sys1.is_repelling_region(S("mz"))
        assert trap and trap.tau == 1
        assert rep and rep.tau == -1

    def test_empty_and_space_are_both(self, sys1):
        for u in (S(""), S("mzab")):
            assert sys1.is_trapping_region(u)
            assert sys1.is_repelling_region(u)

    def test_attracting_nbhd_examples(self, sys1):
        assert not sys1.is_attracting_nbhd(S("mza"))
        assert sys1.is_attracting_nbhd(S("mz"))
        assert sys1.is_repelling_nbhd(S("ab"))

    def test_space_is_both_neighborhoods(self, sys1):
        assert sys1.is_attracting_nbhd(S("mzab"))
        assert sys1.is_repelling_nbhd(S("mzab"))


class TestLattices:
    def test_ds1_attractors(self, sys1):
        att = sys1.att_lattice()
        assert {e for e in att.elements} == {S(""), S("z"), S("b"), S("zb")}

    def test_ds1_repellers(self, sys1):
        rep = sys1.rep_lattice()
        assert {e for e in rep.elements} == {S(""), S("mz"), S("ab"), S("mzab")}

    def test_three_cycle_has_trivial_lattices(self, sys2):
        full = S({0, 1, 2})
        assert {e for e in sys2.att_lattice().elements} == {S(()), full}
        assert {e for e in sys2.rep_lattice().elements} == {S(()), full}

    def test_att_meet_is_inv_of_intersection(self, sys1):
        att = sys1.att_lattice()
        assert att.meet(S("zb"), S("z")) == S("z")


class TestDualMaps:
    def test_dual_repeller_ds1(self, sys1):
        assert sys1.dual_repeller(S("z")) == S("ab")

    def test_top_attractor_dualizes_to_bottom(self, sys1):
        assert sys1.dual_repeller(S("zb")) == S("")

    def test_ds3_dual(self, sys3):
        assert sys3.dual_repeller(S("p")) == S("r")

    def test_double_duality(self, sys1):
        for a in sys1.att_lattice().elements:
            assert sys1.dual_attractor(sys1.dual_repeller(a)) == a

    def test_not_an_attractor(self, sys1):
        with pytest.raises(NotAnAttractor):
            sys1.dual_repeller(S("m"))

    def test_not_a_repeller(self, sys1):
        with pytest.raises(NotARepeller):
            sys1.dual_attractor(S("b"))


class TestArPairs:
    def test_good_pair(self, sys1):
        assert sys1.check_ar_pair(S("z"), S("ab"))

    def test_bad_pair_reports(self, sys1):
        report = sys1.check_ar_pair(S("z"), S("b"))
        assert not report
        assert report.law is not None

    def test_top_pair(self, sys1):
        assert sys1.check_ar_pair(sys1.inv(S("mzab")), S(""))


class TestCommutingSquare:
    def test_ds1(self, sys1):
        assert sys1.commuting_square_check()

    def test_ds2(self, sys2):
        assert sys2.commuting_square_check()

    def test_ds3(self, sys3):
        assert sys3.commuting_square_check()


def square_verdicts(sys):
    """(ok, law, witness) of the exhaustive oracle, commuting_square_check() and verify's D1."""
    d1 = check_d1(SystemData(sys))
    return [
        (r.ok, r.law, r.witness) for r in (commuting_square_oracle(sys), sys.commuting_square_check())
    ] + [(True, None, None) if d1 is None else (False, *d1)]


def seeded_maps(count, seed, low, high):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(low, high)
        yield FiniteDynSys(range(n), {i: rng.randrange(n) for i in range(n)})


class TestSquareAgainstOracle:
    """The certificate-family square of analyze and the D1 walk agree with the exhaustive oracle."""

    def test_every_small_map(self):
        for n in range(1, 6):
            for sys in all_systems(n):
                assert all(v[0] for v in square_verdicts(sys)), dict(sys.next)

    def test_seeded_maps(self):
        for sys in seeded_maps(200, 14, 6, 12):
            assert all(v[0] for v in square_verdicts(sys)), dict(sys.next)

    @pytest.mark.parametrize("of_attractor", [True, False], ids=["A*", "R*"])
    def test_corrupt_dual_memo(self, of_attractor):
        # one wrong memo entry for each attractor A in turn: A* itself, or
        # (A*)* keyed by the true A*; a fresh system for each
        maps = [dict(s.next) for s in seeded_maps(6, 3, 3, 7)] + [{0: 0, 1: 0, 2: 2, 3: 2}]
        for table in maps:
            for a in FiniteDynSys(list(table), table)._recurrent_unions():
                sys = FiniteDynSys(list(table), table)
                key = (a, True) if of_attractor else (sys._dual_mask(a, True), False)
                sys._duals[key] = sys._dual_mask(*key) ^ 1
                oracle, square, d1 = square_verdicts(sys)
                assert not oracle[0], (table, key)
                assert square[:2] == oracle[:2], (table, key)
                assert d1 == oracle, (table, key)
