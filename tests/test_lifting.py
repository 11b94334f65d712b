import dataclasses
import functools
import itertools
import random
import re
from operator import or_

import pytest
from hypothesis import assume, given, settings

from morselat import (
    CellGrid,
    CellMap,
    ConditionerMissing,
    FiniteDynSys,
    LiftError,
    LiftProblem,
    NotALattice,
    NotASublattice,
    ObstructionFound,
    PartialLift,
    Poset,
    SectionInconsistent,
    SetLattice,
    attractor_lift,
    attractor_sublattice,
    birkhoff_embedding,
    check_condition_i,
    comb_rep_lattice,
    grid_attractor_lift,
    grid_lift_problem,
    ingest_interval_map,
    is_conditional_lift,
    is_partial_lift,
    lift,
    repeller_lift,
    repeller_lift_problem,
    repeller_sublattice,
    spaciousness_falsifier,
)
from morselat import dynsys_lift, grid, lattice, order
from morselat.dynsys import _inv, ds1
from morselat.grid import _comb_inv_plus, _morse_attractors, comb_att_lattice, comb_inv_plus
from morselat.lattice import checked_sublattice, label_masks, sublattices
from morselat.order import all_posets, members
from conftest import condition_i_oracle, falsifier_oracle, forward_closure, small_cell_maps, small_maps


def fs(*items):
    return frozenset(items)


TRIPOD_FAMILY = [fs(), fs(0), fs(0, 1, 2), fs(0, 1, 3), fs(0, 1, 2, 3)]


def top(problem):
    """The mask of the whole carrier, the top of O(P)."""
    return (1 << len(problem.poset)) - 1


def powerset_lattice(labels):
    subs = [
        frozenset(c)
        for r in range(len(labels) + 1)
        for c in itertools.combinations(labels, r)
    ]
    return SetLattice.of_sets(labels, subs)


def identity_problem(labels="ab"):
    """h = identity on a powerset; any embedding lifts with k = s."""
    lat = powerset_lattice(labels)
    poset, s = birkhoff_embedding(lat)
    return LiftProblem(
        poset=poset,
        s=s,
        universe=tuple(labels),
        h=lambda u: u,
        section=lambda l: l,
        member=lambda u: True,
    )


class TestPartialLift:
    def test_identity_partial_lift_any_lambda(self):
        prob = identity_problem()
        for lam_members in (fs(), fs(fs("a")), fs(fs("a"), fs("b"))):
            lam = prob.poset.mask_of(lam_members)
            table = {d: prob.s[d] for d in prob.down_sets if not d & ~lam}
            table[top(prob)] = prob.ambient
            cand = PartialLift(prob, lam, table)
            assert is_partial_lift(cand)

    def test_missing_top_entry_is_a_violation(self):
        prob = identity_problem()
        cand = PartialLift(prob, 0, {0: 0})
        report = is_partial_lift(cand)
        assert not report and "k(1)" in report.law

    def test_ds1_repeller_self_assignment(self, sys1):
        prob = repeller_lift_problem(sys1, sys1.rep_lattice().elements)
        q1 = prob.poset.carrier[0]
        lam = prob.poset.mask_of({q1})
        table = {
            0: 0,
            lam: sys1.mask(q1),  # the repeller itself, a repelling neighborhood of itself
            top(prob): prob.ambient,
        }
        assert is_partial_lift(PartialLift(prob, lam, table))


class TestConditionalLift:
    def test_self_conditioners_pass(self):
        prob = identity_problem()
        lam = prob.poset.mask_of({fs("a")})
        table = {d: prob.s[d] for d in prob.down_sets if not d & ~lam}
        table[top(prob)] = prob.ambient
        cond = dict(prob.s)
        cand = PartialLift(prob, lam, table, cond)
        assert is_conditional_lift(cand)

    def test_missing_conditioner_raises(self):
        prob = identity_problem()
        lam = prob.poset.mask_of({fs("a")})
        table = {d: prob.s[d] for d in prob.down_sets if not d & ~lam}
        table[top(prob)] = prob.ambient
        cand = PartialLift(prob, lam, table, {0: 0})
        with pytest.raises(ConditionerMissing):
            is_conditional_lift(cand)

    def test_shrunk_conditioners_still_pass(self, sys1):
        # a conditioner below a passing one, with the same h image, passes
        prob = repeller_lift_problem(sys1, sys1.rep_lattice().elements)
        lam = prob.poset.mask_of({prob.poset.carrier[0]})
        table = {d: prob.s[d] for d in prob.down_sets if not d & ~lam}
        table[top(prob)] = prob.ambient
        cond = dict(prob.s)  # repeller-self conditioners
        assert is_conditional_lift(PartialLift(prob, lam, table, dict(cond)))

    def test_unconstrained_pairs_impose_nothing(self, tripod_problem):
        # with lambda a single minimal element, the only active constraint is
        # gamma = down q against alpha avoiding q, and the attractor-self
        # conditioners satisfy it
        prob, a0d, amd, apd = tripod_problem
        lam = a0d
        table = {d: (0b1 if d else 0) for d in prob.down_sets if not d & ~lam}
        table[top(prob)] = prob.ambient
        cond = {d: prob.s[d] for d in prob.down_sets}
        assert is_conditional_lift(PartialLift(prob, lam, table, cond))

    def test_branch_overlap_breaks_the_annihilation_law(self, tripod_problem):
        # at lambda = both left elements, the right-branch conditioner meets
        # the atom of the left branch in the stem cell
        prob, a0d, amd, apd = tripod_problem
        lam = amd  # members {A0, A-}
        table = {
            0: 0,
            a0d: 0b1,  # {0}
            amd: 0b111,  # {0, 1, 2}
            top(prob): prob.ambient,
        }
        cond = {d: prob.s[d] for d in prob.down_sets}
        cand = PartialLift(prob, lam, table, cond)
        report = is_conditional_lift(cand)
        assert not report and "Eq (18)" in report.law


@pytest.fixture
def tripod_problem(tripod):
    """The direct attractor-side problem on the branched fixture."""
    from morselat.grid import comb_att_lattice, comb_inv, is_attracting_block

    lat = comb_att_lattice(tripod)
    poset, s = birkhoff_embedding(lat)
    a0 = fs(0)
    am = fs(0, 1, 2)
    ap = fs(0, 1, 3)
    prob = LiftProblem(
        poset=poset,
        s=s,
        universe=lat.universe,
        h=lambda n: lat.mask_of(comb_inv(lat.labels(n), tripod)),
        section=lambda l: l,
        member=lambda n: is_attracting_block(lat.labels(n), tripod),
    )
    a0d = poset.mask_of({a0})
    amd = poset.mask_of({a0, am})
    apd = poset.mask_of({a0, ap})
    return prob, a0d, amd, apd


class TestLift:
    def test_identity_epimorphism(self):
        cert = lift(identity_problem())
        cert.verify()
        for d in cert.problem.down_sets:
            assert cert.table[d] == cert.problem.s[d]

    def test_ds1_full_repeller_lattice(self, sys1):
        cert = repeller_lift(sys1, sys1.rep_lattice().elements)
        cert.verify()
        # with repeller-self conditioners the lift maps each repeller to itself
        prob = cert.problem
        for d, v in cert.table.items():
            assert sys1.inv_plus(sys1.unmask(v)) == sys1.unmask(prob.s[d])
        assert cert.top_preserved

    def test_audit_checks_recorded(self, sys1):
        cert = repeller_lift(sys1, sys1.rep_lattice().elements)
        assert cert.audit
        for step in cert.audit:
            assert step.checks["Eq (22)"] and step.checks["Eq (23)"]

    def test_obstruction_on_branched_fixture(self, tripod):
        # the mechanism of the non-spacious example: every choice of
        # neighborhoods for the two branches intersects in more than the
        # pinned central block
        from morselat.grid import grid_attractor_lift

        fam = [fs(), fs(0), fs(0, 1, 2), fs(0, 1, 3), fs(0, 1, 2, 3)]
        with pytest.raises(ObstructionFound) as err:
            grid_attractor_lift(tripod, fam, direct=True, pinned={fs(0): fs(0)})
        assert err.value.witness == fs(1)  # the stem cell is the excess

    def test_branched_fixture_lifts_with_fat_section(self, tripod):
        from morselat.grid import grid_attractor_lift

        fam = [fs(), fs(0), fs(0, 1, 2), fs(0, 1, 3), fs(0, 1, 2, 3)]
        cert = grid_attractor_lift(tripod, fam, direct=True, pinned={fs(0): fs(0, 1)})
        cert.verify()

    def test_section_inconsistency_detected(self):
        prob = identity_problem()
        bad = dataclasses.replace(prob, section=lambda l: 0)
        with pytest.raises(SectionInconsistent, match=re.escape("section for ['a'] has the wrong h image")):
            lift(bad)

    def test_top_entry_off_the_atoms_is_a_lift_error(self):
        # h drops c, so k(1) is the union of the atoms, {a, b}, not the ambient set
        prob = dataclasses.replace(identity_problem(), universe=("a", "b", "c"), h=lambda u: u & 0b11)
        full = top(prob)
        assert members(prob.universe, lift(prob).table[full]) == fs("a", "b")
        # corrupt the enumeration: without P in O(P), the table has no k(1)
        prob.__dict__["down_sets"] = [d for d in prob.down_sets if d != full]
        with pytest.raises(LiftError, match="union of the atoms"):
            lift(prob)


    def test_verify_names_a_down_set_by_its_labels(self, sys1):
        # a missing entry, then a wrong one, of the down-set {{a, b}} of J(Rep)
        cert = repeller_lift(sys1, sys1.rep_lattice().elements)
        d = cert.problem.poset.mask_of({fs("a", "b")})
        value = cert.table.pop(d)
        with pytest.raises(LiftError, match=re.escape("certificate table misses [['a', 'b']]")):
            cert.verify()
        cert.table[d] = value & ~sys1.mask({"a"})
        with pytest.raises(LiftError, match=re.escape("h(k([['a', 'b']])) != s(...)")):
            cert.verify()


@pytest.fixture(scope="module")
def verify_certificates():
    """DS1's full attractor and repeller lattices and G1's 12-cell repeller lattice, lifted."""
    system = ds1()
    cmap = ingest_interval_map("(x + x^3)/2", CellGrid(-1.0, 1.0, 12))
    return {
        "ds1 attractor": attractor_lift(system, system.att_lattice().elements),
        "ds1 repeller": repeller_lift(system, system.rep_lattice().elements),
        "g1 repeller": lift(grid_lift_problem(cmap, comb_rep_lattice(cmap).elements)),
    }


# (certificate, corruption, i, the new k(downs[i]) from the table t and O(P) as ``downs``, verify()'s message).
# Bit 0 is the state m of DS1 ("mzab") or cell 0.  The messages are those of the
# frozenset engine on the same corruptions.  In DS1's repeller lattice (two
# incomparable irreducibles) every corruption that keeps h o k = s and K
# membership breaks a meet, so its join row names the meet.
VERIFY_CORRUPTIONS = [
    ("ds1 attractor", "flip one bit", 1, lambda t, downs: t[downs[1]] ^ 1,
     "k does not preserve joins at [['z']], [['b']]"),
    ("ds1 attractor", "repeat a value", 2, lambda t, downs: t[downs[1]], "h(k([['b']])) != s(...)"),
    ("ds1 attractor", "k(0) != 0", 0, lambda t, downs: 1, "k([]) is not a K element"),
    ("ds1 attractor", "break one join", 2, lambda t, downs: 0b1000,
     "k does not preserve joins at [['z']], [['b']]"),
    ("ds1 repeller", "flip one bit", 1, lambda t, downs: t[downs[1]] ^ 1, "h(k([['m', 'z']])) != s(...)"),
    ("ds1 repeller", "repeat a value", 2, lambda t, downs: t[downs[1]], "h(k([['a', 'b']])) != s(...)"),
    ("ds1 repeller", "k(0) != 0", 0, lambda t, downs: 1, "k(0) != 0"),
    ("ds1 repeller", "break one join", 1, lambda t, downs: t[downs[1]] ^ 0b100,
     "k does not preserve meets at [['m', 'z']], [['a', 'b']]"),
    ("g1 repeller", "flip one bit", 1, lambda t, downs: t[downs[1]] ^ 1, "h(k([[0]])) != s(...)"),
    ("g1 repeller", "repeat a value", 2, lambda t, downs: t[downs[1]], "h(k([[11]])) != s(...)"),
    ("g1 repeller", "k(0) != 0", 0, lambda t, downs: 1, "h(k([])) != s(...)"),
    ("g1 repeller", "break one join", 4, lambda t, downs: t[downs[4]] ^ 0b100,
     "k does not preserve joins at [[11]], [[0], [0, 1]]"),
]


@pytest.mark.parametrize(
    "name, corruption, i, value, message", VERIFY_CORRUPTIONS, ids=[f"{r[0]}: {r[1]}" for r in VERIFY_CORRUPTIONS]
)
def test_verify_names_each_corruption(verify_certificates, name, corruption, i, value, message):
    cert = verify_certificates[name]
    cert.verify()
    downs = cert.problem.down_sets
    table = dict(cert.table)
    table[downs[i]] = value(cert.table, downs)
    with pytest.raises(LiftError) as info:
        dataclasses.replace(cert, table=table).verify()
    assert str(info.value) == message


class TestConditionI:
    def test_identity_ok_by_trivial_zero_fiber(self):
        lat = powerset_lattice("ab")
        assert check_condition_i(lat, lat, {e: e for e in lat.elements})

    def test_inv_on_attracting_neighborhoods(self, sys1):
        anb = sys1.attracting_neighborhoods()
        K = SetLattice.of_sets(sys1.states, anb, check=False)
        report = check_condition_i(K, sys1.att_lattice(), {u: sys1.omega(u) for u in anb})
        assert report and "Prop 5.9" in report.method

    def test_atom_collapse_counterexample(self):
        # u is glued below everything; dropping it is a hom whose zero fiber
        # is fat, and the unique sections of {v} and {w} share u
        K = SetLattice.of_sets(
            "uvw",
            [fs(), fs("u"), fs("u", "v"), fs("u", "w"), fs("u", "v", "w")],
        )
        L = powerset_lattice("vw")
        report = check_condition_i(K, L, {e: e - {"u"} for e in K.elements})
        assert not report
        l1, l2, u = report.witness
        assert u == fs("u", "v") or u == fs("u", "w")

    def test_spent_budget_is_inconclusive(self):
        # the same fat zero fiber, with no budget to search it
        K = SetLattice.of_sets(
            "uvw",
            [fs(), fs("u"), fs("u", "v"), fs("u", "w"), fs("u", "v", "w")],
        )
        L = powerset_lattice("vw")
        report = check_condition_i(K, L, {e: e - {"u"} for e in K.elements}, bound=0)
        assert not report and report.inconclusive and report.witness is None
        assert str(report).startswith("inconclusive") and "counterexample" not in str(report)


class TestTransport:
    def test_ds1_chain_sublattice(self, sys1):
        cert = attractor_lift(sys1, [fs(), fs("z"), fs("z", "b")])
        cert.verify()
        prob = cert.problem
        for d, v in cert.table.items():
            assert sys1.inv(sys1.unmask(v)) == sys1.unmask(prob.s[d])

    def test_trivial_sublattice(self, sys1):
        cert = attractor_lift(sys1, [fs(), fs("z", "b")])
        values = sorted(map(sys1.unmask, cert.table.values()), key=len)
        assert values[0] == fs() and values[-1] == fs("m", "z", "a", "b")

    def test_every_ds1_attractor_sublattice(self, sys1):
        att = sys1.att_lattice()
        for sub in sublattices(att):
            cert = attractor_lift(sys1, sub)
            cert.verify()

    def test_exact_attractor_problem_lifts_directly(self, sys1, sys2, sys3):
        # attractors are unions of cycles, so Inv(a ^ b) = a ^ b and the
        # self-conditioners of the attractor problem satisfy Eq (20)
        rng = random.Random(7)
        systems = [sys1, sys2, sys3]
        for _ in range(40):
            n = rng.randint(2, 6)
            systems.append(FiniteDynSys(range(n), {i: rng.randrange(n) for i in range(n)}))
        lifted = 0
        for system in systems:
            att = system.att_lattice()
            if len(att) > 8:
                continue
            for sub in sublattices(att):
                problem = attractor_lift(system, sub).problem
                cert = lift(problem)
                assert cert.problem is problem
                cert.verify()
                lifted += 1
        assert lifted > 50

    @pytest.mark.parametrize("route", ["exact", "grid"])
    def test_attractor_route_builds_one_embedding(self, route, sys1, tripod, monkeypatch):
        calls = []
        real = lattice.join_irreducibles
        monkeypatch.setattr(lattice, "join_irreducibles", lambda lat: calls.append(lat) or real(lat))
        if route == "exact":
            attractor_lift(sys1, sys1.att_lattice().elements)
        else:
            grid_attractor_lift(tripod, [fs(), fs(0), fs(0, 1, 2), fs(0, 1, 3), fs(0, 1, 2, 3)])
        assert len(calls) == 1


class Tagged(int):
    """A section's value: bit operations on it give plain ints, so h can tell it apart."""


def counting(problem):
    """The problem with section and h wrapped to count section calls and h calls on section values."""
    calls = {"section": 0, "h on a section": 0}

    def section(l):
        calls["section"] += 1
        return Tagged(problem.section(l))

    def h(u):
        calls["h on a section"] += isinstance(u, Tagged)
        return problem.h(u)

    return dataclasses.replace(problem, section=section, h=h), calls


def test_lift_takes_each_conditioner_once(sys1, tripod, g1):
    problems = [
        repeller_lift_problem(sys1, sys1.rep_lattice().elements),
        grid_lift_problem(g1, comb_rep_lattice(g1).elements),
        grid_attractor_lift(g1, comb_att_lattice(g1).elements, direct=True).problem,
        grid_attractor_lift(tripod, TRIPOD_FAMILY, direct=True, pinned={fs(0): fs(0, 1)}).problem,
    ]
    for problem in problems:
        counted, calls = counting(problem)
        cert = lift(counted)
        n = len(problem.down_sets)
        assert len(cert.audit) > 1
        assert calls == {"section": n, "h on a section": n}
        assert cert.table == lift(problem).table


@pytest.mark.parametrize("route", ["exact", "grid"])
def test_attractor_lift_by_duality_checks_one_sublattice(route, sys1, tripod, monkeypatch):
    """One sublattice check per attractor lift and none on the dual family.

    Both front-ends check their family by one pair-closure pass on its masks,
    the grid through checked_sublattice, the exact ones with no core, as a
    ring of sets.
    """
    calls = []
    att = sys1.att_lattice().elements
    real = lattice._closure_failure
    monkeypatch.setattr(lattice, "_closure_failure", lambda *args: calls.append(args) or real(*args))
    if route == "exact":
        attractor_lift(sys1, att).verify()
    else:
        grid_attractor_lift(tripod, TRIPOD_FAMILY).verify()
    assert len(calls) == 1


def check_star_images(exact=None, cmap=None):
    """The duality route's dual family of every attractor sublattice is a sublattice of repellers.

    It passes repeller_sublattice on an exact system and checked_sublattice
    under comb_inv_plus on a cell map; the route itself certifies it only
    through the embedding check of its repeller lift.
    """
    if exact is not None:
        for sub in sublattices(exact.att_lattice()):
            repeller_sublattice(exact, [exact.dual_repeller(a) for a in sub])
        return
    ambient = cmap.all_cells()
    for sub in sublattices(comb_att_lattice(cmap)):
        star = [comb_inv_plus(ambient - forward_closure(a, cmap), cmap) for a in sub]
        universe = tuple(range(cmap.n))
        checked_sublattice(universe, label_masks(universe, star), functools.partial(_comb_inv_plus, cmap))


class TestStarImages:
    def test_fixtures(self, sys1, sys2, sys3, tripod, g2):
        for system in (sys1, sys2, sys3):
            check_star_images(exact=system)
        for cmap in (tripod, g2):
            check_star_images(cmap=cmap)

    @settings(max_examples=40, deadline=None)
    @given(small_maps)
    def test_random_maps(self, targets):
        system = FiniteDynSys(range(len(targets)), dict(enumerate(targets)))
        assume(len(system.att_lattice()) <= 8)
        check_star_images(exact=system)

    @settings(max_examples=40, deadline=None)
    @given(small_cell_maps)
    def test_random_cell_maps(self, arrows):
        cmap = CellMap(CellGrid(0.0, float(len(arrows)), len(arrows)), tuple(arrows))
        assume(len(_morse_attractors(cmap)) <= 8)
        check_star_images(cmap=cmap)


def test_lift_enumerates_down_sets_once(tripod, g1, monkeypatch):
    problems = [grid_lift_problem(cmap, comb_rep_lattice(cmap).elements) for cmap in (tripod, g1)]
    assert len(problems[0].poset) < len(problems[1].poset)
    counts = []
    real = Poset.down_masks
    for problem in problems:
        calls = []
        monkeypatch.setattr(Poset, "down_masks", lambda self: calls.append(self) or real(self))
        lift(problem)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_exact_attractor_lift_enumerates_two_posets(sys1, monkeypatch):
    # J(L), whose one enumeration birkhoff_embedding and the problem share, and its dual
    att = sys1.att_lattice().elements
    enumerated = []
    real = order.closed_masks
    monkeypatch.setattr(order, "closed_masks", lambda rel: enumerated.append(rel) or real(rel))
    attractor_lift(sys1, att).verify()
    assert len(enumerated) == 2


def assert_k_is_the_union_of_atoms(cert, transported=False):
    """k(alpha) is the union of the audit atoms B_p over p in alpha (Eqs (3), (4)).

    A certificate transported by duality carries the audit of the lift on the
    dual poset: there the complement of k(alpha) is the union over the
    complement of alpha.  Steps name carrier indices, and down-sets and
    values are masks: every s value, table entry, conditioner and atom is an int.
    """
    prob = cert.problem
    for d in prob.down_sets:
        assert all(type(v) is int for v in (prob.s[d], cert.table[d], prob.section(prob.s[d]))), d
    atoms = {step.q: step.atom for step in cert.audit}
    assert all(type(b) is int for b in atoms.values())
    n = len(prob.poset)
    assert set(atoms) == set(range(n))
    for alpha, value in cert.table.items():
        if transported:
            alpha, value = top(prob) ^ alpha, prob.ambient & ~value
        assert value == functools.reduce(or_, (atoms[p] for p in range(n) if alpha >> p & 1), 0), alpha


class TestTableFromAtoms:
    """Each instance also checks that its K side is int masks; with DS1's two lattices, the G1 12-cell
    routes and the tripod (pinned and not), the instances cover every golden lift."""

    def test_ds1_lattices(self, sys1):
        assert_k_is_the_union_of_atoms(attractor_lift(sys1, sys1.att_lattice().elements), transported=True)
        assert_k_is_the_union_of_atoms(repeller_lift(sys1, sys1.rep_lattice().elements))

    def test_seeded_maps_on_both_sides(self):
        rng = random.Random(22)
        lifted = 0
        for _ in range(40):
            n = rng.randint(5, 8)
            system = FiniteDynSys(range(n), {i: rng.randrange(n) for i in range(n)})
            for sub in sublattices(system.att_lattice()):
                assert_k_is_the_union_of_atoms(attractor_lift(system, sub), transported=True)
                lifted += 1
            for sub in sublattices(system.rep_lattice()):
                assert_k_is_the_union_of_atoms(repeller_lift(system, sub))
                lifted += 1
        assert lifted > 500

    def test_g1_at_twelve_cells_on_both_routes(self):
        cmap = ingest_interval_map("(x + x^3)/2", CellGrid(-1.0, 1.0, 12))
        att = comb_att_lattice(cmap).elements
        assert_k_is_the_union_of_atoms(grid_attractor_lift(cmap, att), transported=True)
        assert_k_is_the_union_of_atoms(grid_attractor_lift(cmap, att, direct=True))
        assert_k_is_the_union_of_atoms(lift(grid_lift_problem(cmap, comb_rep_lattice(cmap).elements)))

    def test_unpinned_tripod(self, tripod):
        assert_k_is_the_union_of_atoms(grid_attractor_lift(tripod, TRIPOD_FAMILY), transported=True)

    def test_pinned_tripod(self, tripod):
        cert = grid_attractor_lift(tripod, TRIPOD_FAMILY, pinned={fs(0): fs(0)})
        assert_k_is_the_union_of_atoms(cert, transported=True)
        assert_k_is_the_union_of_atoms(grid_attractor_lift(tripod, TRIPOD_FAMILY, direct=True, pinned={fs(0): fs(0, 1)}))


class TestFalsifier:
    def test_identity_has_no_counterexample(self):
        lat = powerset_lattice("ab")
        res = spaciousness_falsifier(lat, lat, {e: e for e in lat.elements})
        assert res.status == "no_counterexample"

    def test_ds1_inv_plus_is_spacious(self, sys1):
        rnb = sys1.repelling_neighborhoods()
        K = SetLattice.of_sets(sys1.states, rnb, check=False)
        res = spaciousness_falsifier(K, sys1.rep_lattice(), {u: sys1.inv_plus(u) for u in rnb})
        assert res.status == "no_counterexample"

    def test_branched_fixture_yields_witness(self, tripod):
        from morselat.grid import attracting_blocks, comb_att_lattice, comb_inv

        blocks = attracting_blocks(tripod)
        K = SetLattice.of_sets(tuple(range(4)), blocks, check=False)
        L = comb_att_lattice(tripod)
        res = spaciousness_falsifier(K, L, {b: comb_inv(b, tripod) for b in K.elements})
        assert res.status == "witness"
        s, lam, q, table = res.witness
        # the failing partial lift pins the central element to its minimal block
        assert fs(0) in table.values()


def test_poset_enumeration_for_falsifier():
    assert len(all_posets(("a",))) == 1
    assert len(all_posets(("a", "b"))) == 3
    assert len(all_posets(("a", "b", "c"))) == 19


# the identity from K = {0, a, ab} to L = 2^{a,b} misses {b}; from K = 2^{a,b}
# to the chain L = {0, a, ab} it sends {b} outside L
CHAIN, SQUARE = [fs(), fs("a"), fs("a", "b")], [fs(), fs("a"), fs("b"), fs("a", "b")]
NOT_EPIMORPHISMS = [
    (CHAIN, SQUARE, "h is not onto L: nothing in K maps to ['b']"),
    (SQUARE, CHAIN, "h maps ['b'] to ['b'], which is not in L"),
]


@pytest.mark.parametrize("k_sets, l_sets, message", NOT_EPIMORPHISMS, ids=["not onto", "not into L"])
def test_spaciousness_checks_refuse_a_map_that_is_no_epimorphism(k_sets, l_sets, message):
    K, L = SetLattice.of_sets("ab", k_sets), SetLattice.of_sets("ab", l_sets)
    for check in (check_condition_i, spaciousness_falsifier):
        with pytest.raises(ValueError) as info:
            check(K, L, {e: e for e in K.elements})
        assert str(info.value) == message


def spaciousness_corpus():
    """(description, K, L, h) for the Def 5.8 checks, h an epimorphism K -> L.

    Every map of 1-4 states with K its repelling neighborhoods, L = Rep and
    h = Inv+; the tripod and seeded cell maps of 3-7 cells with K the
    attracting blocks, L = Att and h = comb_inv; seeded rings of sets with
    h(e) = e - D for a dropped label set D.
    """
    for n in range(1, 5):
        for targets in itertools.product(range(n), repeat=n):
            system = FiniteDynSys(range(n), dict(enumerate(targets)))
            rnb = system.repelling_neighborhoods()
            K = SetLattice.of_sets(system.states, rnb, check=False)
            yield f"map {targets}", K, system.rep_lattice(), {u: system.inv_plus(u) for u in rnb}
    rng = random.Random(30)
    cmaps = [CellMap(CellGrid(0.0, 4.0, 4), (fs(0), fs(0), fs(1, 2), fs(1, 3)))]
    for n in range(3, 8):
        for _ in range(20):
            arrows = tuple(frozenset(rng.sample(range(n), rng.randint(1, 2))) for _ in range(n))
            cmaps.append(CellMap(CellGrid(0.0, float(n), n), arrows))
    for cmap in cmaps:
        K = SetLattice.of_sets(range(cmap.n), grid.attracting_blocks(cmap), check=False)
        yield f"cell map {cmap.arrows}", K, comb_att_lattice(cmap), {b: grid.comb_inv(b, cmap) for b in K.elements}
    for _ in range(100):
        universe = "abcdef"[: rng.randint(2, 6)]
        ring = {fs(), frozenset(universe)}
        ring |= {frozenset(rng.sample(universe, rng.randint(1, len(universe)))) for _ in range(4)}
        while True:
            closed = ring | {a | b for a in ring for b in ring} | {a & b for a in ring for b in ring}
            if closed == ring:
                break
            ring = closed
        dropped = frozenset(rng.sample(universe, rng.randint(0, len(universe) - 1)))
        h = {e: e - dropped for e in ring}
        L = SetLattice.of_sets([x for x in universe if x not in dropped], h.values())
        yield f"ring {sorted(map(sorted, ring))} minus {sorted(dropped)}", SetLattice.of_sets(universe, ring), L, h


def test_spaciousness_checks_agree_with_the_label_oracles():
    # at the default bounds and at tight ones, where the searches stop early
    seen = set()
    for name, K, L, h in spaciousness_corpus():
        for bound, budget in ((10000, 2_000_000), (3, 50)):
            report = check_condition_i(K, L, h, bound=bound)
            assert report == condition_i_oracle(K, L, h, bound=bound), name
            result = spaciousness_falsifier(K, L, h, budget=budget)
            assert result == falsifier_oracle(K, L, h, budget=budget), name
            seen |= {(report.ok, report.inconclusive, report.method.split(" (")[0]), (result.status, result.method)}
    assert seen == {
        (True, False, "h^-1(0) = 0"),
        (True, False, "exhaustive singleton search"),
        (False, False, "singleton partial-lift search"),
        (False, True, "no violation within bound 3"),
        ("no_counterexample", "self-section certificate"),
        ("no_counterexample", "enumeration"),
        ("witness", "enumeration"),
        ("bound_exceeded", "enumeration"),
    }


# Identity maps on three points: every subset is an attractor, a repeller and
# its own block, and every meet is plain intersection, so each family below
# breaks exactly one sublattice law on every front-end.
IDENTITY_GRID = CellMap(CellGrid(0.0, 3.0, 3), (fs(0), fs(1), fs(2)))
IDENTITY_SYSTEM = FiniteDynSys("xyw", {"x": "x", "y": "y", "w": "w"})
BROKEN_FAMILIES = {
    "no bottom": ([[0], [1], [0, 1, 2]], "bottom"),
    "no top": ([[], [0], [1], [0, 1]], "top"),
    "not join-closed": ([[], [0], [1], [0, 1, 2]], "join-closed"),
    "not meet-closed": ([[], [0, 1], [1, 2], [0, 1, 2]], "meet-closed"),
}
SUBLATTICE_FRONT_ENDS = {
    "grid_lift_problem": (lambda fam: grid_lift_problem(IDENTITY_GRID, fam), lambda i: i),
    "grid_attractor_lift": (lambda fam: grid_attractor_lift(IDENTITY_GRID, fam), lambda i: i),
    "repeller_sublattice": (lambda fam: repeller_sublattice(IDENTITY_SYSTEM, fam), "xyw".__getitem__),
    "attractor_sublattice": (lambda fam: attractor_sublattice(IDENTITY_SYSTEM, fam), "xyw".__getitem__),
}


@pytest.mark.parametrize("broken", BROKEN_FAMILIES)
@pytest.mark.parametrize("front_end", SUBLATTICE_FRONT_ENDS)
def test_sublattice_check_reaches_every_front_end(front_end, broken):
    run, label = SUBLATTICE_FRONT_ENDS[front_end]
    family, law = BROKEN_FAMILIES[broken]
    family = [frozenset(map(label, e)) for e in family]
    with pytest.raises(NotASublattice, match=law) as info:
        run(family)
    witness = info.value.witness
    top = frozenset(map(label, range(3)))
    if law == "bottom":
        assert witness == fs()
    elif law == "top":
        assert witness == top
    else:
        a, b = witness
        assert a in family and b in family
        missing = a | b if law == "join-closed" else a & b
        assert missing not in family


@pytest.mark.parametrize("cell", [3, -1])
@pytest.mark.parametrize("front_end", ["grid_lift_problem", "grid_attractor_lift", "pins"])
def test_grid_family_outside_the_cells_is_no_lattice(front_end, cell):
    """A cell outside 0..n-1, in a family or a pin, raises NotALattice before any core call or message sees it."""
    with pytest.raises(NotALattice, match=f"elements leave the universe: \\[{cell}\\]"):
        if front_end == "pins":
            grid_attractor_lift(IDENTITY_GRID, [fs(), fs(0, 1, 2)], pinned={fs(0, 1, 2): fs(0, 1, 2, cell)})
        else:
            SUBLATTICE_FRONT_ENDS[front_end][0]([fs(), fs(0, cell), fs(0, 1, 2)])


# -- the exact front-ends against the cubic check ---------------------------------


def cubic_front_end(system, side, family):
    """The exact front-ends as the cubic check: each element tested on labels, then checked_sublattice.

    Attractors are invariant sets that are their own omega-limit and meet by
    Inv; repellers are forward-backward invariant sets fixed by Inv+ and meet
    by intersection.  The first element that fails is named in universe order.
    """
    for e in map(frozenset, family):
        if side == "attractor":
            ok, what = system.image(e) == e and system.omega(e) == e, "an attractor"
        else:
            ok, what = system.classify_invariance(e).forward_backward and system.inv_plus(e) == e, "a repeller"
        if not ok:
            raise NotASublattice(f"{[s for s in system.states if s in e]} is not {what}", e)
    masks = [system.mask(e) for e in family]
    if side == "attractor":
        return checked_sublattice(system.states, masks, functools.partial(_inv, system._cycles))
    return checked_sublattice(system.states, masks)


def outcome(run, *args):
    """What a front-end does with a family: the exception's type, message and witness, or the lattice."""
    try:
        lat = run(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    es = lat.elements
    return lat.universe, es, [lat.meet(a, b) for a in es for b in es]


def families(system, side, rng, cap):
    """Every family of attractors (repellers), or ``cap`` seeded ones, each shuffled, then again with one non-member.

    The families of a lattice of at most log2(cap) elements are all its subsets.
    """
    lat = system.att_lattice() if side == "attractor" else system.rep_lattice()
    members = lat.elements
    n = len(system.states)
    outsiders = [
        e for e in (system.unmask(m) for m in range(1 << n)) if e not in lat
    ]
    picks = range(1 << len(members)) if 1 << len(members) <= cap else (rng.getrandbits(len(members)) for _ in range(cap))
    for pick in picks:
        family = [e for i, e in enumerate(members) if pick >> i & 1]
        rng.shuffle(family)
        yield family
        if outsiders:
            spoilt = list(family)
            spoilt.insert(rng.randint(0, len(spoilt)), rng.choice(outsiders))
            yield spoilt


def check_against_cubic(system, rng, cap=256):
    for side, run in (("attractor", attractor_sublattice), ("repeller", repeller_sublattice)):
        for family in families(system, side, rng, cap):
            assert outcome(run, system, family) == outcome(cubic_front_end, system, side, family), (side, family)


class TestExactSublatticeAgainstCubicCheck:
    def test_every_map_of_at_most_four_states(self):
        rng = random.Random(4)
        for n in range(1, 5):
            for targets in itertools.product(range(n), repeat=n):
                system = FiniteDynSys(range(n), dict(enumerate(targets)))
                if len(system.att_lattice()) <= 8:
                    check_against_cubic(system, rng)

    def test_seeded_maps_of_five_to_eight_states(self):
        rng = random.Random(58)
        for _ in range(200):
            n = rng.randint(5, 8)
            system = FiniteDynSys(range(n), {i: rng.randrange(n) for i in range(n)})
            check_against_cubic(system, rng)
