import itertools

import pytest

from morselat import (
    CellGrid,
    CellMap,
    ConditionerMissing,
    FiniteDynSys,
    LiftProblem,
    NotASublattice,
    ObstructionFound,
    PartialLift,
    SectionInconsistent,
    SetLattice,
    attractor_lift,
    attractor_sublattice,
    birkhoff_embedding,
    check_condition_i,
    grid_attractor_lift,
    grid_lift_problem,
    is_conditional_lift,
    is_partial_lift,
    lift,
    repeller_lift,
    repeller_lift_problem,
    repeller_sublattice,
    spaciousness_falsifier,
)
from morselat.lattice import sublattices
from morselat.order import all_posets


def fs(*items):
    return frozenset(items)


def powerset_lattice(labels):
    subs = [
        frozenset(c)
        for r in range(len(labels) + 1)
        for c in itertools.combinations(labels, r)
    ]
    return SetLattice(labels, subs)


def identity_problem(labels="ab"):
    """h = identity on a powerset; any embedding lifts with k = s."""
    lat = powerset_lattice(labels)
    poset, s = birkhoff_embedding(lat)
    return LiftProblem(
        poset=poset,
        target=lat,
        s=s,
        ambient=fs(*labels),
        h=lambda u: u,
        section=lambda l: l,
        conditioner_oracle=lambda partial, q: dict(partial.problem.s),
        member=lambda u: True,
        top_unique=True,
    )


class TestPartialLift:
    def test_identity_partial_lift_any_lambda(self):
        prob = identity_problem()
        for lam_members in (fs(), fs(fs("a")), fs(fs("a"), fs("b"))):
            table = {d: prob.s[d] for d in prob.down_sets() if d <= lam_members}
            table[frozenset(prob.poset.carrier)] = prob.ambient
            cand = PartialLift(prob, lam_members, table)
            assert is_partial_lift(cand)

    def test_missing_top_entry_is_a_violation(self):
        prob = identity_problem()
        cand = PartialLift(prob, fs(), {fs(): fs()})
        report = is_partial_lift(cand)
        assert not report and "k(1)" in report.law

    def test_ds1_repeller_self_assignment(self, sys1):
        prob = repeller_lift_problem(sys1, sys1.rep_lattice().elements)
        q1 = prob.poset.carrier[0]
        lam = fs(q1)
        table = {
            fs(): fs(),
            lam: q1,  # the repeller itself, a repelling neighborhood of itself
            frozenset(prob.poset.carrier): prob.ambient,
        }
        assert is_partial_lift(PartialLift(prob, lam, table), prob)


class TestConditionalLift:
    def test_self_conditioners_pass(self):
        prob = identity_problem()
        lam = fs(fs("a"))
        table = {d: prob.s[d] for d in prob.down_sets() if d <= lam}
        table[frozenset(prob.poset.carrier)] = prob.ambient
        cond = dict(prob.s)
        cand = PartialLift(prob, lam, table, cond)
        assert is_conditional_lift(cand)

    def test_missing_conditioner_raises(self):
        prob = identity_problem()
        lam = fs(fs("a"))
        table = {d: prob.s[d] for d in prob.down_sets() if d <= lam}
        table[frozenset(prob.poset.carrier)] = prob.ambient
        cand = PartialLift(prob, lam, table, {fs(): fs()})
        with pytest.raises(ConditionerMissing):
            is_conditional_lift(cand)

    def test_shrunk_conditioners_still_pass(self, sys1):
        # a conditioner below a passing one, with the same h image, passes
        prob = repeller_lift_problem(sys1, sys1.rep_lattice().elements)
        lam = fs(prob.poset.carrier[0])
        table = {d: prob.s[d] for d in prob.down_sets() if d <= lam}
        table[frozenset(prob.poset.carrier)] = prob.ambient
        cond = dict(prob.s)  # repeller-self conditioners
        assert is_conditional_lift(PartialLift(prob, lam, table, dict(cond)), prob)

    def test_unconstrained_pairs_impose_nothing(self, tripod_problem):
        # with lambda a single minimal element, the only active constraint is
        # gamma = down q against alpha avoiding q, and the attractor-self
        # conditioners satisfy it
        prob, a0d, amd, apd = tripod_problem
        lam = a0d
        table = {d: (fs(0) if d else fs()) for d in prob.down_sets() if d <= lam}
        table[frozenset(prob.poset.carrier)] = prob.ambient
        cond = {d: prob.s[d] for d in prob.down_sets()}
        assert is_conditional_lift(PartialLift(prob, lam, table, cond), prob)

    def test_branch_overlap_breaks_the_annihilation_law(self, tripod_problem):
        # at lambda = both left elements, the right-branch conditioner meets
        # the atom of the left branch in the stem cell
        prob, a0d, amd, apd = tripod_problem
        lam = amd  # members {A0, A-}
        table = {
            fs(): fs(),
            a0d: fs(0),
            amd: fs(0, 1, 2),
            frozenset(prob.poset.carrier): prob.ambient,
        }
        cond = {d: prob.s[d] for d in prob.down_sets()}
        cand = PartialLift(prob, lam, table, cond)
        report = is_conditional_lift(cand, prob)
        assert not report and "Eq (18)" in report.law


@pytest.fixture
def tripod_problem(tripod):
    """The direct attractor-side problem on the branched fixture."""
    from morselat.grid import comb_att_lattice, comb_inv

    lat = comb_att_lattice(tripod)
    poset, s = birkhoff_embedding(lat)
    a0 = fs(0)
    am = fs(0, 1, 2)
    ap = fs(0, 1, 3)
    prob = LiftProblem(
        poset=poset,
        target=lat,
        s=s,
        ambient=fs(0, 1, 2, 3),
        h=lambda n: comb_inv(n, tripod),
        section=lambda l: l,
        conditioner_oracle=lambda partial, q: dict(partial.problem.s),
        member=None,
        top_unique=True,
    )
    a0d = fs(a0)
    amd = fs(a0, am)
    apd = fs(a0, ap)
    return prob, a0d, amd, apd


class TestLift:
    def test_identity_epimorphism(self):
        cert = lift(identity_problem())
        cert.verify()
        for d in cert.problem.down_sets():
            assert cert.table[d] == cert.problem.s[d]

    def test_ds1_full_repeller_lattice(self, sys1):
        cert = repeller_lift(sys1, sys1.rep_lattice().elements)
        cert.verify()
        # with repeller-self conditioners the lift maps each repeller to itself
        for d, v in cert.table.items():
            assert sys1.inv_plus(v) == cert.problem.s[d]
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
        cert = grid_attractor_lift(tripod, fam, direct=True, seeds={fs(0): fs(0, 1)})
        cert.verify()

    def test_section_inconsistency_detected(self):
        prob = identity_problem()
        bad = LiftProblem(
            poset=prob.poset,
            target=prob.target,
            s=prob.s,
            ambient=prob.ambient,
            h=prob.h,
            section=lambda l: fs("a", "b"),
            conditioner_oracle=prob.conditioner_oracle,
            member=prob.member,
            top_unique=True,
        )
        with pytest.raises(SectionInconsistent):
            lift(bad)


class TestConditionI:
    def test_identity_ok_by_trivial_zero_fiber(self):
        lat = powerset_lattice("ab")
        assert check_condition_i(lat, lat, {e: e for e in lat.elements})

    def test_inv_on_attracting_neighborhoods(self, sys1):
        anb = sys1.attracting_neighborhoods()
        K = SetLattice(sys1.states, anb, check=False)
        report = check_condition_i(K, sys1.att_lattice(), {u: sys1.omega(u) for u in anb})
        assert report and "Prop 5.9" in report.method

    def test_atom_collapse_counterexample(self):
        # u is glued below everything; dropping it is a hom whose zero fiber
        # is fat, and the unique sections of {v} and {w} share u
        K = SetLattice(
            "uvw",
            [fs(), fs("u"), fs("u", "v"), fs("u", "w"), fs("u", "v", "w")],
        )
        L = powerset_lattice("vw")
        report = check_condition_i(K, L, {e: e - {"u"} for e in K.elements})
        assert not report
        l1, l2, u = report.witness
        assert u == fs("u", "v") or u == fs("u", "w")


class TestTransport:
    def test_ds1_chain_sublattice(self, sys1):
        cert = attractor_lift(sys1, [fs(), fs("z"), fs("z", "b")])
        cert.verify()
        for d, v in cert.table.items():
            assert sys1.inv(v) == cert.problem.s[d]

    def test_trivial_sublattice(self, sys1):
        cert = attractor_lift(sys1, [fs(), fs("z", "b")])
        values = sorted(cert.table.values(), key=len)
        assert values[0] == fs() and values[-1] == fs("m", "z", "a", "b")

    def test_every_ds1_attractor_sublattice(self, sys1):
        att = sys1.att_lattice()
        for sub in sublattices(att):
            cert = attractor_lift(sys1, sub)
            cert.verify()


class TestFalsifier:
    def test_identity_has_no_counterexample(self):
        lat = powerset_lattice("ab")
        res = spaciousness_falsifier(lat, lat, {e: e for e in lat.elements})
        assert res.status == "no_counterexample"

    def test_ds1_inv_plus_is_spacious(self, sys1):
        rnb = sys1.repelling_neighborhoods()
        K = SetLattice(sys1.states, rnb, check=False)
        res = spaciousness_falsifier(K, sys1.rep_lattice(), {u: sys1.inv_plus(u) for u in rnb})
        assert res.status == "no_counterexample"

    def test_branched_fixture_yields_witness(self, tripod):
        from morselat.grid import attracting_blocks, comb_att_lattice, comb_inv

        blocks = attracting_blocks(tripod)
        K = SetLattice(tuple(range(4)), blocks, check=False)
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
