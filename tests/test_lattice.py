import itertools
import random
from functools import partial
from operator import and_, or_

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from morselat import (
    BooleanExtension,
    CellGrid,
    CellMap,
    FiniteDynSys,
    LatticeHom,
    NotAHom,
    NotALattice,
    NotASublattice,
    NotJoinIrreducible,
    SetLattice,
    birkhoff_down,
    birkhoff_embedding,
    birkhoff_join,
    booleanize,
    check_anti_hom,
    check_hom,
    checked_sublattice,
    grid,
    ingest_interval_map,
    join_irreducibles,
    predecessor,
    sublattices,
)
from morselat import lattice as lattice_module
from morselat.lattice import label_masks
from morselat.dynsys import _inv
from morselat.dynsys_lift import attractor_lift, attractor_sublattice, repeller_sublattice
from morselat.lifting import lift
from morselat.grid import comb_att_lattice, comb_inv, comb_inv_plus, comb_rep_lattice, grid_lift_problem
from morselat.order import TooLarge, chain
from morselat.verify import random_systems
from conftest import (
    all_labeled_posets,
    broken_law_oracle,
    check_cover_queries,
    closure_failure_oracle,
    check_order_is_inclusion,
    random_poset,
    small_cell_maps,
    small_maps,
)


def powerset_lattice(labels):
    subs = [
        frozenset(c)
        for r in range(len(labels) + 1)
        for c in itertools.combinations(labels, r)
    ]
    return SetLattice.of_sets(labels, subs)


def fs(*items):
    return frozenset(items)


class TestSetLattice:
    def test_requires_bottom(self):
        with pytest.raises(NotALattice):
            SetLattice.of_sets("ab", [fs("a"), fs("a", "b")])

    def test_requires_closure(self):
        with pytest.raises(NotALattice):
            SetLattice.of_sets("ab", [fs(), fs("a"), fs("b")])

    def test_canonical_order(self):
        lat = powerset_lattice("ab")
        assert lat.elements[0] == fs() and lat.elements[-1] == fs("a", "b")

    def test_distributivity_failure_in_universe_order(self):
        # N5 under a core that sends {2} (the mask 0b10) to 0: {1, 2} ^ ({1} v {2, 3}) = {1, 2},
        # but ({1, 2} ^ {1}) v ({1, 2} ^ {2, 3}) = {1}
        family = [fs(), fs(1), fs(1, 2), fs(2, 3), fs(1, 2, 3)]
        with pytest.raises(NotALattice) as err:
            SetLattice.of_sets([1, 2, 3], family, lambda m: 0 if m == 0b10 else m)
        assert str(err.value) == "distributivity fails at [1, 2] ^ ([1] v [2, 3])"

    def test_leq_is_subset_for_set_lattices(self, p3):
        lat = SetLattice.from_poset(p3)
        assert lat.leq(fs("1"), fs("1", "2"))
        for a in lat.elements:
            assert lat.leq(a, a)

    @pytest.mark.parametrize("build", [
        lambda core: SetLattice(("a",), [0, 1, 0b11], core),
        lambda core: checked_sublattice(("a",), [0, 1, 0b11], core),
    ], ids=["SetLattice", "checked_sublattice"])
    @pytest.mark.parametrize("with_core", [False, True])
    def test_refuses_bits_outside_the_universe(self, build, with_core):
        # the stray bit would index past the universe in the label view, or
        # past a grid's arrow masks in a core, so no core sees it
        calls = []
        core = (lambda m: calls.append(m) or m) if with_core else None
        with pytest.raises(NotALattice, match="the mask 0b11 has bits outside the universe of 1 labels"):
            build(core)
        assert calls == []


def down_set_image(poset):
    """The inclusion of O(P) into the subsets of the carrier: each down-set mask to itself."""
    return {m: m for m in poset.down_masks()}


class TestFromDownSets:
    """The certificate of a map from O(P): pairs, against the cubic check on bare families."""

    def test_small_posets_match_the_cubic_check(self):
        # O(P) under a core that is the identity on it, and O(P) of the dual on complemented masks
        core = lambda x: x
        for n in range(5):
            for p in all_labeled_posets(n):
                image = down_set_image(p)
                cubic = SetLattice(p.carrier, image.values(), core, check=True)
                assert SetLattice.from_down_sets(p.carrier, image, core) == cubic
                top = (1 << n) - 1
                flipped = {top ^ m: top ^ a for m, a in image.items()}
                cubic = SetLattice(p.carrier, flipped.values(), core, check=True)
                assert SetLattice.from_down_sets(p.carrier, flipped, core) == cubic

    @pytest.mark.parametrize("mask, value, message", [
        (0b111, fs("1", "3"), "not injective"),
        (0b000, fs("2"), "empty down-set"),
        (0b111, fs("1", "2", "3", "4"), "join law fails on the down-sets 0b11, 0b101"),
        (0b111, None, "0b111 has no image"),
    ])
    def test_a_broken_map_names_the_law(self, p3, mask, value, message):
        universe = ("1", "2", "3", "4")
        image = down_set_image(p3)
        if value is None:
            del image[mask]
        else:
            image[mask] = label_masks(universe, [value])[0]
        with pytest.raises(NotALattice, match=message):
            SetLattice.from_down_sets(universe, image, lambda x: x)

    def test_a_broken_core_names_the_law(self, p3):
        with pytest.raises(NotALattice, match="meet law fails on the down-sets 0b11, 0b11"):
            SetLattice.from_down_sets(p3.carrier, down_set_image(p3), lambda m: m & ~p3.mask_of({"2"}))


def _outcome(run):
    """None when ``run()`` returns, else the exception's type, message and witness."""
    try:
        run()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return None


class TestMaskValidatorsAgainstLabelOracle:
    """checked_sublattice and the checked SetLattice.of_sets, both on masks, against the frozenset closure oracle.

    Each fails exactly when the oracle finds a pair whose join or meet leaves
    the family, and names the same pair, law and message; on a closed family
    what remains is the core check on the label view.
    """

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_random_families(self, data):
        n = data.draw(st.integers(1, 6))
        universe = tuple(data.draw(st.permutations("abcdef"[:n])))
        drawn = data.draw(st.lists(st.frozensets(st.sampled_from(universe)), max_size=7))
        core = label_core = None
        if data.draw(st.booleans()):
            targets = data.draw(st.lists(st.sampled_from(universe), min_size=n, max_size=n))
            system = FiniteDynSys(universe, dict(zip(universe, targets)))
            core, label_core = partial(_inv, system._cycles), system.inv
        meet = (lambda a, b: a & b) if core is None else (lambda a, b: label_core(a & b))
        top = frozenset(universe) if core is None else label_core(frozenset(universe))
        if data.draw(st.booleans()):
            drawn = data.draw(st.permutations(sorted(closed_family(drawn) | {top}, key=sorted)))
        family = list(drawn)
        for end in (frozenset(), top):
            family.insert(data.draw(st.integers(0, len(family))), end)
        family = list(dict.fromkeys(family))
        core_check = _outcome(lambda: SetLattice.of_sets(universe, family, core, check=False)._check_core())

        expected = closure_failure_oracle(universe, family, meet)
        outcome = _outcome(lambda: checked_sublattice(universe, label_masks(universe, family), core))
        assert outcome == ((NotASublattice, *expected) if expected else core_check)

        ordered = list(SetLattice.of_sets(universe, family, check=False).elements)
        expected = closure_failure_oracle(universe, ordered, meet)
        outcome = _outcome(lambda: SetLattice.of_sets(universe, family, core))
        assert outcome == ((NotALattice, expected[0], None) if expected else core_check)


def closed_family(subsets):
    """The subsets with 0, closed under union and intersection."""
    family = {frozenset()} | set(subsets)
    while True:
        more = {op(a, b) for a in family for b in family for op in (frozenset.union, frozenset.intersection)}
        if more <= family:
            return family
        family |= more


class TestCovers:
    """covers(), J(L) and predecessor() from the one cover pass, against the cubic lower_covers."""

    def test_down_set_lattices_of_small_posets(self):
        for n in range(1, 5):
            for p in all_labeled_posets(n):
                check_cover_queries(SetLattice.from_poset(p))

    def test_attractor_lattices_of_random_maps(self):
        for sys in random_systems(200, 9, seed=3):
            check_cover_queries(sys.att_lattice())

    def test_fixture_lattices(self, sys1, sys2, sys3, g1, g2, tripod):
        for sys in (sys1, sys2, sys3):
            check_cover_queries(sys.att_lattice())
            check_cover_queries(sys.rep_lattice())
        for cmap in (g1, g1_at(12), g2, tripod):
            check_cover_queries(comb_att_lattice(cmap))
            check_cover_queries(comb_rep_lattice(cmap))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 5), max_size=4), max_size=6))
    def test_families_closed_under_union_and_intersection(self, subsets):
        family = closed_family(subsets)
        check_cover_queries(SetLattice.of_sets(range(6), family))

    def test_cover_pass_runs_once_per_lattice(self, p3, monkeypatch):
        # at most one general pass on a lattice given by its family, none on
        # O(P), whose covers from_poset reads off the poset
        passes = []
        real = lattice_module.cover_masks
        monkeypatch.setattr(lattice_module, "cover_masks", lambda strict: passes.append(strict) or real(strict))
        family = SetLattice.of_sets(p3.carrier, p3.all_down_sets())
        for lat, most in ((family, 1), (SetLattice.from_poset(p3), 0)):
            passes.clear()
            jl = join_irreducibles(lat)
            lat.covers()
            for c in jl.carrier:
                predecessor(lat, c)
            booleanize(lat)
            assert len(passes) <= most

    def test_from_poset_matches_the_general_pass(self):
        # every poset of at most 5 elements and seeded ones of 5 to 9: O(P)
        # on the poset's masks, its covers read off the poset, gives the
        # masks, elements, covers, J(L), Booleanization and Birkhoff
        # embedding of the general pass over the down-sets as frozensets
        rng = random.Random(3)
        posets = [p for n in range(6) for p in all_labeled_posets(n)]
        posets += [random_poset(rng, n) for n in range(5, 10) for _ in range(6)]
        for p in posets:
            fast = SetLattice.from_poset(p)
            general = SetLattice.of_sets(p.carrier, p.all_down_sets(), check=False)
            assert fast.masks == general.masks
            assert fast.elements == general.elements
            assert fast.covers() == general.covers()
            assert join_irreducibles(fast) == join_irreducibles(general)
            assert booleanize(fast).j_masks == booleanize(general).j_masks
            assert booleanize(fast).j == booleanize(general).j
            assert birkhoff_embedding(fast) == birkhoff_embedding(general)


class TestJoinIrreducibles:
    def test_o_p3(self, p3):
        lat = SetLattice.from_poset(p3)
        jl = join_irreducibles(lat)
        assert set(jl.carrier) == {fs("1"), fs("1", "2"), fs("1", "3")}
        assert jl.leq(fs("1"), fs("1", "2")) and jl.leq(fs("1"), fs("1", "3"))
        assert not jl.leq(fs("1", "2"), fs("1", "3"))

    def test_boolean_algebra_atoms(self):
        lat = powerset_lattice("ab")
        jl = join_irreducibles(lat)
        assert set(jl.carrier) == {fs("a"), fs("b")}
        assert not jl.leq(fs("a"), fs("b"))

    def test_chain_lattice(self):
        lat = SetLattice.of_sets("pq", [fs(), fs("p"), fs("p", "q")])
        jl = join_irreducibles(lat)
        assert list(jl.carrier) == [fs("p"), fs("p", "q")]
        assert jl.leq(fs("p"), fs("p", "q"))


class TestPredecessor:
    def test_in_o_p3(self, p3):
        lat = SetLattice.from_poset(p3)
        assert predecessor(lat, fs("1", "2")) == fs("1")
        assert predecessor(lat, fs("1")) == fs()

    def test_atom_predecessor_is_bottom(self):
        lat = powerset_lattice("ab")
        assert predecessor(lat, fs("a")) == fs()

    def test_top_of_square_not_irreducible(self):
        lat = powerset_lattice("ab")
        with pytest.raises(NotJoinIrreducible):
            predecessor(lat, fs("a", "b"))


class TestBirkhoff:
    def test_down_image_in_o_p3(self, p3):
        lat = SetLattice.from_poset(p3)
        jl = join_irreducibles(lat)
        assert birkhoff_down(lat, fs("1", "2"), jl) == {fs("1"), fs("1", "2")}
        assert birkhoff_down(lat, fs(), jl) == set()

    def test_up_is_irreducible(self, p3):
        d = p3.down_set("2")
        assert d == fs("1", "2")
        lat = SetLattice.from_poset(p3)
        assert d in {c for c in join_irreducibles(lat).carrier}

    def test_up_on_chain(self):
        p = chain(["p", "q"])
        assert p.down_set("q") == fs("p", "q")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_j_of_o_p_isomorphic_to_p_exhaustive(self, n):
        for p in all_labeled_posets(n):
            lat = SetLattice.from_poset(p)
            jl = join_irreducibles(lat)
            downs = {q: p.down_set(q) for q in p.carrier}
            assert set(downs.values()) == set(jl.carrier)
            for a in p.carrier:
                for b in p.carrier:
                    assert p.leq(a, b) == jl.leq(downs[a], downs[b])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_embedding_joins_each_down_set(self, n):
        for p in all_labeled_posets(n):
            lat = SetLattice.from_poset(p)
            jl, s = birkhoff_embedding(lat)
            assert jl == join_irreducibles(lat)
            assert len(s) == len(lat) and set(s.values()) == set(lat.masks)
            for m in jl.down_masks():
                assert s[m] == lat.mask_of(birkhoff_join(lat, jl.members_of(m)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random(self, seed):
        rng = random.Random(seed)
        p = random_poset(rng, rng.randint(1, 6))
        lat = SetLattice.from_poset(p)
        jl = join_irreducibles(lat)
        seen = set()
        for a in lat.elements:
            d = birkhoff_down(lat, a, jl)
            assert birkhoff_join(lat, d) == a
            seen.add(d)
        assert len(seen) == len(lat.elements)


class TestBooleanize:
    def test_o_p3_ground_size(self, p3):
        rep = booleanize(SetLattice.from_poset(p3))
        assert len(rep.ground) == 3
        assert 2 ** len(rep.ground) == 8

    def test_already_boolean(self):
        lat = powerset_lattice("ab")
        rep = booleanize(lat)
        # j is a bijection onto the down-sets of the atom antichain
        assert len({rep.j[a] for a in lat.elements}) == len(lat.elements)

    def test_chain_ground(self):
        labels = ["a", "b", "c", "d"]
        elems = [fs(*labels[:k]) for k in range(5)]
        rep = booleanize(SetLattice.of_sets(labels, elems))
        assert len(rep.ground) == 4

    def test_j_is_birkhoff_down(self, sys1, sys2, sys3, g1, g2, tripod):
        # booleanize reads j off the cover masks; birkhoff_down, a subset scan
        # per element, is the oracle, on every poset of at most 5 elements and
        # every fixture lattice
        lattices = [SetLattice.from_poset(p) for n in range(6) for p in all_labeled_posets(n)]
        lattices += [lat for sys in (sys1, sys2, sys3) for lat in (sys.att_lattice(), sys.rep_lattice())]
        lattices += [lat(cmap) for cmap in (g1, g1_at(12), g2, tripod) for lat in (comb_att_lattice, comb_rep_lattice)]
        for lat in lattices:
            jl = join_irreducibles(lat)
            rep = booleanize(lat)
            assert rep.ground == jl
            assert rep.j == {a: birkhoff_down(lat, a, jl) for a in lat.elements}

    def test_order_test_both_forms(self):
        rep = booleanize(powerset_lattice("ab"))
        ja = rep.j[fs("a")]
        assert rep.leq(ja, ja)
        assert not (ja & rep.complement(ja))


class TestHomChecking:
    def test_identity_hom(self, p3):
        lat = SetLattice.from_poset(p3)
        assert check_hom({a: a for a in lat.elements}, lat, lat)

    def test_constant_zero_violates_top(self, p3):
        lat = SetLattice.from_poset(p3)
        report = check_hom({a: fs() for a in lat.elements}, lat, lat)
        assert not report and report.law == "h(1) = 1"

    def test_constant_zero_is_not_a_hom_object(self, p3):
        lat = SetLattice.from_poset(p3)
        with pytest.raises(NotAHom):
            LatticeHom(lat, lat, {a: fs() for a in lat.elements})

    def test_complement_map_is_anti_hom(self, p3):
        src = SetLattice.from_poset(p3)
        dst = SetLattice.from_poset(p3.dual())
        full = (1 << len(p3)) - 1
        table = {p3.members_of(m): p3.members_of(full ^ m) for m in p3.down_masks()}
        assert check_anti_hom(table, src, dst)
        assert not check_hom(table, src, dst)

    def test_unordered_scan_agrees_with_the_ordered_oracle(self):
        # the identity on O(P), and each copy with one image replaced by another down-set
        maps = broken = 0
        for n in range(5):
            for p in all_labeled_posets(n):
                downs = p.all_down_sets()
                identity = {d: d for d in downs}
                for k in [identity] + [{**identity, d: e} for d in downs for e in downs if e != d]:
                    found = lattice_module._broken_law(downs, k, or_, and_, and_)
                    assert found == broken_law_oracle(downs, k, or_, and_, and_), (p, k)
                    maps += 1
                    broken += found is not None
        assert maps == 12637 and 0 < broken < maps


# tables on 2^{a,b}, each key and value spelled by its labels, and the first
# law each breaks, with its witness; elements run 0, a, b, ab
HOM_FAILURES = [
    (check_hom, {"": "", "a": "a", "ab": "ab"}, "totality", (fs("b"),)),
    (check_hom, {"": "", "a": "c", "b": "b", "ab": "ab"}, "image", (fs("a"), fs("c"))),
    (check_hom, {"": "a", "a": "a", "b": "ab", "ab": "ab"}, "h(0) = 0", (fs(),)),
    (check_hom, {"": "", "a": "", "b": "", "ab": ""}, "h(1) = 1", (fs("a", "b"),)),
    (check_hom, {"": "", "a": "a", "b": "", "ab": "ab"}, "h(a v b) = h(a) v h(b)", (fs("a"), fs("b"))),
    (check_hom, {"": "", "a": "ab", "b": "ab", "ab": "ab"}, "h(a ^ b) = h(a) ^ h(b)", (fs("a"), fs("b"))),
    (check_anti_hom, {"": "ab", "a": "b", "ab": ""}, "totality", (fs("b"),)),
    (check_anti_hom, {"": "ab", "a": "b", "b": "x", "ab": ""}, "image", (fs("b"), fs("x"))),
    (check_anti_hom, {"": "", "a": "a", "b": "b", "ab": "ab"}, "h(0) = 1", (fs(),)),
    (check_anti_hom, {"": "ab", "a": "b", "b": "a", "ab": "ab"}, "h(1) = 0", (fs("a", "b"),)),
    (check_anti_hom, {"": "ab", "a": "ab", "b": "a", "ab": ""}, "h(a v b) = h(a) ^ h(b)", (fs("a"), fs("b"))),
    (check_anti_hom, {"": "ab", "a": "", "b": "", "ab": ""}, "h(a ^ b) = h(a) v h(b)", (fs("a"), fs("b"))),
]


@pytest.mark.parametrize(
    "check, spelled, law, witness", HOM_FAILURES, ids=[f"{r[0].__name__}: {r[2]}" for r in HOM_FAILURES]
)
def test_hom_check_names_each_failure(check, spelled, law, witness):
    lat = powerset_lattice("ab")
    report = check({frozenset(a): frozenset(v) for a, v in spelled.items()}, lat, lat)
    assert not report and (report.law, report.witness) == (law, witness)


class TestBooleanExtension:
    def hom_from_order_map(self, source_poset, target_poset, point_map):
        """O(u): O(P) -> O(Q) induced by an order-preserving u: Q -> P."""
        src = SetLattice.from_poset(source_poset)
        dst = SetLattice.from_poset(target_poset)
        table = {
            a: frozenset(q for q in target_poset.carrier if point_map[q] in a)
            for a in src.elements
        }
        return LatticeHom(src, dst, table)

    def test_identity_atom_images(self, p3):
        hom = self.hom_from_order_map(p3, p3, {p: p for p in p3.carrier})
        ext = BooleanExtension(p3, hom)
        # the atom at 2 is the singleton of the join-irreducible down 2
        assert ext.atom("2") == {fs("1", "2")}
        assert ext.atom("1") == {fs("1")}

    def test_extension_is_boolean_hom(self, p3):
        # u: chain -> P3, 1,2 -> their namesakes, 3 -> 2 (order-preserving)
        hom = self.hom_from_order_map(p3, chain(["1", "2", "3"]), {"1": "1", "2": "2", "3": "2"})
        ext = BooleanExtension(p3, hom)
        assert ext.is_boolean_hom()

    def test_inclusion_case(self, p3):
        # with L = O(P), the extension restricted to O(P) is the inclusion into 2^P
        hom = self.hom_from_order_map(p3, p3, {p: p for p in p3.carrier})
        ext = BooleanExtension(p3, hom)
        for d in p3.all_down_sets():
            img = ext(d)
            assert img == {p3.down_set(q) for q in d}

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_eqs_3_and_4_random_homs(self, seed):
        rng = random.Random(seed)
        p = random_poset(rng, rng.randint(1, 4))
        q = random_poset(rng, rng.randint(1, 4))
        point_map = _random_order_map(rng, q, p)
        if point_map is None:
            return
        hom = self.hom_from_order_map(p, q, point_map)
        ext = BooleanExtension(p, hom)  # validates Eq (3) on O(P) and Eq (4)
        assert ext.is_boolean_hom()

    # a valid hom passes every check, so each row corrupts one stored atom, a
    # mask over J(L) indexed by P's carrier; the join law cannot break, as
    # B(f) of a set is by definition the union of its atoms
    @pytest.mark.parametrize(
        "p, corrupt, check, law, witness",
        [
            (1, lambda atoms: atoms[0], "_validate", "Eq (4) atom disjointness", ("1", "2")),
            (2, lambda atoms: 0, "_validate", "B(f) = j o f on O(P)", (fs("1", "3"),)),
            (1, lambda atoms: atoms[0] | atoms[1], "is_boolean_hom", "B(f)(a ^ b)", (fs("1"), fs("2"))),
            (2, lambda atoms: 0, "is_boolean_hom", "complement preservation", (fs(),)),
        ],
        ids=["Eq (4)", "j o f", "meets", "complements"],
    )
    def test_each_failure_is_named(self, p3, p, corrupt, check, law, witness):
        ext = BooleanExtension(p3, self.hom_from_order_map(p3, p3, {q: q for q in p3.carrier}))
        ext._atoms[p] = corrupt(ext._atoms)
        if check == "_validate":
            with pytest.raises(NotAHom) as info:
                ext._validate()
            report = info.value.report
        else:
            report = ext.is_boolean_hom()
        assert not report and (report.law, report.witness) == (law, witness)


def _random_order_map(rng, source, target):
    """A random order-preserving map source -> target, greedily."""
    out = {}
    for p in source.carrier:
        choices = [
            t for t in target.carrier
            if all(target.leq(out[q], t) for q in source.carrier if q in out and source.leq(q, p))
            and all(target.leq(t, out[q]) for q in source.carrier if q in out and source.leq(p, q))
        ]
        if not choices:
            return None
        out[p] = rng.choice(choices)
    return out


class TestLemma53:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_annihilation_iff_order(self, n):
        labels = [chr(ord("a") + i) for i in range(n)]
        lat = powerset_lattice("".join(labels))
        ground = fs(*labels)
        for a in lat.elements:
            for b in lat.elements:
                for c in lat.elements:
                    lhs = not (c & (ground - b) & a)
                    rhs = (c & a) <= b
                    assert lhs == rhs


def test_sublattice_enumeration_of_square():
    lat = powerset_lattice("ab")
    subs = list(sublattices(lat))
    # {0,1}, {0,a,1}, {0,b,1}, all
    assert len(subs) == 4
    assert (fs(), fs("a", "b")) in subs


def test_sublattice_enumeration_bound(monkeypatch):
    # 21 elements besides 0 and 1 exceed the default bound of 20
    labels = [str(i) for i in range(22)]
    with pytest.raises(TooLarge):
        list(sublattices(SetLattice.of_sets(labels, [fs(*labels[:k]) for k in range(23)])))
    monkeypatch.setenv("MORSELAT_MAX_ENUM", "1")
    with pytest.raises(TooLarge):
        list(sublattices(powerset_lattice("ab")))
    monkeypatch.setenv("MORSELAT_MAX_ENUM", "2")
    assert len(list(sublattices(powerset_lattice("ab")))) == 4


# -- the order of every set lattice is inclusion ---------------------------------


def exact_lattices(sys):
    """Att and Rep of an exact system, and each again as a checked sublattice."""
    att, rep = sys.att_lattice(), sys.rep_lattice()
    return [att, rep, attractor_sublattice(sys, att.elements), repeller_sublattice(sys, rep.elements)]


def grid_lattices(cmap):
    """The combinatorial Att and Rep of a cell map, and each again as a checked sublattice."""
    att, rep = comb_att_lattice(cmap), comb_rep_lattice(cmap)
    att_sub = checked_sublattice(range(cmap.n), att.masks, partial(grid._comb_inv, cmap))
    rep_sub = checked_sublattice(range(cmap.n), rep.masks, partial(grid._comb_inv_plus, cmap))
    return [att, rep, att_sub, rep_sub]


def g1_at(cells):
    return ingest_interval_map("(x + x^3)/2", CellGrid(-1.0, 1.0, cells))




class TestInclusionOrder:
    def test_exact_fixtures(self, sys1, sys2, sys3):
        for sys in (sys1, sys2, sys3):
            for lat in exact_lattices(sys):
                check_order_is_inclusion(lat)

    def test_grid_fixtures(self, g1, g2, tripod):
        for cmap in (g1, g2, tripod, g1_at(12)):
            for lat in grid_lattices(cmap):
                check_order_is_inclusion(lat)

    @settings(max_examples=40, deadline=None)
    @given(small_maps)
    def test_random_maps(self, targets):
        sys = FiniteDynSys(range(len(targets)), dict(enumerate(targets)))
        assume(len(sys.cycles()) <= 4)
        for lat in exact_lattices(sys):
            check_order_is_inclusion(lat)

    @settings(max_examples=40, deadline=None)
    @given(small_cell_maps)
    def test_random_cell_maps(self, arrows):
        cmap = CellMap(CellGrid(0.0, float(len(arrows)), len(arrows)), tuple(arrows))
        assume(len(grid._morse_attractors(cmap)) <= 16)
        for lat in grid_lattices(cmap):
            check_order_is_inclusion(lat)

    def test_order_queries_evaluate_no_core(self, monkeypatch):
        lat = comb_att_lattice(g1_at(12))
        calls = []
        real = lat.core
        monkeypatch.setattr(lat, "core", lambda m: calls.append(m) or real(m))
        jl = join_irreducibles(lat)
        assert lat.covers() and len(jl) > 1
        for c in jl.carrier:
            predecessor(lat, c)
        for a in lat.elements:
            birkhoff_down(lat, a, jl)
        assert calls == []

    def test_grid_sublattice_runs_one_closure_pass(self, g1, monkeypatch):
        rep = comb_rep_lattice(g1)
        passes = []
        real = lattice_module._closure_failure
        monkeypatch.setattr(lattice_module, "_closure_failure", lambda *args: passes.append(args) or real(*args))
        grid_lift_problem(g1, rep.elements)
        assert len(passes) == 1


# -- a lift problem reads L off h --------------------------------------------------


def front_ends(exact=None, cmap=None):
    """(side, lattice, h, ambient, declared) for each lift front-end of a system or cell map.

    ``declared`` is the h^-1(1) = 1 flag each front-end passed to the lift
    before the lift read it off h as h(ambient) == ambient.
    """
    if exact is not None:
        ambient = frozenset(exact.states)
        return [
            ("attractor", attractor_sublattice(exact, exact.att_lattice().elements), exact.inv, ambient, False),
            ("repeller", repeller_sublattice(exact, exact.rep_lattice().elements), exact.inv_plus, ambient, True),
        ]
    ambient = cmap.all_cells()
    inv, inv_plus = (lambda x: comb_inv(x, cmap)), (lambda x: comb_inv_plus(x, cmap))
    att = checked_sublattice(range(cmap.n), comb_att_lattice(cmap).masks, partial(grid._comb_inv, cmap))
    rep = checked_sublattice(range(cmap.n), comb_rep_lattice(cmap).masks, partial(grid._comb_inv_plus, cmap))
    return [("attractor", att, inv, ambient, att.top == ambient), ("repeller", rep, inv_plus, ambient, True)]


def check_lattice_is_read_off_h(exact=None, cmap=None):
    """0 is the empty set, 1 = h(ambient), join is union and meet is h(a & b); the flag is h(ambient) == ambient.

    The one exception is Att of a permutation, declared False with every
    state on a cycle; its lift keeps the top, so the flag never decided it.
    """
    for side, lat, h, ambient, declared in front_ends(exact, cmap):
        assert lat.bottom == frozenset() and lat.top == h(ambient)
        for a in lat.elements:
            for b in lat.elements:
                assert lat.join(a, b) == a | b and lat.meet(a, b) == h(a & b)
        if declared != (h(ambient) == ambient):
            assert exact is not None and side == "attractor" and frozenset().union(*exact.cycles()) == ambient
            assert lift(attractor_lift(exact, lat.elements).problem).top_preserved


class TestLatticeReadOffH:
    def test_exact_fixtures(self, sys1, sys2, sys3):
        for sys in (sys1, sys2, sys3):
            check_lattice_is_read_off_h(exact=sys)

    def test_grid_fixtures(self, g1, g2, tripod):
        for cmap in (g1, g2, tripod, g1_at(12)):
            check_lattice_is_read_off_h(cmap=cmap)

    def test_permutation(self):
        check_lattice_is_read_off_h(exact=FiniteDynSys("xyw", {"x": "y", "y": "x", "w": "w"}))

    @settings(max_examples=40, deadline=None)
    @given(small_maps)
    def test_random_maps(self, targets):
        sys = FiniteDynSys(range(len(targets)), dict(enumerate(targets)))
        assume(len(sys.cycles()) <= 4)
        check_lattice_is_read_off_h(exact=sys)

    @settings(max_examples=40, deadline=None)
    @given(small_cell_maps)
    def test_random_cell_maps(self, arrows):
        cmap = CellMap(CellGrid(0.0, float(len(arrows)), len(arrows)), tuple(arrows))
        assume(len(grid._morse_attractors(cmap)) <= 16)
        check_lattice_is_read_off_h(cmap=cmap)
