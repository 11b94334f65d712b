import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morselat import (
    LatticeHom,
    NotAHom,
    NotALattice,
    NotJoinIrreducible,
    SetLattice,
    birkhoff_down,
    birkhoff_embedding,
    birkhoff_join,
    birkhoff_up,
    boolean_extension,
    booleanize,
    check_anti_hom,
    check_hom,
    complement_map,
    join_irreducibles,
    predecessor,
    sublattices,
)
from morselat.order import chain
from conftest import all_labeled_posets, random_poset


def powerset_lattice(labels):
    subs = [
        frozenset(c)
        for r in range(len(labels) + 1)
        for c in itertools.combinations(labels, r)
    ]
    return SetLattice(labels, subs)


def fs(*items):
    return frozenset(items)


class TestSetLattice:
    def test_requires_bottom(self):
        with pytest.raises(NotALattice):
            SetLattice("ab", [fs("a"), fs("a", "b")])

    def test_requires_closure(self):
        with pytest.raises(NotALattice):
            SetLattice("ab", [fs(), fs("a"), fs("b")])

    def test_canonical_order(self):
        lat = powerset_lattice("ab")
        assert lat.elements[0] == fs() and lat.elements[-1] == fs("a", "b")

    def test_leq_is_subset_for_set_lattices(self, p3):
        lat = SetLattice.from_poset(p3)
        assert lat.leq(fs("1"), fs("1", "2"))
        for a in lat.elements:
            assert lat.leq(a, a)


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
        lat = SetLattice("pq", [fs(), fs("p"), fs("p", "q")])
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
        assert birkhoff_down(lat, fs("1", "2"), jl).members == {fs("1"), fs("1", "2")}
        assert birkhoff_down(lat, fs(), jl).members == set()

    def test_up_is_irreducible(self, p3):
        d = birkhoff_up(p3, "2")
        assert d == fs("1", "2")
        lat = SetLattice.from_poset(p3)
        assert d in {c for c in join_irreducibles(lat).carrier}

    def test_up_on_chain(self):
        p = chain(["p", "q"])
        assert birkhoff_up(p, "q") == fs("p", "q")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_j_of_o_p_isomorphic_to_p_exhaustive(self, n):
        for p in all_labeled_posets(n):
            lat = SetLattice.from_poset(p)
            jl = join_irreducibles(lat)
            downs = {q: p.down_set(q).members for q in p.carrier}
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
            assert len(s) == len(lat) and set(s.values()) == set(lat.elements)
            for d in jl.all_down_sets():
                assert s[d.members] == birkhoff_join(lat, d.members)

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
            assert birkhoff_join(lat, d.members) == a
            seen.add(d.members)
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
        rep = booleanize(SetLattice(labels, elems))
        assert len(rep.ground) == 4

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
        table = {
            d.members: complement_map(d).members for d in p3.all_down_sets()
        }
        assert check_anti_hom(table, src, dst)
        assert not check_hom(table, src, dst)


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
        ext = boolean_extension(p3, hom)
        # the atom at 2 is the singleton of the join-irreducible down 2
        assert ext.atom("2") == {fs("1", "2")}
        assert ext.atom("1") == {fs("1")}

    def test_extension_is_boolean_hom(self, p3):
        # u: chain -> P3, 1,2 -> their namesakes, 3 -> 2 (order-preserving)
        hom = self.hom_from_order_map(p3, chain(["1", "2", "3"]), {"1": "1", "2": "2", "3": "2"})
        ext = boolean_extension(p3, hom)
        assert ext.is_boolean_hom()

    def test_inclusion_case(self, p3):
        # with L = O(P), the extension restricted to O(P) is the inclusion into 2^P
        hom = self.hom_from_order_map(p3, p3, {p: p for p in p3.carrier})
        ext = boolean_extension(p3, hom)
        for d in p3.all_down_sets():
            img = ext(d.members)
            assert img == {birkhoff_up(p3, q) for q in d.members}

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
        ext = boolean_extension(p, hom)  # validates Eq (3) on O(P) and Eq (4)
        assert ext.is_boolean_hom()


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
