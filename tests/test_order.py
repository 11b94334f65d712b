import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morselat import (
    NotAntisymmetric,
    NotReflexive,
    NotTransitive,
    TooLarge,
    UnknownElement,
    antichain,
    chain,
    is_order_embedding,
    is_order_preserving,
)
from morselat import Poset, SetLattice, comb_att_lattice, ds1, sublattices
from morselat.order import all_posets, canonical_order
from morselat.grid import attracting_blocks
from conftest import (
    _lex_key,
    all_labeled_posets,
    cubic_poset_covers,
    is_down_mask_oracle,
    not_a_down_set_witness_oracle,
    not_transitive_triple_oracle,
    random_poset,
)


def members(downsets):
    return [sorted(d) for d in downsets]


class TestValidatePoset:
    def test_identity_relation_is_an_antichain(self):
        leq = [[i == j for j in range(3)] for i in range(3)]
        p = Poset.from_relation([1, 2, 3], leq)
        assert not any(p.leq(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b)

    def test_p3_is_valid(self, p3):
        assert p3.leq("1", "2") and p3.leq("1", "3")
        assert not p3.leq("2", "3") and not p3.leq("2", "1")

    def test_antisymmetry_violation_names_the_pair(self):
        leq = [[True, True], [True, True]]
        with pytest.raises(NotAntisymmetric) as err:
            Poset.from_relation([1, 2], leq)
        assert set(err.value.pair) == {1, 2}

    def test_reflexivity_violation_names_the_element(self):
        leq = [[False]]
        with pytest.raises(NotReflexive) as err:
            Poset.from_relation(["a"], leq)
        assert err.value.element == "a"

    def test_transitivity_violation_names_the_triple(self):
        # 1 <= 2 <= 3 but not 1 <= 3
        leq = [
            [True, True, False],
            [False, True, True],
            [False, False, True],
        ]
        with pytest.raises(NotTransitive) as err:
            Poset.from_relation([1, 2, 3], leq)
        assert err.value.triple == (1, 2, 3)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(Exception):
            Poset.from_relation([1, 2], [[True, False]])


class TestDownSets:
    def test_down_set_of_minimal_element(self, p3):
        assert p3.down_set("1") == {"1"}

    def test_down_set_of_upper_element(self, p3):
        assert p3.down_set("2") == {"1", "2"}

    def test_down_set_in_antichain(self):
        p = antichain(["a", "b"])
        assert p.down_set("a") == {"a"}

    def test_unknown_element(self, p3):
        with pytest.raises(UnknownElement):
            p3.down_set("nope")

    def test_not_a_down_set_witness(self, p3):
        # {2} misses 1 below it
        mask = p3.mask_of({"2"})
        assert not p3.is_down_mask(mask)
        assert p3.carrier[p3._escape(mask)[1]] == "1"

    def test_all_down_sets_p3(self, p3):
        assert members(p3.all_down_sets()) == [
            [],
            ["1"],
            ["1", "2"],
            ["1", "3"],
            ["1", "2", "3"],
        ]

    def test_all_down_sets_chain(self):
        p = chain(["p", "q"])
        assert members(p.all_down_sets()) == [[], ["p"], ["p", "q"]]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_antichain_has_all_subsets(self, n):
        p = antichain(list(range(n)))
        assert len(p.all_down_sets()) == 2 ** n

    def test_chain_count(self):
        assert len(chain(list(range(6))).all_down_sets()) == 7

    def test_enumeration_bound(self, monkeypatch):
        p = antichain(list(range(8)))
        monkeypatch.setenv("MORSELAT_MAX_ENUM", "5")
        with pytest.raises(TooLarge):
            p.all_down_sets()

    def test_down_sets_closed_under_union_and_intersection(self, p3):
        masks = set(p3.down_masks())
        for a in masks:
            for b in masks:
                assert (a | b) in masks
                assert (a & b) in masks

    def test_canonical_order_matches_the_bit_list_key(self):
        # the bit-reversed key against the ascending bit lists it stands for:
        # every mask of at most 10 bits, and seeded masks of 20, 64 and 130 bits
        rng = random.Random(5)
        cases = [(n, list(range(1 << n))) for n in range(11)]
        cases += [(n, [rng.getrandbits(n) for _ in range(2000)]) for n in (20, 64, 130)]
        for n, masks in cases:
            rng.shuffle(masks)
            expected = sorted(masks, key=lambda m: (m.bit_count(), _lex_key(m, n)))
            assert canonical_order(masks, n) == expected, n


class TestEscape:
    """Poset._escape against the three witness loops it replaced, on every poset of at most four elements."""

    def test_down_mask_and_not_a_down_set_witness(self):
        for n in range(5):
            for p in all_labeled_posets(n):
                for mask in range(1 << n):
                    assert p.is_down_mask(mask) == is_down_mask_oracle(p, mask)
                    escape = p._escape(mask)
                    missing = None if escape is None else p.carrier[escape[1]]
                    assert missing == not_a_down_set_witness_oracle(p, mask)

    def test_not_transitive_triple(self):
        # dropping the elements of a mask from below one element keeps the
        # relation reflexive and antisymmetric, and may break transitivity
        for n in range(5):
            for p in all_labeled_posets(n):
                for i in range(n):
                    for mask in range(1 << n):
                        below = list(p.below)
                        below[i] &= ~mask | 1 << i
                        triple = not_transitive_triple_oracle(p.carrier, below)
                        if triple is None:
                            Poset(p.carrier, below)
                            continue
                        with pytest.raises(NotTransitive) as err:
                            Poset(p.carrier, below)
                        assert err.value.triple == triple


# (what is counted, a call on the tripod cell map or none that enumerates them, how many it counts)
BOUND_SITES = [
    ("poset elements", lambda _: antichain(range(4)).down_masks(), 4),
    ("lattice elements besides 0 and 1", lambda _: list(sublattices(SetLattice.of_sets("ab", map(frozenset, ["", "a", "b", "ab"])))), 2),
    ("states", lambda _: ds1().attracting_neighborhoods(), 4),
    ("cycles", lambda _: ds1().att_lattice(), 2),
    ("Morse sets", comb_att_lattice, 3),
    ("cells", attracting_blocks, 4),
]


@pytest.mark.parametrize("what, run, count", BOUND_SITES, ids=[w for w, _, _ in BOUND_SITES])
def test_bound_sites_follow_the_environment(what, run, count, tripod, monkeypatch):
    monkeypatch.setenv("MORSELAT_MAX_ENUM", str(count))
    run(tripod)
    monkeypatch.setenv("MORSELAT_MAX_ENUM", str(count - 1))
    with pytest.raises(TooLarge, match=f"^{re.escape(f'{count} {what}')} exceeds the enumeration bound {count - 1}$"):
        run(tripod)


class TestDuality:
    def test_antichain_self_dual(self):
        p = antichain([1, 2])
        assert p.dual() == p

    def test_p3_dual_flips_covers(self, p3):
        d = p3.dual()
        assert d.leq("2", "1") and d.leq("3", "1")
        assert not d.leq("1", "2")

    def test_dual_is_involution_random(self):
        rng = random.Random(7)
        for _ in range(100):
            p = random_poset(rng, rng.randint(1, 7))
            assert p.dual().dual() == p

    def test_from_covers_matches_relation(self, p3):
        leq = [[p3.leq(a, b) for b in p3.carrier] for a in p3.carrier]
        assert Poset.from_relation(p3.carrier, leq) == p3


class TestCovers:
    """Poset.covers, by the mask reduction, against the cubic scan."""

    def test_all_small_posets(self):
        for n in range(1, 5):
            for p in all_labeled_posets(n):
                assert p.covers() == cubic_poset_covers(p), p.below

    def test_seeded_ten_element_posets(self):
        rng = random.Random(11)
        for _ in range(50):
            p = random_poset(rng, 10)
            assert p.covers() == cubic_poset_covers(p), p.below


def check_complement(p):
    """d -> full ^ d maps O(P) one-to-one onto O(P^op), reverses inclusion and swaps union with intersection.

    This is the identity transport_by_duality relies on: the dual keeps the
    carrier order, so the complement of a down-set mask is read on the same bits.
    """
    full = (1 << len(p)) - 1
    downs = p.down_masks()
    dual = p.dual()
    images = [full ^ d for d in downs]
    assert sorted(images) == sorted(dual.down_masks())
    assert all(dual.is_down_mask(c) for c in images)
    for a in downs:
        assert full ^ (full ^ a) == a
        for b in downs:
            if not a & ~b:
                assert not (full ^ b) & ~(full ^ a)
            assert full ^ (a | b) == (full ^ a) & (full ^ b)
            assert full ^ (a & b) == (full ^ a) | (full ^ b)


class TestComplementMap:
    def test_p3_singleton(self, p3):
        full = (1 << len(p3)) - 1
        c = full ^ p3.mask_of(p3.down_set("1"))
        assert p3.members_of(c) == {"2", "3"}
        assert p3.dual().is_down_mask(c)

    def test_neutral_elements_swap(self, p3):
        full = (1 << len(p3)) - 1
        downs = p3.down_masks()
        assert p3.members_of(full ^ downs[0]) == set(p3.carrier)
        assert p3.members_of(full ^ downs[-1]) == set()

    def test_involution_and_anti_morphism(self):
        for n in range(5):
            for p in all_posets(range(n)):
                check_complement(p)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_complement_bijection_reverses_inclusion(self, seed):
        check_complement(random_poset(random.Random(seed), 5))


class TestOrderMaps:
    def test_identity_preserving_and_embedding(self, p3):
        f = {p: p for p in p3.carrier}
        assert is_order_preserving(f, p3, p3)
        assert is_order_embedding(f, p3, p3)

    def test_constant_map_preserves_but_does_not_embed(self, p3):
        target = chain(["a", "b"])
        f = {p: "a" for p in p3.carrier}
        assert is_order_preserving(f, p3, target)
        assert not is_order_embedding(f, p3, target)

    def test_identity_into_dual_not_preserving(self, p3):
        f = {p: p for p in p3.carrier}
        assert not is_order_preserving(f, p3, p3.dual())

    def test_unknown_image_raises(self, p3):
        with pytest.raises(UnknownElement):
            is_order_preserving({p: "zzz" for p in p3.carrier}, p3, p3)


def test_exhaustive_small_posets_form_distributive_lattices():
    """O(P) closed under union/intersection with all lattice axioms, for every
    poset with at most four elements."""
    for n in range(1, 5):
        for p in all_labeled_posets(n):
            masks = p.down_masks()
            ms = set(masks)
            assert 0 in ms and (1 << n) - 1 in ms or n == 0
            full = p.mask_of(p.carrier)
            assert full in ms
            for a in masks:
                for b in masks:
                    assert (a | b) in ms and (a & b) in ms
                    # absorption
                    assert (a & (a | b)) == a and (a | (a & b)) == a
                    for c in masks:
                        assert (a & (b | c)) == ((a & b) | (a & c))
