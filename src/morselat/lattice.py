"""Finite bounded distributive lattices of sets, Birkhoff representation,
Booleanization, and homomorphism checking.

Every lattice here is a family of subsets of a finite universe, each held
as an int mask over the universe's index: a ring of down-set masks in
Birkhoff's coordinates.  Families arrive and are validated as masks; a
family of label sets crosses once, through SetLattice.of_sets.  Join is
union; meet is the intersection under the lattice's core, an interior
operator on masks (Inv on Att, comb_inv or comb_inv_plus on a grid, none
for plain intersection), so no meet crosses labels.  The frozensets of
labels are a view, built once on first use, that serves only the cubic core
check and the public label API (elements, meet, join, leq, in).  The hom
checks and BooleanExtension take label tables, mask them once and run on
masks.  Two routines stay on labels: _check_core's distributivity loop,
because the benchmark keeps every round in memory, so a faster loop would
run more rounds and raise its peak RSS (ROADMAP item 1), and birkhoff_down,
the subset scan that tests compare booleanize against.  Each element is its
own core, so a ^ b == a iff a is a subset of b: the order is inclusion and
evaluates no meet.  J(L), the covers, predecessors, the Booleanization and
the Birkhoff embedding come from one O(|L|^2) pass of mask tests over the
size-sorted elements, kept on the lattice for its lifetime.  The down-set
lattice O(P) of a known poset needs no such pass: from_poset reads its
covers off the poset in O(|L| |P|) and builds no frozenset.

A family given as a bare list is validated by closure over all pairs and,
with a core, by distributivity over all triples, the latter only up to
DISTRIBUTIVITY_CHECK_LIMIT elements; checked_sublattice does so for the grid
lift front-ends.  Without a core the family is a ring of sets, distributive
by set algebra, so no triple is checked: the exact front-ends (dynsys_lift)
check their families so.  A family given as the image of O(P) under a map
(from_down_sets, the grid Att and Rep) is certified instead: a map that
preserves union and meet on every pair of down-sets is a lattice embedding
of a ring of sets, so its image is distributive at every size.

Every pairwise hom law of the package, here, in the lift checks and in the
Props 4.6/4.7 laws of dynsys, goes through one scan, _broken_law, over the
pairs (a, b) with b not before a; only B(f), whose joins hold for any atoms,
scans its meet law alone, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import and_, or_
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .order import (
    InternalCheckFailed, Poset, canonical_order, check_bound, cover_masks, mask_pairs, members, union_over, union_table,
)

DISTRIBUTIVITY_CHECK_LIMIT = 64


class NotALattice(ValueError):
    pass


class NotAHom(ValueError):
    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class NotJoinIrreducible(ValueError):
    pass


class NotASublattice(ValueError):
    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


@dataclass(frozen=True)
class HomReport:
    """Outcome of a law check (a hom, an attractor-repeller pair, diagram (1)); falsy iff a law is violated."""

    ok: bool
    law: str | None = None
    witness: object = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "Ok"
        return f"violated {self.law} at {self.witness!r}"


class SetLattice:
    """A finite bounded distributive lattice of subsets of ``universe`` with meet ``core(a & b)``.

    ``masks`` holds the elements as int masks over the universe (bit i for
    universe[i]) in the package's one element order, order.canonical_order:
    by size, then lexicographic in universe order.  ``elements`` is the same
    family as frozensets of labels, in that order, a view built from the
    masks on first use; ``core`` maps masks to masks.  A mask with bits
    outside the universe raises NotALattice before any core call.  Unless
    ``check`` is false, construction checks 0, closure, that each element is
    its own core and, with a core, distributivity (up to
    DISTRIBUTIVITY_CHECK_LIMIT elements; union and intersection distribute).
    ``_canonical`` masks are distinct and already in that order.
    """

    def __init__(
        self,
        universe: Sequence[Hashable],
        masks: Iterable[int],
        core: Callable[[int], int] | None = None,
        check: bool = True,
        *,
        _canonical: bool = False,
    ):
        self.universe = tuple(universe)
        self._uindex = {u: i for i, u in enumerate(self.universe)}
        self.masks = tuple(masks) if _canonical else tuple(canonical_order(set(masks), len(self.universe)))
        stray = max(self.masks, default=0)
        if stray >> len(self.universe):
            raise NotALattice(f"the mask {stray:#b} has bits outside the universe of {len(self.universe)} labels")
        self.core = core
        self._lower = None
        if check:
            if 0 not in self.masks:
                raise NotALattice("0 (the empty set) is missing")
            failure = _closure_failure(self, self.masks, self._meet_mask)
            if failure:
                raise NotALattice(failure[0])
            self._check_core()

    @classmethod
    def of_sets(cls, universe: Sequence[Hashable], elements: Iterable[Iterable], core=None, check=True) -> "SetLattice":
        """The lattice of a family of label sets, as a lattice file gives it."""
        return cls(universe, label_masks(universe, elements), core, check)

    def _check_core(self):
        """Each element is its own core, so a ^ b == a iff a <= b, and the meet distributes."""
        if self.core is None:
            return
        for m in self.masks:
            if self.core(m) != m:
                a_s = self.labels(m)
                raise NotALattice(f"meet is not idempotent: {a_s} ^ {a_s} = {self.labels(self.core(m))}")
        if len(self.elements) <= DISTRIBUTIVITY_CHECK_LIMIT:
            for a in self.elements:
                for b in self.elements:
                    for c in self.elements:
                        if self.meet(a, self.join(b, c)) != self.join(self.meet(a, b), self.meet(a, c)):
                            a_s, b_s, c_s = (self.labels(self.mask_of(e)) for e in (a, b, c))
                            raise NotALattice(f"distributivity fails at {a_s} ^ ({b_s} v {c_s})")

    @cached_property
    def elements(self) -> tuple[frozenset, ...]:
        """The elements as frozensets of labels, in ``masks`` order."""
        return tuple(frozenset(self.labels(m)) for m in self.masks)

    @cached_property
    def _eset(self) -> frozenset:
        return frozenset(self.elements)

    def mask_of(self, members: Iterable) -> int:
        """The mask over the universe of a set of its members."""
        m = 0
        for x in members:
            m |= 1 << self._uindex[x]
        return m

    def labels(self, mask: int) -> list:
        """The members of a mask over the universe, in universe order."""
        u = self.universe
        return [u[i] for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]

    # -- lattice interface --------------------------------------------------

    @property
    def bottom(self) -> frozenset:
        return frozenset()

    @property
    def top(self) -> frozenset:
        return self.elements[-1]

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def meet(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b if self.core is None else frozenset(self.labels(self.core(self.mask_of(a & b))))

    def _meet_mask(self, a: int, b: int) -> int:
        c = a & b
        return c if self.core is None else self.core(c)

    def leq(self, a: frozenset, b: frozenset) -> bool:
        return a <= b

    def __contains__(self, e):
        return frozenset(e) in self._eset

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, SetLattice)
            and self.universe == other.universe
            and self.masks == other.masks
        )

    def __hash__(self):
        return hash((self.universe, self.masks))

    def __repr__(self):
        return f"SetLattice({len(self.masks)} elements over {list(self.universe)!r})"

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (i, j) of element indices with elements[j] covering elements[i], by j then i."""
        return mask_pairs(self._lower_masks())

    def _lower_masks(self) -> list[int]:
        """Per element, the mask over element indices of the elements it covers.

        One pass, kept for the lattice's lifetime: the elements are size-sorted,
        so only earlier ones can lie strictly below an element and a mask
        test decides each; order.cover_masks then keeps the maximal ones.
        O(|L|^2) int ANDs and ORs, and no meet or core call.
        """
        if self._lower is None:
            ms = self.masks
            strict = []
            for j, c in enumerate(ms):
                m = 0
                for i in range(j):
                    if not ms[i] & ~c:
                        m |= 1 << i
                strict.append(m)
            self._lower = cover_masks(strict)
        return self._lower

    @classmethod
    def from_poset(cls, poset: Poset) -> "SetLattice":
        """The down-set lattice O(P) as a lattice of subsets of the carrier, on the poset's own masks.

        Its covers are read off the poset, not searched: the lower covers of a
        down-set d are the d minus {p} for p maximal in d, that is, those of
        the |d| masks d minus one bit that are down-sets.  O(|L| |P|) lookups;
        the masks come in the lattice's canonical order.
        """
        masks = poset.down_masks()
        lat = cls(poset.carrier, masks, check=False, _canonical=True)
        position = {m: i for i, m in enumerate(masks)}
        lower = []
        for m in masks:
            low = 0
            rest = m
            while rest:
                bit = rest & -rest
                i = position.get(m ^ bit)
                if i is not None:
                    low |= 1 << i
                rest ^= bit
            lower.append(low)
        lat._lower = lower
        return lat

    @classmethod
    def from_down_sets(
        cls,
        universe: Sequence[Hashable],
        image: Mapping[int, int],
        core: Callable[[int], int],
    ) -> "SetLattice":
        """The image of O(P) under ``image``, a map from the down-set masks of a poset P to masks, certified.

        The map must be injective, take the empty down-set to the empty set
        and, on every pair d, e of down-sets (d = e included), satisfy
        A_d | A_e = A_(d | e) and core(A_d & A_e) = A_(d & e).  It is then a
        lattice embedding of O(P), a ring of sets, so its image is a
        distributive lattice under union and core(a & b) at every size
        (Birkhoff, "Rings of sets", 1937): |L|(|L|+1)/2 core calls and no
        triples.  The first failure raises NotALattice naming the law and the
        pair.
        """
        lat = cls(universe, image.values(), core, check=False)
        owner = {}
        for d, a in image.items():
            if owner.setdefault(a, d) != d:
                raise NotALattice(
                    f"the map is not injective: the down-sets {owner[a]:#b} and {d:#b} both map to {lat.labels(a)}"
                )
        if image.get(0) != 0:
            raise NotALattice("the empty down-set does not map to 0 (the empty set)")
        broken = _broken_law(list(image), image, or_, lat._meet_mask, and_)
        if broken:
            d, e = broken[1]
            a, b = image[d], image[e]
            if broken[0] == "joins":
                law, op, de, c = "join", "v", d | e, a | b
            else:
                law, op, de, c = "meet", "^", d & e, lat._meet_mask(a, b)
            a_s, b_s, c_s = (lat.labels(x) for x in (a, b, c))
            want = "no image" if de not in image else f"image {lat.labels(image[de])}"
            raise NotALattice(
                f"the {law} law fails on the down-sets {d:#b}, {e:#b}: "
                f"{a_s} {op} {b_s} = {c_s}, but {de:#b} has {want}"
            )
        return lat


def label_masks(universe: Sequence[Hashable], sets: Iterable[Iterable]) -> list[int]:
    """Each set of labels as a mask over ``universe``; NotALattice names the labels outside it."""
    index = {u: i for i, u in enumerate(universe)}
    sets = [frozenset(e) for e in sets]
    outside = frozenset().union(*sets).difference(index)
    if outside:
        raise NotALattice(f"elements leave the universe: {sorted(outside, key=repr)}")
    return [sum(1 << index[x] for x in e) for e in sets]


def _closure_failure(lat: SetLattice, family: Sequence[int], meet: Callable[[int, int], int]) -> tuple | None:
    """(message, (a, b)) for the first a, b, b not before a, whose join or ``meet`` leaves the mask family.

    None when the family is closed.  Join and meet commute, so no pair with b
    before a could fail first.
    """
    members = set(family)
    for i, a in enumerate(family):
        for b in family[i:]:
            for law, op, c in (("join", "v", a | b), ("meet", "^", meet(a, b))):
                if c not in members:
                    a_s, b_s, c_s = (lat.labels(e) for e in (a, b, c))
                    message = f"family is not {law}-closed: {a_s} {op} {b_s} = {c_s} missing"
                    return message, (frozenset(a_s), frozenset(b_s))
    return None


def _require_sublattice(lat: SetLattice, family: Sequence[int], top: int, meet: Callable[[int, int], int]) -> None:
    """NotASublattice unless the masks hold 0 and ``top`` and are closed under union and ``meet``.

    Its witness is the missing set or the failing pair, as label sets.
    """
    if 0 not in family:
        raise NotASublattice("family is missing the bottom element (the empty set)", frozenset())
    if top not in family:
        raise NotASublattice(f"family is missing the top element {lat.labels(top)}", frozenset(lat.labels(top)))
    failure = _closure_failure(lat, family, meet)
    if failure:
        raise NotASublattice(*failure)


def checked_sublattice(universe: Sequence[Hashable], masks: Iterable[int], core=None) -> SetLattice:
    """The mask family as a SetLattice with the given core, after checking that it is a bounded sublattice.

    The family must hold 0 and the top ``core(full)`` (the full mask
    without a core) and be closed under union and the meet ``core(a & b)``;
    the first failure raises NotASublattice with the missing element or the
    offending pair as its witness.  SetLattice's core checks follow; without
    a core there are none, as a ring of sets is distributive.
    """
    family = list(dict.fromkeys(masks))
    lat = SetLattice(universe, family, core, check=False)
    full = (1 << len(universe)) - 1
    top = full if core is None else core(full)
    _require_sublattice(lat, family, top, lat._meet_mask)
    lat._check_core()
    return lat


# -- join-irreducibles and Birkhoff ---------------------------------------


def join_irreducibles(lat: SetLattice) -> Poset:
    """J(L) as a poset under the lattice order.

    An element is join-irreducible iff it is nonzero and has exactly one
    lower cover, its predecessor.  The order is read off the masks; only the
    carrier is built as frozensets.
    """
    irr = [c for c, low in zip(lat.masks, lat._lower_masks()) if low and not low & (low - 1)]
    below = []
    for c in irr:
        m = 0
        for j, d in enumerate(irr):
            if not d & ~c:
                m |= 1 << j
        below.append(m)
    return Poset([frozenset(lat.labels(c)) for c in irr], below, _checked=True)


def predecessor(lat: SetLattice, c: frozenset) -> frozenset:
    """The unique maximal element strictly below a join-irreducible."""
    c = frozenset(c)
    if c not in lat:
        raise NotJoinIrreducible(f"{sorted(map(repr, c))} is not an element of the lattice")
    low = lat._lower_masks()[lat.elements.index(c)]
    if not low:
        raise NotJoinIrreducible(f"{sorted(map(repr, c))} has no predecessor")
    if low & (low - 1):
        raise NotJoinIrreducible(f"{sorted(map(repr, c))} is not join-irreducible")
    return lat.elements[low.bit_length() - 1]


def birkhoff_down(lat: SetLattice, a: frozenset, jl: Poset | None = None) -> frozenset:
    """The Birkhoff image of a: the down-set of join-irreducibles below a."""
    jl = jl if jl is not None else join_irreducibles(lat)
    return frozenset(b for b in jl.carrier if b <= a)


def birkhoff_join(lat: SetLattice, down: Iterable[frozenset]) -> frozenset:
    """Inverse of birkhoff_down: the join of the members, their union."""
    return frozenset().union(*down)


def birkhoff_embedding(lat: SetLattice) -> tuple[Poset, dict[int, int]]:
    """J(L) and the embedding s : O(J(L)) -> L, s(alpha) = join of alpha, keyed by the down-set masks of J(L).

    Each value is the OR of the masks of the members of alpha, a mask over ``lat.universe``.
    """
    jl = join_irreducibles(lat)
    ground = [lat.mask_of(c) for c in jl.carrier]
    return jl, {m: union_over(ground, m) for m in jl.down_masks()}


@dataclass(frozen=True)
class BooleanAlgebraRep:
    """B(L) = the powerset of J(L), with the embedding j = birkhoff_down.

    ``j_masks[k]`` is j(a) for a = ``lattice.masks[k]``, as a mask over the
    carrier of ``ground``.  ``j`` is the same map on frozensets, element to
    subset of J(L), built on first read.
    """

    ground: Poset
    lattice: SetLattice
    j_masks: tuple[int, ...]

    @cached_property
    def j(self) -> Mapping[frozenset, frozenset]:
        return {a: self.ground.members_of(m) for a, m in zip(self.lattice.elements, self.j_masks)}

    def complement(self, subset: frozenset) -> frozenset:
        return frozenset(self.ground.carrier) - subset

    def leq(self, a: frozenset, b: frozenset) -> bool:
        # both forms of the order test (2): a ^ b == a and a ^ b^c == 0
        first = (a & b) == a
        second = not (a & self.complement(b))
        if first != second:
            raise InternalCheckFailed("the two order-test forms disagree; Booleanization is broken")
        return first


def booleanize(lat: SetLattice) -> BooleanAlgebraRep:
    """The Booleanization of L, realised as 2^{J(L)}.

    j(a), the join-irreducibles below a, is a itself if it is one, together
    with j of each lower cover of a: one walk of the elements in order, on
    masks over J(L), with no subset test.  J(L)'s carrier is in element
    order, so the k-th join-irreducible met on the walk is bit k.
    """
    jl = join_irreducibles(lat)
    below = []
    count = 0
    for low in lat._lower_masks():
        m = union_over(below, low)
        if low and not low & (low - 1):
            m |= 1 << count
            count += 1
        below.append(m)
    return BooleanAlgebraRep(jl, lat, tuple(below))


# -- homomorphisms ----------------------------------------------------------


def check_hom(table: Mapping, source: SetLattice, target: SetLattice) -> HomReport:
    """Check the bounded-lattice homomorphism laws, reporting the first violation."""
    return _check_laws(
        table, source, target, (0, target.masks[-1], or_, target._meet_mask),
        ("h(0) = 0", "h(1) = 1", "h(a v b) = h(a) v h(b)", "h(a ^ b) = h(a) ^ h(b)"),
    )


def check_anti_hom(table: Mapping, source: SetLattice, target: SetLattice) -> HomReport:
    """Like check_hom but with join and meet swapped on the target side."""
    return _check_laws(
        table, source, target, (target.masks[-1], 0, target._meet_mask, or_),
        ("h(0) = 1", "h(1) = 0", "h(a v b) = h(a) ^ h(b)", "h(a ^ b) = h(a) v h(b)"),
    )


def _check_laws(table: Mapping, source: SetLattice, target: SetLattice, ops: tuple, laws: tuple) -> HomReport:
    """h(0), h(1), h(a v b) and h(a ^ b) against the target's (bottom, top, join, meet) ``ops``, on masks.

    The label table is masked once; the witnesses are the source's label sets.
    """
    bottom, top, join, meet = ops
    k = {}
    for a, m in zip(source.elements, source.masks):
        if a not in table:
            return HomReport(False, "totality", (a,))
        if table[a] not in target:
            return HomReport(False, "image", (a, table[a]))
        k[m] = target.mask_of(table[a])
    if k[0] != bottom:
        return HomReport(False, laws[0], (source.bottom,))
    if k[source.masks[-1]] != top:
        return HomReport(False, laws[1], (source.top,))
    broken = _broken_law(source.masks, k, join, meet, source._meet_mask)
    if broken:
        witness = tuple(members(source.universe, m) for m in broken[1])
        return HomReport(False, laws[2] if broken[0] == "joins" else laws[3], witness)
    return HomReport(True)


def _broken_law(elements: Sequence, k: Mapping, join: Callable, meet: Callable, source_meet: Callable) -> tuple | None:
    """The first ("joins" or "meets", (a, b)), b not before a in ``elements``, at which k breaks that law.

    The elements join by union and meet by ``source_meet``; their images by
    ``join`` and ``meet``.  A join or meet with no image in k breaks the law.
    Every caller's joins and meets commute, so no pair with b before a could
    fail first: this is the first failing pair of the ordered scan too.
    """
    for i, a in enumerate(elements):
        ka = k[a]
        for b in elements[i:]:
            kb = k[b]
            if k.get(a | b) != join(ka, kb):
                return "joins", (a, b)
            if k.get(source_meet(a, b)) != meet(ka, kb):
                return "meets", (a, b)
    return None


@dataclass(frozen=True)
class LatticeHom:
    """A validated bounded-lattice homomorphism given by a dense table."""

    source: SetLattice
    target: SetLattice
    table: Mapping[frozenset, frozenset]

    def __post_init__(self):
        report = check_hom(self.table, self.source, self.target)
        if not report:
            raise NotAHom(report)

    def __call__(self, a: frozenset) -> frozenset:
        return frozenset(self.table[frozenset(a)])


# -- Boolean extension (Prop 2.3 / Eqs (3), (4)) ----------------------------


class BooleanExtension:
    """B(f) : 2^P -> B(L) for a hom f : O(P) -> L.

    Atom images are forced by the requirement that B(f) agree with j o f on
    O(P):  B(f)({p}) = j(f(down p)) minus j(f(down p minus p)), and the
    extension to arbitrary subsets is by unions.  Subsets of P are masks over
    its carrier and images masks over J(L)'s, read off booleanize's
    ``j_masks``; ``atom`` and calls take and give label sets.
    """

    def __init__(self, poset: Poset, hom: LatticeHom):
        self.poset = poset
        self.hom = hom
        self.target_rep = booleanize(hom.target)
        j = dict(zip(hom.target.masks, self.target_rep.j_masks))
        # j o f on the down-set masks of P
        self._jf = {d: j[hom.target.mask_of(hom(poset.members_of(d)))] for d in poset.down_masks()}
        self._atoms = [self._jf[dp] & ~self._jf[dp ^ 1 << i] for i, dp in enumerate(poset.below)]
        self._validate()

    def atom(self, p) -> frozenset:
        return self((p,))

    def __call__(self, subset: Iterable) -> frozenset:
        return self.target_rep.ground.members_of(union_over(self._atoms, self.poset.mask_of(subset)))

    def _validate(self):
        # Eq (4): atom images are pairwise disjoint
        carrier, atoms = self.poset.carrier, self._atoms
        for i, a in enumerate(atoms):
            for k in range(i + 1, len(atoms)):
                if a & atoms[k]:
                    raise NotAHom(HomReport(False, "Eq (4) atom disjointness", (carrier[i], carrier[k])))
        # agreement with j o f on O(P), which also gives Eq (3) on down-sets
        for d, jf in self._jf.items():
            if union_over(atoms, d) != jf:
                raise NotAHom(HomReport(False, "B(f) = j o f on O(P)", (self.poset.members_of(d),)))

    def is_boolean_hom(self) -> HomReport:
        """Check meets and complements on all of 2^P; joins hold for any atoms, B(f) of a set being their union."""
        image = union_table(self._atoms)
        for a, ka in enumerate(image):
            for b in range(a, len(image)):
                if image[a & b] != ka & image[b]:
                    return HomReport(False, "B(f)(a ^ b)", (self.poset.members_of(a), self.poset.members_of(b)))
        full, ground = len(image) - 1, (1 << len(self.target_rep.ground)) - 1
        for a, b in enumerate(image):
            if image[full ^ a] != ground ^ b:
                return HomReport(False, "complement preservation", (self.poset.members_of(a),))
        return HomReport(True)


# -- sublattice enumeration --------------------------------------------------


def sublattices(lat: SetLattice):
    """All bounded sublattices (containing 0 and 1), as tuples of elements in ``lat.elements`` order.

    The 2^(|L| - 2) candidate families are refused with TooLarge when |L| - 2
    exceeds the enumeration bound.
    """
    view = dict(zip(lat.masks, lat.elements))
    middle = [m for m in lat.masks if m not in (0, lat.masks[-1])]
    check_bound(len(middle), "lattice elements besides 0 and 1")
    top = lat.masks[-1:] if lat.masks[-1] else ()
    for pick in range(1 << len(middle)):
        family = (0, *(middle[i] for i in range(len(middle)) if pick >> i & 1), *top)
        if _closure_failure(lat, family, lat._meet_mask) is None:
            yield tuple(map(view.__getitem__, family))
