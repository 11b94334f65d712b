"""Finite bounded distributive lattices of sets, Birkhoff representation,
Booleanization, and homomorphism checking.

Every lattice here is materialized as a family of subsets of a finite ground
set.  Join defaults to union and meet to intersection; lattices whose meet is
not plain intersection (attractor lattices, combinatorial attractor lattices)
supply a meet callable instead.  The induced order is always a <= b iff
a meet b == a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .order import DownSet, Poset, UnknownElement

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
    """Outcome of a homomorphism-law check; falsy iff a law is violated."""

    ok: bool
    law: str | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "Ok"
        return f"violated {self.law} at {self.witness!r}"


class SetLattice:
    """A finite bounded distributive lattice of subsets of ``universe``.

    ``elements`` is canonically ordered by (size, lexicographic in universe
    order).  Closure under the lattice operations, presence of 0 and top, and
    distributivity (up to DISTRIBUTIVITY_CHECK_LIMIT elements) are checked on
    construction.
    """

    def __init__(
        self,
        universe: Sequence[Hashable],
        elements: Iterable[frozenset],
        join: Callable | None = None,
        meet: Callable | None = None,
        check: bool = True,
    ):
        self.universe = tuple(universe)
        self._uindex = {u: i for i, u in enumerate(self.universe)}
        elems = {frozenset(e) for e in elements}
        self.elements = tuple(sorted(elems, key=self._canon_key))
        self._eset = frozenset(self.elements)
        self._join = join or (lambda a, b: a | b)
        self._meet = meet or (lambda a, b: a & b)
        if check:
            self._validate()

    def _canon_key(self, e: frozenset):
        return (len(e), tuple(sorted(self._uindex[x] for x in e)))

    def _validate(self):
        if not self.elements:
            raise NotALattice("empty element family")
        for e in self.elements:
            unknown = e - set(self.universe)
            if unknown:
                raise NotALattice(f"element {sorted(map(repr, e))} leaves the universe: {unknown}")
        if frozenset() not in self._eset:
            raise NotALattice("0 (the empty set) is missing")
        top = self.top
        for a in self.elements:
            if self.meet(a, top) != a:
                raise NotALattice(f"no top element: {sorted(map(repr, a))} not below the largest element")
        for a in self.elements:
            for b in self.elements:
                if self.join(a, b) not in self._eset:
                    raise NotALattice(
                        f"not closed under join: {sorted(map(repr, a))} v {sorted(map(repr, b))}"
                    )
                if self.meet(a, b) not in self._eset:
                    raise NotALattice(
                        f"not closed under meet: {sorted(map(repr, a))} ^ {sorted(map(repr, b))}"
                    )
        if len(self.elements) <= DISTRIBUTIVITY_CHECK_LIMIT:
            for a in self.elements:
                for b in self.elements:
                    for c in self.elements:
                        if self.meet(a, self.join(b, c)) != self.join(self.meet(a, b), self.meet(a, c)):
                            raise NotALattice(f"distributivity fails at {(a, b, c)!r}")

    # -- lattice interface --------------------------------------------------

    @property
    def bottom(self) -> frozenset:
        return frozenset()

    @property
    def top(self) -> frozenset:
        return self.elements[-1]

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return self._join(a, b)

    def meet(self, a: frozenset, b: frozenset) -> frozenset:
        return self._meet(a, b)

    def leq(self, a: frozenset, b: frozenset) -> bool:
        """Order test a <= b iff a ^ b == a."""
        return self.meet(a, b) == a

    def __contains__(self, e):
        return frozenset(e) in self._eset

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, SetLattice)
            and self.universe == other.universe
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.universe, self.elements))

    def __repr__(self):
        return f"SetLattice({len(self.elements)} elements over {list(self.universe)!r})"

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (i, j) of element indices with elements[j] covering elements[i]."""
        n = len(self.elements)
        lower = [
            [i for i in range(n) if i != j and self.leq(self.elements[i], self.elements[j])]
            for j in range(n)
        ]
        out = []
        for j in range(n):
            for i in lower[j]:
                if not any(k != i and self.leq(self.elements[i], self.elements[k]) for k in lower[j]):
                    out.append((i, j))
        return out

    @classmethod
    def from_poset(cls, poset: Poset, bound: int | None = None) -> "SetLattice":
        """The down-set lattice O(P) as a lattice of subsets of the carrier."""
        return cls(
            poset.carrier,
            [d.members for d in poset.all_down_sets(bound)],
            check=False,
        )


def checked_sublattice(
    universe: Sequence[Hashable],
    elements: Iterable[Iterable],
    meet: Callable | None = None,
    top: frozenset | None = None,
) -> SetLattice:
    """The family as a SetLattice, after checking that it is a bounded sublattice.

    The family must hold 0, ``top`` (default: the whole universe) and be
    closed under union and ``meet`` (default: intersection); the first
    failure raises NotASublattice with the missing element or the offending
    pair as its witness.
    """
    family = [frozenset(e) for e in elements]
    fam = set(family)
    top = frozenset(universe) if top is None else top
    meet = meet or (lambda a, b: a & b)
    show = lambda e: [u for u in universe if u in e]
    if frozenset() not in fam:
        raise NotASublattice("family is missing the bottom element (the empty set)", frozenset())
    if top not in fam:
        raise NotASublattice(f"family is missing the top element {show(top)}", top)
    for a in family:
        for b in family:
            if a | b not in fam:
                raise NotASublattice(
                    f"family is not join-closed: {show(a)} v {show(b)} = {show(a | b)} missing", (a, b)
                )
            m = meet(a, b)
            if m not in fam:
                raise NotASublattice(
                    f"family is not meet-closed: {show(a)} ^ {show(b)} = {show(m)} missing", (a, b)
                )
    return SetLattice(universe, family, meet=meet)


# -- join-irreducibles and Birkhoff ---------------------------------------


def join_irreducibles(lat: SetLattice) -> Poset:
    """J(L) as a poset under the lattice order.

    An element is join-irreducible iff it is nonzero and has exactly one
    lower cover, its predecessor.
    """
    irr = [c for c in lat.elements if c != lat.bottom and _lower_covers(lat, c, limit=2) == 1]
    below = []
    for c in irr:
        m = 0
        for j, d in enumerate(irr):
            if lat.leq(d, c):
                m |= 1 << j
        below.append(m)
    return Poset(irr, below, _checked=True)


def _lower_covers(lat: SetLattice, c: frozenset, limit: int | None = None) -> int:
    strictly_below = [a for a in lat.elements if a != c and lat.leq(a, c)]
    count = 0
    for a in strictly_below:
        if not any(b != a and lat.leq(a, b) for b in strictly_below):
            count += 1
            if limit is not None and count >= limit:
                return count
    return count


def predecessor(lat: SetLattice, c: frozenset) -> frozenset:
    """The unique maximal element strictly below a join-irreducible."""
    strictly_below = [a for a in lat.elements if a != c and lat.leq(a, c)]
    if c == lat.bottom or not strictly_below:
        raise NotJoinIrreducible(f"{sorted(map(repr, c))} has no predecessor")
    maximal = [a for a in strictly_below if not any(b != a and lat.leq(a, b) for b in strictly_below)]
    if len(maximal) != 1:
        raise NotJoinIrreducible(f"{sorted(map(repr, c))} is not join-irreducible")
    return maximal[0]


def birkhoff_down(lat: SetLattice, a: frozenset, jl: Poset | None = None) -> DownSet:
    """The Birkhoff image of a: the down-set of join-irreducibles below a."""
    jl = jl if jl is not None else join_irreducibles(lat)
    members = frozenset(b for b in jl.carrier if lat.leq(b, a))
    return DownSet(jl, members, _checked=True)


def birkhoff_join(lat: SetLattice, down: Iterable[frozenset]) -> frozenset:
    """Inverse of birkhoff_down: the join of the members."""
    out = lat.bottom
    for b in down:
        out = lat.join(out, b)
    return out


def birkhoff_embedding(lat: SetLattice) -> tuple[Poset, dict]:
    """J(L) and the embedding s : O(J(L)) -> L, s(alpha) = join of alpha."""
    jl = join_irreducibles(lat)
    s = {d.members: birkhoff_join(lat, d.members) for d in jl.all_down_sets()}
    s[frozenset(jl.carrier)] = lat.top
    return jl, s


def birkhoff_up(poset: Poset, p) -> frozenset:
    """The down-set of p, a join-irreducible element of O(P)."""
    if p not in poset.index:
        raise UnknownElement(p)
    return poset.down_set(p).members


@dataclass(frozen=True)
class BooleanAlgebraRep:
    """B(L) = the powerset of J(L), with the embedding j = birkhoff_down."""

    ground: Poset
    j: Mapping[frozenset, frozenset]

    def complement(self, subset: frozenset) -> frozenset:
        return frozenset(self.ground.carrier) - subset

    def leq(self, a: frozenset, b: frozenset) -> bool:
        # both forms of the order test (2): a ^ b == a and a ^ b^c == 0
        first = (a & b) == a
        second = not (a & self.complement(b))
        if first != second:
            raise AssertionError("the two order-test forms disagree; Booleanization is broken")
        return first


def booleanize(lat: SetLattice) -> BooleanAlgebraRep:
    """The Booleanization of L, realised as 2^{J(L)}."""
    jl = join_irreducibles(lat)
    table = {a: birkhoff_down(lat, a, jl).members for a in lat.elements}
    rep = BooleanAlgebraRep(jl, table)
    # complementation axiom on the image: j(a) and its complement partition J(L)
    ground = frozenset(jl.carrier)
    for a in lat.elements:
        ja = table[a]
        if ja & rep.complement(ja) or (ja | rep.complement(ja)) != ground:
            raise NotALattice("Booleanization complement axiom fails")
    return rep


# -- homomorphisms ----------------------------------------------------------


def check_hom(table: Mapping, source: SetLattice, target: SetLattice) -> HomReport:
    """Check the bounded-lattice homomorphism laws, reporting the first violation."""
    return _check_laws(
        table, source, target, (target.bottom, target.top, target.join, target.meet),
        ("h(0) = 0", "h(1) = 1", "h(a v b) = h(a) v h(b)", "h(a ^ b) = h(a) ^ h(b)"),
    )


def check_anti_hom(table: Mapping, source: SetLattice, target: SetLattice) -> HomReport:
    """Like check_hom but with join and meet swapped on the target side."""
    return _check_laws(
        table, source, target, (target.top, target.bottom, target.meet, target.join),
        ("h(0) = 1", "h(1) = 0", "h(a v b) = h(a) ^ h(b)", "h(a ^ b) = h(a) v h(b)"),
    )


def _check_laws(table: Mapping, source: SetLattice, target: SetLattice, ops: tuple, laws: tuple) -> HomReport:
    """h(0), h(1), h(a v b) and h(a ^ b) against the target's (bottom, top, join, meet) ``ops``."""
    bottom, top, join, meet = ops
    for a in source.elements:
        if a not in table:
            return HomReport(False, "totality", (a,))
        if frozenset(table[a]) not in target:
            return HomReport(False, "image", (a, table[a]))
    if frozenset(table[source.bottom]) != bottom:
        return HomReport(False, laws[0], (source.bottom,))
    if frozenset(table[source.top]) != top:
        return HomReport(False, laws[1], (source.top,))
    for a in source.elements:
        for b in source.elements:
            if frozenset(table[source.join(a, b)]) != join(frozenset(table[a]), frozenset(table[b])):
                return HomReport(False, laws[2], (a, b))
            if frozenset(table[source.meet(a, b)]) != meet(frozenset(table[a]), frozenset(table[b])):
                return HomReport(False, laws[3], (a, b))
    return HomReport(True)


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
    extension to arbitrary subsets is by unions.
    """

    def __init__(self, poset: Poset, hom: LatticeHom, check: bool = True):
        self.poset = poset
        self.hom = hom
        self.target_rep = booleanize(hom.target)
        self._atoms = {}
        for p in poset.carrier:
            dp = poset.down_set(p).members
            dp_pred = dp - {p}
            self._atoms[p] = (
                self.target_rep.j[hom(dp)] - self.target_rep.j[hom(frozenset(dp_pred))]
            )
        if check:
            self._validate()

    def atom(self, p) -> frozenset:
        if p not in self._atoms:
            raise UnknownElement(p)
        return self._atoms[p]

    def __call__(self, subset: Iterable) -> frozenset:
        out = frozenset()
        for p in subset:
            out |= self.atom(p)
        return out

    def _validate(self):
        # Eq (4): atom images are pairwise disjoint
        carrier = self.poset.carrier
        for i, p in enumerate(carrier):
            for q in carrier[i + 1:]:
                if self._atoms[p] & self._atoms[q]:
                    raise NotAHom(HomReport(False, "Eq (4) atom disjointness", (p, q)))
        # agreement with j o f on O(P), which also gives Eq (3) on down-sets
        for d in self.poset.all_down_sets():
            if self(d.members) != self.target_rep.j[self.hom(d.members)]:
                raise NotAHom(HomReport(False, "B(f) = j o f on O(P)", (d.members,)))

    def is_boolean_hom(self) -> HomReport:
        """Check that the extension preserves meets, joins and complements on all of 2^P."""
        n = len(self.poset.carrier)
        ground = frozenset(self.target_rep.ground.carrier)
        subsets = [
            frozenset(self.poset.carrier[i] for i in range(n) if m >> i & 1)
            for m in range(1 << n)
        ]
        for a in subsets:
            for b in subsets:
                if self(a | b) != self(a) | self(b):
                    return HomReport(False, "B(f)(a v b)", (a, b))
                if self(a & b) != self(a) & self(b):
                    return HomReport(False, "B(f)(a ^ b)", (a, b))
        full = frozenset(self.poset.carrier)
        for a in subsets:
            if self(full - a) != ground - self(a):
                return HomReport(False, "complement preservation", (a,))
        return HomReport(True)


def boolean_extension(poset: Poset, hom: LatticeHom) -> BooleanExtension:
    return BooleanExtension(poset, hom)


# -- sublattice enumeration --------------------------------------------------


def sublattices(lat: SetLattice, max_size: int | None = None):
    """All bounded sublattices (containing 0 and 1), as tuples of elements."""
    middle = [e for e in lat.elements if e not in (lat.bottom, lat.top)]
    if len(middle) > 20:
        raise ValueError(f"too many elements to enumerate sublattices ({len(lat)})")
    base = (lat.bottom, lat.top) if lat.bottom != lat.top else (lat.bottom,)
    for m in range(1 << len(middle)):
        chosen = [middle[i] for i in range(len(middle)) if m >> i & 1]
        family = set(base) | set(chosen)
        if max_size is not None and len(family) > max_size:
            continue
        closed = all(
            lat.join(a, b) in family and lat.meet(a, b) in family
            for a in family
            for b in family
        )
        if closed:
            yield tuple(sorted(family, key=lat._canon_key))
