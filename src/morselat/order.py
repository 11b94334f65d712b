"""Finite posets, down-sets, the down-set lattice O(P), and poset duality.

Elements are identified by arbitrary hashable labels; the order relation is
kept internally as one bitmask per element over a fixed carrier ordering, so
set algebra on down-sets is constant-time word arithmetic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

DEFAULT_ENUM_BOUND = 20


def enum_bound(default: int = DEFAULT_ENUM_BOUND) -> int:
    """Enumeration bound, overridable through MORSELAT_MAX_ENUM."""
    env = os.environ.get("MORSELAT_MAX_ENUM")
    if not env:
        return default
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"MORSELAT_MAX_ENUM must be an integer, got {env!r}") from None


def closure(rel: Sequence[int]) -> list[int]:
    """Reflexive-transitive closure of a relation given as one bitmask per element."""
    n = len(rel)
    out = [m | 1 << i for i, m in enumerate(rel)]
    for k in range(n):
        bit = 1 << k
        row = out[k]
        for i in range(n):
            if out[i] & bit:
                out[i] |= row
    return out


def closed_masks(rel: Sequence[int], within: int | None = None) -> Iterator[int]:
    """Every U inside ``within`` with rel[i] contained in U for each i in U, ascending.

    ``within`` (default: everything) must itself be closed.  Output-sensitive
    in the manner of Squire's ideal enumeration: after closing ``rel``, branch
    on the highest undecided element x, first leaving out everything above x,
    then taking in everything below it.  Both branches yield at least one set,
    so the work is O(n) word operations per set, and deciding the highest
    element first makes the output ascending as integers.
    """
    n = len(rel)
    down = closure(rel)
    up = [0] * n
    for i, m in enumerate(down):
        rest = m
        while rest:
            j = (rest & -rest).bit_length() - 1
            up[j] |= 1 << i
            rest &= rest - 1
    stack = [(0, (1 << n) - 1 if within is None else within)]
    while stack:
        u, free = stack.pop()
        if not free:
            yield u
            continue
        x = free.bit_length() - 1
        stack.append((u | down[x], free & ~down[x]))
        stack.append((u, free & ~up[x]))


class PosetError(ValueError):
    pass


class NotReflexive(PosetError):
    def __init__(self, p):
        self.element = p
        super().__init__(f"relation is not reflexive at {p!r}")


class NotAntisymmetric(PosetError):
    def __init__(self, p, q):
        self.pair = (p, q)
        super().__init__(f"relation is not antisymmetric: {p!r} <= {q!r} and {q!r} <= {p!r}")


class NotTransitive(PosetError):
    def __init__(self, p, q, r):
        self.triple = (p, q, r)
        super().__init__(f"relation is not transitive: {p!r} <= {q!r} <= {r!r} but not {p!r} <= {r!r}")


class UnknownElement(PosetError):
    def __init__(self, p):
        self.element = p
        super().__init__(f"unknown element {p!r}")


class NotADownSet(ValueError):
    def __init__(self, members, witness):
        self.witness = witness
        super().__init__(f"{sorted(map(repr, members))} is not downward closed (missing {witness!r})")


class TooLarge(ValueError):
    pass


class Poset:
    """Finite poset over a fixed carrier ordering.

    ``below[i]`` is the bitmask of indices j with carrier[j] <= carrier[i],
    i.e. the down-set of element i.  The relation is validated on
    construction.
    """

    __slots__ = ("carrier", "index", "below")

    def __init__(self, carrier: Sequence[Hashable], below: Sequence[int], _checked: bool = False):
        self.carrier = tuple(carrier)
        if len(set(self.carrier)) != len(self.carrier):
            raise PosetError("carrier labels are not unique")
        self.index = {p: i for i, p in enumerate(self.carrier)}
        self.below = tuple(below)
        if not _checked:
            self._validate()

    def _validate(self):
        n = len(self.carrier)
        if len(self.below) != n:
            raise PosetError("relation size does not match carrier")
        for i in range(n):
            if not self.below[i] >> i & 1:
                raise NotReflexive(self.carrier[i])
        for i in range(n):
            for j in range(n):
                if i != j and self.below[i] >> j & 1 and self.below[j] >> i & 1:
                    raise NotAntisymmetric(self.carrier[j], self.carrier[i])
        for i in range(n):
            # transitivity: j <= i implies below[j] subset below[i]
            m = self.below[i]
            rest = m
            while rest:
                j = (rest & -rest).bit_length() - 1
                if self.below[j] & ~m:
                    k = ((self.below[j] & ~m) & -(self.below[j] & ~m)).bit_length() - 1
                    raise NotTransitive(self.carrier[k], self.carrier[j], self.carrier[i])
                rest &= rest - 1

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_relation(cls, carrier: Sequence[Hashable], leq: Sequence[Sequence[bool]]) -> "Poset":
        """Build from a full relation matrix, leq[i][j] meaning carrier[i] <= carrier[j]."""
        n = len(carrier)
        if any(len(row) != n for row in leq) or len(leq) != n:
            raise PosetError("relation matrix is not square")
        below = [0] * n
        for i in range(n):
            for j in range(n):
                if leq[j][i]:
                    below[i] |= 1 << j
        return cls(carrier, below)

    @classmethod
    def from_covers(cls, carrier: Sequence[Hashable], covers: Iterable[tuple]) -> "Poset":
        """Build from cover edges (p, q) meaning p <= q; closure computed here."""
        index = {p: i for i, p in enumerate(carrier)}
        n = len(carrier)
        below = [1 << i for i in range(n)]
        for p, q in covers:
            if p not in index:
                raise UnknownElement(p)
            if q not in index:
                raise UnknownElement(q)
            below[index[q]] |= 1 << index[p]
        return cls(carrier, closure(below))

    # -- basic queries -----------------------------------------------------

    def __len__(self):
        return len(self.carrier)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.carrier == other.carrier
            and self.below == other.below
        )

    def __hash__(self):
        return hash((self.carrier, self.below))

    def __repr__(self):
        rel = [
            (self.carrier[j], self.carrier[i])
            for i in range(len(self.carrier))
            for j in range(len(self.carrier))
            if i != j and self.below[i] >> j & 1
        ]
        return f"Poset({list(self.carrier)!r}, {rel!r})"

    def leq(self, p, q) -> bool:
        if p not in self.index:
            raise UnknownElement(p)
        if q not in self.index:
            raise UnknownElement(q)
        return bool(self.below[self.index[q]] >> self.index[p] & 1)

    def mask_of(self, members: Iterable) -> int:
        m = 0
        for p in members:
            if p not in self.index:
                raise UnknownElement(p)
            m |= 1 << self.index[p]
        return m

    def members_of(self, mask: int) -> frozenset:
        return frozenset(self.carrier[i] for i in range(len(self.carrier)) if mask >> i & 1)

    def is_down_mask(self, mask: int) -> bool:
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            if self.below[i] & ~mask:
                return False
            rest &= rest - 1
        return True

    def minimal_elements(self, within: int | None = None):
        """Minimal elements of the sub-poset induced on the mask ``within``."""
        full = (1 << len(self.carrier)) - 1
        w = full if within is None else within
        out = []
        for i in range(len(self.carrier)):
            if w >> i & 1 and not (self.below[i] & w & ~(1 << i)):
                out.append(self.carrier[i])
        return out

    # -- order operations --------------------------------------------------

    def down_set(self, p) -> "DownSet":
        if p not in self.index:
            raise UnknownElement(p)
        return DownSet(self, self.members_of(self.below[self.index[p]]), _checked=True)

    def all_down_sets(self, bound: int | None = None) -> list["DownSet"]:
        """The lattice O(P), ordered by (size, lexicographic in carrier order)."""
        return [DownSet(self, self.members_of(m), _checked=True) for m in self.down_masks(bound)]

    def down_masks(self, bound: int | None = None) -> list[int]:
        n = len(self.carrier)
        limit = enum_bound() if bound is None else bound
        if n > limit:
            raise TooLarge(f"poset has {n} elements, enumeration bound is {limit}")
        return sorted(closed_masks(self.below), key=lambda m: (bin(m).count("1"), _lex_key(m, n)))

    def dual(self) -> "Poset":
        """The opposite poset: p <= q in the dual iff q <= p here."""
        n = len(self.carrier)
        above = [0] * n
        for i in range(n):
            for j in range(n):
                if self.below[j] >> i & 1:
                    above[i] |= 1 << j
        return Poset(self.carrier, above, _checked=True)

    def covers(self) -> list[tuple]:
        """Cover pairs (p, q) with q covering p (transitive reduction)."""
        n = len(self.carrier)
        out = []
        for i in range(n):
            strict = self.below[i] & ~(1 << i)
            rest = strict
            while rest:
                j = (rest & -rest).bit_length() - 1
                # j is covered by i iff nothing lies strictly between
                if not any(
                    strict >> k & 1 and k != j and self.below[k] >> j & 1
                    for k in range(n)
                ):
                    out.append((self.carrier[j], self.carrier[i]))
                rest &= rest - 1
        return out


def _lex_key(mask: int, n: int) -> tuple:
    return tuple(i for i in range(n) if mask >> i & 1)


@dataclass(frozen=True)
class DownSet:
    """A downward closed subset of a poset."""

    poset: Poset
    members: frozenset
    _checked: bool = False

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if not self._checked:
            mask = self.poset.mask_of(self.members)
            if not self.poset.is_down_mask(mask):
                rest = mask
                while rest:
                    i = (rest & -rest).bit_length() - 1
                    missing = self.poset.below[i] & ~mask
                    if missing:
                        k = (missing & -missing).bit_length() - 1
                        raise NotADownSet(self.members, self.poset.carrier[k])
                    rest &= rest - 1

    @property
    def mask(self) -> int:
        return self.poset.mask_of(self.members)

    def __contains__(self, p):
        return p in self.members

    def __len__(self):
        return len(self.members)

    def __le__(self, other):
        return self.members <= other.members


def validate_poset(carrier: Sequence[Hashable], leq: Sequence[Sequence[bool]]) -> Poset:
    """Check the three order axioms, naming the first violated one."""
    return Poset.from_relation(carrier, leq)


def down_set(poset: Poset, p) -> DownSet:
    return poset.down_set(p)


def all_down_sets(poset: Poset, bound: int | None = None) -> list[DownSet]:
    return poset.all_down_sets(bound)


def dual_poset(poset: Poset) -> Poset:
    return poset.dual()


def complement_map(alpha: DownSet) -> DownSet:
    """alpha -> P \\ alpha, a down-set of the dual poset.

    This is an involutive lattice anti-morphism O(P) -> O(P^op).
    """
    p = alpha.poset
    return DownSet(p.dual(), frozenset(p.carrier) - alpha.members, _checked=True)


def is_order_preserving(f: Mapping | Callable, source: Poset, target: Poset) -> bool:
    get = f.__getitem__ if isinstance(f, Mapping) else f
    for p in source.carrier:
        if get(p) not in target.index:
            raise UnknownElement(get(p))
    for p in source.carrier:
        for q in source.carrier:
            if source.leq(p, q) and not target.leq(get(p), get(q)):
                return False
    return True


def is_order_embedding(f: Mapping | Callable, source: Poset, target: Poset) -> bool:
    get = f.__getitem__ if isinstance(f, Mapping) else f
    for p in source.carrier:
        if get(p) not in target.index:
            raise UnknownElement(get(p))
    for p in source.carrier:
        for q in source.carrier:
            if source.leq(p, q) != target.leq(get(p), get(q)):
                return False
    return True


def antichain(labels: Sequence[Hashable]) -> Poset:
    return Poset(labels, [1 << i for i in range(len(labels))], _checked=True)


def chain(labels: Sequence[Hashable]) -> Poset:
    return Poset(labels, [(1 << (i + 1)) - 1 for i in range(len(labels))], _checked=True)


def all_posets(labels: Sequence[Hashable]) -> list[Poset]:
    """All labeled posets on the given labels (3^(n choose 2) candidates, filtered)."""
    labels = tuple(labels)
    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for code in range(3 ** len(pairs)):
        below = [1 << i for i in range(n)]
        c = code
        for (i, j) in pairs:
            c, rel = divmod(c, 3)
            if rel == 1:
                below[j] |= 1 << i
            elif rel == 2:
                below[i] |= 1 << j
        try:
            out.append(Poset(labels, below))
        except PosetError:
            continue
    return out
