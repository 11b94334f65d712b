"""Finite posets, down-sets, the down-set lattice O(P), and poset duality.

Elements are identified by arbitrary hashable labels; the order relation is
kept internally as one bitmask per element over a fixed carrier ordering.  A
down-set is an int mask over the carrier, so set algebra on down-sets is
constant-time word arithmetic, and the complement of a down-set d,
``full ^ d``, is a down-set of the dual poset.  Labels appear only where a
caller asks for them (``members_of``, ``down_set``, ``all_down_sets``).
"""

from __future__ import annotations

import os
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


def check_bound(count: int, what: str, default: int = DEFAULT_ENUM_BOUND) -> None:
    """TooLarge when ``count`` (of ``what``) exceeds the enumeration bound."""
    limit = enum_bound(default)
    if count > limit:
        raise TooLarge(f"{count} {what} exceeds the enumeration bound {limit}")


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


def cover_masks(strict: Sequence[int]) -> list[int]:
    """Transitive reduction: per element i, the mask of the elements that i covers.

    ``strict[i]`` is the mask of the elements strictly below i.  The elements
    i covers are strict[i] minus the union of strict[j] over j in strict[i]:
    O(n^2) int ORs in all.  A j already in that union adds nothing, since
    strict[j] lies inside the mask that put it there; so the scan skips it,
    and taking the highest index first visits only the covers when indices
    are in size order.
    """
    out = []
    for m in strict:
        deeper = 0
        rest = m
        while rest:
            j = rest.bit_length() - 1
            deeper |= strict[j]
            rest &= ~(deeper | 1 << j)
        out.append(m & ~deeper)
    return out


def transpose(masks: Sequence[int]) -> list[int]:
    """The converse relation: bit j of out[i] is set iff bit i of masks[j] is."""
    out = [0] * len(masks)
    for j, m in enumerate(masks):
        while m:
            bit = m & -m
            out[bit.bit_length() - 1] |= 1 << j
            m ^= bit
    return out


def mask_pairs(masks: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs (i, j) with bit i set in masks[j], by j then i."""
    out = []
    for j, m in enumerate(masks):
        while m:
            bit = m & -m
            out.append((bit.bit_length() - 1, j))
            m ^= bit
    return out


def closed_masks(rel: Sequence[int]) -> Iterator[int]:
    """Every U with rel[i] contained in U for each i in U, ascending.

    Output-sensitive in the manner of Squire's ideal enumeration: after closing
    ``rel``, branch on the highest undecided element x, first leaving out
    everything above x, then taking in everything below it.  Both branches
    yield at least one set, so the work is O(n) word operations per set, and
    deciding the highest element first makes the output ascending as integers.
    """
    n = len(rel)
    down = closure(rel)
    up = transpose(down)
    stack = [(0, (1 << n) - 1)]
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


class TooLarge(ValueError):
    pass


class InternalCheckFailed(AssertionError):
    """Two computations that the theory proves equal disagree: the program, not its input, is at fault."""


class Poset:
    """Finite poset over a fixed carrier ordering.

    ``below[i]`` is the bitmask of indices j with carrier[j] <= carrier[i],
    i.e. the down-set of element i.  The relation is validated on
    construction.
    """

    __slots__ = ("carrier", "index", "below", "_downs")

    def __init__(self, carrier: Sequence[Hashable], below: Sequence[int], _checked: bool = False):
        self.carrier = tuple(carrier)
        if len(set(self.carrier)) != len(self.carrier):
            raise PosetError("carrier labels are not unique")
        self.index = {p: i for i, p in enumerate(self.carrier)}
        self.below = tuple(below)
        self._downs = None
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
            escape = self._escape(self.below[i])
            if escape:
                j, k = escape
                raise NotTransitive(self.carrier[k], self.carrier[j], self.carrier[i])

    def _escape(self, mask: int) -> tuple[int, int] | None:
        """(j, k): the lowest j in mask with some k <= j outside it, and the lowest such k.

        None when mask is a down-set.
        """
        rest = mask
        while rest:
            j = (rest & -rest).bit_length() - 1
            out = self.below[j] & ~mask
            if out:
                return j, (out & -out).bit_length() - 1
            rest &= rest - 1
        return None

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
        return members(self.carrier, mask)

    def is_down_mask(self, mask: int) -> bool:
        return self._escape(mask) is None

    # -- order operations --------------------------------------------------

    def down_set(self, p) -> frozenset:
        """The labels at or below p."""
        if p not in self.index:
            raise UnknownElement(p)
        return self.members_of(self.below[self.index[p]])

    def all_down_sets(self) -> list[frozenset]:
        """The lattice O(P) as sets of labels, in the order of ``down_masks``."""
        return [self.members_of(m) for m in self.down_masks()]

    def down_masks(self) -> tuple[int, ...]:
        """The lattice O(P) as masks, ordered by (size, lexicographic in carrier order), enumerated once per poset."""
        n = len(self.carrier)
        check_bound(n, "poset elements")
        if self._downs is None:
            self._downs = tuple(canonical_order(closed_masks(self.below), n))
        return self._downs

    def dual(self) -> "Poset":
        """The opposite poset: p <= q in the dual iff q <= p here."""
        return Poset(self.carrier, transpose(self.below), _checked=True)

    def covers(self) -> list[tuple]:
        """Cover pairs (p, q) with q covering p (transitive reduction), by q then p in carrier order."""
        strict = [m & ~(1 << i) for i, m in enumerate(self.below)]
        return [(self.carrier[i], self.carrier[j]) for i, j in mask_pairs(cover_masks(strict))]


def canonical_order(masks: Iterable[int], n: int) -> list[int]:
    """The masks over n bits by size, then by ascending bit list: the order of ``SetLattice.masks``.

    Of two masks of one size, the one whose ascending bit list comes first
    has the lowest differing bit, so the larger value read with bit 0 as the
    most significant of n: no tuple per mask.
    """
    return sorted(masks, key=lambda m: (m.bit_count(), -int(format(m, f"0{n}b")[::-1], 2)))


def members(universe: Sequence, mask: int) -> frozenset:
    """The members of a mask over ``universe``, bit i for universe[i]: the label view of any mask."""
    return frozenset(universe[i] for i in range(mask.bit_length()) if mask >> i & 1)


def union_over(parts: Sequence[int], mask: int) -> int:
    """The OR of parts[i] over the bits i of mask."""
    out = 0
    while mask:
        bit = mask & -mask
        out |= parts[bit.bit_length() - 1]
        mask ^= bit
    return out


def union_table(parts: Sequence[int]) -> list[int]:
    """union_over(parts, m) for every mask m below 2^len(parts), indexed by m.

    The masks with bit i set repeat the masks below 2^i, each joined with parts[i].
    """
    out = [0]
    for p in parts:
        out += [u | p for u in out]
    return out


def is_order_preserving(f: Mapping | Callable, source: Poset, target: Poset) -> bool:
    return all(f_le for le, f_le in _order_pairs(f, source, target) if le)


def is_order_embedding(f: Mapping | Callable, source: Poset, target: Poset) -> bool:
    return all(le == f_le for le, f_le in _order_pairs(f, source, target))


def _order_pairs(f: Mapping | Callable, source: Poset, target: Poset):
    """(p <= q, f(p) <= f(q)) over all pairs of source, once every f(p) is known to lie in target."""
    get = f.__getitem__ if isinstance(f, Mapping) else f
    for p in source.carrier:
        if get(p) not in target.index:
            raise UnknownElement(get(p))
    for p in source.carrier:
        for q in source.carrier:
            yield source.leq(p, q), target.leq(get(p), get(q))


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
