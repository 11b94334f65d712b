"""Exact dynamics of finite single-valued systems (discrete time, T = Z+).

A finite state set with the discrete metric is a compact metric space, so
closure and interior are the identity here; every statement below that the
continuum theory phrases with cl/int is implemented literally with the set
itself.  State sets are exposed as frozensets of labels; internally all
operations run on bitmasks over the fixed state ordering.

Image and preimage preserve unions, so omega and alpha are union-linear:
omega(U) is the union of omega(x) over x in U (the cycle x runs into), and
alpha(U) the union of alpha(x) (the basin of x's cycle when x lies on one,
else empty).  The cycles are the map's cyclic SCCs, from the Tarjan pass
the cell maps of ``grid`` share, the basin of each is one backward reach from
it, and the per-state limit sets are read off these (cycle, basin) pairs.
Inv(m) is the union of the cycles inside m, and Inv+(m) m less one backward
reach of its complement.  The attracting (repelling) neighborhoods are the
sets closed under x -> omega(x) (x -> alpha(x)), enumerated output-sensitively
by ``order.closed_masks``, and counted in closed form from the cycles and their
basins.  Att, Rep, the duals and the commuting square of diagram (1) are
built from the unions of cycles, the power set of the cycles, so their cost
grows with 2^cycles; listing the neighborhoods grows with their number.
Nothing here scans all 2^n subsets or prunes to a fixed point; the
exhaustive oracle in ``verify`` does both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import and_, or_
from typing import Hashable, Iterable, Mapping, Sequence

from .lattice import HomReport, SetLattice, _broken_law
from .order import (
    InternalCheckFailed, UnknownElement, canonical_order, check_bound, closed_masks, members, transpose, union_over,
    union_table,
)


class InvalidOrbit(ValueError):
    pass


class NotForwardInvariant(ValueError):
    pass


class NotAnAttractor(ValueError):
    pass


class NotARepeller(ValueError):
    pass


@dataclass(frozen=True)
class InvarianceFlags:
    invariant: bool
    forward: bool
    backward: bool
    forward_backward: bool
    strong: bool


@dataclass(frozen=True)
class RegionCheck:
    """Predicate result plus the time witness for trapping/repelling regions."""

    holds: bool
    tau: int | None

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class Orbit:
    """Eventually periodic orbit coding: pre-period then cycle.

    For a backward orbit the states are listed in backward time order,
    pre[0] = x, pre[k+1] a preimage of pre[k], and the cycle repeats forever
    into the past.  Forward orbits read the same data in forward time.
    """

    pre: tuple
    cycle: tuple
    backward: bool = True


class FiniteDynSys:
    """A total single-valued map on a finite state set."""

    def __init__(self, states: Sequence[Hashable], next_map: Mapping):
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise ValueError("state labels are not unique")
        self.index = {s: i for i, s in enumerate(self.states)}
        missing = [s for s in self.states if s not in next_map]
        if missing:
            raise ValueError(f"next map is not total, missing {missing!r}")
        for s in self.states:
            if next_map[s] not in self.index:
                raise UnknownElement(next_map[s])
        self.next = {s: next_map[s] for s in self.states}
        n = len(self.states)
        self._n = n
        self._full = (1 << n) - 1
        self._img1 = tuple(1 << self.index[next_map[s]] for s in self.states)
        self._pre1 = tuple(transpose(self._img1))
        # the cycles are the cyclic SCCs of the map, by lowest state, and the
        # basin of each is one backward reach from it; omega(x) is the cycle
        # whose basin holds x, alpha(x) the basin of x's cycle, empty off the cycles
        self._cycles = tuple(sorted(_cyclic_components(self._img1, self._full), key=lambda c: c & -c))
        self._basins = tuple((c, _reach(self._pre1, c)) for c in self._cycles)
        omega = [0] * n
        for c, rest in self._basins:
            while rest:
                bit = rest & -rest
                rest ^= bit
                omega[bit.bit_length() - 1] = c
        basin = dict(self._basins)
        self._omega_pts = tuple(omega)
        self._alpha_pts = tuple(basin[c] if c >> i & 1 else 0 for i, c in enumerate(omega))
        self._duals = {}

    # -- mask plumbing -------------------------------------------------------

    def mask(self, members: Iterable) -> int:
        m = 0
        for s in members:
            if s not in self.index:
                raise UnknownElement(s)
            m |= 1 << self.index[s]
        return m

    def unmask(self, m: int) -> frozenset:
        return members(self.states, m)

    def _image_mask(self, m: int) -> int:
        return union_over(self._img1, m)

    def _preimage_mask(self, m: int) -> int:
        return union_over(self._pre1, m)

    def _omega_mask(self, m: int) -> int:
        """omega(m): the union of the cycles whose basins m meets."""
        out = 0
        for c, b in self._basins:
            if b & m:
                out |= c
        return out

    def _alpha_mask(self, m: int) -> int:
        """alpha(m): the union of the basins whose cycles m meets."""
        out = 0
        for c, b in self._basins:
            if c & m:
                out |= b
        return out

    def _splus(self, m: int) -> int:
        """S+ of the mask m: the states whose omega-limit misses it, those outside the basins of the cycles m meets."""
        return self._full & ~self._alpha_mask(m)

    def _sminus(self, m: int) -> int:
        """S- of the mask m: what the cycles missing it reach (a sum of cycles is their union)."""
        return _reach(self._img1, sum(c for c in self._cycles if not c & m))

    # -- dynamics operations ---------------------------------------------------

    def image(self, subset: Iterable, t: int = 1) -> frozenset:
        m = self.mask(subset)
        for _ in range(t):
            m = self._image_mask(m)
        return self.unmask(m)

    def preimage(self, subset: Iterable, t: int = 1) -> frozenset:
        m = self.mask(subset)
        for _ in range(t):
            m = self._preimage_mask(m)
        return self.unmask(m)

    def reachable_forward(self, subset: Iterable) -> frozenset:
        return self.unmask(_reach(self._img1, self.mask(subset)))

    def reachable_backward(self, subset: Iterable) -> frozenset:
        return self.unmask(_reach(self._pre1, self.mask(subset)))

    def classify_invariance(self, subset: Iterable) -> InvarianceFlags:
        m = self.mask(subset)
        img = self._image_mask(m)
        pre = self._preimage_mask(m)
        forward = not (img & ~m)
        invariant = img == m
        backward = not (pre & ~m)
        forward_backward = forward and backward
        strong = invariant and forward_backward
        return InvarianceFlags(invariant, forward, backward, forward_backward, strong)

    def inv(self, subset: Iterable) -> frozenset:
        """Maximal invariant subset: states on a complete orbit inside."""
        return self.unmask(_inv(self._cycles, self.mask(subset)))

    def inv_plus(self, subset: Iterable) -> frozenset:
        """Maximal forward invariant subset."""
        return self.unmask(_inv_plus(self._pre1, self.mask(subset)))

    def omega(self, subset: Iterable) -> frozenset:
        return self.unmask(self._omega_mask(self.mask(subset)))

    def alpha(self, subset: Iterable) -> frozenset:
        return self.unmask(self._alpha_mask(self.mask(subset)))

    def validate_orbit(self, orbit: Orbit) -> None:
        states = list(orbit.pre) + list(orbit.cycle)
        for s in states:
            if s not in self.index:
                raise InvalidOrbit(f"unknown state {s!r}")
        if not orbit.cycle:
            raise InvalidOrbit("orbit needs a nonempty cycle")
        cyc = list(orbit.cycle)
        if orbit.backward:
            # backward time order reversed is forward time order
            states.reverse()
            cyc.reverse()
        for a, b in zip(states, states[1:]):
            if self.next[a] != b:
                raise InvalidOrbit(f"{b!r} does not follow {a!r}")
        if self.next[cyc[-1]] != cyc[0]:
            raise InvalidOrbit("cycle part does not close up")

    def alpha_orbital(self, orbit: Orbit) -> frozenset:
        """States visited at arbitrarily negative times: the backward cycle."""
        if not orbit.backward:
            raise InvalidOrbit("alpha_orbital needs a backward orbit")
        self.validate_orbit(orbit)
        return frozenset(orbit.cycle)

    def backward_orbits_through(self, x) -> list[Orbit]:
        """All backward orbits through x: one around its cycle if x lies on one, else none.

        A transient state's chains of preimages are all transient and never
        repeat a state, so they end; a state on a cycle has exactly one
        preimage on it, and every other preimage is transient.
        """
        if x not in self.index:
            raise UnknownElement(x)
        start = j = self.index[x]
        cycle = self._omega_pts[j]
        if not cycle >> j & 1:
            return []
        seq = []
        while True:
            seq.append(self.states[j])
            j = (self._pre1[j] & cycle).bit_length() - 1
            if j == start:
                return [Orbit((), tuple(seq), True)]

    def dual_plus(self, subset: Iterable) -> frozenset:
        """S+ : states whose omega-limit misses S."""
        return self.unmask(self._splus(self.mask(subset)))

    def dual_minus(self, subset: Iterable) -> frozenset:
        """S- : states with some backward orbit whose orbital alpha-limit misses S."""
        return self.unmask(self._sminus(self.mask(subset)))

    def restrict(self, subset: Iterable) -> "FiniteDynSys":
        m = self.mask(subset)
        if self._image_mask(m) & ~m:
            raise NotForwardInvariant(f"{sorted(map(repr, subset))} is not forward invariant")
        sub = [s for s in self.states if m >> self.index[s] & 1]
        return FiniteDynSys(sub, {s: self.next[s] for s in sub})

    def is_surjective(self) -> bool:
        return self._image_mask(self._full) == self._full

    def is_trapping_region(self, subset: Iterable) -> RegionCheck:
        """Trapping iff forward invariant; cl = int = id collapses the tau clause."""
        m = self.mask(subset)
        holds = not (self._image_mask(m) & ~m)
        return RegionCheck(holds, 1 if holds else None)

    def is_repelling_region(self, subset: Iterable) -> RegionCheck:
        m = self.mask(subset)
        holds = not (self._preimage_mask(m) & ~m)
        return RegionCheck(holds, -1 if holds else None)

    def is_attracting_nbhd(self, subset: Iterable) -> bool:
        return self._is_attracting_nbhd(self.mask(subset))

    def is_repelling_nbhd(self, subset: Iterable) -> bool:
        return self._is_repelling_nbhd(self.mask(subset))

    def _is_attracting_nbhd(self, m: int) -> bool:
        """omega(m) lies in m, cross-checked against the complement law: m^c is repelling."""
        att = not (self._omega_mask(m) & ~m)
        if att != self._is_repelling_nbhd(~m & self._full):
            raise InternalCheckFailed("complement law U attracting iff U^c repelling failed")
        return att

    def _is_repelling_nbhd(self, m: int) -> bool:
        return not (self._alpha_mask(m) & ~m)

    def _attracting_masks(self):
        """Attracting neighborhoods as ascending masks: the sets closed under x -> omega(x)."""
        check_bound(self._n, "states")
        return closed_masks(self._omega_pts)

    def _repelling_masks(self):
        check_bound(self._n, "states")
        return closed_masks(self._alpha_pts)

    def attracting_neighborhoods(self) -> list[frozenset]:
        return [self.unmask(m) for m in self._attracting_masks()]

    def repelling_neighborhoods(self) -> list[frozenset]:
        return [self.unmask(m) for m in self._repelling_masks()]

    def neighborhood_counts(self) -> tuple[int, int]:
        """(number of attracting, number of repelling neighborhoods), without listing them.

        An attracting neighborhood meets the basin of a cycle C nowhere, or
        in C and any part of the rest of the basin, so their number is the
        product over cycles of 1 + 2^(|basin C| - |C|).  U is attracting iff
        U^c is repelling (Prop 4.6), so there are as many repelling ones.
        """
        count = 1
        for c, b in self._basins:
            count *= 1 + (1 << (b.bit_count() - c.bit_count()))
        return count, count

    def _recurrent_unions(self):
        """The unions of cycles, ascending: the power set of the cycles, each subset by its union."""
        check_bound(len(self._cycles), "cycles")
        return sorted(union_table(self._cycles))

    def att_lattice(self) -> SetLattice:
        """Att = omega images of attracting neighborhoods, join union, core Inv.

        omega(U) of a neighborhood U is the union of the cycles U meets, and
        every union of cycles is omega of its basin, so Att is the family of
        unions of cycles.
        """
        return SetLattice(self.states, self._recurrent_unions(), partial(_inv, self._cycles))

    def _basin_unions(self):
        """The unions of basins of cycles: alpha of each union of cycles, in the order of ``_recurrent_unions``."""
        return [self._alpha_mask(m) for m in self._recurrent_unions()]

    def rep_lattice(self) -> SetLattice:
        """Rep = alpha images of repelling neighborhoods: the unions of basins of cycles."""
        return SetLattice(self.states, self._basin_unions())

    def basin(self, attractor: Iterable) -> frozenset:
        """The canonical trapping region: states whose omega-limit lies in A, so misses A^c."""
        return self.unmask(self._splus(self._full & ~self.mask(attractor)))

    def dual_repeller(self, attractor: Iterable) -> frozenset:
        """A* = Inv+(U^c) for a trapping region U of A; cross-checked against A+."""
        return self.unmask(self._dual_mask(self.mask(attractor), True))

    def dual_attractor(self, repeller: Iterable) -> frozenset:
        """R* = Inv(U^c) for a repelling region U of R; cross-checked against R-.

        R is forward-backward invariant, so R itself is a repelling region
        for R and Prop 3.16 makes the choice irrelevant.
        """
        return self.unmask(self._dual_mask(self.mask(repeller), False))

    def _dual_mask(self, m: int, of_attractor: bool) -> int:
        """A* of the attractor m, or R* of the repeller m, computed and cross-checked once per system.

        The memo holds masks only, so it makes no reference cycle.
        """
        key = (m, of_attractor)
        if key not in self._duals:
            self._duals[key] = self._attractor_star(m) if of_attractor else self._repeller_star(m)
        return self._duals[key]

    def _is_attractor(self, m: int) -> bool:
        """m is invariant and its own omega-limit: a union of cycles, the cycles inside it."""
        return _inv(self._cycles, m) == m

    def _is_repeller(self, m: int) -> bool:
        """m is forward-backward invariant, so Inv+ fixes it: a union of basins, holding each basin it meets."""
        return all(m & b in (0, b) for _, b in self._basins)

    def _attractor_star(self, a: int) -> int:
        if not self._is_attractor(a):
            raise NotAnAttractor(f"{sorted(map(repr, self.unmask(a)))}")
        u = self._splus(self._full & ~a)
        if self._omega_mask(u) != a:
            raise InternalCheckFailed(
                f"basin cross-check failed: omega(basin(A)) != A at {sorted(map(repr, self.unmask(a)))}"
            )
        star = _inv_plus(self._pre1, ~u & self._full)
        if star != self._splus(a):
            raise InternalCheckFailed("Eq (6) cross-check failed: A* != A+")
        return star

    def _repeller_star(self, r: int) -> int:
        """R* = Inv(R^c), checked against R- (Eq (7)); both read the cycles, which the tests' pruned Inv checks."""
        if not self._is_repeller(r):
            raise NotARepeller(f"{sorted(map(repr, self.unmask(r)))}")
        star = _inv(self._cycles, ~r & self._full)
        if star != self._sminus(r):
            raise InternalCheckFailed("Eq (7) cross-check failed: R* != R-")
        return star

    def check_ar_pair(self, attractor: Iterable, repeller: Iterable) -> HomReport:
        """Both characterizations of an attractor-repeller pair, which must agree."""
        a = self.mask(attractor)
        r = self.mask(repeller)
        try:
            by_duality = self._dual_mask(a, True) == r
        except NotAnAttractor:
            by_duality = False
        direct, reason, witness = self._ar_direct(a, r)
        if direct != by_duality:
            raise InternalCheckFailed("Theorem 3.19 characterizations disagree")
        return HomReport(direct, reason, witness)

    def _ar_direct(self, a: int, r: int):
        if a & r:
            return False, "A and R are not disjoint", self.unmask(a & r)
        if self._image_mask(a) != a:
            return False, "A is not invariant", self.unmask(a)
        if self._image_mask(r) & ~r:
            return False, "R is not forward invariant", self.unmask(r)
        # a state outside A and R whose omega lies in A has no backward orbit
        # whose alpha_o escapes R: only states on a cycle have backward orbits,
        # and such a state's omega is its cycle, which inside A puts it in A
        pts = self._omega_pts
        rest = self._full & ~(a | r)
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if pts[i] & ~a:
                return False, "omega(x) escapes A", self.states[i]
        return True, None, None

    def commuting_square_check(self) -> HomReport:
        """Diagram (1) on the certificate family: each attractor A and its basin.

        The basin of a union of cycles is its alpha.  ``verify`` tag D1 walks
        every attracting neighborhood with the same routine.
        """
        return self._square(m for a in self._recurrent_unions() for m in (a, self._alpha_mask(a)))

    def _square(self, masks) -> HomReport:
        """Diagram (1) on the attracting neighborhoods ``masks``, then Props 4.6/4.7 on Att.

        On each U: omega(U) = Inv(U), U^c is repelling with alpha(U^c) =
        Inv+(U^c), and the square commutes, omega(U)* = alpha(U^c).  The pair
        laws on Att go through ``lattice._broken_law`` in order.canonical_order,
        the one element order, so a failing law names the same pair as on
        ``att_lattice().elements``; (A*)* = A is checked after them.  Inv(U)
        and omega(U) both read the cycles and their basins, which the tests'
        pruned Inv and Inv+ check.
        """
        atts = canonical_order(self._recurrent_unions(), self._n)
        star = {a: self._dual_mask(a, True) for a in atts}
        full, cycles = self._full, self._cycles
        for m in masks:
            om = self._omega_mask(m)
            if _inv(cycles, m) != om:
                return HomReport(False, "Inv(U) != omega(U) on an attracting neighborhood", self.unmask(m))
            mc = full & ~m
            al = self._alpha_mask(mc)
            if al & ~mc:
                return HomReport(False, "U attracting but U^c not repelling", self.unmask(m))
            if _inv_plus(self._pre1, mc) != al:
                return HomReport(False, "Inv+(U^c) != alpha(U^c)", self.unmask(m))
            if star.get(om) != al:
                return HomReport(False, "omega(U)* != alpha(U^c)", self.unmask(m))
        # Props 4.6 / 4.7: the anti-isomorphism laws, join union and meet Inv of the intersection
        broken = _broken_law(atts, star, and_, or_, lambda x, y: _inv(cycles, x & y))
        if broken:
            law = "(A v A')* != A* ^ A'*" if broken[0] == "joins" else "(A ^ A')* != A* v A'*"
            return HomReport(False, law, tuple(map(self.unmask, broken[1])))
        for x in atts:
            if self._dual_mask(star[x], False) != x:
                return HomReport(False, "(A*)* != A", self.unmask(x))
        return HomReport(True)

    def cycles(self) -> list[frozenset]:
        return [self.unmask(c) for c in self._cycles]


def _reach(parts: Sequence[int], m: int, within: int = -1) -> int:
    """m and everything reachable from it by steps x -> parts[x] that stay inside the mask ``within``."""
    out = frontier = m
    while frontier:
        frontier = union_over(parts, frontier) & within & ~out
        out |= frontier
    return out


def _cyclic_components(img: Sequence[int], cells: int) -> list[int]:
    """The SCCs of x -> img[x] restricted to the mask ``cells`` that hold a cycle, by one iterative Tarjan pass.

    Roots and successors are taken in ascending order.  Called on all
    states, these are the cycles of a single-valued map and the Morse sets
    of a cell map.
    """
    index, low, stack, out = {}, {}, [], []
    rest, onstack = cells, 0  # rest: the cells not yet entered
    while rest:
        root = (rest & -rest).bit_length() - 1
        index[root] = low[root] = len(index)
        rest ^= 1 << root
        onstack |= 1 << root
        stack.append(root)
        work = [[root, img[root] & cells]]
        while work:
            frame = work[-1]
            v, succ = frame
            while succ:
                bit = succ & -succ
                succ ^= bit
                if rest & bit:
                    break
                if onstack & bit:
                    low[v] = min(low[v], index[bit.bit_length() - 1])
            else:  # every successor seen: v is done
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == index[v]:
                    comp = 0
                    while True:
                        w = stack.pop()
                        comp |= 1 << w
                        if w == v:
                            break
                    onstack &= ~comp
                    if comp & (comp - 1) or img[v] >> v & 1:
                        out.append(comp)
                continue
            frame[1] = succ
            w = bit.bit_length() - 1
            index[w] = low[w] = len(index)
            rest ^= bit
            onstack |= bit
            stack.append(w)
            work.append([w, img[w] & cells])
    return out


def _inv(cycles: Sequence[int], m: int) -> int:
    """Inv(m): the union of the cycles inside m.

    An invariant S has f(S) = S, so f permutes the finite S: S is a union of cycles.
    """
    out = 0
    for c in cycles:
        if not c & ~m:
            out |= c
    return out


def _inv_plus(pre1: Sequence[int], m: int) -> int:
    """Inv+(m): the states whose forward orbit never leaves m, those that cannot reach m's complement."""
    return m & ~_reach(pre1, ((1 << len(pre1)) - 1) & ~m)


# shared test fixtures from the exact-dynamics corpus
def ds1() -> FiniteDynSys:
    return FiniteDynSys("mzab", {"m": "z", "z": "z", "a": "b", "b": "b"})


def ds2() -> FiniteDynSys:
    return FiniteDynSys((0, 1, 2), {0: 1, 1: 2, 2: 0})


def ds3() -> FiniteDynSys:
    return FiniteDynSys("pqr", {"p": "p", "q": "p", "r": "r"})
