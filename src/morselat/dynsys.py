"""Exact dynamics of finite single-valued systems (discrete time, T = Z+).

A finite state set with the discrete metric is a compact metric space, so
closure and interior are the identity here; every statement below that the
continuum theory phrases with cl/int is implemented literally with the set
itself.  State sets are exposed as frozensets of labels; internally all
operations run on bitmasks over the fixed state ordering.

Image and preimage preserve unions, so omega and alpha are union-linear:
omega(U) is the union of omega(x) over x in U (the cycle x runs into), and
alpha(U) the union of alpha(x) (the basin of x's cycle when x lies on one,
else empty).  The cycles, their basins and the per-state limit sets are
computed once per system.  The attracting (repelling) neighborhoods are the
sets closed under x -> omega(x) (x -> alpha(x)), enumerated
output-sensitively by ``order.closed_masks``.  Nothing here scans all 2^n
subsets; that is left to the exhaustive oracle in ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Hashable, Iterable, Mapping, Sequence

from .lattice import SetLattice
from .order import TooLarge, UnknownElement, closed_masks, enum_bound


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


@dataclass(frozen=True)
class PairReport:
    ok: bool
    reason: str | None = None
    witness: object = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        return "Ok" if self.ok else f"violation: {self.reason} at {self.witness!r}"


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
        pre = [0] * n
        for i, s in enumerate(self.states):
            pre[self.index[next_map[s]]] |= 1 << i
        self._pre1 = tuple(pre)
        self._limit_pts = None
        self._cycles_cache = None
        self._att_cache = None

    # -- mask plumbing -------------------------------------------------------

    def mask(self, members: Iterable) -> int:
        m = 0
        for s in members:
            if s not in self.index:
                raise UnknownElement(s)
            m |= 1 << self.index[s]
        return m

    def unmask(self, m: int) -> frozenset:
        return frozenset(self.states[i] for i in range(self._n) if m >> i & 1)

    def _image_mask(self, m: int) -> int:
        return _union(self._img1, m)

    def _preimage_mask(self, m: int) -> int:
        return _union(self._pre1, m)

    def _inv_mask(self, m: int) -> int:
        return _inv(self._img1, m)

    def _inv_plus_mask(self, m: int) -> int:
        cur = m
        while True:
            nxt = 0
            rest = cur
            while rest:
                i = (rest & -rest).bit_length() - 1
                if self._img1[i] & cur:
                    nxt |= 1 << i
                rest &= rest - 1
            if nxt == cur:
                return cur
            cur = nxt

    def _omega_mask(self, m: int) -> int:
        out = 0
        for c, b in self._limit_points()[2]:
            if b & m:
                out |= c
        return out

    def _alpha_mask(self, m: int) -> int:
        out = 0
        for c, b in self._limit_points()[2]:
            if c & m:
                out |= b
        return out

    def _omega_points(self) -> tuple:
        """omega(x) for each state x: the cycle its forward orbit runs into."""
        return self._limit_points()[0]

    def _alpha_points(self) -> tuple:
        """alpha(x) for each state x: the basin of x's cycle, empty off the cycles."""
        return self._limit_points()[1]

    def _limit_points(self):
        """(omega points, alpha points, (cycle, basin) pairs), computed once.

        omega and alpha are union-linear, so omega(U) is the union of the
        cycles whose basins U meets and alpha(U) the union of the basins
        whose cycles U meets.
        """
        if self._limit_pts is None:
            omega = [0] * self._n
            for c in self._cycle_masks():
                rest = c
                while rest:
                    omega[(rest & -rest).bit_length() - 1] = c
                    rest &= rest - 1
            for i in range(self._n):
                path = []
                j = i
                while not omega[j]:
                    path.append(j)
                    j = self._img1[j].bit_length() - 1
                for k in path:
                    omega[k] = omega[j]
            basin = dict.fromkeys(self._cycle_masks(), 0)
            for i, c in enumerate(omega):
                basin[c] |= 1 << i
            alpha = tuple(basin[c] if c >> i & 1 else 0 for i, c in enumerate(omega))
            self._limit_pts = (tuple(omega), alpha, tuple(basin.items()))
        return self._limit_pts

    def _cycle_masks(self):
        """The cycles of the next map, one mask per cycle."""
        if self._cycles_cache is None:
            on_cycle = self._inv_plus_mask_cycles()
            cycles = []
            seen = 0
            for i in range(self._n):
                if on_cycle >> i & 1 and not seen >> i & 1:
                    c = 0
                    j = i
                    while not c >> j & 1:
                        c |= 1 << j
                        j = (self._img1[j]).bit_length() - 1
                    cycles.append(c)
                    seen |= c
            self._cycles_cache = tuple(cycles)
        return self._cycles_cache

    def _inv_plus_mask_cycles(self) -> int:
        # states on a cycle: walk n steps from each state, then test recurrence
        out = 0
        for i in range(self._n):
            j = i
            for _ in range(self._n):
                j = (self._img1[j]).bit_length() - 1
            # j is on a cycle now; mark the whole cycle
            start = j
            while not out >> j & 1:
                out |= 1 << j
                j = (self._img1[j]).bit_length() - 1
                if j == start:
                    break
        return out

    def _reach_fwd_mask(self, m: int) -> int:
        cur = m
        while True:
            nxt = cur | self._image_mask(cur)
            if nxt == cur:
                return cur
            cur = nxt

    def _reach_bwd_mask(self, m: int) -> int:
        cur = m
        while True:
            nxt = cur | self._preimage_mask(cur)
            if nxt == cur:
                return cur
            cur = nxt

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
        return self.unmask(self._reach_fwd_mask(self.mask(subset)))

    def reachable_backward(self, subset: Iterable) -> frozenset:
        return self.unmask(self._reach_bwd_mask(self.mask(subset)))

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
        return self.unmask(self._inv_mask(self.mask(subset)))

    def inv_plus(self, subset: Iterable) -> frozenset:
        """Maximal forward invariant subset."""
        return self.unmask(self._inv_plus_mask(self.mask(subset)))

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
            # consecutive states related by preimage: next(seq[k+1]) == seq[k]
            seq = list(orbit.pre) + cyc
            for a, b in zip(seq, seq[1:]):
                if self.next[b] != a:
                    raise InvalidOrbit(f"{b!r} is not a preimage of {a!r}")
            if self.next[cyc[0]] != cyc[-1]:
                raise InvalidOrbit("cycle part does not close up")
        else:
            seq = list(orbit.pre) + cyc
            for a, b in zip(seq, seq[1:]):
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
        """All backward orbits through x, one per (cycle, path) pair."""
        if x not in self.index:
            raise UnknownElement(x)
        out = []
        target = self.index[x]
        for c in self._cycle_masks():
            for path in self._paths_from_cycle(c, target):
                cyc_states = self._cycle_states_ordered(c, path[-1] if path else target)
                out.append(Orbit(tuple(self.states[i] for i in path[:-1] or []), tuple(cyc_states), True))
        return out

    def _cycle_states_ordered(self, cmask: int, entry: int):
        if not cmask >> entry & 1:
            entry = (cmask & -cmask).bit_length() - 1
        seq = []
        j = entry
        while True:
            seq.append(self.states[j])
            j = self._pre_on_cycle(cmask, j)
            if j == entry:
                break
        return seq

    def _pre_on_cycle(self, cmask: int, j: int) -> int:
        pre = self._pre1[j] & cmask
        return (pre & -pre).bit_length() - 1

    def _paths_from_cycle(self, cmask: int, target: int):
        # backward-time paths target = p0, p1, ..., pk with pk on the cycle and
        # no earlier state on it; forward arrows run pk -> ... -> p0
        if cmask >> target & 1:
            yield [target]
            return
        for path in self._dfs_paths(target, cmask):
            yield path

    def _dfs_paths(self, target: int, cmask: int):
        stack = [[target]]
        while stack:
            path = stack.pop()
            last = path[-1]
            pre = self._pre1[last]
            rest = pre
            while rest:
                i = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if cmask >> i & 1:
                    yield path + [i]
                elif i not in path:
                    stack.append(path + [i])

    def dual_plus(self, subset: Iterable) -> frozenset:
        """S+ : states whose omega-limit misses S."""
        m = self.mask(subset)
        pts = self._omega_points()
        out = 0
        for i in range(self._n):
            if not pts[i] & m:
                out |= 1 << i
        return self.unmask(out)

    def dual_minus(self, subset: Iterable) -> frozenset:
        """S- : states with some backward orbit whose orbital alpha-limit misses S."""
        m = self.mask(subset)
        seeds = 0
        for c in self._cycle_masks():
            if not (c & m):
                seeds |= c
        return self.unmask(self._reach_fwd_mask(seeds) if seeds else 0)

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
        m = self.mask(subset)
        att = not (self._omega_mask(m) & ~m)
        rep_c = not (self._alpha_mask(~m & self._full) & m)
        if att != rep_c:
            raise AssertionError("complement law U attracting iff U^c repelling failed")
        return att

    def is_repelling_nbhd(self, subset: Iterable) -> bool:
        m = self.mask(subset)
        return not (self._alpha_mask(m) & ~m)

    def _check_bound(self, bound: int | None) -> None:
        limit = enum_bound() if bound is None else bound
        if self._n > limit:
            raise TooLarge(f"{self._n} states exceeds enumeration bound {limit}")

    def _attracting_masks(self, bound: int | None = None):
        """Attracting neighborhoods as ascending masks: the sets closed under x -> omega(x)."""
        self._check_bound(bound)
        return closed_masks(self._omega_points())

    def _repelling_masks(self, bound: int | None = None):
        self._check_bound(bound)
        return closed_masks(self._alpha_points())

    def attracting_neighborhoods(self, bound: int | None = None) -> list[frozenset]:
        return [self.unmask(m) for m in self._attracting_masks(bound)]

    def repelling_neighborhoods(self, bound: int | None = None) -> list[frozenset]:
        return [self.unmask(m) for m in self._repelling_masks(bound)]

    def neighborhood_counts(self) -> tuple[int, int]:
        """(number of attracting, number of repelling neighborhoods), without listing them."""
        return (
            sum(1 for _ in self._attracting_masks()),
            sum(1 for _ in self._repelling_masks()),
        )

    def _recurrent_unions(self):
        """The unions of cycles: the omega-closed subsets of the cycle states."""
        on_cycle = 0
        for c in self._cycle_masks():
            on_cycle |= c
        return closed_masks(self._omega_points(), within=on_cycle)

    def att_lattice(self, bound: int | None = None) -> SetLattice:
        """Att = omega images of attracting neighborhoods, join union, meet Inv(cap).

        omega(U) of a neighborhood U is the union of the cycles U meets, and
        every union of cycles is omega of its basin, so Att is the family of
        unions of cycles.  Built once per system; its meet holds no reference
        to the system, so the cache makes no reference cycle.
        """
        self._check_bound(bound)
        if self._att_cache is None:
            meet = partial(_inv_meet, self.states, self.index, self._img1)
            self._att_cache = SetLattice(self.states, map(self.unmask, self._recurrent_unions()), meet=meet)
        return self._att_cache

    def rep_lattice(self, bound: int | None = None) -> SetLattice:
        """Rep = alpha images of repelling neighborhoods: the unions of basins of cycles."""
        self._check_bound(bound)
        elems = {self._alpha_mask(m) for m in self._recurrent_unions()}
        return SetLattice(self.states, (self.unmask(m) for m in elems))

    def basin(self, attractor: Iterable) -> frozenset:
        """The canonical trapping region: states whose omega-limit lies in A."""
        m = self.mask(attractor)
        pts = self._omega_points()
        out = 0
        for i in range(self._n):
            if not (pts[i] & ~m):
                out |= 1 << i
        return self.unmask(out)

    def dual_repeller(self, attractor: Iterable) -> frozenset:
        """A* = Inv+(U^c) for a trapping region U of A; cross-checked against A+."""
        a = self.mask(attractor)
        if self._omega_mask(a) != a or (self._image_mask(a) != a):
            raise NotAnAttractor(f"{sorted(map(repr, attractor))}")
        u = self.mask(self.basin(self.unmask(a)))
        if self._omega_mask(u) != a:
            raise NotAnAttractor(f"{sorted(map(repr, attractor))}")
        star = self._inv_plus_mask(~u & self._full)
        plus = self.mask(self.dual_plus(self.unmask(a)))
        if star != plus:
            raise AssertionError("Eq (6) cross-check failed: A* != A+")
        return self.unmask(star)

    def dual_attractor(self, repeller: Iterable) -> frozenset:
        """R* = Inv(U^c) for a repelling region U of R; cross-checked against R-.

        R is forward-backward invariant, so R itself is a repelling region
        for R and Prop 3.16 makes the choice irrelevant.
        """
        r = self.mask(repeller)
        if (
            self._image_mask(r) & ~r
            or self._preimage_mask(r) & ~r
            or self._inv_plus_mask(r) != r
        ):
            raise NotARepeller(f"{sorted(map(repr, repeller))}")
        star = self._inv_mask(~r & self._full)
        minus = self.mask(self.dual_minus(self.unmask(r)))
        if star != minus:
            raise AssertionError("Eq (7) cross-check failed: R* != R-")
        return self.unmask(star)

    def check_ar_pair(self, attractor: Iterable, repeller: Iterable) -> PairReport:
        """Both characterizations of an attractor-repeller pair, which must agree."""
        a = self.mask(attractor)
        r = self.mask(repeller)
        try:
            by_duality = self.mask(self.dual_repeller(self.unmask(a))) == r
        except NotAnAttractor:
            by_duality = False
        direct, reason, witness = self._ar_direct(a, r)
        if direct != by_duality:
            raise AssertionError("Theorem 3.19 characterizations disagree")
        if direct:
            return PairReport(True)
        return PairReport(False, reason, witness)

    def _ar_direct(self, a: int, r: int):
        if a & r:
            return False, "A and R are not disjoint", self.unmask(a & r)
        if self._image_mask(a) != a:
            return False, "A is not invariant", self.unmask(a)
        if self._image_mask(r) & ~r:
            return False, "R is not forward invariant", self.unmask(r)
        outside = self._full & ~(a | r)
        pts = self._omega_points()
        rest = outside
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if pts[i] & ~a:
                return False, "omega(x) escapes A", self.states[i]
            for c in self._cycle_masks():
                if self._mask_reaches(c, i) and (c & ~r):
                    return False, "alpha_o of a backward orbit escapes R", self.states[i]
        return True, None, None

    def _mask_reaches(self, source: int, target_bit: int) -> bool:
        return bool(self._reach_fwd_mask(source) >> target_bit & 1)

    def commuting_square_check(self, bound: int | None = None) -> PairReport:
        """Diagram (1): omega = Inv on ANbhd, alpha = Inv+ on RNbhd, and the square commutes."""
        att = self.att_lattice(bound)
        star = {x: self.dual_repeller(x) for x in att.elements}
        star_mask = {self.mask(x): self.mask(sx) for x, sx in star.items()}
        full = self._full
        for m in self._attracting_masks(bound):
            om = self._omega_mask(m)
            if self._inv_mask(m) != om:
                return PairReport(False, "Inv(U) != omega(U) on an attracting neighborhood", self.unmask(m))
            mc = full & ~m
            al = self._alpha_mask(mc)
            if al & ~mc:
                return PairReport(False, "U attracting but U^c not repelling", self.unmask(m))
            if self._inv_plus_mask(mc) != al:
                return PairReport(False, "Inv+(U^c) != alpha(U^c)", self.unmask(m))
            if star_mask.get(om) != al:
                return PairReport(False, "omega(U)* != alpha(U^c)", self.unmask(m))
        # Props 4.6 / 4.7: the anti-isomorphism laws on the full lattices
        for x in att.elements:
            for y in att.elements:
                if star[att.join(x, y)] != star[x] & star[y]:
                    return PairReport(False, "(A v A')* != A* ^ A'*", (x, y))
                if star[att.meet(x, y)] != star[x] | star[y]:
                    return PairReport(False, "(A ^ A')* != A* v A'*", (x, y))
            if self.dual_attractor(star[x]) != x:
                return PairReport(False, "(A*)* != A", x)
        return PairReport(True)

    def cycles(self) -> list[frozenset]:
        return [self.unmask(c) for c in self._cycle_masks()]


def _union(parts: Sequence[int], m: int) -> int:
    """Union of parts[i] over the set bits i of m."""
    out = 0
    while m:
        out |= parts[(m & -m).bit_length() - 1]
        m &= m - 1
    return out


def _inv(img1: Sequence[int], m: int) -> int:
    """Inv(m): prune states whose image leaves or that have no preimage inside."""
    cur = m
    while True:
        keep = image = 0
        rest = cur
        while rest:
            i = (rest & -rest).bit_length() - 1
            image |= img1[i]
            if img1[i] & cur:
                keep |= 1 << i
            rest &= rest - 1
        keep &= image
        if keep == cur:
            return cur
        cur = keep


def _inv_meet(states: tuple, index: Mapping, img1: Sequence[int], a: frozenset, b: frozenset) -> frozenset:
    """The meet of Att: Inv(a & b), on labels."""
    m = _inv(img1, sum(1 << index[s] for s in a & b))
    return frozenset(states[i] for i in range(len(states)) if m >> i & 1)


# shared test fixtures from the exact-dynamics corpus
def ds1() -> FiniteDynSys:
    return FiniteDynSys("mzab", {"m": "z", "z": "z", "a": "b", "b": "b"})


def ds2() -> FiniteDynSys:
    return FiniteDynSys((0, 1, 2), {0: 1, 1: 2, 2: 0})


def ds3() -> FiniteDynSys:
    return FiniteDynSys("pqr", {"p": "p", "q": "p", "r": "r"})
