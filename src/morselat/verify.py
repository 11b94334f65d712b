"""Proposition-tagged verification suites over corpora of finite systems.

Every tag corresponds to one statement from the invariant-set / attractor /
repeller theory, instantiated literally on finite discrete systems (where
closure and interior are the identity).  Every tag is invariant under
relabelling the states, so an exhaustive corpus on n states runs one map per
isomorphism class (``map_classes``) and stands for all n^n labelled maps
(``all_systems``, kept as the labelled oracle of the tests).

Per-subset statements are checked over all 2^n subsets.  Pair- and
triple-quantified laws run over the whole family when it has at most
PAIR_CAP = 64 members, so no family is thinned up to 6 states.  From 7
states a larger family is replaced by a deterministic evenly spaced sample,
for exhaustive and random corpora alike, and "pass" covers only that
sample; this keeps the suite inside its time budget on random 10-state
systems.  Two laws are also cut by size: P2.11's intersection law runs up to
4 states, and L3.4 and C3.26+27 test every U2 between S and U up to 4
states, beyond that the U2 one state away from U or from S.

Checks read their per-subset quantities from the tables of ``SystemData``,
each a 2^n list indexed by mask and built once per system.  Image and
preimage, Inv and Inv+ (fixpoints of pruning, independent of the closed
forms of ``dynsys._inv`` and ``_inv_plus``), the states with a complete
backward orbit inside the mask, the unions of the pointwise limit sets and
the S+ and S- of P2.16 fill in by increasing mask, each entry from a smaller
mask; omega and alpha fill in along trajectories of masks.  The duals A*
and R* come from the memo of ``FiniteDynSys``, which runs each Eq (6)/(7)
cross-check once per system and serves D1 too.

D1 reads the system, not these tables: it runs the commuting-square routine
of ``FiniteDynSys`` (the one ``analyze`` runs on each attractor and its
basin) on every attracting neighborhood, then the Props 4.6/4.7 laws on the
unions of cycles, with no ``SetLattice`` of Att.  P3.7 and P3.28 read masks
too: they restrict the system to each nonzero attractor (repeller) and look
the restriction's unions of cycles (of basins) up among the system's
attractors (repellers), with no ``SetLattice`` of the restriction.

Statements made once for attractors and once for repellers (L3.4 and
C3.26+27, P3.21 and P3.25, P3.7 and P3.28, P4.1 and P4.2, P4.3 and P4.4)
share one check body, which takes the side's family of neighborhoods, limit
table, dual map or meet as arguments; each tag keeps its own named function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import and_

from .dynsys import FiniteDynSys, _reach
from .order import canonical_order, check_bound, union_over, union_table

PAIR_CAP = 64  # families above it (from 7 states) are sampled for the pair and triple laws


class SystemData:
    """Mask tables for one system: every per-subset quantity a check reads, as a 2^n list."""

    def __init__(self, sys: FiniteDynSys):
        check_bound(sys._n, "states")  # TooLarge before any 2^n table exists
        self.sys = sys
        self.n = sys._n
        self.full = sys._full
        size = 1 << self.n
        self.img = img = union_table(sys._img1)
        self.pre = pre = union_table(sys._pre1)
        # Inv, Inv+ and the states of m with a complete backward orbit inside
        # m are the fixpoints of pruning m to m & pre & img, m & pre and
        # m & img, an oracle independent of the closed forms in dynsys; a step
        # that removes states lands on a smaller mask, whose fixpoint is in the table
        inv = [0] * size
        invplus = [0] * size
        back = [0] * size
        for m in range(1, size):
            step = m & pre[m]
            invplus[m] = m if step == m else invplus[step]
            step &= img[m]
            inv[m] = m if step == m else inv[step]
            step = m & img[m]
            back[m] = m if step == m else back[step]
        self.inv = inv
        self.invplus = invplus
        self.backward_sources = back
        self.omega = self._limits(img)
        self.alpha = self._limits(pre)
        self.omega_pt = [self.omega[1 << i] for i in range(self.n)]
        self.alpha_pt = [self.alpha[1 << i] for i in range(self.n)]
        self.omega_union = union_table(self.omega_pt)
        self.alpha_union = union_table(self.alpha_pt)
        # S+ of P2.16: the states whose omega misses m, the complement of the
        # union over j in m of the states whose omega holds j
        hits = [sum(1 << i for i, o in enumerate(self.omega_pt) if o >> j & 1) for j in range(self.n)]
        self.splus = [self.full & ~h for h in union_table(hits)]
        self.cycles = list(sys._cycles)
        # S- of P2.16: what the cycles that miss m reach, one reach per
        # union of cycles
        cycles_at = [sum(c for c in self.cycles if c >> j & 1) for j in range(self.n)]
        all_cycles = sum(self.cycles)
        reach = {}
        self.sminus = []
        for meeting in union_table(cycles_at):
            missing = all_cycles & ~meeting
            if missing not in reach:
                reach[missing] = _reach(sys._img1, missing)
            self.sminus.append(reach[missing])
        self.surjective = img[self.full] == self.full
        self.fwd = [m for m in range(size) if not (img[m] & ~m)]
        self.bwd = [m for m in range(size) if not (pre[m] & ~m)]
        self.invariant = [m for m in range(size) if img[m] == m]
        self.fwdbwd = [m for m in self.fwd if not (pre[m] & ~m)]
        self.attracting = [m for m in range(size) if not (self.omega[m] & ~m)]
        self.repelling = [m for m in range(size) if not (self.alpha[m] & ~m)]
        self.att_elems = sorted({self.omega[m] for m in self.attracting})
        self.rep_elems = sorted({self.alpha[m] for m in self.repelling})

    def _limits(self, tab):
        # limit sets are constant along a trajectory of masks, so one walk
        # fills in every mask it visits; -1 marks the masks of the walk under
        # way, so meeting one closes a new cycle of masks
        out = [None] * (1 << self.n)
        for m in range(1 << self.n):
            if out[m] is not None:
                continue
            path = []
            cur = m
            while out[cur] is None:
                out[cur] = -1
                path.append(cur)
                cur = tab[cur]
            val = out[cur]
            if val == -1:
                val = 0
                for p in path[path.index(cur):]:
                    val |= p
            for p in path:
                out[p] = val
        return out

    def dual_repeller(self, a: int) -> int:
        """A* of the attractor a, from the system's memo of duals with their Eq (6) cross-check."""
        return self.sys._dual_mask(a, True)

    def dual_attractor(self, r: int) -> int:
        """R* of the repeller r, from the system's memo of duals with their Eq (7) cross-check."""
        return self.sys._dual_mask(r, False)

    def eventually_inside(self, m: int) -> bool:
        """Does the image trajectory of m eventually stay inside m?"""
        seen = set()
        cur = m
        img = self.img
        while cur not in seen:
            seen.add(cur)
            cur = img[cur]
        start = cur
        while True:
            if cur & ~m:
                return False
            cur = img[cur]
            if cur == start:
                return True

    def thin(self, family):
        if len(family) <= PAIR_CAP:
            return family
        step = len(family) // PAIR_CAP + 1
        return family[::step]


@dataclass
class TagResult:
    tag: str
    passed: bool = True
    systems: int = 0
    counterexample: tuple | None = None

    def fail(self, sysdata: SystemData, witness):
        if self.passed:
            self.passed = False
            self.counterexample = (dict(sysdata.sys.next), witness)


def _u(sd, m):
    return sd.sys.unmask(m)


# each check: fn(sd) -> witness or None


def check_p2_5(sd):
    full = sd.full
    for m in range(1 << sd.n):
        fwd = not (sd.img[m] & ~m)
        bwd_c = not (sd.pre[full & ~m] & m)
        if fwd != bwd_c:
            return _u(sd, m)
    return None


def check_c2_6(sd):
    full = sd.full
    for m in sd.fwdbwd:
        mc = full & ~m
        if (sd.img[mc] & ~mc) or (sd.pre[mc] & ~mc):
            return _u(sd, m)
    return None


def check_l2_7(sd):
    inv = sd.inv
    for fam in (sd.fwd, sd.bwd):
        fam = sd.thin(fam)
        for a in fam:
            ia = inv[a]
            for b in fam:
                ib = inv[b]
                if inv[a | b] != ia | ib:
                    return (_u(sd, a), _u(sd, b), "union")
                if inv[a & b] != inv[ia & ib]:
                    return (_u(sd, a), _u(sd, b), "intersection")
    return None


def check_p2_8(sd):
    fam = sd.thin(sd.invariant)
    inv = sd.inv
    one = inv[sd.full]
    meet = lambda a, b: inv[a & b]
    for a in fam:
        if meet(a, one) != a or (a | 0) != a:
            return (_u(sd, a), "bounds")
        for b in fam:
            ab = meet(a, b)
            if (a | ab) != a or meet(a, a | b) != a:
                return (_u(sd, a), _u(sd, b), "absorption")
            for c in fam:
                if meet(a, b | c) != (meet(a, b) | meet(a, c)):
                    return (_u(sd, a), _u(sd, b), _u(sd, c), "distributivity")
                if meet(meet(a, b), c) != meet(a, meet(b, c)):
                    return (_u(sd, a), _u(sd, b), _u(sd, c), "associativity")
    return None


def check_l2_9(sd):
    for a in sd.thin(sd.fwdbwd):
        for b in sd.thin(sd.invariant):
            if sd.img[a & b] != a & b:
                return (_u(sd, a), _u(sd, b))
    return None


def check_l2_10(sd):
    for m in sd.bwd:
        ip = sd.invplus[m]
        if (sd.img[ip] & ~ip) or (sd.pre[ip] & ~ip):
            return _u(sd, m)
    return None


def check_p2_11(sd):
    img = sd.img
    n = sd.n
    for m in range(1 << n):
        om = sd.omega[m]
        if img[om] != om:
            return (_u(sd, m), "i")
        if m and not om:
            return (_u(sd, m), "ii")
        if om != sd.inv[m] and sd.eventually_inside(m):
            return (_u(sd, m), "iii")
        if om != sd.omega_union[m]:
            return (_u(sd, m), "v")
        if sd.backward_sources[m] & ~om:
            return (_u(sd, m), "vii")
    m = _not_monotone(sd, sd.omega)
    if m is not None:
        return (_u(sd, m), "iv")
    for m in sd.invariant:
        if sd.omega[m] != m:
            return (_u(sd, m), "viii")
    if sd.n <= 4:
        for a in range(1 << n):
            for b in range(1 << n):
                if sd.omega[a & b] & ~(sd.omega[a] & sd.omega[b]):
                    return (_u(sd, a), _u(sd, b), "v-cap")
    return None


def check_p2_13(sd):
    pre = sd.pre
    img = sd.img
    n = sd.n
    for m in range(1 << n):
        al = sd.alpha[m]
        if img[al] & ~al:
            return (_u(sd, m), "i")
        if sd.surjective and m and not al:
            return (_u(sd, m), "ii")
        if al != sd.alpha_union[m]:
            return (_u(sd, m), "v")
        ip = sd.invplus[m]
        if ip & ~al:
            return (_u(sd, m), "vi")
        if not (al & ~m) and ip != al:
            return (_u(sd, m), "vi")
    m = _not_monotone(sd, sd.alpha)
    if m is not None:
        return (_u(sd, m), "iv")
    for m in sd.bwd:
        al = sd.alpha[m]
        if al & ~m:
            return (_u(sd, m), "iii")
        if al != sd.invplus[m]:
            return (_u(sd, m), "iii")
        if (img[al] & ~al) or (pre[al] & ~al):
            return (_u(sd, m), "vii")
        if sd.surjective:
            if img[al] != al or al != sd.inv[m]:
                return (_u(sd, m), "vii")
    for m in sd.fwd:
        if m & ~sd.alpha[m]:
            return (_u(sd, m), "viii")
    for m in sd.fwdbwd:
        if sd.alpha[m] != m:
            return (_u(sd, m), "viii")
    return None


def _not_monotone(sd, limit):
    """The first subset m whose limit set is not inside that of some m + {i}, or None."""
    bits = [1 << i for i in range(sd.n)]
    for m in range(1 << sd.n):
        lm = limit[m]
        for b in bits:
            if not m & b and lm & ~limit[m | b]:
                return m
    return None


def check_p2_15(sd):
    reach = [_reach(sd.sys._img1, c) for c in sd.cycles]
    for i in range(sd.n):
        for c, r in zip(sd.cycles, reach):
            if r >> i & 1:
                if not c or sd.img[c] != c or c & ~sd.alpha_pt[i]:
                    return (sd.sys.states[i], _u(sd, c))
    return None


def check_p2_16(sd):
    img = sd.img
    pre = sd.pre
    for m in range(1 << sd.n):
        plus = sd.splus[m]
        if (img[plus] & ~plus) or (pre[plus] & ~plus):
            return (_u(sd, m), "S+ not forward-backward invariant")
        minus = sd.sminus[m]
        if img[minus] != minus:
            return (_u(sd, m), "S- not invariant")
        if img[m] == m and m & plus:
            return (_u(sd, m), "invariant S meets S+")
        if not (img[m] & ~m) and not (pre[m] & ~m) and m & minus:
            return (_u(sd, m), "forward-backward invariant S meets S-")
    return None


def check_p3_1(sd):
    for m in sd.attracting:
        if sd.inv[m] != sd.omega[m]:
            return _u(sd, m)
    return None


def check_l3_3(sd):
    # trapping region iff forward invariant attracting neighborhood; on the
    # discrete side trapping reduces to forward invariance, so the content is
    # that every forward invariant set is an attracting neighborhood
    for m in range(1 << sd.n):
        trapping = not (sd.img[m] & ~m)
        att = not (sd.omega[m] & ~m)
        if trapping != (trapping and att):
            return _u(sd, m)
    return None


def check_l3_4(sd):
    return _nested_neighborhoods(sd, sd.attracting, sd.omega)


def _nested_neighborhoods(sd, family, limit):
    """Every U2 between the limit set S of a neighborhood U and U is a neighborhood with limit S."""
    items = family if sd.n <= 4 else sd.thin(family)
    for m in items:
        a = limit[m]
        if sd.n <= 4:
            inner = range(1 << sd.n)
        else:
            inner = [m & ~(1 << i) for i in range(sd.n)] + [a | (1 << i) for i in range(sd.n)]
        for u2 in inner:
            if a & ~u2 or u2 & ~m:
                continue
            if (limit[u2] & ~u2) or limit[u2] != a:
                return (_u(sd, m), _u(sd, u2))
    return None


def check_l3_11(sd):
    att = set(sd.att_elems)
    # attractors admit an isolating neighborhood with no backward orbits outside
    for a in att:
        basin = 0
        for i in range(sd.n):
            if not (sd.omega_pt[i] & ~a):
                basin |= 1 << i
        if sd.backward_sources[basin] & ~a or sd.inv[basin] != a:
            return (_u(sd, a), "witness neighborhood fails")
    # conversely such a neighborhood forces an attractor
    for m in range(1 << sd.n):
        s = sd.inv[m]
        if not (sd.backward_sources[m] & ~s) and s not in att:
            return (_u(sd, m), "criterion met but not an attractor")
    return None


def check_p3_12(sd):
    for m in sd.bwd:
        r = sd.invplus[m]
        if (sd.img[r] & ~r) or (sd.pre[r] & ~r):
            return (_u(sd, m), "repeller not forward-backward invariant")
        if sd.alpha[m] != r:
            return (_u(sd, m), "Inv+(U) != alpha(U) on a repelling region")
    return None


def check_p3_13(sd):
    for a in sd.att_elems:
        for r in sd.rep_elems:
            if sd.img[a & r] != a & r:
                return (_u(sd, a), _u(sd, r))
    return None


def check_p3_21(sd):
    return _dual_criterion(sd, sd.att_elems, sd.omega, sd.dual_repeller)


def check_p3_25(sd):
    return _dual_criterion(sd, sd.rep_elems, sd.alpha, sd.dual_attractor)


def _dual_criterion(sd, elems, limit, dual):
    """limit(U) = S with S inside U iff S is inside U and U misses the dual S*."""
    duals = [(e, dual(e)) for e in elems]
    for m in range(1 << sd.n):
        lm = limit[m]
        for e, star in duals:
            inside = not (e & ~m)
            if (lm == e and inside) != (inside and not (m & star)):
                return (_u(sd, m), _u(sd, e))
    return None


def check_c3_26_27(sd):
    return _nested_neighborhoods(sd, sd.repelling, sd.alpha)


def check_p3_7(sd):
    return _restricted_elements(sd, sd.att_elems, FiniteDynSys._recurrent_unions)


def check_p3_28(sd):
    return _restricted_elements(sd, sd.rep_elems, FiniteDynSys._basin_unions)


def _restricted_elements(sd, elems, masks_of):
    """Each attractor (repeller) of the system restricted to a nonzero element is one of ``elems``."""
    known = set(elems)
    for e in elems:
        if not e:
            continue
        for m in _restricted_masks(sd.sys, e, masks_of):
            if m not in known:
                return (_u(sd, e), _u(sd, m))
    return None


def _restricted_masks(sys, e, masks_of):
    """``masks_of`` the system restricted to the mask e, as masks of ``sys``, in order.canonical_order.

    The one element order (SetLattice's too); the restriction keeps the order
    of the states, so bit k of its masks is the k-th lowest bit of e, and the
    order is that of the elements of its att_lattice() or rep_lattice().
    """
    sub = sys.restrict(sys.unmask(e))
    bits = [1 << i for i in range(sys._n) if e >> i & 1]
    return [union_over(bits, m) for m in canonical_order(masks_of(sub), sub._n)]


def check_p4_1(sd):
    return _neighborhood_lattice(sd, sd.attracting)


def check_p4_2(sd):
    return _neighborhood_lattice(sd, sd.repelling)


def _neighborhood_lattice(sd, family):
    """The neighborhoods hold 0 and the whole space and are closed under union and intersection."""
    if 0 not in family or sd.full not in family:
        return ("bounds",)
    members = set(family)
    fam = sd.thin(family)
    for a in fam:
        for b in fam:
            if (a | b) not in members or (a & b) not in members:
                return (_u(sd, a), _u(sd, b))
    return None


def check_p4_3(sd):
    return _limit_hom(sd, sd.attracting, sd.omega, sd.att_elems, lambda a, b: sd.inv[a & b])


def check_p4_4(sd):
    return _limit_hom(sd, sd.repelling, sd.alpha, sd.rep_elems, and_)


def _limit_hom(sd, family, limit, elems, meet):
    """The limit map takes union to join and intersection to ``meet``, onto a sublattice."""
    fam = sd.thin(family)
    for u in fam:
        for v in fam:
            if limit[u | v] != limit[u] | limit[v]:
                return (_u(sd, u), _u(sd, v), "join")
            if limit[u & v] != meet(limit[u], limit[v]):
                return (_u(sd, u), _u(sd, v), "meet")
    members = set(elems)
    for a in elems:
        for b in elems:
            if (a | b) not in members or meet(a, b) not in members:
                return (_u(sd, a), _u(sd, b), "sublattice")
    return None


def check_p4_6(sd):
    att = set(sd.attracting)
    rep = set(sd.repelling)
    full = sd.full
    for m in range(1 << sd.n):
        if (m in att) != ((full & ~m) in rep):
            return _u(sd, m)
    return None


def check_p4_7(sd):
    star = {a: sd.dual_repeller(a) for a in sd.att_elems}
    for a in sd.att_elems:
        for b in sd.att_elems:
            if star[a | b] != star[a] & star[b]:
                return (_u(sd, a), _u(sd, b), "join law")
            if sd.dual_repeller(sd.inv[a & b]) != star[a] | star[b]:
                return (_u(sd, a), _u(sd, b), "meet law")
        if sd.dual_attractor(star[a]) != a:
            return (_u(sd, a), "involution")
    return None


def check_d1(sd):
    report = sd.sys._square(sd.sys._attracting_masks())
    if not report:
        return (report.law, report.witness)
    return None


def check_t3_19(sd):
    for a in sd.att_elems:
        astar = sd.dual_repeller(a)
        for r in sd.rep_elems:
            cond = sd.sys._ar_direct(a, r)[0]
            if cond != (r == astar):
                return (_u(sd, a), _u(sd, r))
    return None


def check_t1_2(sd):
    # identity witness: every attractor / repeller is a neighborhood of itself
    # realizing itself, so the identity assignment is always a valid lift
    for side, elems, limit in (("attractor", sd.att_elems, sd.omega), ("repeller", sd.rep_elems, sd.alpha)):
        for e in elems:
            if (limit[e] & ~e) or limit[e] != e:
                return (_u(sd, e), f"{side} identity witness")
    return None


CHECKS = [
    ("P2.5", check_p2_5),
    ("C2.6", check_c2_6),
    ("L2.7", check_l2_7),
    ("P2.8", check_p2_8),
    ("L2.9", check_l2_9),
    ("L2.10", check_l2_10),
    ("P2.11", check_p2_11),
    ("P2.13", check_p2_13),
    ("P2.15", check_p2_15),
    ("P2.16", check_p2_16),
    ("P3.1+C3.6", check_p3_1),
    ("L3.3", check_l3_3),
    ("L3.4", check_l3_4),
    ("L3.11", check_l3_11),
    ("P3.12", check_p3_12),
    ("P3.13", check_p3_13),
    ("P3.21", check_p3_21),
    ("P3.25", check_p3_25),
    ("C3.26+C3.27", check_c3_26_27),
    ("P3.7", check_p3_7),
    ("P3.28", check_p3_28),
    ("P4.1", check_p4_1),
    ("P4.2", check_p4_2),
    ("P4.3", check_p4_3),
    ("P4.4", check_p4_4),
    ("P4.6", check_p4_6),
    ("P4.7", check_p4_7),
    ("D1", check_d1),
    ("T3.19", check_t3_19),
    ("T1.2", check_t1_2),
]


def all_systems(n: int):
    """All n^n next maps on n states: the labelled oracle of ``map_classes``."""
    states = list(range(n))
    for code in range(n ** n):
        c = code
        table = {}
        for s in states:
            c, t = divmod(c, n)
            table[s] = t
        yield FiniteDynSys(states, table)


def map_classes(n: int):
    """One map on the states 0..n-1 for each isomorphism class of maps on n states (OEIS A001372).

    A map is a multiset of connected components, and a component a cycle of
    rooted trees whose roots are its cycle.  Trees come from their canonical
    level sequences, components are the necklaces (least rotations) of tree
    indices, and maps the non-increasing sequences of component indices.
    Maps are yielded by their largest component's size, so the trees and
    components of a size are built only once a map needs them; the tables
    live as long as the generator.
    """
    check_bound(n, "states")  # before the tables, whose size grows with n
    trees = []  # parents in preorder (the root's entry is 0), by size
    upto = [0]  # upto[k]: the number of trees on at most k nodes
    comps = [[]]  # comps[k]: the components on k states, as tuples of tree indices

    def necklaces(k):
        # the prenecklace rule of Fredricksen, Kessler and Maiorana with beads
        # weighted by tree size: a bead repeats the one `period` back or passes
        # it and starts a new period; a word is a necklace when its length is
        # a multiple of its period (Cattell et al., J. Algorithms 2000)
        out = []
        beads = []

        def extend(period, rest):
            if not rest:
                if len(beads) % period == 0:
                    out.append(tuple(beads))
                return
            t = len(beads)
            least = beads[t - period] if t else 0
            for g in range(least, upto[rest]):
                beads.append(g)
                extend(period if t and g == least else t + 1, rest - len(trees[g]))
                beads.pop()

        extend(1, k)
        return out

    def multisets(rest, size, index):
        # the components after the first, each at most (size, index)
        if not rest:
            yield ()
            return
        for s in range(min(size, rest), 0, -1):
            for i in range(index if s == size else len(comps[s]) - 1, -1, -1):
                for tail in multisets(rest - s, s, i):
                    yield (comps[s][i],) + tail

    for size in range(1, n + 1):
        trees.extend(_rooted_trees(size))
        upto.append(len(trees))
        comps.append(necklaces(size))
        for index, first in enumerate(comps[size]):
            for tail in multisets(n - size, size, index):
                nxt = []
                for comp in (first,) + tail:
                    roots = []
                    for g in comp:
                        roots.append(len(nxt))
                        nxt.extend(roots[-1] + p for p in trees[g])
                    for j, r in enumerate(roots):
                        nxt[r] = roots[(j + 1) % len(roots)]
                yield FiniteDynSys(range(n), dict(enumerate(nxt)))


def _rooted_trees(k: int):
    """The rooted trees on k nodes up to isomorphism, each as its nodes' parents in preorder.

    Beyer and Hedetniemi's successor rule on canonical level sequences (SIAM
    J. Comput. 1980), from the path 1, 2, ..., k down to the star.
    """
    level = list(range(1, k + 1))
    while True:
        parent = [0] * k
        last = {}
        for i, depth in enumerate(level):
            parent[i] = last.get(depth - 1, 0)
            last[depth] = i
        yield parent
        p = max((i for i, depth in enumerate(level) if depth > 2), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if level[i] == level[p] - 1)
        for i in range(p, k):
            level[i] = level[i - p + q]


def random_systems(count: int, max_states: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_states)
        states = list(range(n))
        table = {s: rng.randrange(n) for s in states}
        yield FiniteDynSys(states, table)


def run_verification(systems, tags=None) -> list[TagResult]:
    selected = [(t, fn) for t, fn in CHECKS if tags is None or t in tags]
    results = {t: TagResult(t) for t, _ in selected}
    for sys in systems:
        sd = SystemData(sys)
        for tag, fn in selected:
            res = results[tag]
            res.systems += 1
            witness = fn(sd)
            if witness is not None:
                res.fail(sd, witness)
    return [results[t] for t, _ in selected]
