"""Proposition-tagged verification suites over corpora of finite systems.

Every tag corresponds to one statement from the invariant-set / attractor /
repeller theory, instantiated literally on finite discrete systems (where
closure and interior are the identity).  Per-subset statements are checked
over all 2^n subsets.  Pair- and triple-quantified laws run exhaustively
whenever the relevant family is small (always the case for the 4-state
exhaustive corpus) and over a deterministic thinned sample beyond PAIR_CAP
elements, which keeps the whole suite inside its time budget on random
10-state systems.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .dynsys import FiniteDynSys

PAIR_CAP = 64  # per-family cap for pairwise laws on large random systems


class SystemData:
    """Mask tables for one system: images, limit sets, invariance families."""

    def __init__(self, sys: FiniteDynSys):
        self.sys = sys
        self.n = sys._n
        self.full = sys._full
        size = 1 << self.n
        img = [0] * size
        pre = [0] * size
        for m in range(1, size):
            low = (m & -m).bit_length() - 1
            rest = m & (m - 1)
            img[m] = img[rest] | sys._img1[low]
            pre[m] = pre[rest] | sys._pre1[low]
        self.img = img
        self.pre = pre
        self.omega = self._limits(img)
        self.alpha = self._limits(pre)
        self.omega_pt = [self.omega[1 << i] for i in range(self.n)]
        self.alpha_pt = [self.alpha[1 << i] for i in range(self.n)]
        self.cycles = list(sys._cycle_masks())
        self.surjective = img[self.full] == self.full
        self._inv = {}
        self._invplus = {}
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
        # fills in every mask it visits
        size = 1 << self.n
        out = [None] * size
        out[0] = 0
        for m in range(size):
            if out[m] is not None:
                continue
            path = []
            cur = m
            seen = {}
            while out[cur] is None and cur not in seen:
                seen[cur] = len(path)
                path.append(cur)
                cur = tab[cur]
            if out[cur] is not None:
                val = out[cur]
            else:
                val = 0
                for k in range(seen[cur], len(path)):
                    val |= path[k]
            for p in path:
                out[p] = val
        return out

    def inv(self, m: int) -> int:
        if m not in self._inv:
            self._inv[m] = self.sys._inv_mask(m)
        return self._inv[m]

    def invplus(self, m: int) -> int:
        if m not in self._invplus:
            self._invplus[m] = self.sys._inv_plus_mask(m)
        return self._invplus[m]

    def backward_sources(self, m: int) -> int:
        """States of m with a complete backward orbit inside m."""
        cyc = 0
        for c in self.cycles:
            if not (c & ~m):
                cyc |= c
        cur = cyc
        img = self.img
        while True:
            nxt = cur | (img[cur] & m)
            if nxt == cur:
                return cur
            cur = nxt

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
    for fam in (sd.fwd, sd.bwd):
        fam = sd.thin(fam)
        for a in fam:
            ia = sd.inv(a)
            for b in fam:
                ib = sd.inv(b)
                if sd.inv(a | b) != ia | ib:
                    return (_u(sd, a), _u(sd, b), "union")
                if sd.inv(a & b) != sd.inv(ia & ib):
                    return (_u(sd, a), _u(sd, b), "intersection")
    return None


def check_p2_8(sd):
    fam = sd.thin(sd.invariant)
    one = sd.inv(sd.full)
    meet = lambda a, b: sd.inv(a & b)
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
        ip = sd.invplus(m)
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
        if sd.eventually_inside(m) and om != sd.inv(m):
            return (_u(sd, m), "iii")
        expected = 0
        rest = m
        while rest:
            i = (rest & -rest).bit_length() - 1
            expected |= sd.omega_pt[i]
            rest &= rest - 1
        if om != expected:
            return (_u(sd, m), "v")
        if sd.backward_sources(m) & ~om:
            return (_u(sd, m), "vii")
    for m in range(1 << n):
        for i in range(n):
            if not m >> i & 1:
                if sd.omega[m] & ~sd.omega[m | (1 << i)]:
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
        expected = 0
        rest = m
        while rest:
            i = (rest & -rest).bit_length() - 1
            expected |= sd.alpha_pt[i]
            rest &= rest - 1
        if al != expected:
            return (_u(sd, m), "v")
        ip = sd.invplus(m)
        if ip & ~al:
            return (_u(sd, m), "vi")
        if not (al & ~m) and ip != al:
            return (_u(sd, m), "vi")
    for m in range(1 << n):
        for i in range(n):
            if not m >> i & 1:
                if sd.alpha[m] & ~sd.alpha[m | (1 << i)]:
                    return (_u(sd, m), "iv")
    for m in sd.bwd:
        al = sd.alpha[m]
        if al & ~m:
            return (_u(sd, m), "iii")
        if al != sd.invplus(m):
            return (_u(sd, m), "iii")
        if (img[al] & ~al) or (pre[al] & ~al):
            return (_u(sd, m), "vii")
        if sd.surjective:
            if img[al] != al or al != sd.inv(m):
                return (_u(sd, m), "vii")
    for m in sd.fwd:
        if m & ~sd.alpha[m]:
            return (_u(sd, m), "viii")
    for m in sd.fwdbwd:
        if sd.alpha[m] != m:
            return (_u(sd, m), "viii")
    return None


def check_p2_15(sd):
    for i in range(sd.n):
        for c in sd.cycles:
            if sd.sys._mask_reaches(c, i):
                if not c or sd.img[c] != c or c & ~sd.alpha_pt[i]:
                    return (sd.sys.states[i], _u(sd, c))
    return None


def check_p2_16(sd):
    img = sd.img
    pre = sd.pre
    for m in range(1 << sd.n):
        plus = 0
        for i in range(sd.n):
            if not sd.omega_pt[i] & m:
                plus |= 1 << i
        if (img[plus] & ~plus) or (pre[plus] & ~plus):
            return (_u(sd, m), "S+ not forward-backward invariant")
        seeds = 0
        for c in sd.cycles:
            if not (c & m):
                seeds |= c
        minus = sd.sys._reach_fwd_mask(seeds) if seeds else 0
        if img[minus] != minus:
            return (_u(sd, m), "S- not invariant")
        if img[m] == m and m & plus:
            return (_u(sd, m), "invariant S meets S+")
        if not (img[m] & ~m) and not (pre[m] & ~m) and m & minus:
            return (_u(sd, m), "forward-backward invariant S meets S-")
    return None


def check_p3_1(sd):
    for m in sd.attracting:
        if sd.inv(m) != sd.omega[m]:
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
    items = sd.attracting if sd.n <= 4 else sd.thin(sd.attracting)
    for m in items:
        a = sd.omega[m]
        if sd.n <= 4:
            inner = range(1 << sd.n)
        else:
            inner = [m & ~(1 << i) for i in range(sd.n)] + [a | (1 << i) for i in range(sd.n)]
        for u2 in inner:
            if a & ~u2 or u2 & ~m:
                continue
            if (sd.omega[u2] & ~u2) or sd.omega[u2] != a:
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
        if sd.backward_sources(basin) & ~a or sd.inv(basin) != a:
            return (_u(sd, a), "witness neighborhood fails")
    # conversely such a neighborhood forces an attractor
    for m in range(1 << sd.n):
        s = sd.inv(m)
        if not (sd.backward_sources(m) & ~s) and s not in att:
            return (_u(sd, m), "criterion met but not an attractor")
    return None


def check_p3_12(sd):
    for m in sd.bwd:
        r = sd.invplus(m)
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
    duals = {a: sd.sys.mask(sd.sys.dual_repeller(_u(sd, a))) for a in sd.att_elems}
    for m in range(1 << sd.n):
        for a in sd.att_elems:
            lhs = sd.omega[m] == a and not (a & ~m)
            rhs = not (a & ~m) and not (m & duals[a])
            if lhs != rhs:
                return (_u(sd, m), _u(sd, a))
    return None


def check_p3_25(sd):
    duals = {r: sd.sys.mask(sd.sys.dual_attractor(_u(sd, r))) for r in sd.rep_elems}
    for m in range(1 << sd.n):
        for r in sd.rep_elems:
            lhs = sd.alpha[m] == r and not (r & ~m)
            rhs = not (r & ~m) and not (m & duals[r])
            if lhs != rhs:
                return (_u(sd, m), _u(sd, r))
    return None


def check_c3_26_27(sd):
    items = sd.repelling if sd.n <= 4 else sd.thin(sd.repelling)
    for m in items:
        r = sd.alpha[m]
        if sd.n <= 4:
            inner = range(1 << sd.n)
        else:
            inner = [m & ~(1 << i) for i in range(sd.n)] + [r | (1 << i) for i in range(sd.n)]
        for u2 in inner:
            if r & ~u2 or u2 & ~m:
                continue
            if (sd.alpha[u2] & ~u2) or sd.alpha[u2] != r:
                return (_u(sd, m), _u(sd, u2))
    return None


def check_p3_7(sd):
    for a in sd.att_elems:
        if not a:
            continue
        sub = sd.sys.restrict(_u(sd, a))
        for a2 in sub.att_lattice().elements:
            if sd.sys.mask(a2) not in set(sd.att_elems):
                return (_u(sd, a), a2)
    return None


def check_p3_28(sd):
    for r in sd.rep_elems:
        if not r:
            continue
        sub = sd.sys.restrict(_u(sd, r))
        for r2 in sub.rep_lattice().elements:
            if sd.sys.mask(r2) not in set(sd.rep_elems):
                return (_u(sd, r), r2)
    return None


def check_p4_1(sd):
    if 0 not in sd.attracting or sd.full not in sd.attracting:
        return ("bounds",)
    att = set(sd.attracting)
    fam = sd.thin(sd.attracting)
    for a in fam:
        for b in fam:
            if (a | b) not in att or (a & b) not in att:
                return (_u(sd, a), _u(sd, b))
    return None


def check_p4_2(sd):
    if 0 not in sd.repelling or sd.full not in sd.repelling:
        return ("bounds",)
    rep = set(sd.repelling)
    fam = sd.thin(sd.repelling)
    for a in fam:
        for b in fam:
            if (a | b) not in rep or (a & b) not in rep:
                return (_u(sd, a), _u(sd, b))
    return None


def check_p4_3(sd):
    att = set(sd.att_elems)
    fam = sd.thin(sd.attracting)
    for u in fam:
        for v in fam:
            if sd.omega[u | v] != sd.omega[u] | sd.omega[v]:
                return (_u(sd, u), _u(sd, v), "join")
            if sd.omega[u & v] != sd.inv(sd.omega[u] & sd.omega[v]):
                return (_u(sd, u), _u(sd, v), "meet")
    for a in sd.att_elems:
        for b in sd.att_elems:
            if (a | b) not in att or sd.inv(a & b) not in att:
                return (_u(sd, a), _u(sd, b), "sublattice")
    return None


def check_p4_4(sd):
    rep = set(sd.rep_elems)
    fam = sd.thin(sd.repelling)
    for u in fam:
        for v in fam:
            if sd.alpha[u | v] != sd.alpha[u] | sd.alpha[v]:
                return (_u(sd, u), _u(sd, v), "join")
            if sd.alpha[u & v] != sd.alpha[u] & sd.alpha[v]:
                return (_u(sd, u), _u(sd, v), "meet")
    for a in sd.rep_elems:
        for b in sd.rep_elems:
            if (a | b) not in rep or (a & b) not in rep:
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
    star = {a: sd.sys.mask(sd.sys.dual_repeller(_u(sd, a))) for a in sd.att_elems}
    for a in sd.att_elems:
        for b in sd.att_elems:
            if star[a | b] != star[a] & star[b]:
                return (_u(sd, a), _u(sd, b), "join law")
            if sd.sys.mask(sd.sys.dual_repeller(_u(sd, sd.inv(a & b)))) != star[a] | star[b]:
                return (_u(sd, a), _u(sd, b), "meet law")
        if sd.sys.mask(sd.sys.dual_attractor(_u(sd, star[a]))) != a:
            return (_u(sd, a), "involution")
    return None


def check_d1(sd):
    report = sd.sys.commuting_square_check()
    if not report:
        return (report.reason, report.witness)
    return None


def check_t3_19(sd):
    for a in sd.att_elems:
        astar = sd.sys.mask(sd.sys.dual_repeller(_u(sd, a)))
        for r in sd.rep_elems:
            cond = sd.sys._ar_direct(a, r)[0]
            if cond != (r == astar):
                return (_u(sd, a), _u(sd, r))
    return None


def check_t1_2(sd):
    # identity witness: every attractor / repeller is a neighborhood of itself
    # realizing itself, so the identity assignment is always a valid lift
    for a in sd.att_elems:
        if (sd.omega[a] & ~a) or sd.omega[a] != a:
            return (_u(sd, a), "attractor identity witness")
    for r in sd.rep_elems:
        if (sd.alpha[r] & ~r) or sd.alpha[r] != r:
            return (_u(sd, r), "repeller identity witness")
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
    """All n^n next maps on n states."""
    states = list(range(n))
    for code in range(n ** n):
        c = code
        table = {}
        for s in states:
            c, t = divmod(c, n)
            table[s] = t
        yield FiniteDynSys(states, table)


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
