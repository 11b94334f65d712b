"""Reference computations that the benchmark checks morselat's outputs against.

Nothing here imports morselat.  Every routine is written from the
definitions, by a different route than the program takes:

- single-valued maps: attractors are unions of cycles, repellers are unions
  of basins (Att is the Boolean lattice on the cycles);
- cell maps: the attractor lattice comes from the condensation of the arrow
  graph, {walk-core of the forward closure of D | D a down-set of recurrent
  SCCs}, and the repeller lattice from the backward closures of up-sets;
- posets: down-sets are enumerated by recursion on a linear extension;
- lift certificates are re-checked from their JSON alone.

Each check raises ``Mismatch`` with a message naming the first difference.
"""

from __future__ import annotations

from itertools import combinations


class Mismatch(AssertionError):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def fs_list(items) -> set:
    """A JSON array of arrays as a set of frozensets."""
    return {frozenset(_hashable(x) for x in item) for item in items}


def _hashable(x):
    return tuple(x) if isinstance(x, list) else x


# -- exact single-valued maps ----------------------------------------------------


class ExactMap:
    """Cycle/basin decomposition of a total map on a finite state set."""

    def __init__(self, states, nxt):
        self.states = list(states)
        self.nxt = dict(nxt)
        cycle_of = {}
        for s in self.states:
            path, pos, x = [], {}, s
            while x not in pos and x not in cycle_of:
                pos[x] = len(path)
                path.append(x)
                x = self.nxt[x]
            c = cycle_of[x] if x in cycle_of else frozenset(path[pos[x]:])
            for y in path:
                cycle_of[y] = c
        self.cycle_of = cycle_of
        self.cycles = sorted(set(cycle_of.values()), key=lambda c: min(self.states.index(x) for x in c))
        self.basin = {c: frozenset(s for s in self.states if cycle_of[s] == c) for c in self.cycles}
        self.ambient = frozenset(self.states)

    def _unions(self, parts):
        out = set()
        for r in range(len(parts) + 1):
            for combo in combinations(parts, r):
                out.add(frozenset().union(*combo))
        return out

    def attractors(self) -> set:
        return self._unions(self.cycles)

    def repellers(self) -> set:
        return self._unions([self.basin[c] for c in self.cycles])

    def dual_repeller(self, attractor: frozenset) -> frozenset:
        return frozenset().union(*(self.basin[c] for c in self.cycles if not c <= attractor))

    def nbhd_count(self) -> int:
        out = 1
        for c in self.cycles:
            out *= 1 + 2 ** (len(self.basin[c]) - len(c))
        return out

    # the maps h and the neighbourhood tests of the lifting certificates

    def inv(self, u: frozenset) -> frozenset:
        return frozenset().union(*(c for c in self.cycles if c <= u))

    def inv_plus(self, u: frozenset) -> frozenset:
        out = set()
        for x in u:
            y, seen = x, set()
            while y in u and y not in seen:
                seen.add(y)
                y = self.nxt[y]
            if y in u:
                out.add(x)
        return frozenset(out)

    def is_attracting_nbhd(self, u: frozenset) -> bool:
        return all(self.cycle_of[x] <= u for x in u)

    def is_repelling_nbhd(self, u: frozenset) -> bool:
        return all(self.basin[c] <= u for c in self.cycles if c & u)


def check_exact_analyze(m: ExactMap, out: dict) -> None:
    att = m.attractors()
    expect(out["universe"] == m.states, "universe is not the state list")
    expect(fs_list(out["elements"]) == att, "attractors are not the unions of cycles")
    expect(len(out["elements"]) == len(att), "duplicate attractors")
    expect(fs_list(out["attractors"]) == att, "attractor listing differs from elements")
    expect(fs_list(out["repellers"]) == m.repellers(), "repellers are not the unions of basins")
    expect(out["anbhd_count"] == m.nbhd_count(), f"anbhd_count {out['anbhd_count']} != {m.nbhd_count()}")
    expect(out["rnbhd_count"] == m.nbhd_count(), f"rnbhd_count {out['rnbhd_count']} != {m.nbhd_count()}")
    pairs = {frozenset(p["attractor"]): frozenset(p["repeller"]) for p in out["dual_pairs"]}
    expect(set(pairs) == att, "dual_pairs do not list every attractor")
    for a, r in pairs.items():
        expect(r == m.dual_repeller(a), f"dual repeller of {sorted(a)} is wrong")
    expect(out["diagram_commutes"] is True, "diagram_commutes is not true")
    expect(fs_list(out["join_irreducibles"]) == set(m.cycles), "join-irreducibles are not the cycles")
    elems = [frozenset(e) for e in out["elements"]]
    expect(len(out["hasse"]) == len(att) * len(m.cycles) // 2, "wrong number of Hasse pairs")
    for i, j in out["hasse"]:
        expect(elems[j] > elems[i] and elems[j] - elems[i] in m.basin, f"Hasse pair {i},{j} is not one cycle apart")


# -- cell maps --------------------------------------------------------------------


class CellArrows:
    """A multivalued map on cells 0..n-1 given by its arrows."""

    def __init__(self, arrows):
        self.arrows = [frozenset(a) for a in arrows]
        self.n = len(self.arrows)
        self.ambient = frozenset(range(self.n))
        self.reach = []
        for c in range(self.n):
            seen, todo = {c}, [c]
            while todo:
                for d in self.arrows[todo.pop()]:
                    if d not in seen:
                        seen.add(d)
                        todo.append(d)
            self.reach.append(frozenset(seen))
        recurrent = [c for c in range(self.n) if any(c in self.reach[d] for d in self.arrows[c])]
        comps = []
        for c in recurrent:
            if not any(c in comp for comp in comps):
                comps.append(frozenset(d for d in recurrent if d in self.reach[c] and c in self.reach[d]))
        self.components = comps

    def _comp_reaches(self, a: frozenset, b: frozenset) -> bool:
        return next(iter(b)) in self.reach[next(iter(a))]

    def _closed_families(self, downward: bool):
        k = len(self.components)
        for mask in range(1 << k):
            chosen = [self.components[i] for i in range(k) if mask >> i & 1]
            rest = [self.components[i] for i in range(k) if not mask >> i & 1]
            if downward:
                ok = not any(self._comp_reaches(a, b) for a in chosen for b in rest)
            else:
                ok = not any(self._comp_reaches(b, a) for a in chosen for b in rest)
            if ok:
                yield chosen

    def walk_core(self, cells: frozenset) -> frozenset:
        """Cells on a bi-infinite walk inside ``cells``, by pruning dead ends."""
        cur = set(cells)
        while True:
            keep = {c for c in cur if self.arrows[c] & cur}
            keep = {c for c in keep if any(c in self.arrows[d] for d in keep)}
            if keep == cur:
                return frozenset(cur)
            cur = keep

    def inv_plus(self, cells: frozenset) -> frozenset:
        """Cells with an infinite forward walk inside ``cells``."""
        cur = set(cells)
        while True:
            keep = {c for c in cur if self.arrows[c] & cur}
            if keep == cur:
                return frozenset(cur)
            cur = keep

    def attractors(self) -> set:
        out = set()
        for chosen in self._closed_families(downward=True):
            closure = frozenset().union(*(self.reach[next(iter(c))] for c in chosen))
            out.add(self.walk_core(closure))
        return out

    def repellers(self) -> set:
        out = set()
        for chosen in self._closed_families(downward=False):
            cells = frozenset().union(*chosen)
            out.add(frozenset(c for c in range(self.n) if self.reach[c] & cells))
        return out

    def is_attracting_block(self, cells: frozenset) -> bool:
        return all(self.arrows[c] <= cells for c in cells)

    def is_repelling_block(self, cells: frozenset) -> bool:
        return all(c in cells for c in range(self.n) if self.arrows[c] & cells)

    def forward_closure(self, cells: frozenset) -> frozenset:
        return frozenset().union(frozenset(), *(self.reach[c] for c in cells))


def sample_arrows_check(f, lo, hi, cells, samples, padding, arrows) -> None:
    """The program's arrows must cover every sampled image and stay within the padded hull."""
    w = (hi - lo) / cells
    for c in range(cells):
        a, b = lo + c * w, lo + (c + 1) * w
        vals = [f(a + (b - a) * k / (samples - 1)) for k in range(samples)]
        mn, mx = min(vals), max(vals)
        tgt = set(arrows[c])
        for v in vals:
            hit = {i for i in range(cells) if lo + i * w <= v <= lo + (i + 1) * w}
            expect(hit <= tgt, f"cell {c}: image {v} lands in cells {sorted(hit - tgt)} missing from its arrows")
        tol = 1e-9 * (hi - lo)
        for i in tgt:
            ia, ib = lo + i * w, lo + (i + 1) * w
            expect(ib >= mn - padding - tol and ia <= mx + padding + tol, f"cell {c}: arrow to {i} is outside the padded hull")


def check_grid_analyze(cm: CellArrows, out: dict) -> None:
    att = cm.attractors()
    expect(out["universe"] == list(range(cm.n)), "universe is not the cell list")
    expect(fs_list(out["elements"]) == att, "attractors differ from the SCC-condensation oracle")
    expect(len(out["elements"]) == len(att), "duplicate attractors")
    expect(fs_list([a["cells"] for a in out["attractors"]]) == att, "attractor listing differs from elements")


# -- posets and birkhoff ------------------------------------------------------------


class FinitePoset:
    """A poset from cover pairs; ``below[p]`` is the principal down-set of p."""

    def __init__(self, elements, covers):
        self.elements = list(elements)
        below = {p: {p} for p in self.elements}
        changed = True
        while changed:
            changed = False
            for a, b in covers:
                if not below[a] <= below[b]:
                    below[b] |= below[a]
                    changed = True
        self.below = {p: frozenset(s) for p, s in below.items()}
        # a linear extension: sort by size of the principal down-set
        self.linear = sorted(self.elements, key=lambda p: len(self.below[p]))

    def down_sets(self) -> list:
        out = []

        def rec(i, chosen):
            if i == len(self.linear):
                out.append(frozenset(chosen))
                return
            p = self.linear[i]
            rec(i + 1, chosen)
            if self.below[p] - {p} <= chosen:
                chosen.add(p)
                rec(i + 1, chosen)
                chosen.discard(p)

        rec(0, set())
        return out

    def minimal(self, cells) -> list:
        return [p for p in cells if not (self.below[p] - {p}) & cells]


def check_birkhoff(poset: FinitePoset, out: dict) -> None:
    downs = poset.down_sets()
    expect(len(out["elements"]) == len(downs), f"{len(out['elements'])} elements, expected {len(downs)} down-sets")
    expect(fs_list(out["elements"]) == set(downs), "elements are not the down-sets")
    principal = {poset.below[p] for p in poset.elements}
    expect(fs_list(out["booleanization_ground"]) == principal, "Booleanization ground is not the principal down-sets")
    expect(fs_list(out["join_irreducibles"]) == principal, "join-irreducibles are not the principal down-sets")
    elems = [frozenset(e) for e in out["elements"]]
    for i, j in out["hasse"]:
        expect(elems[i] < elems[j] and len(elems[j] - elems[i]) == 1, f"Hasse pair {i},{j} does not add one element")
    pairs = sum(len(poset.minimal(frozenset(poset.elements) - d)) for d in downs)
    expect(len(out["hasse"]) == pairs, f"{len(out['hasse'])} Hasse pairs, expected {pairs}")
    expect(out["round_trip_ok"] is True, "round_trip_ok is not true")


# -- lift certificates --------------------------------------------------------------


def check_certificate(cert: dict, h, member, ambient: frozenset, sublattice: set) -> None:
    """Re-check a certificate from its JSON: k is a lattice embedding with h o k = s."""
    labels = [frozenset(p) for p in cert["poset"]["elements"]]
    covers = [(frozenset(a), frozenset(b)) for a, b in cert["poset"]["covers"]]
    poset = FinitePoset(labels, covers)
    table = {}
    for row in cert["assignment"]:
        table[frozenset(frozenset(p) for p in row["downset"])] = frozenset(row["neighborhood"])
    downs = poset.down_sets()
    expect(set(table) == set(downs), "assignment is not indexed by the down-sets of the poset")
    expect(table[frozenset()] == frozenset(), "k(0) is not empty")
    expect(len(set(table.values())) == len(table), "k is not injective")
    images = set()
    for d in downs:
        k = table[d]
        s = frozenset().union(frozenset(), *d)
        images.add(s)
        expect(member(k), f"k({sorted(map(sorted, d))}) is not a block/neighbourhood")
        expect(h(k) == s, f"h(k(alpha)) != union of alpha at {sorted(map(sorted, d))}")
    for a in downs:
        for b in downs:
            expect(table[a | b] == table[a] | table[b], "k does not preserve unions")
            expect(table[a & b] == table[a] & table[b], "k does not preserve intersections")
    expect(images == sublattice, "the embedding does not cover the requested sublattice")
    if cert["top_preserved"]:
        expect(table[frozenset(labels)] == ambient, "top_preserved but k(1) is not the whole space")


def lift_exists(labels, below, s, blocks, h, cap, ambient=None) -> bool:
    """Brute-force search for an injective lattice hom k : O(P) -> blocks with h o k = s.

    ``below[p]`` is the principal down-set of p, ``s`` maps a down-set
    (frozenset of labels) to its target, ``blocks`` is the lattice K.  When
    ``ambient`` is given, k(P) must be the whole space.  With ``cap`` None
    the search is over every such k.  The lifting induction only ever adds
    to k(down p) cells of the block its section picks for s(down p), shrunk;
    ``cap(p)`` is that block, and a capped search keeps k(down p) inside
    k(down p minus p) united with it, so it finds what the engine can find.
    """
    order = sorted(labels, key=lambda p: len(below[p]))
    poset = FinitePoset(order, [(q, p) for p in order for q in below[p] if q != p])
    downs = poset.down_sets()
    cands = {p: [w for w in blocks if h(w) == s(below[p])] for p in order}
    caps = {p: cap(p) if cap is not None else None for p in order}
    chosen = {}

    def value(d):
        return frozenset().union(frozenset(), *(chosen[p] for p in d))

    def rec(i):
        if i == len(order):
            return all(h(value(d)) == s(d) for d in downs) and (
                ambient is None or value(frozenset(order)) == ambient
            )
        p = order[i]
        for w in cands[p]:
            chosen[p] = w
            strict = below[p] - {p}
            if w != value(strict) and (caps[p] is None or w <= value(strict) | caps[p]) and all(
                w & chosen[q] == value(below[p] & below[q]) for q in order[:i]
            ) and rec(i + 1):
                return True
            del chosen[p]
        return False

    return rec(0)
