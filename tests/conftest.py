from itertools import product
from operator import and_, or_
from typing import Mapping

import pytest
from hypothesis import strategies as st

from morselat import (
    CellGrid,
    CellMap,
    NotJoinIrreducible,
    Poset,
    SetLattice,
    ds1,
    ds2,
    ds3,
    ingest_interval_map,
    join_irreducibles,
    predecessor,
)
from morselat.dynsys import _reach
from morselat.formats import InputError
from morselat.lattice import HomReport, _broken_law, label_masks
from morselat.lifting import ConditionReport, FalsifierResult, _bits
from morselat.order import all_posets, members

# small single-valued maps (targets of states 0..n-1) and cell maps (arrows of cells 0..n-1)
small_maps = st.integers(1, 9).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
small_cell_maps = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=3), min_size=n, max_size=n)
)


@pytest.fixture
def p3():
    """Three elements with 1 below 2 and 3: the join-irreducible poset of the
    five-element attractor lattice used throughout."""
    return Poset.from_covers(["1", "2", "3"], [("1", "2"), ("1", "3")])


@pytest.fixture
def sys1():
    return ds1()


@pytest.fixture
def sys2():
    return ds2()


@pytest.fixture
def sys3():
    return ds3()


@pytest.fixture(scope="session")
def g1():
    """The cubic interval map fixture at 16 cells."""
    return ingest_interval_map("(x + x^3)/2", CellGrid(-1.0, 1.0, 16))


@pytest.fixture(scope="session")
def g2():
    """The piecewise logistic-style fixture."""
    return ingest_interval_map(
        "piecewise(x<=0: 0, (5/2)*x*(1-x))", CellGrid(-1.0, 1.0, 16)
    )


@pytest.fixture
def tripod():
    """A four-cell multivalued map realizing the branched-graph attractor
    lattice (a sink fed through a common stem from two sources); the one
    fixture on which the attractor-side epimorphism is genuinely not
    spacious."""
    grid = CellGrid(0.0, 4.0, 4)
    return CellMap(
        grid,
        (frozenset({0}), frozenset({0}), frozenset({1, 2}), frozenset({1, 3})),
    )


def forward_closure(cells, cmap):
    """The cells reached from the set by walks of the cell map: an attracting block, on labels."""
    return members(range(cmap.n), _reach(cmap._img, label_masks(range(cmap.n), [cells])[0]))


def _lex_key(mask: int, n: int) -> tuple:
    """The ascending bit list of a mask over n bits: the reference for order.canonical_order within a size."""
    return tuple(i for i in range(n) if mask >> i & 1)


def all_labeled_posets(n):
    """All labeled posets on range(n)."""
    return all_posets(range(n))


def random_poset(rng, n):
    """A random poset: transitive closure of a random DAG on a shuffled order."""
    order = list(range(n))
    rng.shuffle(order)
    below = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                below[order[b]] |= 1 << order[a]
    # transitive closure
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = below[i]
            rest = acc
            while rest:
                j = (rest & -rest).bit_length() - 1
                acc |= below[j]
                rest &= rest - 1
            if acc != below[i]:
                below[i] = acc
                changed = True
    return Poset(tuple(range(n)), below)


def lower_covers(lat, c):
    """Indices, ascending, of the elements that c covers, by the cubic scan: the maximal ones strictly below c."""
    es = lat.elements
    below = [i for i, a in enumerate(es) if a < c]
    return [i for i in below if not any(es[i] < es[k] for k in below)]


def check_cover_queries(lat):
    """covers(), the carrier order of J(L) and predecessor() agree with the cubic lower_covers."""
    es = lat.elements
    lower = [lower_covers(lat, c) for c in es]
    assert lat.covers() == [(i, j) for j in range(len(es)) for i in lower[j]]
    assert join_irreducibles(lat).carrier == tuple(c for c, low in zip(es, lower) if len(low) == 1)
    for c, low in zip(es, lower):
        if len(low) == 1:
            assert predecessor(lat, c) == es[low[0]]
        else:
            with pytest.raises(NotJoinIrreducible):
                predecessor(lat, c)


def cubic_poset_covers(poset):
    """Cover pairs (p, q) of a poset by the cubic scan: p < q with nothing strictly between, by q then p."""
    n = len(poset.carrier)
    lt = lambda i, j: i != j and poset.below[j] >> i & 1
    return [
        (poset.carrier[i], poset.carrier[j])
        for j in range(n)
        for i in range(n)
        if lt(i, j) and not any(lt(i, k) and lt(k, j) for k in range(n))
    ]


def meet_lower_covers(lat, c):
    """Indices of the elements c covers, by the cubic scan under the meet-defined order a ^ b == a."""
    es = lat.elements
    leq = lambda a, b: lat.meet(a, b) == a
    below = [i for i, a in enumerate(es) if a != c and leq(a, c)]
    return [i for i in below if not any(k != i and leq(es[i], es[k]) for k in below)]


def check_order_is_inclusion(lat):
    """The meet-defined order is inclusion on lat, and covers() and J(L) match the meet oracle."""
    es = lat.elements
    for a in es:
        for b in es:
            assert (lat.meet(a, b) == a) == (a <= b) == lat.leq(a, b), (a, b)
    lower = [meet_lower_covers(lat, c) for c in es]
    assert lat.covers() == [(i, j) for j in range(len(es)) for i in lower[j]]
    jl = join_irreducibles(lat)
    assert tuple(jl.carrier) == tuple(c for c, low in zip(es, lower) if len(low) == 1)
    for a in jl.carrier:
        for b in jl.carrier:
            assert jl.leq(a, b) == (lat.meet(a, b) == a)


def pruned_inv(img1, m):
    """Inv(m) by pruning: drop the states whose image leaves or that have no preimage inside, until none is dropped."""
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


def pruned_inv_plus(img1, m):
    """Inv+(m) by pruning: drop the states whose image leaves, until none is dropped."""
    cur = m
    while True:
        keep = 0
        rest = cur
        while rest:
            i = (rest & -rest).bit_length() - 1
            if img1[i] & cur:
                keep |= 1 << i
            rest &= rest - 1
        if keep == cur:
            return cur
        cur = keep


def commuting_square_oracle(sys):
    """Diagram (1) by the exhaustive walk over every attracting neighborhood, laws on the Att SetLattice.

    Every ordered pair law is checked before (A*)* = A on any element.
    """
    att = sys.att_lattice()
    star = {x: sys.dual_repeller(x) for x in att.elements}
    star_mask = {sys.mask(x): sys.mask(sx) for x, sx in star.items()}
    full = sys._full
    for m in sys._attracting_masks():
        om = sys._omega_mask(m)
        if pruned_inv(sys._img1, m) != om:
            return HomReport(False, "Inv(U) != omega(U) on an attracting neighborhood", sys.unmask(m))
        mc = full & ~m
        al = sys._alpha_mask(mc)
        if al & ~mc:
            return HomReport(False, "U attracting but U^c not repelling", sys.unmask(m))
        if pruned_inv_plus(sys._img1, mc) != al:
            return HomReport(False, "Inv+(U^c) != alpha(U^c)", sys.unmask(m))
        if star_mask.get(om) != al:
            return HomReport(False, "omega(U)* != alpha(U^c)", sys.unmask(m))
    for x in att.elements:
        for y in att.elements:
            if star[att.join(x, y)] != star[x] & star[y]:
                return HomReport(False, "(A v A')* != A* ^ A'*", (x, y))
            if star[att.meet(x, y)] != star[x] | star[y]:
                return HomReport(False, "(A ^ A')* != A* v A'*", (x, y))
    for x in att.elements:
        if sys.dual_attractor(star[x]) != x:
            return HomReport(False, "(A*)* != A", x)
    return HomReport(True)


def closure_failure_oracle(universe, family, meet):
    """The pair-closure check on frozensets of labels, the reference for the mask validators of ``lattice``.

    (message, (a, b)) for the first a, b, b not before a in ``family``, whose
    union or ``meet`` leaves it, each set named by its members in universe
    order; None when the family is closed.
    """
    members = set(family)
    for i, a in enumerate(family):
        for b in family[i:]:
            for law, op, c in (("join", "v", a | b), ("meet", "^", meet(a, b))):
                if c not in members:
                    a_s, b_s, c_s = ([u for u in universe if u in e] for e in (a, b, c))
                    return f"family is not {law}-closed: {a_s} {op} {b_s} = {c_s} missing", (a, b)
    return None


def broken_law_oracle(elements, k, join, meet, source_meet):
    """lattice._broken_law by the ordered scan over all pairs (a, b), with a missing image a broken law."""
    for a in elements:
        for b in elements:
            if k.get(a | b) != join(k[a], k[b]):
                return "joins", (a, b)
            if k.get(source_meet(a, b)) != meet(k[a], k[b]):
                return "meets", (a, b)
    return None


def parse_dot(text: str):
    """Minimal DOT reader: returns (node ids, edge pairs)."""
    nodes = set()
    edges = set()
    body = text.strip()
    if not body.startswith("digraph") or not body.endswith("}"):
        raise InputError("not a digraph")
    for line in body.splitlines()[1:-1]:
        line = line.strip().rstrip(";")
        if not line or line.startswith("rankdir"):
            continue
        if "->" in line:
            a, b = [part.strip() for part in line.split("->")]
            edges.add((a, b))
            nodes.update((a, b))
        else:
            nodes.add(line.split(" ")[0])
    return nodes, edges


# the three down-set witness loops that Poset._escape replaced, kept as its oracle


def is_down_mask_oracle(poset, mask):
    rest = mask
    while rest:
        i = (rest & -rest).bit_length() - 1
        if poset.below[i] & ~mask:
            return False
        rest &= rest - 1
    return True


def not_a_down_set_witness_oracle(poset, mask):
    """The missing element NotADownSet names for mask, or None for a down-set."""
    rest = mask
    while rest:
        i = (rest & -rest).bit_length() - 1
        missing = poset.below[i] & ~mask
        if missing:
            k = (missing & -missing).bit_length() - 1
            return poset.carrier[k]
        rest &= rest - 1
    return None


def not_transitive_triple_oracle(carrier, below):
    """The (p, q, r) NotTransitive names for a reflexive, antisymmetric relation, or None."""
    for i in range(len(carrier)):
        m = below[i]
        rest = m
        while rest:
            j = (rest & -rest).bit_length() - 1
            if below[j] & ~m:
                k = ((below[j] & ~m) & -(below[j] & ~m)).bit_length() - 1
                return carrier[k], carrier[j], carrier[i]
            rest &= rest - 1
    return None


# the spaciousness checks on label sets, the reference for their mask search in ``lifting``


def condition_i_oracle(
    k_lattice: SetLattice,
    l_lattice: SetLattice,
    h: Mapping[frozenset, frozenset],
    bound: int = 10000,
) -> ConditionReport:
    """lifting.check_condition_i on the frozenset lattices, as it was before the search moved to masks.

    h^-1(0) = {0} is sufficient (Prop 5.9).  Otherwise search partial lifts
    on minimal singletons: a violation is a pair of disjoint nonzero L
    elements (s of the singleton, s of alpha) and a preimage u of the first
    meeting every preimage of the second.
    """
    fibers = _fibers_oracle(k_lattice, h)
    zero_fiber = fibers.get(l_lattice.bottom, [])
    if zero_fiber == [k_lattice.bottom]:
        return ConditionReport(True, "h^-1(0) = 0 (Prop 5.9)")
    work = 0
    for l1 in l_lattice.elements:
        if l1 == l_lattice.bottom:
            continue
        for l2 in l_lattice.elements:
            if l2 == l_lattice.bottom or l2 == l1:
                continue
            if l_lattice.meet(l1, l2) != l_lattice.bottom:
                continue
            # (l1, l2) is realizable as (s({q}), s(alpha)) by a two-antichain
            # embedding when l1 v l2 = 1, otherwise by a V-shaped poset
            for u in fibers.get(l1, []):
                work += 1
                if work > bound:
                    return ConditionReport(False, f"no violation within bound {bound}", inconclusive=True)
                if all(u & v != k_lattice.bottom for v in fibers.get(l2, [])):
                    return ConditionReport(False, "singleton partial-lift search", (l1, l2, u))
    return ConditionReport(True, "exhaustive singleton search")


def _fibers_oracle(k_lattice: SetLattice, h: Mapping[frozenset, frozenset]) -> dict[frozenset, list[frozenset]]:
    """h^-1(l) for every l in the image of h, each in K's element order."""
    fibers: dict[frozenset, list[frozenset]] = {}
    for u in k_lattice.elements:
        fibers.setdefault(frozenset(h[u]), []).append(u)
    return fibers


def falsifier_oracle(
    k_lattice: SetLattice,
    l_lattice: SetLattice,
    h: Mapping[frozenset, frozenset],
    poset_bound: int = 3,
    budget: int = 2_000_000,
) -> FalsifierResult:
    """lifting.spaciousness_falsifier on the frozenset lattices, as it was before the search moved to masks.

    Fast path: when every L element is its own h-section inside K, h is
    contractive, and the L meet is plain intersection, the self-conditioner
    family v_xi = s(xi) satisfies Eq (20) for every embedding and partial
    lift (v_mu ^ v_alpha = s(mu ^ alpha) <= s(lambda) <= k(lambda)), so no
    witness can exist.  Otherwise embeddings from all posets up to
    ``poset_bound`` elements, partial lifts, and conditioner families are
    enumerated within ``budget``.
    """
    fibers = _fibers_oracle(k_lattice, h)
    structural = (
        all(l in k_lattice._eset and frozenset(h[l]) == l for l in l_lattice.elements)
        and all(frozenset(h[u]) <= u for u in k_lattice.elements)
        and all(
            l_lattice.meet(a, b) == a & b
            for a in l_lattice.elements
            for b in l_lattice.elements
        )
    )
    if structural:
        return FalsifierResult("no_counterexample", "self-section certificate")

    work = 0
    checked = 0
    for size in range(1, poset_bound + 1):
        labels = tuple(f"p{i}" for i in range(size))
        full = (1 << size) - 1
        for poset in all_posets(labels):
            downs = poset.down_masks()
            for s in _embeddings_oracle(poset, downs, l_lattice):
                for lam in downs:
                    if lam == full:
                        continue
                    rest = full ^ lam
                    for q in range(size):
                        if poset.below[q] & rest != 1 << q:
                            continue
                        outcome, work = _check_site_oracle(poset, downs, s, lam, q, fibers, work, budget)
                        checked += 1
                        if outcome is not None:
                            if outcome == "budget":
                                return FalsifierResult("bound_exceeded", "enumeration", None, checked)
                            return FalsifierResult("witness", "enumeration", outcome, checked)
    return FalsifierResult("no_counterexample", "enumeration", None, checked)


def _embeddings_oracle(poset: Poset, downs: list[int], l_lattice: SetLattice):
    """All lattice embeddings O(P) -> L, generated from irreducible images, keyed by down-set mask."""
    n = len(poset)
    full = (1 << n) - 1

    def build(assign):
        s = {}
        for d in downs:
            val = l_lattice.bottom
            for p in _bits(d):
                val = l_lattice.join(val, assign[p])
            s[d] = val
        return s

    def rec(i, assign):
        if i == n:
            s = build(assign)
            if len(set(s.values())) != len(downs):
                return
            if s[full] != l_lattice.top or _broken_law(downs, s, l_lattice.join, l_lattice.meet, and_):
                return
            yield dict(s)
            return
        for val in l_lattice.elements:
            if val == l_lattice.bottom:
                continue
            if all(l_lattice.leq(assign[j], val) for j in _bits(poset.below[i]) if j < i):
                assign[i] = val
                yield from rec(i + 1, assign)
                del assign[i]

    yield from rec(0, {})


def _check_site_oracle(poset, downs, s, lam, q, fibers, work, budget):
    """Does some partial lift at (s, lam, q) admit no conditioner family?  Masks and carrier indices throughout."""
    lam_irr = _bits(lam)
    choice_lists = [fibers.get(s[poset.below[p]], []) for p in lam_irr]
    if any(not c for c in choice_lists):
        return None, work  # s(down p) has no section at all: not a partial lift site
    mu_fiber = fibers.get(s[poset.below[q]], [])
    alphas = [a for a in downs if not a >> q & 1]

    lam_downs = [d for d in downs if not d & ~lam]
    for choice in product(*choice_lists):
        assign = dict(zip(lam_irr, choice))
        table = {}
        for d in lam_downs:
            val = frozenset()
            for p in _bits(d):
                val |= assign[p]
            table[d] = val
        # joins of sections automatically satisfy h o k = s and stay in K,
        # but the meet law is a genuine partial-lift filter
        if _broken_law(lam_downs, table, or_, and_, and_):
            continue
        k_lam = table[lam]
        family_exists = False
        for v_mu in mu_fiber:
            work += 1
            if work > budget:
                return "budget", work
            ok = True
            for alpha in alphas:
                if not any((v_mu & v) <= k_lam for v in fibers.get(s[alpha], [])):
                    ok = False
                    break
            if ok:
                family_exists = True
                break
        if not family_exists:
            return (s, lam, q, assign), work
    return None, work
