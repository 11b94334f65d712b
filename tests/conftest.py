import pytest
from hypothesis import strategies as st

from morselat import (
    CellGrid,
    CellMap,
    NotJoinIrreducible,
    Poset,
    ds1,
    ds2,
    ds3,
    ingest_interval_map,
    join_irreducibles,
    predecessor,
)
from morselat.dynsys import _reach
from morselat.formats import InputError
from morselat.lattice import HomReport, label_masks
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
