import pytest

from morselat import CellGrid, CellMap, Poset, ds1, ds2, ds3, ingest_interval_map
from morselat.order import all_posets


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
