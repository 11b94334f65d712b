"""``verify.map_classes`` against the labelled maps it stands for.

The generator builds rooted trees from level sequences and cycles of trees as
necklaces; the reference here is independent of both: a map's canonical form
is the sorted list of its components, each the least rotation of its cycle
of rooted-tree codes (a tree's code is its children's codes, sorted, in
parentheses).  Two maps are isomorphic exactly when their forms are equal.
"""

import pytest

from morselat import FiniteDynSys, TooLarge, verify
from morselat.verify import CHECKS, all_systems, map_classes, run_verification

# OEIS A001372: maps on n states up to isomorphism, n = 1..8
A001372 = [1, 3, 7, 19, 47, 130, 343, 951]


def canonical_form(nxt):
    """The isomorphism-invariant form of the map i -> nxt[i] on range(len(nxt))."""
    n = len(nxt)
    # n steps land every state on its cycle, and every cyclic state is n steps
    # on from the state n steps behind it on the cycle
    cycles = set()
    for i in range(n):
        for _ in range(n):
            i = nxt[i]
        cycles.add(i)
    children = [[] for _ in range(n)]
    for i in range(n):
        if i not in cycles:
            children[nxt[i]].append(i)

    def tree(v):
        return "(" + "".join(sorted(tree(c) for c in children[v])) + ")"

    components = []
    seen = set()
    for v in sorted(cycles):
        if v in seen:
            continue
        cycle = [v]
        while nxt[cycle[-1]] != v:
            cycle.append(nxt[cycle[-1]])
        seen.update(cycle)
        codes = [tree(u) for u in cycle]
        components.append(min(tuple(codes[k:] + codes[:k]) for k in range(len(codes))))
    return tuple(sorted(components))


def as_list(sys):
    return [sys.next[s] for s in sys.states]


@pytest.mark.parametrize("n, count", list(enumerate(A001372, start=1)))
def test_class_counts_are_a001372(n, count):
    reps = list(map_classes(n))
    assert len(reps) == count
    assert all(sys.states == tuple(range(n)) for sys in reps)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_each_labelled_map_has_exactly_one_representative(n):
    reps = [canonical_form(as_list(sys)) for sys in map_classes(n)]
    assert len(set(reps)) == len(reps), "two representatives are isomorphic"
    labelled = {canonical_form(as_list(sys)) for sys in all_systems(n)}
    assert labelled == set(reps)


def test_canonical_form_tells_maps_apart():
    # the reference itself: a relabelling keeps the form, a different map changes it
    assert canonical_form([1, 2, 0, 0]) == canonical_form([3, 3, 1, 2])
    assert canonical_form([1, 0, 0, 0]) != canonical_form([1, 0, 0, 1])
    assert canonical_form([0, 0, 1, 1]) != canonical_form([0, 0, 0, 1])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classes_and_labelled_maps_give_the_same_verdicts(n):
    labelled = run_verification(all_systems(n))
    classes = run_verification(map_classes(n))
    assert [(r.tag, r.passed) for r in labelled] == [(r.tag, r.passed) for r in classes]
    assert [r.systems for r in labelled] == [n ** n] * len(CHECKS)
    assert [r.systems for r in classes] == [A001372[n - 1]] * len(CHECKS)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_label_free_fault_fails_on_both_routes(monkeypatch, n):
    # a fault that depends on the map's shape only: P2.5 fails on every map
    # with two or more cycles
    def faulty(sd):
        return ("two cycles", len(sd.cycles)) if len(sd.cycles) >= 2 else verify.check_p2_5(sd)

    monkeypatch.setattr(verify, "CHECKS", [(t, faulty if t == "P2.5" else fn) for t, fn in CHECKS])
    labelled = run_verification(all_systems(n))
    classes = run_verification(map_classes(n))
    assert [r.tag for r in labelled if not r.passed] == ["P2.5"]
    assert [r.tag for r in classes if not r.passed] == ["P2.5"]
    (found_labelled,) = [r.counterexample for r in labelled if not r.passed]
    (found_class,) = [r.counterexample for r in classes if not r.passed]
    failing = {canonical_form(as_list(sys)) for sys in all_systems(n) if len(sys.cycles()) >= 2}
    forms = []
    for table, witness in (found_labelled, found_class):
        forms.append(canonical_form([table[s] for s in range(n)]))
        assert forms[-1] in failing
        assert witness == ("two cycles", len(FiniteDynSys(range(n), table).cycles()))
    if n == 2:
        # the maps with two cycles on two states are one class, the identity
        assert forms[0] == forms[1]


def test_bound_before_any_table(monkeypatch):
    # the state bound fires on the first system, so no table of trees or
    # components is built for a size the bound refuses
    monkeypatch.setenv("MORSELAT_MAX_ENUM", "2")
    with pytest.raises(TooLarge, match="1000000 states"):
        next(map_classes(10**6))
