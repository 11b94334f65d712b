"""Acceptance criteria, one test per criterion, each printing one line.

Criteria 1 through 5 and the corpus half of 8 pass.  Three G1 assertions
(the 5-element lattice count, the --direct obstruction, and the falsifier
witness) encode the originally targeted values and fail honestly: the
exhaustive combinatorial attractor lattice of the cubic fixture at 16 cells
has 17 elements because the cells adjacent to the slow fixed points carry
genuine self-arrows, and the same geometry makes the minimal blocks realizing
the one-sided attractors intersect exactly in the central block, so no
obstruction or spaciousness witness exists on this fixture.  The branched
(tripod) mechanism those criteria aim at is exercised in test_lifting and
test_formats_cli instead.  Full analysis in the project notes.
"""

import random
import time

import pytest

from morselat import (
    BooleanExtension,
    CellGrid,
    LatticeHom,
    SetLattice,
    attractor_lift,
    birkhoff_down,
    birkhoff_join,
    ds1,
    ingest_interval_map,
    join_irreducibles,
    lift,
    repeller_lift,
    spaciousness_falsifier,
)
from morselat.grid import (
    comb_att_lattice,
    comb_inv,
    comb_rep_lattice,
    grid_attractor_lift,
    grid_lift_problem,
)
from morselat.lattice import sublattices
from morselat.lifting import ObstructionFound
from morselat.verify import all_systems, random_systems, run_verification
from conftest import all_labeled_posets, random_poset

SEED = 20260808


def report(num: int, name: str, ok: bool, detail: str, t0: float) -> str:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail}, {time.time() - t0:.1f}s)"
    print(line)
    return line


def random_set_lattice(rng):
    universe = tuple(range(rng.randint(1, 6)))
    family = {frozenset(), frozenset(universe)}
    for _ in range(rng.randint(1, 4)):
        family.add(frozenset(x for x in universe if rng.random() < 0.5))
    changed = True
    while changed:
        changed = False
        for a in list(family):
            for b in list(family):
                for c in (a | b, a & b):
                    if c not in family:
                        family.add(c)
                        changed = True
    return SetLattice.of_sets(universe, family)


def birkhoff_round_trip(lat):
    jl = join_irreducibles(lat)
    images = set()
    for a in lat.elements:
        d = birkhoff_down(lat, a, jl)
        assert birkhoff_join(lat, d) == a
        images.add(d)
    assert len(images) == len(lat.elements)
    # the image family is exactly O(J(L)): set equality after relabeling
    expected = set(jl.all_down_sets())
    assert images == expected


def test_criterion_1_birkhoff_suite():
    t0 = time.time()
    checked = 0
    for n in range(1, 6):
        for p in all_labeled_posets(n):
            lat = SetLattice.from_poset(p)
            jl = join_irreducibles(lat)
            downs = {q: p.down_set(q) for q in p.carrier}
            assert set(downs.values()) == set(jl.carrier)
            for a in p.carrier:
                for b in p.carrier:
                    assert p.leq(a, b) == jl.leq(downs[a], downs[b])
            birkhoff_round_trip(lat)
            checked += 1
    rng = random.Random(SEED)
    for _ in range(200):
        p = random_poset(rng, rng.randint(1, 8))
        birkhoff_round_trip(SetLattice.from_poset(p))
        birkhoff_round_trip(random_set_lattice(rng))
        checked += 1
    elapsed = time.time() - t0
    report(1, "Birkhoff suite", True, f"{checked} lattices round-tripped", t0)
    assert elapsed < 10.0


def _random_order_map(rng, source, target):
    out = {}
    for p in source.carrier:
        choices = [
            t
            for t in target.carrier
            if all(target.leq(out[q], t) for q in out if source.leq(q, p))
            and all(target.leq(t, out[q]) for q in out if source.leq(p, q))
        ]
        if not choices:
            return None
        out[p] = rng.choice(choices)
    return out


def test_criterion_2_booleanization_suite():
    t0 = time.time()
    rng = random.Random(SEED + 1)
    done = 0
    while done < 200:
        p = random_poset(rng, rng.randint(1, 5))
        q = random_poset(rng, rng.randint(1, 5))
        point_map = _random_order_map(rng, q, p)
        if point_map is None:
            continue
        src = SetLattice.from_poset(p)
        dst = SetLattice.from_poset(q)
        table = {
            a: frozenset(x for x in q.carrier if point_map[x] in a) for a in src.elements
        }
        hom = LatticeHom(src, dst, table)
        # construction validates Eq (3) on O(P) and the Eq (4) disjointness
        ext = BooleanExtension(p, hom)
        # Eq (3) verbatim on all of 2^P, and agreement with j o f on O(P)
        rep = ext.target_rep
        n = len(p.carrier)
        for mask in range(1 << n):
            subset = frozenset(p.carrier[i] for i in range(n) if mask >> i & 1)
            union = frozenset()
            for x in subset:
                union |= ext.atom(x)
            assert ext(subset) == union
        for d in p.all_down_sets():
            assert ext(d) == rep.j[hom(d)]
        done += 1
    elapsed = time.time() - t0
    report(2, "Booleanization suite", True, f"{done} random homs", t0)
    assert elapsed < 10.0


@pytest.fixture(scope="module")
def corpus():
    return list(all_systems(4)) + list(random_systems(500, 10, seed=SEED))


def test_criterion_3_exact_dynamics_suite(corpus):
    t0 = time.time()
    results = run_verification(corpus)
    elapsed = time.time() - t0
    failed = [r for r in results if not r.passed]
    report(
        3,
        "Exact-dynamics suite",
        not failed,
        f"{len(corpus)} systems x {len(results)} tags",
        t0,
    )
    assert not failed, f"failing tags: {[(r.tag, r.counterexample) for r in failed]}"
    assert elapsed < 60.0


def test_criterion_4_fixture_ledger():
    t0 = time.time()
    sys = ds1()
    S = frozenset
    assert {e for e in sys.att_lattice().elements} == {S(()), S("z"), S("b"), S("zb")}
    assert {e for e in sys.rep_lattice().elements} == {S(()), S("mz"), S("ab"), S("mzab")}
    assert sys.dual_repeller(S("z")) == S("ab")
    assert sys.dual_minus(S("ab")) == S("z")
    assert sys.alpha(S("m")) == S(())
    assert sys.preimage(S("b")) == S("ab")
    elapsed = time.time() - t0
    report(4, "Fixture ledger (DS1)", True, "6 exact values", t0)
    assert elapsed < 1.0


def test_criterion_5_lifting_suite(corpus):
    t0 = time.time()
    lifted = transported = systems = 0
    for sys in corpus:
        att = sys.att_lattice()
        if len(att) > 8:
            continue
        systems += 1
        rep = sys.rep_lattice()
        for sub in sublattices(rep):
            cert = repeller_lift(sys, sub)
            cert.verify()
            lifted += 1
        for sub in sublattices(att):
            cert = attractor_lift(sys, sub)
            cert.verify()
            transported += 1
    elapsed = time.time() - t0
    report(
        5,
        "Lifting suite (every sublattice)",
        True,
        f"{systems} systems, {lifted} repeller + {transported} attractor sublattices",
        t0,
    )
    assert elapsed < 60.0


@pytest.fixture(scope="module")
def g1_16():
    return ingest_interval_map("(x + x^3)/2", CellGrid(-1.0, 1.0, 16))


def test_criterion_6_grid_fixture_g1(g1_16):
    t0 = time.time()
    failures = []
    lat = comb_att_lattice(g1_16)
    jl = join_irreducibles(lat)
    if len(lat) != 5:
        failures.append(
            f"lattice has {len(lat)} elements, not 5 (slow cells force blocks like "
            f"{sorted(frozenset({7, 8, 9}))}; exhaustive oracle agrees)"
        )
    if len(jl) != 3:
        failures.append(f"join-irreducible poset has {len(jl)} elements, not 3")

    # repeller-side lift of the full combinatorial repeller lattice
    rep = comb_rep_lattice(g1_16)
    cert = lift(grid_lift_problem(g1_16, rep.elements))
    cert.verify()

    # the seeded --direct attractor-side route must report ObstructionFound
    a0 = frozenset({7, 8})
    fam = [
        frozenset(),
        a0,
        frozenset(range(9)),
        frozenset(range(7, 16)),
        g1_16.all_cells(),
    ]
    try:
        direct = grid_attractor_lift(g1_16, fam, direct=True, pinned={a0: a0})
        direct.verify()
        failures.append(
            "direct seeded lift succeeded: the minimal blocks realizing the one-sided "
            "attractors intersect exactly in the central block, so conditioners exist"
        )
    except ObstructionFound:
        pass
    ok = not failures
    report(6, "Grid fixture G1", ok, f"|lattice| = {len(lat)}, repeller lift verified", t0)
    assert time.time() - t0 < 30.0
    assert ok, "; ".join(failures)


def test_criterion_7_refinement_monotonicity():
    t0 = time.time()
    failures = []
    lattices = {}
    for cells in (16, 32, 64):
        cmap = ingest_interval_map("(x + x^3)/2", CellGrid(-1.0, 1.0, cells))
        if cells == 16:
            lat = comb_att_lattice(cmap)
            lattices[cells] = (cmap, len(lat), list(lat.elements))
        else:
            # exhaustive enumeration is out of range beyond 16 cells; the
            # distinguished one-sided/central family stands in
            h = cells // 2
            elems = [
                frozenset(),
                frozenset({h - 1, h}),
                comb_inv(frozenset(range(h + 1)), cmap),
                comb_inv(frozenset(range(h - 1, cells)), cmap),
                cmap.all_cells(),
            ]
            lattices[cells] = (cmap, None, elems)
    if lattices[16][1] != 5:
        failures.append(f"16-cell lattice has {lattices[16][1]} elements, not 5")
    # support containment along refinement for the distinguished family
    prev_cmap = None
    prev_fam = None
    for cells in (16, 32, 64):
        cmap, _, elems = lattices[cells]
        if cells == 16:
            fam = [
                frozenset(),
                frozenset({7, 8}),
                frozenset(range(9)),
                frozenset(range(7, 16)),
                cmap.all_cells(),
            ]
        else:
            fam = elems
        for e in fam:
            assert comb_inv(e, cmap) == e, f"{sorted(e)} not an attractor at {cells}"
        if prev_fam is not None:
            for coarse, fine in zip(prev_fam, fam):
                coarse_sup = prev_cmap.grid.support(coarse)
                for fa, fb in cmap.grid.support(fine):
                    assert any(
                        fa >= ca - 1e-9 and fb <= cb + 1e-9 for (ca, cb) in coarse_sup
                    ), f"support escapes at {cells} cells"
        prev_cmap, prev_fam = cmap, fam
    ok = not failures
    report(7, "Refinement monotonicity", ok, "supports nest 16 -> 32 -> 64", t0)
    assert time.time() - t0 < 60.0
    assert ok, "; ".join(failures)


def test_criterion_8_spaciousness_falsifier(corpus, g1_16):
    t0 = time.time()
    failures = []
    anomalies = []
    for sys in corpus:
        rnb = sys.repelling_neighborhoods()
        K = SetLattice.of_sets(sys.states, rnb, check=False)
        res = spaciousness_falsifier(K, sys.rep_lattice(), {u: sys.inv_plus(u) for u in rnb})
        if res.status != "no_counterexample":
            anomalies.append((dict(sys.next), res.status))
    if anomalies:
        failures.append(f"falsifier flagged Inv+ on {len(anomalies)} systems: {anomalies[:2]}")

    from morselat.grid import attracting_blocks

    blocks = attracting_blocks(g1_16)
    K = SetLattice.of_sets(tuple(range(16)), blocks, check=False)
    L = comb_att_lattice(g1_16)
    res = spaciousness_falsifier(
        K, L, {b: comb_inv(b, g1_16) for b in K.elements}, poset_bound=3, budget=2_000_000
    )
    if res.status != "witness":
        failures.append(
            f"no witness on the G1 attracting-block instance ({res}); every pairwise "
            "intersection of G1 attractors is again an attractor, so the instance is "
            "spacious-like and the branched mechanism cannot appear here"
        )
    ok = not failures
    report(8, "Spaciousness falsifier", ok, f"{len(corpus)} corpus systems clean", t0)
    assert time.time() - t0 < 120.0
    assert ok, "; ".join(failures)
