"""Grid-module tests.

The combinatorial fixtures are checked against tiny brute-force oracles
written independently in this file: blocks by scanning all subsets, walk
cores by explicit path search.  The cubic fixture values frozen here were
computed with exact rational arithmetic (see notes on the cell self-arrows
near the slow fixed points).
"""

import itertools
import json
import pathlib
import random
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from morselat import (
    CellGrid,
    CellMap,
    FiniteDynSys,
    ImageOutOfDomain,
    NotARepellingBlock,
    NotASublattice,
    SetLattice,
    TooLarge,
    cli,
    ingest_interval_map,
)
from morselat import grid
from morselat.grid import (
    attracting_blocks,
    block_lattices,
    comb_att_lattice,
    comb_inv,
    comb_inv_plus,
    comb_rep_lattice,
    grid_attractor_lift,
    grid_lift_problem,
    is_attracting_block,
    is_repelling_block,
    shrink_repelling_block,
)
from morselat.lifting import lift
from morselat.order import members
from morselat.verify import all_systems
from conftest import forward_closure


def fs(*items):
    return frozenset(items)


# -- independent oracles -------------------------------------------------------


def oracle_blocks(cmap):
    n = cmap.n
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        cells = {i for i in range(n) if bits[i]}
        if all(cmap.arrows[c] <= cells for c in cells):
            out.append(frozenset(cells))
    return out


def oracle_walk_core(cells, cmap, forward_only=False):
    """Cells on an infinite (bi-infinite unless forward_only) walk, by
    iterative pruning: drop cells with no successor (or no predecessor)."""
    cur = set(cells)
    while True:
        nxt = {c for c in cur if cmap.arrows[c] & cur}
        if not forward_only:
            nxt = {c for c in nxt if any(c in cmap.arrows[d] for d in nxt)}
            # re-run until both conditions stabilize together
        if nxt == cur:
            return frozenset(cur)
        cur = nxt


class TestIngest:
    def test_cubic_fixture_arrows(self, g1):
        # endpoints are sampled, the map is monotone, so arrows are exact;
        # extreme cells map within themselves plus inward neighbors
        assert sorted(g1.arrows[0]) == [0, 1]
        assert sorted(g1.arrows[15]) == [14, 15]
        # boundary-sharing at 0 with the declared padding
        assert sorted(g1.arrows[7]) == [7, 8]
        assert sorted(g1.arrows[8]) == [7, 8]
        # the slow cells next to the fixed points carry genuine self-arrows:
        # f(0.25) = 0.1328125 stays inside [0.125, 0.25]
        assert 9 in g1.arrows[9]
        assert 14 in g1.arrows[14]

    def test_piecewise_fixture_parses_and_maps(self, g2):
        # everything left of 0 maps to the cells containing 0
        assert g2.arrows[0] <= fs(7, 8)
        assert all(g2.arrows[c] for c in range(16))

    def test_identity_contains_self_arrows(self):
        grid = CellGrid(-1.0, 1.0, 8)
        cmap = ingest_interval_map("x", grid)
        for c in range(8):
            assert c in cmap.arrows[c]

    def test_image_out_of_domain(self):
        grid = CellGrid(-1.0, 1.0, 4)
        with pytest.raises(ImageOutOfDomain) as err:
            ingest_interval_map("2*x", grid)
        assert err.value.cell in (0, 3)

    def test_samples_floor(self):
        grid = CellGrid(-1.0, 1.0, 4)
        with pytest.raises(ValueError):
            ingest_interval_map("x", grid, samples_per_cell=1)

    @pytest.mark.parametrize("doc, arrows", [
        ({"type": "interval_map", "domain": [-1, 1], "cells": 16, "expr": "(x + x^3)/2"}, None),
        ({"type": "cell_map", "cells": 4, "arrows": [[0], [0], [2, 1], [3, 1]]}, [[0], [0], [1, 2], [1, 3]]),
    ], ids=["interval_map", "cell_map"])
    def test_benchmark_reads_the_program_arrows(self, doc, arrows, g1, monkeypatch):
        # the benchmark checks its grid ops against the arrows it reads off
        # CellMap.arrows, so a change to their form fails here, not mid-run
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
        from workloads import _program_arrows

        expected = arrows if arrows is not None else [sorted(a) for a in g1.arrows]
        assert _program_arrows(doc) == expected


class TestBlocks:
    def test_full_grid_is_both(self, g1):
        full = g1.all_cells()
        assert is_attracting_block(full, g1)
        assert is_repelling_block(full, g1)

    def test_central_band_attracts(self, g1):
        # cells covering [-0.25, 0.25]
        assert is_attracting_block(fs(6, 7, 8, 9), g1)

    def test_complement_law_exhaustive(self, g1):
        full = g1.all_cells()
        for n in oracle_blocks(g1):
            assert is_repelling_block(full - n, g1)
        # and on a thinned sample of non-blocks
        for m in range(0, 1 << 16, 257):
            cells = frozenset(i for i in range(16) if m >> i & 1)
            assert is_attracting_block(cells, g1) == is_repelling_block(full - cells, g1)

    def test_block_enumeration_matches_oracle(self, g1):
        assert sorted(map(sorted, attracting_blocks(g1))) == sorted(
            map(sorted, oracle_blocks(g1))
        )

    def test_enumeration_bound(self, g1, monkeypatch):
        monkeypatch.setenv("MORSELAT_MAX_ENUM", "8")
        with pytest.raises(TooLarge):
            attracting_blocks(g1)


class TestCombInv:
    def test_empty(self, g1):
        assert comb_inv(fs(), g1) == fs()

    def test_full_grid_walk_core(self, g1):
        # with self-arrows at c1, c6, c9, c14 every cell sits on a bi-infinite
        # walk, so the walk core of the full grid is everything
        assert comb_inv(g1.all_cells(), g1) == g1.all_cells()
        assert comb_inv(g1.all_cells(), g1) == oracle_walk_core(range(16), g1)

    def test_acyclic_chain_has_no_core(self):
        grid = CellGrid(0.0, 3.0, 3)
        cmap = CellMap(grid, (fs(1), fs(2), fs(2)))
        assert comb_inv(fs(0, 1, 2), cmap) == fs(2)
        nochain = CellMap(grid, (fs(1), fs(2), fs(0)))
        assert comb_inv(fs(0, 1), nochain) == fs()
        assert comb_inv_plus(fs(0, 1), nochain) == fs()

    def test_matches_oracle_on_blocks(self, g1):
        for n in oracle_blocks(g1):
            assert comb_inv(n, g1) == oracle_walk_core(n, g1)

    def test_inv_plus_semantics(self, g1):
        # the left half is not forward-closed but every cell of it can reach
        # the cycle at the left fixed point or the center
        left = fs(*range(8))
        assert comb_inv_plus(left, g1) == left
        assert comb_inv_plus(fs(2, 3), g1) == fs()

    def test_monotone_and_idempotent(self, g1):
        sets = [fs(*range(k)) for k in range(17)] + [fs(3, 4, 5), fs(7, 8, 9)]
        for a in sets:
            for b in sets:
                if a <= b:
                    assert comb_inv(a, g1) <= comb_inv(b, g1)
                    assert comb_inv_plus(a, g1) <= comb_inv_plus(b, g1)
        for a in sets:
            assert comb_inv(comb_inv(a, g1), g1) == comb_inv(a, g1)
            assert comb_inv_plus(comb_inv_plus(a, g1), g1) == comb_inv_plus(a, g1)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=1, max_size=3), min_size=n, max_size=n
    )))
    def test_every_subset_against_the_oracles(self, arrows):
        # the lift cores also run on meets and intersections that are no
        # blocks, so every cell subset is compared, not only the blocks
        n = len(arrows)
        cmap = CellMap(CellGrid(0.0, float(n), n), tuple(arrows))
        for m in range(1 << n):
            cells = members(range(n), m)
            assert comb_inv(cells, cmap) == oracle_walk_core(cells, cmap)
            assert comb_inv_plus(cells, cmap) == oracle_walk_core(cells, cmap, forward_only=True)
            assert is_attracting_block(cells, cmap) == all(arrows[c] <= cells for c in cells)
            assert is_repelling_block(cells, cmap) == all(c in cells for c in range(n) if arrows[c] & cells)


class TestLattices:
    def test_g1_att_lattice_exhaustive_count(self, g1):
        # frozen from the exact-arithmetic oracle: seventeen combinatorial
        # attractors at sixteen cells; the slow cells force blocks such as
        # {7,8,9} beyond the five one would naively expect from the three
        # fixed points (see project notes)
        lat = comb_att_lattice(g1)
        assert len(lat) == 17
        assert fs(7, 8) in lat and fs(7, 8, 9) in lat and fs(6, 7, 8) in lat

    def test_g1_distinguished_five_element_sublattice(self, g1):
        lat = comb_att_lattice(g1)
        a0, am, ap = fs(7, 8), fs(*range(9)), fs(*range(7, 16))
        full = g1.all_cells()
        fam = {fs(), a0, am, ap, full}
        assert fam <= set(lat.elements)
        assert lat.meet(am, ap) == a0
        assert lat.join(am, ap) == full

    def test_identity_map_blocks(self):
        # sampled identity arrows spill into boundary-sharing neighbors, so
        # blocks are the neighbor-closed cell sets; all of them are their own
        # walk cores
        grid = CellGrid(0.0, 4.0, 4)
        cmap = ingest_interval_map("x", grid, padding=0.0)
        att, rep = block_lattices(cmap)
        assert fs() in att and cmap.all_cells() in att
        for n in att.elements:
            assert comb_inv(n, cmap) == n

    def test_g2_contains_attractor_over_zero(self, g2):
        lat = comb_att_lattice(g2)
        assert any(7 in e or 8 in e for e in lat.elements if e)

    def test_rep_lattice_dual(self, g1):
        rep = comb_rep_lattice(g1)
        att = comb_att_lattice(g1)
        assert len(rep) == len(att)


def small_fixtures():
    """Every cell-map fixture of at most 16 cells, besides g1, g2 and the tripod."""
    out = [
        ingest_interval_map(expression, CellGrid(-1.0, 1.0, cells))
        for expression, cells in [
            ("(x + x^3)/2", 12),
            ("(x + x^3)/2", 14),
            ("piecewise(x<=0: 0, (5/2)*x*(1-x))", 12),
            ("0.4*x + 0.6*x^3", 12),
        ]
    ]
    out.append(ingest_interval_map("x", CellGrid(0.0, 4.0, 4), padding=0.0))
    grid = CellGrid(0.0, 3.0, 3)
    for arrows in [(fs(1), fs(2), fs(2)), (fs(1), fs(2), fs(0)), (fs(1, 2), fs(1), fs(2))]:
        out.append(CellMap(grid, arrows))
    return out


def check_morse_route(cmap):
    """Att and Rep from the Morse poset against the exhaustive block lattices,
    and the comb_inv join law and meet identity over every pair of blocks."""
    att_blocks, rep_blocks = block_lattices(cmap)
    blocks = att_blocks.elements
    ci = {b: comb_inv(b, cmap) for b in blocks}
    assert set(comb_att_lattice(cmap).elements) == set(ci.values())
    assert set(comb_rep_lattice(cmap).elements) == {comb_inv_plus(w, cmap) for w in rep_blocks.elements}
    meets = {}
    for a in blocks:
        for b in blocks:
            assert ci[a | b] == ci[a] | ci[b]
            both = ci[a] & ci[b]
            if both not in meets:
                meets[both] = comb_inv(both, cmap)
            assert meets[both] == ci[a & b]


cell_maps = st.integers(1, 12).flatmap(
    lambda n: st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=1, max_size=3), min_size=n, max_size=n
    )
)


class TestMorseRoute:
    def test_fixtures(self, g1, g2, tripod):
        for cmap in [g1, g2, tripod] + small_fixtures():
            check_morse_route(cmap)

    @settings(max_examples=60, deadline=None)
    @given(cell_maps)
    def test_random_cell_maps(self, arrows):
        cmap = CellMap(CellGrid(0.0, float(len(arrows)), len(arrows)), tuple(arrows))
        # SetLattice validation is cubic in |Att| <= |blocks|; keep each example quick
        assume(len(attracting_blocks(cmap)) <= 32)
        check_morse_route(cmap)

    def test_bound_counts_morse_sets(self, g1, monkeypatch):
        # seven Morse sets on sixteen cells
        monkeypatch.setenv("MORSELAT_MAX_ENUM", "7")
        assert len(comb_att_lattice(g1)) == 17
        monkeypatch.setenv("MORSELAT_MAX_ENUM", "6")
        with pytest.raises(TooLarge):
            comb_att_lattice(g1)


def cubic_lattices(cmap):
    """Att and Rep built from the Morse attractors as bare families, under the cubic SetLattice check."""
    universe, full = tuple(range(cmap.n)), cmap.all_cells()
    att = [members(universe, m) for m in grid._morse_attractors(cmap).values()]
    return (
        SetLattice.of_sets(universe, att, partial(grid._comb_inv, cmap), check=True),
        SetLattice.of_sets(
            universe, [comb_inv_plus(full - a, cmap) for a in att], partial(grid._comb_inv_plus, cmap), check=True
        ),
    )


def check_certified_lattices(cmap):
    """The certified Att and Rep hold the oracle's elements in the oracle's order."""
    att, rep = cubic_lattices(cmap)
    assert comb_att_lattice(cmap).elements == att.elements
    assert comb_rep_lattice(cmap).elements == rep.elements


class TestCertifiedAgainstCubicCheck:
    def test_fixtures(self, g1, g2, tripod):
        g1_64 = ingest_interval_map("(x + x^3)/2", CellGrid(-1.0, 1.0, 64))
        for cmap in [g1, g1_64, g2, tripod] + small_fixtures():
            check_certified_lattices(cmap)

    @settings(max_examples=200, deadline=None)
    @given(cell_maps)
    def test_random_cell_maps(self, arrows):
        cmap = CellMap(CellGrid(0.0, float(len(arrows)), len(arrows)), tuple(arrows))
        # the oracle is cubic in |Att|; keep each example quick
        assume(len(grid._morse_attractors(cmap)) <= 16)
        check_certified_lattices(cmap)

    @pytest.mark.parametrize("corrupt", ["attractor", "core"])
    def test_corruption_exits_5(self, tmp_path, monkeypatch, capsys, corrupt):
        if corrupt == "attractor":
            real = grid._morse_attractors

            def one_cell_more(cmap):
                image = real(cmap)
                d = sorted(image)[len(image) // 2]
                free = ~image[d]
                image[d] |= free & -free
                return image

            monkeypatch.setattr(grid, "_morse_attractors", one_cell_more)
        else:
            real = grid._comb_inv
            monkeypatch.setattr(grid, "_comb_inv", lambda cmap, n: real(cmap, n) & ~(1 << cmap.n - 1))
        path = tmp_path / "g1.json"
        path.write_text(json.dumps({"type": "interval_map", "domain": [-1, 1], "cells": 16, "expr": "(x + x^3)/2"}))
        assert cli.main(["analyze", str(path)]) == 5
        out = capsys.readouterr()
        err = json.loads(out.err)
        assert out.out == "" and err["error"] == "not_a_lattice" and "law fails" in err["message"]
        assert "Traceback" not in out.err


# -- a single-valued map is a cell map with singleton arrows -------------------


def check_single_valued(system, subsets=False):
    """The grid route on a FiniteDynSys's cell map, one arrow per cell, gives the dynsys Att and Rep.

    For single arrows weak and strict invariance coincide.  With ``subsets``,
    comb_inv, comb_inv_plus and the block test also agree with Inv, Inv+ and
    the trapping-region test on every subset of the states.
    """
    n = len(system.states)
    cmap = CellMap(CellGrid(0.0, float(n), n), tuple(frozenset({system.next[s]}) for s in system.states))
    assert comb_att_lattice(cmap).elements == system.att_lattice().elements
    assert comb_rep_lattice(cmap).elements == system.rep_lattice().elements
    if subsets:
        for m in range(1 << n):
            cells = frozenset(i for i in range(n) if m >> i & 1)
            assert comb_inv(cells, cmap) == system.inv(cells)
            assert comb_inv_plus(cells, cmap) == system.inv_plus(cells)
            assert is_attracting_block(cells, cmap) == bool(system.is_trapping_region(cells))


class TestSingleValuedAgreesWithDynsys:
    def test_every_map_up_to_4_states(self):
        for n in range(1, 5):
            for system in all_systems(n):
                check_single_valued(system, subsets=True)

    def test_random_maps_of_5_to_8_states(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(5, 8)
            check_single_valued(FiniteDynSys(range(n), {s: rng.randrange(n) for s in range(n)}))


def check_sections_are_fixed(cmap):
    """Shrinking the lift's sections would change none of them, so the lift takes them as they are.

    An attractor's section is its forward closure N, and F(N) = N; a
    repeller is its own section, and r ^ F^-1(r) = r.
    """
    for a in comb_att_lattice(cmap).elements:
        n = forward_closure(a, cmap)
        assert cmap.image(n) == n
    for r in comb_rep_lattice(cmap).elements:
        assert r & cmap.preimage(r) == r


class TestNothingShrinks:
    def test_fixtures(self, g1, g2, tripod):
        for cmap in [g1, g2, tripod] + small_fixtures():
            check_sections_are_fixed(cmap)

    @settings(max_examples=60, deadline=None)
    @given(cell_maps)
    def test_random_cell_maps(self, arrows):
        cmap = CellMap(CellGrid(0.0, float(len(arrows)), len(arrows)), tuple(arrows))
        assume(len(attracting_blocks(cmap)) <= 32)
        check_sections_are_fixed(cmap)


class TestShrink:
    def test_shrink_to_fixed_point_is_walk_core(self, g1):
        full = g1.all_cells()
        assert shrink_repelling_block(full, g1) == comb_inv_plus(full, g1)

    def test_already_minimal(self, g1):
        r = comb_inv_plus(fs(*range(9, 16)), g1)
        w = shrink_repelling_block(r, g1)
        assert w == r

    def test_right_half_isolates_the_endpoint_cells(self, g1):
        right = fs(*range(9, 16))
        assert is_repelling_block(right, g1)
        w = shrink_repelling_block(right, g1)
        assert w == comb_inv_plus(right, g1)
        assert 15 in w

    def test_rejects_non_block(self, g1):
        with pytest.raises(NotARepellingBlock):
            shrink_repelling_block(fs(3), g1)

    def test_each_iterate_is_a_block(self, g1):
        w = g1.all_cells()
        for depth in range(4):
            shrunk = shrink_repelling_block(w, g1, max_depth=depth)
            assert is_repelling_block(shrunk, g1)


class TestGridLift:
    def five_family(self, g1):
        return [fs(), fs(7, 8), fs(*range(9)), fs(*range(7, 16)), g1.all_cells()]

    def test_repeller_lift_of_dual_family(self, g1):
        fam = self.five_family(g1)
        full = g1.all_cells()
        rep_images = sorted(
            {comb_inv_plus(full - e, g1) for e in fam}, key=lambda e: (len(e), sorted(e))
        )
        cert = lift(grid_lift_problem(g1, rep_images))
        cert.verify()
        assert cert.top_preserved

    def test_trivial_family(self, g1):
        cert = lift(grid_lift_problem(g1, [fs(), g1.all_cells()]))
        assert members(cert.problem.universe, cert.table[(1 << len(cert.problem.poset)) - 1]) == g1.all_cells()

    def test_full_repeller_lattice(self, g1):
        rep = comb_rep_lattice(g1)
        cert = lift(grid_lift_problem(g1, rep.elements))
        cert.verify()

    def test_not_a_sublattice(self, g1):
        # missing the join of the two branch attractors
        fam = [fs(), fs(7, 8), fs(*range(9)), fs(*range(7, 16))]
        with pytest.raises(NotASublattice):
            grid_attractor_lift(g1, fam)

    def test_plain_intersection_of_repellers_can_fail(self):
        # the three-cell counterexample: two repelling blocks whose plain
        # intersection has no infinite forward walk
        grid = CellGrid(0.0, 3.0, 3)
        cmap = CellMap(grid, (fs(1, 2), fs(1), fs(2)))
        n1, n2 = fs(0, 1), fs(0, 2)
        assert is_repelling_block(n1, cmap) and is_repelling_block(n2, cmap)
        assert comb_inv_plus(n1, cmap) == n1
        assert comb_inv_plus(n2, cmap) == n2
        assert comb_inv_plus(n1 & n2, cmap) == fs()  # plain cap is not a repeller

    def test_attractor_transport_five_family(self, g1):
        cert = grid_attractor_lift(g1, self.five_family(g1))
        cert.verify()
        prob = cert.problem
        for d, v in cert.table.items():
            assert comb_inv(members(prob.universe, v), g1) == members(prob.universe, prob.s[d])

    def test_direct_route_succeeds_on_interval_fixture(self, g1):
        # an interval map cannot produce the branched-graph overlap, so the
        # direct attractor route goes through even when pinned minimal
        cert = grid_attractor_lift(
            g1, self.five_family(g1), direct=True, pinned={fs(7, 8): fs(7, 8)}
        )
        cert.verify()

    def test_direct_route_full_lattice(self, g1):
        lat = comb_att_lattice(g1)
        cert = grid_attractor_lift(g1, lat.elements, direct=True)
        cert.verify()


class TestRefinement:
    @pytest.mark.parametrize("cells", [16, 32, 64])
    def test_distinguished_family_exists_at_every_resolution(self, cells):
        cmap = ingest_interval_map("(x + x^3)/2", CellGrid(-1.0, 1.0, cells))
        h = cells // 2
        a0 = fs(h - 1, h)
        am = comb_inv(frozenset(range(h + 1)), cmap)
        ap = comb_inv(frozenset(range(h - 1, cells)), cmap)
        for e in (a0, am, ap):
            blk = e
            assert is_attracting_block(blk, cmap)
            assert comb_inv(blk, cmap) == e

    @pytest.mark.parametrize("fine_cells", [32, 64])
    def test_refinement_never_loses_an_attractor(self, fine_cells):
        # each coarse combinatorial attractor contains a fine one: forward
        # closure of the fine cells under the coarse support stays inside it
        coarse_map = ingest_interval_map("(x + x^3)/2", CellGrid(-1.0, 1.0, 16))
        coarse = comb_att_lattice(coarse_map)
        fine_map = ingest_interval_map("(x + x^3)/2", CellGrid(-1.0, 1.0, fine_cells))
        for e in coarse.elements:
            sup = coarse_map.grid.support(e)
            inside = frozenset(
                c
                for c in range(fine_cells)
                if any(
                    fa >= ca - 1e-9 and fb <= cb + 1e-9
                    for (ca, cb) in sup
                    for (fa, fb) in [fine_map.grid.cell_bounds(c)]
                )
            )
            block = forward_closure(inside, fine_map)
            fine_attractor = comb_inv(block, fine_map)
            assert bool(fine_attractor) == bool(e)
            for fa, fb in fine_map.grid.support(fine_attractor):
                assert any(fa >= ca - 1e-9 and fb <= cb + 1e-9 for (ca, cb) in sup)
