"""The exact-side limit-set kernel against the exhaustive scans it replaced.

omega and alpha come from the cycles and their basins, and the neighbourhood,
down-set and block enumerations from ``order.closed_masks``.  The references
here are the whole-mask tail-cycle walk and the ``range(1 << n)`` filters,
written out as they stood before the kernel.
"""

import gc
import json
import random
import time
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from morselat import CellGrid, CellMap, FiniteDynSys, cli, ingest_interval_map
from morselat.grid import attracting_blocks
from morselat.order import closed_masks
from morselat.verify import all_systems
from conftest import _lex_key, all_labeled_posets


def bits(m):
    return [i for i in range(m.bit_length()) if m >> i & 1]


def union(parts, m):
    out = 0
    for i in bits(m):
        out |= parts[i]
    return out


def tail_cycle(m, step):
    """Union of the eventual cycle of the mask sequence m, step(m), ..."""
    seen = {}
    seq = []
    cur = m
    while cur not in seen:
        seen[cur] = len(seq)
        seq.append(cur)
        cur = step(cur)
    return union(seq, (1 << len(seq)) - (1 << seen[cur]))


def omega_oracle(sys, m):
    return tail_cycle(m, lambda x: union(sys._img1, x))


def alpha_oracle(sys, m):
    return tail_cycle(m, lambda x: union(sys._pre1, x))


def closed_filter(rel, n):
    """The subsets U of range(n) with rel[i] inside U for each i in U, by scanning."""
    return [m for m in range(1 << n) if all(not rel[i] & ~m for i in bits(m))]


def nbhd_product(sys):
    """Prod over cycles of (1 + 2^(|basin| - |cycle|)), basins by the oracle."""
    out = 1
    for c in sys._cycles:
        basin = sum(1 for i in range(sys._n) if omega_oracle(sys, 1 << i) == c)
        out *= 1 + 2 ** (basin - bin(c).count("1"))
    return out


def check_system(sys):
    n = sys._n
    omega = [omega_oracle(sys, m) for m in range(1 << n)]
    alpha = [alpha_oracle(sys, m) for m in range(1 << n)]
    for m in range(1 << n):
        assert sys._omega_mask(m) == omega[m], (dict(sys.next), m)
        assert sys._alpha_mask(m) == alpha[m], (dict(sys.next), m)
    anbhd = [m for m in range(1 << n) if not (omega[m] & ~m)]
    rnbhd = [m for m in range(1 << n) if not (alpha[m] & ~m)]
    assert sys.attracting_neighborhoods() == [sys.unmask(m) for m in anbhd]
    assert sys.repelling_neighborhoods() == [sys.unmask(m) for m in rnbhd]
    assert set(sys.att_lattice().elements) == {sys.unmask(omega[m]) for m in anbhd}
    assert set(sys.rep_lattice().elements) == {sys.unmask(alpha[m]) for m in rnbhd}
    assert sys.neighborhood_counts() == (len(anbhd), len(rnbhd)) == (nbhd_product(sys),) * 2


maps = st.integers(1, 10).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
)


class TestLimitSets:
    def test_all_four_state_maps(self):
        count = 0
        for sys in all_systems(4):
            check_system(sys)
            count += 1
        assert count == 256

    @settings(max_examples=40, deadline=None)
    @given(maps)
    def test_random_maps(self, targets):
        check_system(FiniteDynSys(range(len(targets)), dict(enumerate(targets))))

    def test_att_lattice_leaves_no_cycle_through_its_system(self):
        # att_lattice() keeps nothing on the system that refers back to it (its
        # core, functools.partial(dynsys._inv, cycles), holds the cycles and no
        # system), or each system of a streamed verify corpus lives on until
        # the next collection
        sys = FiniteDynSys(range(4), {0: 1, 1: 0, 2: 2, 3: 2})
        assert len(sys.att_lattice().elements) == 4
        ref = weakref.ref(sys)
        gc.disable()
        try:
            del sys
            assert ref() is None
        finally:
            gc.enable()

    def test_twenty_state_analyze(self, tmp_path):
        # two cycles, {0, 1} fed by 8 states and the fixed point 10 fed by 9,
        # with 257 * 513 attracting neighbourhoods; then 1024 states, the
        # fixed points 0..3 fed by the chains i -> i - 4, with (1 + 2^255)^4
        twenty = {0: 1, 1: 0, 10: 10}
        twenty.update({i: i - 2 for i in range(2, 10)})
        twenty.update({i: 10 + (i - 11) // 2 for i in range(11, 20)})
        chains = {i: i if i < 4 else i - 4 for i in range(1024)}
        for nxt, count in ((twenty, 257 * 513), (chains, (1 + 2**255) ** 4)):
            doc = {
                "type": "finite",
                "states": [str(i) for i in range(len(nxt))],
                "map": {str(k): str(v) for k, v in nxt.items()},
            }
            path = tmp_path / "map.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / "out.json"
            t0 = time.perf_counter()
            assert cli.main(["analyze", str(path), "-o", str(out)]) == 0
            assert time.perf_counter() - t0 < 10
            payload = json.loads(out.read_text())
            assert payload["anbhd_count"] == payload["rnbhd_count"] == count
            assert payload["diagram_commutes"] is True
            # the attractors are the unions of cycles, each once, and A* holds
            # the states whose cycle is not in A
            cycle_of = eventual_cycles(nxt)
            cycles = set(cycle_of.values())
            attractors = payload["attractors"]
            assert len(attractors) == len({frozenset(a) for a in attractors}) == 2 ** len(cycles)
            for pair in payload["dual_pairs"]:
                a = frozenset(map(int, pair["attractor"]))
                assert a == frozenset().union(*(c for c in cycles if c <= a))
                assert set(map(int, pair["repeller"])) == {x for x, c in cycle_of.items() if not c <= a}


def eventual_cycles(nxt):
    """Each state's eventual cycle as a frozenset: with n states, f^n(x) lies on it."""
    out = {}
    for x in nxt:
        y = x
        for _ in range(len(nxt)):
            y = nxt[y]
        cycle = [y]
        while nxt[cycle[-1]] != y:
            cycle.append(nxt[cycle[-1]])
        out[x] = frozenset(cycle)
    return out


def cycles_oracle(sys):
    """The cycles by definition, in the order of their lowest state.

    x lies on a cycle iff f^k(x) = x for some 1 <= k <= n.
    """
    step = lambda i: sys._img1[i].bit_length() - 1
    out = []
    for x in range(sys._n):
        orbit = [x]
        for _ in range(sys._n):
            orbit.append(step(orbit[-1]))
        if x in orbit[1:] and not any(c >> x & 1 for c in out):
            out.append(sum(1 << i for i in set(orbit[: orbit.index(x, 1)])))
    return out


def reach_oracle(sys, m):
    """m and every state its forward orbits visit, by iterated image."""
    cur = m
    while union(sys._img1, cur) & ~cur:
        cur |= union(sys._img1, cur)
    return cur


def ar_direct_oracle(sys, a, r):
    """FiniteDynSys._ar_direct as it stood: the alpha_o clause tried per (state, cycle) pair."""
    if a & r:
        return False, "A and R are not disjoint", sys.unmask(a & r)
    if union(sys._img1, a) != a:
        return False, "A is not invariant", sys.unmask(a)
    if union(sys._img1, r) & ~r:
        return False, "R is not forward invariant", sys.unmask(r)
    for i in bits(sys._full & ~(a | r)):
        if omega_oracle(sys, 1 << i) & ~a:
            return False, "omega(x) escapes A", sys.states[i]
        for c in cycles_oracle(sys):
            if reach_oracle(sys, c) >> i & 1 and c & ~r:
                return False, "alpha_o of a backward orbit escapes R", sys.states[i]
    return True, None, None


class TestCycleWalk:
    def check_cycles(self, sys):
        cycles = cycles_oracle(sys)
        assert sys._cycles == tuple(cycles), dict(sys.next)
        assert sys.cycles() == [sys.unmask(c) for c in cycles]

    def test_all_four_state_maps(self):
        for sys in all_systems(4):
            self.check_cycles(sys)

    @settings(max_examples=60, deadline=None)
    @given(maps)
    def test_random_maps(self, targets):
        self.check_cycles(FiniteDynSys(range(len(targets)), dict(enumerate(targets))))

    def test_ar_direct_on_every_mask_pair(self):
        for sys in all_systems(4):
            for a in range(16):
                for r in range(16):
                    assert sys._ar_direct(a, r) == ar_direct_oracle(sys, a, r), (dict(sys.next), a, r)

    def test_dual_plus_and_basin_on_every_small_map(self):
        # S+ holds the states whose omega misses S, and the basin of an
        # attractor A the states whose omega lies in A; omega by the oracle
        for n in range(1, 5):
            for sys in all_systems(n):
                omega = [omega_oracle(sys, 1 << i) for i in range(n)]
                attractors = set()
                for m in range(1 << n):
                    assert sys.dual_plus(sys.unmask(m)) == sys.unmask(
                        sum(1 << i for i in range(n) if not omega[i] & m)
                    ), (dict(sys.next), m)
                    om = omega_oracle(sys, m)
                    if not om & ~m:
                        attractors.add(om)
                for a in attractors:
                    assert sys.basin(sys.unmask(a)) == sys.unmask(
                        sum(1 << i for i in range(n) if not omega[i] & ~a)
                    ), (dict(sys.next), a)

    def test_attractor_and_repeller_tests_on_every_mask(self):
        # _is_attractor reads the cycles and _is_repeller the (cycle, basin)
        # pairs; the references are the forms they replaced: f(m) = m and
        # omega(m) = m for an attractor, f(m) and f^-1(m) inside m for a
        # repeller (4330 pairs)
        pairs = 0
        for n in range(1, 5):
            for sys in all_systems(n):
                for m in range(1 << n):
                    image, preimage = union(sys._img1, m), union(sys._pre1, m)
                    attractor = image == m and omega_oracle(sys, m) == m
                    repeller = not (image & ~m or preimage & ~m)
                    assert sys._is_attractor(m) == attractor, (dict(sys.next), m)
                    assert sys._is_repeller(m) == repeller, (dict(sys.next), m)
                    pairs += 1
        assert pairs == 4330


class TestClosedMasks:
    def test_poset_down_sets(self):
        for n in range(1, 5):
            for p in all_labeled_posets(n):
                old = closed_filter(p.below, n)
                assert list(closed_masks(p.below)) == old
                old.sort(key=lambda m: (bin(m).count("1"), _lex_key(m, n)))
                assert p.down_masks() == tuple(old)
                assert p.all_down_sets() == [p.members_of(m) for m in old]

    def test_preorder_with_cycles(self):
        # 0 <-> 1 and 2 -> 0: closed sets are {}, {0, 1}, {0, 1, 2} and with 3
        rel = [0b10, 0b01, 0b01, 0]
        assert list(closed_masks(rel)) == [0, 0b0011, 0b0111, 0b1000, 0b1011, 0b1111]

    def test_attracting_blocks(self, tripod):
        rng = random.Random(7)
        cmaps = [ingest_interval_map("(x + x^3)/2", CellGrid(-1.0, 1.0, 12)), tripod]
        for _ in range(30):
            n = rng.randint(1, 9)
            arrows = tuple(frozenset(rng.sample(range(n), rng.randint(1, min(n, 2)))) for _ in range(n))
            cmaps.append(CellMap(CellGrid(0.0, float(n), n), arrows))
        for cmap in cmaps:
            rel = [sum(1 << j for j in a) for a in cmap.arrows]
            old = [frozenset(bits(m)) for m in closed_filter(rel, cmap.n)]
            assert attracting_blocks(cmap) == old
