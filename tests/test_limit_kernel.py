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
from morselat.order import _lex_key, closed_masks
from morselat.verify import all_systems
from conftest import all_labeled_posets


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
    for c in sys._cycle_masks():
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
    assert sys.neighborhood_counts() == (nbhd_product(sys),) * 2


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

    def test_att_cache_frees_with_system(self):
        # the cached Att lattice must not refer back to its system, or each
        # system of a streamed verify corpus lives on until the next collection
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
        # two cycles, {0, 1} fed by 8 states and the fixed point 10 fed by 9;
        # 257 * 513 attracting neighbourhoods
        nxt = {0: 1, 1: 0, 10: 10}
        nxt.update({i: i - 2 for i in range(2, 10)})
        nxt.update({i: 10 + (i - 11) // 2 for i in range(11, 20)})
        doc = {
            "type": "finite",
            "states": [str(i) for i in range(20)],
            "map": {str(k): str(v) for k, v in nxt.items()},
        }
        path = tmp_path / "m20.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        t0 = time.perf_counter()
        assert cli.main(["analyze", str(path), "-o", str(out)]) == 0
        assert time.perf_counter() - t0 < 10
        payload = json.loads(out.read_text())
        assert payload["anbhd_count"] == payload["rnbhd_count"] == 257 * 513
        assert payload["diagram_commutes"] is True
        assert len(payload["attractors"]) == 4


class TestClosedMasks:
    def test_poset_down_sets(self):
        for n in range(1, 5):
            for p in all_labeled_posets(n):
                old = closed_filter(p.below, n)
                assert list(closed_masks(p.below)) == old
                old.sort(key=lambda m: (bin(m).count("1"), _lex_key(m, n)))
                assert p.down_masks() == old
                assert [d.members for d in p.all_down_sets()] == [p.members_of(m) for m in old]

    def test_preorder_with_cycles(self):
        # 0 <-> 1 and 2 -> 0: closed sets are {}, {0, 1}, {0, 1, 2} and with 3
        rel = [0b10, 0b01, 0b01, 0]
        assert list(closed_masks(rel)) == [0, 0b0011, 0b0111, 0b1000, 0b1011, 0b1111]
        assert list(closed_masks(rel, within=0b0011)) == [0, 0b0011]

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
