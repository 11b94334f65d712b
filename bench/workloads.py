"""The benchmark's four workloads: seeded inputs, one op list per round.

An op is one call of ``morselat.cli.main(argv)``.  ``build(name, seed, dir,
round, seen)`` writes the input files of one round under ``dir`` and returns
its ops.  Every round has the same strata at the same positions (fixed counts
per state count, per lattice-size class, per poset size band), so that the
cost of a round moves little from round to round and from seed to seed; the
pair (seed, round) picks the maps inside each stratum, and ``seen`` keeps a
seeded input from coming back in a later round of the same process.  Fixed
inputs (the G1 and G2 fixtures, ``verify --exhaustive 4``, the known-fault
files) are the same in every round and are marked ``fixed``.  The ops of a
known fault sit on fixed inputs, so the share of failed ops is the same in
every round, every run and on every seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from oracles import (
    CellArrows,
    ExactMap,
    FinitePoset,
    check_birkhoff,
    check_certificate,
    check_exact_analyze,
    check_grid_analyze,
    expect,
    lift_exists,
    sample_arrows_check,
)

WORKLOADS = ("exact-analyze", "grid-pipeline", "verify-corpus", "lattice-lift")

# exact-analyze: ops per round at each state count (16 is dynsys.TABLE_LIMIT;
# one 16-state op takes 2 s, so there is one a round).  The counts put the
# median in the middle of the 9-state ops and the 90th percentile in the
# middle of the 11-state ops, away from the edges between sizes.
EXACT_SIZES = {16: 1, 14: 1, 13: 1, 12: 2, 11: 10, 10: 16, 9: 35, 8: 34}
# maps with many short cycles: (states, cycles), |Att| = 2^cycles
EXACT_SHORT_CYCLES = [(12, 4), (10, 5)]
# the commuting-square check visits every attracting neighbourhood, so the
# cost of an n-state map follows log2(anbhd_count); keep it within this
# distance of n - 4, the median for random maps.  Validation and the duals
# grow with |Att|^2 and |Att|^3 (a 9-state map takes 15 ms with one cycle,
# 18 ms with two and 35 ms with three), so random maps have exactly
# EXACT_CYCLES cycles and the short-cycle maps above carry the large lattices.
EXACT_NBHD_BAND = 0.25
EXACT_CYCLES = 2

# grid-pipeline: the fixtures G1 and G2 at fixed sizes carry most of the time;
# the 12 G1 ops and G2's 16-cell analyze are the slowest eighth of a round,
# so the 90th percentile falls among them (on the G1 repeller lifts), and the
# median falls among the cell-map lifts
G1 = "(x + x^3)/2"
G2 = "piecewise(x<=0: 0, (5/2)*x*(1-x))"
GRID_FIXED = [(G1, 12), (G1, 14), (G1, 16), (G2, 12), (G2, 16)]
# seeded a*x + b*x^3, one per cell count, all with oracle |Att| = 5
GRID_POLY_CELLS = (10, 12, 14, 16)
GRID_POLY_ATT = 5
# seeded explicit cell maps: for each of 4 to 8 cells, this many maps with
# |Att| = 3 and as many with |Att| = 4 (a lift's cost follows |Att|)
GRID_CELL_MAPS_PER_CLASS = 4
GRID_SAMPLES = 32
GRID_PADDING = 1e-9
TRIPOD = [[0], [0], [1, 2], [1, 3]]
ANALYZE_CELL_MAP_FAULT = (2, "message", 'system file needs "type": "finite"')
DIRECT_OBSTRUCTION_FAULT = (4, "error", "obstruction")

# verify-corpus: --random ops whose corpus has a predicted cost within
# VERIFY_BAND of VERIFY_TARGET_MS (see verify_cost_ms)
VERIFY_RANDOM_OPS = 100
VERIFY_RANDOM_COUNT = 3
VERIFY_MAX_STATES = 10
VERIFY_TARGET_MS = 30.0
VERIFY_BAND = 0.1

# lattice-lift: one birkhoff poset per |O(P)| target (within 5%), the targets
# evenly spaced so that the 90th percentile, which falls among the birkhoff
# ops, has no gap between sizes to jump across; lift maps (states, cycles)
BIRKHOFF_TARGETS = range(32, 112, 2)
LIFT_MAPS = [(8, 3), (7, 3), (6, 2)]


@dataclass
class Op:
    """One CLI call and how to judge its result.

    ``check(output_text)`` raises oracles.Mismatch on a wrong output.
    ``known_fault`` is (exit code, key, value) of a failure the program has
    today: the exit code and one field of the JSON error on stderr.  Such an
    op counts as failed, and the run stays correct.
    ``obstruction`` is called when the op exits 4 and must return True (no
    lift exists at all) for the obstruction to count as a correct, completed
    result.  ``fixed`` marks an input that is the same in every round.
    """

    argv: list
    output: str
    check: Callable[[str], None] | None = None
    known_fault: tuple | None = None
    obstruction: Callable[[], bool] | None = None
    label: str = ""
    fixed: bool = False


def _write(path: str, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _json_check(fn):
    return lambda text: fn(json.loads(text))


FRESH_TRIES = 10000


class _Fresh:
    """Draws that skip every input already drawn in this process."""

    def __init__(self, seen: set):
        self.seen = seen

    def new(self, x) -> bool:
        """True, and x is marked seen, if x was not drawn before."""
        key = json.dumps(x, sort_keys=True)
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def __call__(self, draw):
        """A draw not seen before; after FRESH_TRIES repeats, the last draw,
        so that a run with many rounds on a small stratum still ends."""
        for _ in range(FRESH_TRIES):
            x = draw()
            if self.new(x):
                break
        return x


class _Files:
    def __init__(self, root: str):
        self.root = root
        self.count = 0

    def path(self, stem: str) -> str:
        self.count += 1
        return os.path.join(self.root, f"{self.count:04d}-{stem}")


# -- exact-analyze ---------------------------------------------------------------------


def random_map(rng: random.Random, n: int) -> dict:
    states = [f"s{i}" for i in range(n)]
    return {s: states[rng.randrange(n)] for s in states}


def short_cycle_map(rng: random.Random, n: int, cycles: int) -> dict:
    """cycles of length 1 or 2, every other state feeding a tree into them."""
    states = [f"s{i}" for i in range(n)]
    rng.shuffle(states)
    nxt, used = {}, 0
    for _ in range(cycles):
        length = rng.choice((1, 2))
        cyc = states[used:used + length]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            nxt[a] = b
        used += length
    for i in range(used, n):
        nxt[states[i]] = states[rng.randrange(i)]
    return {s: nxt[s] for s in sorted(states, key=lambda s: int(s[1:]))}


def _analyze_exact_op(files: _Files, nxt: dict, label: str) -> Op:
    states = list(nxt)
    path = _write(files.path("system.json"), {"type": "finite", "states": states, "map": nxt})
    out = files.path("analyze.json")
    m = ExactMap(states, nxt)
    return Op(["analyze", path, "-o", out], out, _json_check(lambda o: check_exact_analyze(m, o)), label=label)


def banded_map(rng: random.Random, n: int) -> dict:
    """A random n-state map with EXACT_CYCLES cycles whose neighbourhood
    count is near the typical 2^(n-4)."""
    while True:
        nxt = random_map(rng, n)
        m = ExactMap(list(nxt), nxt)
        if len(m.cycles) == EXACT_CYCLES and abs(math.log2(m.nbhd_count()) - (n - 4)) <= EXACT_NBHD_BAND:
            return nxt


def build_exact(rng: random.Random, files: _Files, fresh: _Fresh):
    ops = []
    for n, count in sorted(EXACT_SIZES.items(), reverse=True):
        for _ in range(count):
            ops.append(_analyze_exact_op(files, fresh(lambda: banded_map(rng, n)), f"analyze n={n}"))
    for n, k in EXACT_SHORT_CYCLES:
        ops.append(_analyze_exact_op(files, fresh(lambda: short_cycle_map(rng, n, k)), f"analyze n={n} cycles={k}"))
    return ops


def warm_exact(files: _Files, i: int) -> Op:
    return _analyze_exact_op(files, random_map(random.Random(f"warm-up:{i}"), 8), "warm-up")


# -- grid-pipeline ---------------------------------------------------------------------


def sampled_arrows(f, lo, hi, cells, samples=GRID_SAMPLES, padding=GRID_PADDING):
    """The declared ingestion rule, written out again: padded hull of the samples."""
    w = (hi - lo) / cells
    out = []
    for c in range(cells):
        a, b = lo + c * w, lo + (c + 1) * w
        vals = [f(a + (b - a) * k / (samples - 1)) for k in range(samples)]
        mn, mx = min(vals) - padding, max(vals) + padding
        out.append([i for i in range(cells) if lo + i * w <= mx and lo + (i + 1) * w >= mn])
    return out


def _g1(x):
    return (x + x ** 3) / 2


def _g2(x):
    return 0 if x <= 0 else (5 / 2) * x * (1 - x)


def _poly(a, b):
    return lambda x: a * x + b * x ** 3


def _program_arrows(doc):
    # the program's own cell map, read outside the timed region
    from morselat.formats import load_gridmap

    return [sorted(a) for a in load_gridmap(doc).arrows]


def _grid_checks_for(doc, f):
    """Arrows checked against the samples, then the SCC oracle on those arrows."""
    cache = {}

    def arrows():
        if "cm" not in cache:
            arr = _program_arrows(doc)
            if f is not None:
                lo, hi = doc["domain"]
                sample_arrows_check(f, lo, hi, doc["cells"], doc["samples_per_cell"], doc["padding"], arr)
            cache["cm"] = CellArrows(arr)
        return cache["cm"]

    return arrows


def _sublattice_doc(side, elements):
    return {"side": side, "elements": [sorted(e) for e in sorted(elements, key=lambda e: (len(e), sorted(e)))]}


def _grid_routes(doc: dict, cm_local: CellArrows) -> list:
    """(side, full lattice, direct) of each lift: the repeller lattice, the
    attractor lattice by duality (interval maps only) and by --direct."""
    att, rep = cm_local.attractors(), cm_local.repellers()
    routes = [("repeller", rep, False)]
    if doc["type"] == "interval_map":
        routes.append(("attractor", att, False))
    return routes + [("attractor", att, True)]


def _grid_map_ops(files: _Files, doc: dict, f, cm_local: CellArrows, label: str, *,
                  fixed: bool = False, analyze: bool = True, lifts: bool = True, direct_fault: bool = False):
    """analyze, then a lift of each route in _grid_routes."""
    path = _write(files.path("gridmap.json"), doc)
    arrows = _grid_checks_for(doc, f)
    ops = []
    if analyze:
        out = files.path("analyze.json")
        op = Op(["analyze", path, "-o", out], out, _json_check(lambda o: check_grid_analyze(arrows(), o)),
                label=f"analyze {label}", fixed=fixed)
        if doc["type"] == "cell_map":
            op.known_fault = ANALYZE_CELL_MAP_FAULT
        ops.append(op)
    for side, family, direct in (_grid_routes(doc, cm_local) if lifts else []):
        sub = _write(files.path(f"sub-{side}.json"), _sublattice_doc(side, family))
        out = files.path("lift.json")
        ops.append(Op(
            ["lift", path, sub, "-o", out, *(["--direct"] if direct else [])], out,
            _json_check(_cert_check_grid(arrows, side, family)),
            known_fault=DIRECT_OBSTRUCTION_FAULT if direct and direct_fault else None,
            obstruction=lambda side=side, family=family, direct=direct: not lift_found(arrows(), side, family, direct),
            label=f"lift {side}{' --direct' if direct else ''} {label}",
            fixed=fixed,
        ))
    return ops


def _cert_check_grid(arrows, side, family):
    def check(cert):
        cm = arrows()
        if side == "repeller":
            check_certificate(cert, cm.inv_plus, cm.is_repelling_block, cm.ambient, set(family))
        else:
            check_certificate(cert, cm.walk_core, cm.is_attracting_block, cm.ambient, set(family))
    return check


def lift_found(cm: CellArrows, side, family, direct, capped: bool = False) -> bool:
    """Does a lift exist for the problem this route solves?

    With ``capped`` the search keeps k(down p) inside the block that the
    engine's section picks (see oracles.lift_exists), so it tells whether the
    engine as written can find a lift, not whether one exists.
    """
    subsets = [frozenset(c for c in range(cm.n) if m >> c & 1) for m in range(1 << cm.n)]
    labels = _join_irreducibles(family)
    below = {p: frozenset(q for q in labels if q <= p) for p in labels}

    def s(d):
        return frozenset().union(frozenset(), *d)

    def block_for(a):
        return a if cm.is_attracting_block(a) else cm.forward_closure(a)

    rep_blocks = [w for w in subsets if cm.is_repelling_block(w)]
    if side == "repeller":
        # sections and conditioners are the repellers themselves
        cap = (lambda p: s(below[p])) if capped else None
        return lift_exists(labels, below, s, rep_blocks, cm.inv_plus, cap, cm.ambient)
    if direct:
        blocks = [w for w in subsets if cm.is_attracting_block(w)]
        top = cm.ambient if cm.walk_core(cm.ambient) == cm.ambient else None
        cap = (lambda p: block_for(s(below[p]))) if capped else None
        return lift_exists(labels, below, s, blocks, cm.walk_core, cap, top)
    # duality route: A* = Inv+(X minus a block realizing A), lifted on the
    # repeller side over the dual poset, whose principal down-sets are up-sets of J
    up = {p: frozenset(q for q in labels if p <= q) for p in labels}
    full = frozenset(labels)

    def s_rep(beta):
        return cm.inv_plus(cm.ambient - block_for(s(full - beta)))

    cap = (lambda p: s_rep(up[p])) if capped else None
    return lift_exists(labels, up, s_rep, rep_blocks, cm.inv_plus, cap, cm.ambient)


def _join_irreducibles(family) -> list:
    """Elements of a union-closed family with exactly one lower cover."""
    fam = set(family)
    out = []
    for c in fam:
        below = [a for a in fam if a < c]
        maximal = [a for a in below if not any(a < b for b in below)]
        if len(maximal) == 1:
            out.append(c)
    return sorted(out, key=lambda e: (len(e), sorted(e)))


def random_cell_map(rng: random.Random, n: int) -> list:
    """Each cell maps to a short run of neighbouring cells, as a 1-D map does."""
    out = []
    for _ in range(n):
        a = rng.randrange(n)
        out.append(list(range(a, min(n, a + rng.choice((1, 1, 2, 2, 3))))))
    return out


def cell_map_with_attractors(rng: random.Random, n: int, size: int) -> list:
    while True:
        arrows = random_cell_map(rng, n)
        if len(CellArrows(arrows).attractors()) == size:
            return arrows


def engine_false_obstruction(arrows) -> bool:
    """Does a lift route on this cell map hit the engine's anchoring fault:
    the capped search (what the engine can find) finds no lift, yet one exists?"""
    doc = {"type": "cell_map"}
    cm = CellArrows(arrows)
    return any(not lift_found(cm, side, family, direct, capped=True) and lift_found(cm, side, family, direct)
               for side, family, direct in _grid_routes(doc, cm))


def _interval_doc(expr: str, cells: int) -> dict:
    return {"type": "interval_map", "domain": [-1.0, 1.0], "cells": cells, "expr": expr,
            "samples_per_cell": GRID_SAMPLES, "padding": GRID_PADDING}


def _seeded_poly(rng: random.Random, cells: int):
    """a*x + b*x^3 with a + b = 1 and a = k/1024 exactly, a in [1/4, 15/32]."""
    return rng.randint(256, 480), cells


def build_grid(rng: random.Random, files: _Files, fresh: _Fresh):
    ops = []
    fns = {G1: _g1, G2: _g2}
    for expr, cells in GRID_FIXED:
        f = fns[expr]
        ops += _grid_map_ops(files, _interval_doc(expr, cells), f, CellArrows(sampled_arrows(f, -1.0, 1.0, cells)),
                             f"{expr} @{cells}", fixed=True)
    # seeded polynomials, stratified by cell count and the oracle's |Att|
    for cells in GRID_POLY_CELLS:
        while True:
            k, _ = fresh(lambda: _seeded_poly(rng, cells))
            f = _poly(k / 1024, (1024 - k) / 1024)
            local = CellArrows(sampled_arrows(f, -1.0, 1.0, cells))
            if len(local.attractors()) == GRID_POLY_ATT:
                break
        expr = f"{k / 1024!r}*x + {(1024 - k) / 1024!r}*x^3"
        ops += _grid_map_ops(files, _interval_doc(expr, cells), f, local, f"{expr} @{cells}")
    # seeded cell maps: lifts only.  A map on which the engine would report a
    # lift obstruction although a lift exists is drawn again: that fault shows
    # on the fixed tripod below in every round, and a seeded one would make
    # the failed share depend on the seed.
    for n in range(4, 9):
        for size in (3, 4):
            for _ in range(GRID_CELL_MAPS_PER_CLASS):
                while True:
                    arrows = fresh(lambda: cell_map_with_attractors(rng, n, size))
                    if not engine_false_obstruction(arrows):
                        break
                doc = {"type": "cell_map", "cells": n, "arrows": arrows}
                ops += _grid_map_ops(files, doc, None, CellArrows(arrows), f"cell_map {n}/{size}", analyze=False)
    # known faults on fixed inputs: analyze on a cell_map exits 2, and lift
    # --direct on the tripod exits 4 although a lift exists
    tripod = {"type": "cell_map", "cells": len(TRIPOD), "arrows": TRIPOD}
    ops += _grid_map_ops(files, tripod, None, CellArrows(TRIPOD), "tripod", fixed=True, direct_fault=True)
    fixed = random.Random(0)
    for n in (5, 6, 8):
        arrows = random_cell_map(fixed, n)
        doc = {"type": "cell_map", "cells": n, "arrows": arrows}
        ops += _grid_map_ops(files, doc, None, CellArrows(arrows), f"fixed cell_map {n}", fixed=True, lifts=False)
    return ops


def warm_grid(files: _Files, i: int) -> Op:
    a, b = (20 + i) / 100, (80 - i) / 100
    f = _poly(a, b)
    return _grid_map_ops(files, _interval_doc(f"{a!r}*x + {b!r}*x^3", 10), f,
                         CellArrows(sampled_arrows(f, -1.0, 1.0, 10)), "warm-up", lifts=False)[0]


# -- verify-corpus ---------------------------------------------------------------------


def _verify_check(tags, systems):
    def check(text):
        lines = text.splitlines()
        expect(len(lines) == len(tags), f"{len(lines)} report lines for {len(tags)} tags")
        for line, tag in zip(lines, tags):
            parts = line.split()
            expect(parts[0] == tag, f"line {line!r} is not tag {tag}")
            expect(parts[1] == "pass", f"tag {tag} did not pass: {line!r}")
            expect(line.endswith(f"({systems} systems)"), f"tag {tag} ran on the wrong corpus size: {line!r}")
    return check


# measured cost of verifying one n-state system with one cycle (ms, n = 1..10),
# and the extra cost of a second and third cycle; more cycles cost 150 ms and up
_VERIFY_BASE_MS = [1.0, 1.1, 1.2, 1.8, 2.4, 4.0, 5.8, 11.3, 21.7, 41.4]
_VERIFY_CYCLE_MS = {1: 0.0, 2: 4.0, 3: 22.0}


def corpus_of(seed: int, count: int, max_states: int):
    """The corpus ``verify --random count --max-states m --seed s`` documents:
    n uniform in 1..m, then each state's image uniform."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_states)
        yield {i: rng.randrange(n) for i in range(n)}


def verify_cost_ms(seed: int) -> float:
    total = 0.0
    for nxt in corpus_of(seed, VERIFY_RANDOM_COUNT, VERIFY_MAX_STATES):
        cycles = len(ExactMap(list(nxt), nxt).cycles)
        total += _VERIFY_BASE_MS[len(nxt) - 1] + _VERIFY_CYCLE_MS.get(cycles, 1000.0)
    return total


def _verify_tags() -> list:
    from morselat.verify import CHECKS

    return [t for t, _ in CHECKS]


def build_verify(rng: random.Random, files: _Files, fresh: _Fresh):
    tags = _verify_tags()
    ops = []
    out = files.path("verify.txt")
    ops.append(Op(["verify", "--exhaustive", "4", "-o", out], out, _verify_check(tags, 4 ** 4),
                  label="verify --exhaustive 4", fixed=True))
    # consecutive program seeds from a seeded start, keeping those whose
    # corpus cost is in the band: the heavy tail (systems with four or more
    # cycles, 0.15 to 1.2 s each) would otherwise decide the run
    seed = rng.randrange(1 << 30)
    while len(ops) <= VERIFY_RANDOM_OPS:
        seed += 1
        if abs(verify_cost_ms(seed) / VERIFY_TARGET_MS - 1) > VERIFY_BAND or not fresh.new(seed):
            continue
        out = files.path("verify.txt")
        argv = ["verify", "--random", str(VERIFY_RANDOM_COUNT), "--max-states", str(VERIFY_MAX_STATES),
                "--seed", str(seed), "-o", out]
        ops.append(Op(argv, out, _verify_check(tags, VERIFY_RANDOM_COUNT), label=f"verify --random seed {seed}"))
    return ops


def warm_verify(files: _Files, i: int) -> Op:
    out = files.path("verify.txt")
    return Op(["verify", "--random", "2", "--max-states", "4", "--seed", str(i), "-o", out], out,
              _verify_check(_verify_tags(), 2), label="warm-up")


# -- lattice-lift ----------------------------------------------------------------------


def random_poset(rng: random.Random, n: int, p: float):
    """Cover pairs of a random DAG on a shuffled order, labels e0..e{n-1}."""
    labels = [f"e{i}" for i in range(n)]
    order = labels[:]
    rng.shuffle(order)
    return labels, [[order[a], order[b]] for a in range(n) for b in range(a + 1, n) if rng.random() < p]


def seeded_poset(rng: random.Random, target: int):
    """A random poset of 6 to 11 elements whose down-set count is within 5% of target."""
    while True:
        n = rng.randint(6, 11)
        labels, covers = random_poset(rng, n, rng.uniform(0.05, 0.6))
        size = len(FinitePoset(labels, covers).down_sets())
        if abs(size - target) <= 0.05 * target:
            return labels, covers


def bounded_sublattices(family: set):
    """Sub-families containing bottom and top, closed under union and intersection."""
    bottom = min(family, key=len)
    top = max(family, key=len)
    middle = sorted(family - {bottom, top}, key=lambda e: (len(e), sorted(e)))
    for r in range(len(middle) + 1):
        for chosen in combinations(middle, r):
            fam = {bottom, top, *chosen}
            if all(a | b in fam and a & b in fam for a in fam for b in fam):
                yield fam


def map_with_cycles(rng: random.Random, n: int, cycles: int) -> dict:
    while True:
        nxt = random_map(rng, n)
        if len(ExactMap(list(nxt), nxt).cycles) == cycles:
            return nxt


def _birkhoff_op(files: _Files, labels, covers, label: str) -> Op:
    path = _write(files.path("poset.json"), {"elements": labels, "covers": covers})
    out = files.path("birkhoff.json")
    poset = FinitePoset(labels, covers)
    return Op(["birkhoff", path, "-o", out], out, _json_check(lambda o: check_birkhoff(poset, o)), label=label)


def build_lattice(rng: random.Random, files: _Files, fresh: _Fresh):
    ops = []
    for target in BIRKHOFF_TARGETS:
        labels, covers = fresh(lambda: seeded_poset(rng, target))
        ops.append(_birkhoff_op(files, labels, covers, f"birkhoff ~{target}"))
    for n, k in LIFT_MAPS:
        nxt = fresh(lambda: map_with_cycles(rng, n, k))
        states = list(nxt)
        m = ExactMap(states, nxt)
        path = _write(files.path("system.json"), {"type": "finite", "states": states, "map": nxt})
        for side, family, h, member in (
            ("repeller", m.repellers(), m.inv_plus, m.is_repelling_nbhd),
            ("attractor", m.attractors(), m.inv, m.is_attracting_nbhd),
        ):
            for sub in bounded_sublattices(family):
                subpath = _write(files.path(f"sub-{side}.json"), _sublattice_doc(side, sub))
                out = files.path("lift.json")
                check = _json_check(lambda c, h=h, member=member, sub=sub, m=m:
                                    check_certificate(c, h, member, m.ambient, sub))
                ops.append(Op(["lift", path, subpath, "-o", out], out, check, label=f"lift {side} n={n}"))
    return ops


def warm_lattice(files: _Files, i: int) -> Op:
    labels, covers = seeded_poset(random.Random(f"warm-up:{i}"), 16)
    return _birkhoff_op(files, labels, covers, "warm-up")


WORKLOAD_INPUTS = {
    "exact-analyze": (build_exact, warm_exact),
    "grid-pipeline": (build_grid, warm_grid),
    "verify-corpus": (build_verify, warm_verify),
    "lattice-lift": (build_lattice, warm_lattice),
}


def build(name: str, seed: int, root: str, rnd: int, seen: set) -> list:
    """Write the inputs of round ``rnd`` of workload ``name`` under ``root``;
    return its ops.  ``seen`` is shared by the rounds of one process."""
    os.makedirs(root, exist_ok=True)
    rng = random.Random(f"{name}:{seed}:{rnd}")
    return WORKLOAD_INPUTS[name][0](rng, _Files(root), _Fresh(seen))


def warm_up(name: str, root: str, i: int) -> Op:
    """The i-th small warm-up op of set-up, on an input that depends on i alone."""
    os.makedirs(root, exist_ok=True)
    return WORKLOAD_INPUTS[name][1](_Files(root), i)
