"""Combinatorial multivalued dynamics on a 1-D cell grid.

An interval map is sampled into an outer-approximation cell map (not a
rigorous enclosure: sampling resolution and padding are declared inputs and
recorded in every output).  Attracting and repelling blocks play the role of
trapping and repelling regions; comb_inv and comb_inv_plus use weak ("exists
a walk") semantics, which is what keeps the join laws and the
outer-approximation soundness.

The lattices of combinatorial attractors and repellers come from the Morse
poset: the Morse sets are the cyclic SCCs of the cell map, ordered by
reachability, and each down-set of them gives one attractor, the forward
closure of its Morse sets.  Both lattices are certified as images of the
down-set lattice (SetLattice.from_down_sets), with one core call per pair of
down-sets, so they are distributive at every size.  Enumerating every
attracting block (attracting_blocks, block_lattices) is kept as the test
oracle.

Inside, cell sets are int masks over the arrow and preimage masks that a
CellMap builds once: comb_inv and comb_inv_plus, the lattice cores, are one
Tarjan pass and reaches within the set on the dynsys kernel (_reach), and
the block tests and lift front-ends run on masks; the exported label
functions are views over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Mapping, Sequence

from . import expr as exprmod
from .dynsys import _reach
from .lattice import SetLattice, birkhoff_embedding, checked_sublattice, label_masks
from .lifting import LiftProblem, ObstructionFound, lift, transport_by_duality
from .order import InternalCheckFailed, Poset, TooLarge, check_bound, closed_masks, members, transpose, union_over

GRID_ENUM_BOUND = 16
# cells x samples_per_cell of one interval map, 32 times G1's 4096 cells x 32
# samples; a constant, unlike the enumeration bound, since it caps the work
# and memory of ingestion, not an enumeration
SAMPLE_LIMIT = 1 << 22
# cells of one grid map, 4 times G1's 4096: its arrow masks and transpose,
# 2n ints of up to n bits, take up to about n^2 / 4 bytes (some 70 MB here),
# and a walk core call takes time quadratic in n
CELL_LIMIT = 1 << 14
DEFAULT_SAMPLES = 32
DEFAULT_PADDING = 1e-9


class ImageOutOfDomain(ValueError):
    def __init__(self, cell: int, value: float):
        self.cell = cell
        self.value = value
        super().__init__(f"sampled image of cell {cell} is not in the domain: {value}")


def check_cells(n: int) -> None:
    """TooLarge when a map on n cells is too large for the mask kernel."""
    if n > CELL_LIMIT:
        raise TooLarge(f"{n} cells exceeds the cell limit {CELL_LIMIT}")


class NotARepellingBlock(ValueError):
    pass


class NotAnAttractingBlock(ValueError):
    pass


@dataclass(frozen=True)
class CellGrid:
    """n_cells closed equal-width subintervals of [lo, hi]."""

    lo: float
    hi: float
    n_cells: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("domain must satisfy lo < hi")
        if self.n_cells <= 0:
            raise ValueError("n_cells must be positive")
        if not 0 < self.width < math.inf:
            raise ValueError(f"bounds and cell width must be finite and positive, got width {self.width!r}")

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.n_cells

    def cell_bounds(self, i: int) -> tuple[float, float]:
        w = self.width
        return (self.lo + i * w, self.lo + (i + 1) * w)

    def cells_intersecting(self, mn: float, mx: float) -> frozenset:
        """Indices of closed cells meeting the closed interval [mn, mx]."""
        w = self.width
        ilo = int((mn - self.lo) // w)
        ihi = int((mx - self.lo) // w)
        out = set()
        for i in range(max(0, ilo - 1), min(self.n_cells, ihi + 2)):
            a, b = self.cell_bounds(i)
            if mx >= a and mn <= b:
                out.add(i)
        return frozenset(out)

    def support(self, cells: Iterable[int]) -> list[tuple[float, float]]:
        """Maximal intervals covered by the cells, for serialization."""
        idx = sorted(set(cells))
        out = []
        for i in idx:
            a, b = self.cell_bounds(i)
            if out and abs(out[-1][1] - a) < 1e-12:
                out[-1] = (out[-1][0], b)
            else:
                out.append((a, b))
        return out


@dataclass(frozen=True)
class CellMap:
    """A multivalued map on grid cells; every cell has at least one target.

    Beside ``arrows`` it keeps them and their transpose as masks, bit c for cell c.
    """

    grid: CellGrid
    arrows: tuple[frozenset, ...]

    def __post_init__(self):
        if len(self.arrows) != self.grid.n_cells:
            raise ValueError("arrows must cover every cell")
        check_cells(self.n)
        for c, tgt in enumerate(self.arrows):
            if not tgt:
                raise ValueError(f"cell {c} has no targets")
            for j in tgt:
                if not 0 <= j < self.grid.n_cells:
                    raise ValueError(f"cell {c} has an invalid target {j}")
        img = tuple(sum(1 << j for j in tgt) for tgt in self.arrows)
        object.__setattr__(self, "_img", img)
        object.__setattr__(self, "_pre", tuple(transpose(img)))
        object.__setattr__(self, "_full", (1 << self.n) - 1)

    @property
    def n(self) -> int:
        return self.grid.n_cells

    def all_cells(self) -> frozenset:
        return frozenset(range(self.n))

    def image(self, cells: Iterable[int]) -> frozenset:
        return members(range(self.n), union_over(self._img, label_masks(range(self.n), [cells])[0]))

    def preimage(self, cells: Iterable[int]) -> frozenset:
        """Weak preimage: cells with at least one arrow into the set."""
        tgt = frozenset(cells)
        return frozenset(c for c in range(self.n) if self.arrows[c] & tgt)


def ingest_interval_map(
    expression: str,
    grid: CellGrid,
    samples_per_cell: int = DEFAULT_SAMPLES,
    padding: float = DEFAULT_PADDING,
) -> CellMap:
    """Sample an interval map into an outer-approximation cell map.

    arrows(c) covers [min - padding, max + padding] of the sampled images of
    cell c, with cell endpoints always among the samples.
    """
    if samples_per_cell < 2:
        raise ValueError("samples_per_cell must be at least 2")
    # samples_per_cell >= 2, so this bounds the cells too
    if grid.n_cells * samples_per_cell > SAMPLE_LIMIT:
        raise TooLarge(
            f"{grid.n_cells} cells x {samples_per_cell} samples per cell exceeds the sampling limit {SAMPLE_LIMIT}"
        )
    check_cells(grid.n_cells)
    if not 0 <= padding < math.inf:
        raise ValueError("padding must be finite and nonnegative")
    f = exprmod.parse(expression)
    arrows = []
    for c in range(grid.n_cells):
        a, b = grid.cell_bounds(c)
        vals = []
        for k in range(samples_per_cell):
            x = a + (b - a) * k / (samples_per_cell - 1)
            try:
                y = f(x)
            except (ZeroDivisionError, OverflowError) as exc:
                raise ImageOutOfDomain(c, f"{exc} at x = {x!r}") from exc
            if not (isinstance(y, float) and math.isfinite(y)):
                raise ImageOutOfDomain(c, f"{y!r} at x = {x!r}")
            vals.append(y)
        mn, mx = min(vals), max(vals)
        if mn < grid.lo or mx > grid.hi:
            raise ImageOutOfDomain(c, mn if mn < grid.lo else mx)
        # clamped, so that a huge padding cannot overflow the cell index
        arrows.append(grid.cells_intersecting(max(mn - padding, grid.lo), min(mx + padding, grid.hi)))
    return CellMap(grid, tuple(arrows))


# -- blocks and combinatorial invariance --------------------------------------


def _is_attracting_block(cmap: CellMap, n: int) -> bool:
    """No arrow leaves n, cross-checked against the complement law by CellMap.preimage's scan of the arrows."""
    att = not union_over(cmap._img, n) & ~n
    rest = cmap.all_cells() - members(range(cmap.n), n)
    if att != (cmap.preimage(rest) <= rest):
        raise InternalCheckFailed("block complement law failed")
    return att


def _is_repelling_block(cmap: CellMap, w: int) -> bool:
    return not union_over(cmap._pre, w) & ~w


def is_attracting_block(cells: Iterable[int], cmap: CellMap) -> bool:
    return _is_attracting_block(cmap, label_masks(range(cmap.n), [cells])[0])


def is_repelling_block(cells: Iterable[int], cmap: CellMap) -> bool:
    return _is_repelling_block(cmap, label_masks(range(cmap.n), [cells])[0])


def _cyclic_components(cmap: CellMap, cells: int) -> list[int]:
    """The SCCs of the graph restricted to the mask ``cells`` that hold a cycle, by one iterative Tarjan pass.

    Roots and successors are taken in ascending cell order.  Called on all
    cells, these are the Morse sets of the cell map.
    """
    img = cmap._img
    index, low, stack, out = {}, {}, [], []
    rest, onstack = cells, 0  # rest: the cells not yet entered
    while rest:
        root = (rest & -rest).bit_length() - 1
        index[root] = low[root] = len(index)
        rest ^= 1 << root
        onstack |= 1 << root
        stack.append(root)
        work = [[root, img[root] & cells]]
        while work:
            frame = work[-1]
            v, succ = frame
            while succ:
                bit = succ & -succ
                succ ^= bit
                if rest & bit:
                    break
                if onstack & bit:
                    low[v] = min(low[v], index[bit.bit_length() - 1])
            else:  # every successor seen: v is done
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == index[v]:
                    comp = 0
                    while True:
                        w = stack.pop()
                        comp |= 1 << w
                        if w == v:
                            break
                    onstack &= ~comp
                    if comp & (comp - 1) or img[v] >> v & 1:
                        out.append(comp)
                continue
            frame[1] = succ
            w = bit.bit_length() - 1
            index[w] = low[w] = len(index)
            rest ^= bit
            onstack |= bit
            stack.append(w)
            work.append([w, img[w] & cells])
    return out


def _comb_inv(cmap: CellMap, n: int) -> int:
    """The cells of the mask n on a bi-infinite walk inside it: reached from a cycle and reaching one."""
    cyc = sum(_cyclic_components(cmap, n))
    return _reach(cmap._img, cyc, n) & _reach(cmap._pre, cyc, n)


def _comb_inv_plus(cmap: CellMap, n: int) -> int:
    """The cells of the mask n with an infinite forward walk inside it: those reaching a cycle."""
    return _reach(cmap._pre, sum(_cyclic_components(cmap, n)), n)


def comb_inv(cells: Iterable[int], cmap: CellMap) -> frozenset:
    """Cells on a bi-infinite walk inside the set: reach and are reached by a cycle."""
    return members(range(cmap.n), _comb_inv(cmap, label_masks(range(cmap.n), [cells])[0]))


def comb_inv_plus(cells: Iterable[int], cmap: CellMap) -> frozenset:
    """Cells admitting an infinite forward walk inside the set: those reaching a cycle."""
    return members(range(cmap.n), _comb_inv_plus(cmap, label_masks(range(cmap.n), [cells])[0]))


def attracting_blocks(cmap: CellMap) -> list[frozenset]:
    """The cell sets closed under the arrows, in ascending mask order.

    Exhaustive over all cell subsets; the test oracle for comb_att_lattice.
    """
    check_bound(cmap.n, "cells", GRID_ENUM_BOUND)
    return [members(range(cmap.n), m) for m in closed_masks(cmap._img)]


def repelling_blocks(cmap: CellMap) -> list[frozenset]:
    full = cmap.all_cells()
    return [full - b for b in attracting_blocks(cmap)]


def block_lattices(cmap: CellMap) -> tuple[SetLattice, SetLattice]:
    """The attracting-block and repelling-block lattices, by exhaustive enumeration."""
    universe = tuple(range(cmap.n))
    blocks = label_masks(universe, attracting_blocks(cmap))
    return SetLattice(universe, blocks, check=False), SetLattice(universe, [cmap._full ^ b for b in blocks], check=False)


def _morse_attractors(cmap: CellMap) -> dict[int, int]:
    """Down-set mask d of the Morse poset -> the cell mask of comb_inv(N) for the attracting blocks N holding d.

    The Morse sets are ordered by reachability.  An attracting block holds
    exactly a down-set of them, and its walk core is their forward closure.
    """
    morse = _cyclic_components(cmap, cmap._full)
    check_bound(len(morse), "Morse sets", GRID_ENUM_BOUND)
    reach = [_reach(cmap._img, m) for m in morse]
    rel = [sum(1 << j for j, m in enumerate(morse) if not m & ~r) for r in reach]
    return {d: union_over(reach, d) for d in closed_masks(rel)}


def comb_att_lattice(cmap: CellMap) -> SetLattice:
    """{comb_inv(N) | N an attracting block}, join union, core comb_inv."""
    return SetLattice.from_down_sets(tuple(range(cmap.n)), _morse_attractors(cmap), partial(_comb_inv, cmap))


def comb_rep_lattice(cmap: CellMap) -> SetLattice:
    """{comb_inv_plus(W) | W a repelling block}, join union, core comb_inv_plus.

    W = cells - N for an attracting block N, and comb_inv_plus(W) depends on
    N only through comb_inv(N).  Rep is O(P) with the order reversed, so it
    is certified on the complemented masks.
    """
    att = _morse_attractors(cmap)
    top = max(att)
    elems = {top ^ d: _comb_inv_plus(cmap, cmap._full & ~a) for d, a in att.items()}
    return SetLattice.from_down_sets(tuple(range(cmap.n)), elems, partial(_comb_inv_plus, cmap))


def shrink_repelling_block(
    block: Iterable[int],
    cmap: CellMap,
    max_depth: int | None = None,
) -> frozenset:
    """Backward-image shrinking W_k = W ^ F^-1(W_{k-1}).

    Stops at the fixed point, which equals comb_inv_plus(W) and is reached
    within n_cells steps, or after ``max_depth`` steps.
    """
    w = label_masks(range(cmap.n), [block])[0]
    if not _is_repelling_block(cmap, w):
        raise NotARepellingBlock(f"{sorted(members(range(cmap.n), w))} is not a repelling block")
    for _ in range(cmap.n if max_depth is None else max_depth):
        nxt = w & union_over(cmap._pre, w)
        if nxt == w:
            break
        w = nxt
    return members(range(cmap.n), w)


def _rep_problem(cmap: CellMap, lat: SetLattice, poset: Poset, s: Mapping[int, int]) -> LiftProblem:
    def section(l: int) -> int:
        if not _is_repelling_block(cmap, l) or _comb_inv_plus(cmap, l) != l:
            raise NotARepellingBlock(f"no repelling block realizes {lat.labels(l)}")
        return l

    return LiftProblem(
        poset=poset,
        s=s,
        universe=lat.universe,
        h=partial(_comb_inv_plus, cmap),
        section=section,
        member=partial(_is_repelling_block, cmap),
    )


def grid_lift_problem(cmap: CellMap, images: Sequence[Iterable[int]]) -> LiftProblem:
    """Package a repeller-side lift: h = comb_inv_plus on repelling blocks.

    The image family must form a bounded distributive sublattice under union
    and comb_inv_plus(cap); each image is its own repelling block (anything
    outside a block pointing into the walk-core would itself have an
    infinite walk), so the sections, and with them the conditioners, are the
    images themselves; an image that is no repelling block raises
    NotARepellingBlock when the lift takes its section.
    """
    lat = checked_sublattice(range(cmap.n), label_masks(range(cmap.n), images), partial(_comb_inv_plus, cmap))
    return _rep_problem(cmap, lat, *birkhoff_embedding(lat))


def grid_attractor_lift(
    cmap: CellMap,
    images: Sequence[Iterable[int]],
    direct: bool = False,
    pinned: Mapping[frozenset, frozenset] | None = None,
):
    """Lift an attractor-side sublattice, by duality transport or directly.

    Both routes share one problem, h = comb_inv on attracting blocks, whose
    section takes each attractor A to its pinned block or else to the
    forward closure of A; each pin is checked first to be an attracting
    block whose comb_inv is its attractor.  The direct route runs the
    induction on it, with the sections as conditioners (when they violate
    Eq (20), the obstruction surfaces as ObstructionFound).  The duality
    route realizes * as A -> comb_inv_plus(N^c) for the section N of A,
    lifts on the repeller side, whose embedding check certifies the dual
    family, and transports back through cell-set complement.  The dual
    problem can be obstructed where this one is not, so an obstruction
    there falls back to the direct route, and only its obstruction stands.
    """
    lat = checked_sublattice(range(cmap.n), label_masks(range(cmap.n), images), partial(_comb_inv, cmap))
    poset, s = birkhoff_embedding(lat)
    pins = {}
    for a, blk in (pinned or {}).items():
        a, blk = label_masks(range(cmap.n), (a, blk))
        if not _is_attracting_block(cmap, blk) or _comb_inv(cmap, blk) != a:
            raise NotAnAttractingBlock(f"pinned block {lat.labels(blk)} is not an attracting block for {lat.labels(a)}")
        pins[a] = blk

    def att_block_for(a: int) -> int:
        if a in pins:
            return pins[a]
        blk = _reach(cmap._img, a)
        if _comb_inv(cmap, blk) != a:
            raise NotAnAttractingBlock(f"no attracting block realizes {lat.labels(a)}")
        return blk

    problem = LiftProblem(
        poset=poset,
        s=s,
        universe=lat.universe,
        h=partial(_comb_inv, cmap),
        section=att_block_for,
        member=partial(_is_attracting_block, cmap),
    )
    if direct:
        return lift(problem)
    star = {a: _comb_inv_plus(cmap, cmap._full & ~att_block_for(a)) for a in lat.masks}
    try:
        return transport_by_duality(problem, star.__getitem__, lambda dual, s_rep: _rep_problem(cmap, lat, dual, s_rep))
    except ObstructionFound:
        return lift(problem)
