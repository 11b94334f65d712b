"""Combinatorial multivalued dynamics on a 1-D cell grid.

An interval map is sampled into an outer-approximation cell map (not a
rigorous enclosure: sampling resolution and padding are declared inputs and
recorded in every output).  Attracting and repelling blocks play the role of
trapping and repelling regions; comb_inv and comb_inv_plus use weak ("exists
a walk") semantics, which is what keeps the join laws and the
outer-approximation soundness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from . import expr as exprmod
from .lattice import SetLattice, birkhoff_embedding, checked_sublattice
from .lifting import AttractorLiftSpec, LiftProblem, PartialLift, lift, transport_by_duality
from .order import TooLarge, closed_masks, enum_bound

GRID_ENUM_BOUND = 16
DEFAULT_SAMPLES = 32
DEFAULT_PADDING = 1e-9


class ImageOutOfDomain(ValueError):
    def __init__(self, cell: int, value: float):
        self.cell = cell
        self.value = value
        super().__init__(f"sampled image of cell {cell} lands outside the domain: {value}")


class NotARepellingBlock(ValueError):
    pass


class NotAnAttractingBlock(ValueError):
    pass


@dataclass(frozen=True)
class CellGrid:
    """n_cells closed equal-width subintervals of [lo, hi]; dim is fixed to 1."""

    lo: float
    hi: float
    n_cells: int
    dim: int = 1

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("domain must satisfy lo < hi")
        if self.n_cells <= 0:
            raise ValueError("n_cells must be positive")
        if self.dim != 1:
            raise ValueError("only 1-D grids are supported")

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
    """A multivalued map on grid cells; every cell has at least one target."""

    grid: CellGrid
    arrows: tuple[frozenset, ...]

    def __post_init__(self):
        if len(self.arrows) != self.grid.n_cells:
            raise ValueError("arrows must cover every cell")
        for c, tgt in enumerate(self.arrows):
            if not tgt:
                raise ValueError(f"cell {c} has no targets")
            for j in tgt:
                if not 0 <= j < self.grid.n_cells:
                    raise ValueError(f"cell {c} has an invalid target {j}")

    @property
    def n(self) -> int:
        return self.grid.n_cells

    def all_cells(self) -> frozenset:
        return frozenset(range(self.n))

    def image(self, cells: Iterable[int]) -> frozenset:
        out = set()
        for c in cells:
            out |= self.arrows[c]
        return frozenset(out)

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
    if padding < 0:
        raise ValueError("padding must be nonnegative")
    f = exprmod.parse(expression)
    arrows = []
    for c in range(grid.n_cells):
        a, b = grid.cell_bounds(c)
        vals = []
        for k in range(samples_per_cell):
            x = a + (b - a) * k / (samples_per_cell - 1)
            vals.append(f(x))
        mn, mx = min(vals), max(vals)
        if mn < grid.lo or mx > grid.hi:
            raise ImageOutOfDomain(c, mn if mn < grid.lo else mx)
        arrows.append(grid.cells_intersecting(mn - padding, mx + padding))
    return CellMap(grid, tuple(arrows))


# -- blocks and combinatorial invariance --------------------------------------


def is_attracting_block(cells: Iterable[int], cmap: CellMap) -> bool:
    n = frozenset(cells)
    att = cmap.image(n) <= n
    rep_c = cmap.preimage(cmap.all_cells() - n) <= cmap.all_cells() - n
    if att != rep_c:
        raise AssertionError("block complement law failed")
    return att


def is_repelling_block(cells: Iterable[int], cmap: CellMap) -> bool:
    n = frozenset(cells)
    return cmap.preimage(n) <= n


def _scc_cycle_cells(cells: frozenset, cmap: CellMap) -> frozenset:
    """Cells of the restricted graph lying on a cycle (cyclic SCCs), Tarjan, iterative."""
    index = {}
    low = {}
    onstack = {}
    stack = []
    out = set()
    counter = [0]
    for root in sorted(cells):
        if root in index:
            continue
        work = [(root, iter(sorted(cmap.arrows[root] & cells)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(sorted(cmap.arrows[w] & cells))))
                    advanced = True
                    break
                elif onstack.get(w):
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1 or comp[0] in cmap.arrows[comp[0]]:
                    out.update(comp)
    return frozenset(out)


def comb_inv(cells: Iterable[int], cmap: CellMap) -> frozenset:
    """Cells on a bi-infinite walk inside the set: reach and are reached by a cycle."""
    n = frozenset(cells)
    cyc = _scc_cycle_cells(n, cmap)
    fwd = set(cyc)
    frontier = set(cyc)
    while frontier:
        nxt = {w for c in frontier for w in cmap.arrows[c] & n} - fwd
        fwd |= nxt
        frontier = nxt
    bwd = set(cyc)
    changed = True
    while changed:
        add = {c for c in n - bwd if cmap.arrows[c] & bwd}
        bwd |= add
        changed = bool(add)
    return frozenset(fwd & bwd)


def comb_inv_plus(cells: Iterable[int], cmap: CellMap) -> frozenset:
    """Cells admitting an infinite forward walk inside the set: those reaching a cycle."""
    n = frozenset(cells)
    cyc = _scc_cycle_cells(n, cmap)
    bwd = set(cyc)
    changed = True
    while changed:
        add = {c for c in n - bwd if cmap.arrows[c] & bwd}
        bwd |= add
        changed = bool(add)
    return frozenset(bwd)


def attracting_blocks(cmap: CellMap, bound: int | None = None) -> list[frozenset]:
    """The cell sets closed under the arrows, in ascending mask order."""
    limit = enum_bound(GRID_ENUM_BOUND) if bound is None else bound
    n = cmap.n
    if n > limit:
        raise TooLarge(f"{n} cells exceeds the enumeration bound {limit}")
    arrows_masks = [0] * n
    for c in range(n):
        for j in cmap.arrows[c]:
            arrows_masks[c] |= 1 << j
    return [frozenset(i for i in range(n) if m >> i & 1) for m in closed_masks(arrows_masks)]


def repelling_blocks(cmap: CellMap, bound: int | None = None) -> list[frozenset]:
    full = cmap.all_cells()
    return [full - b for b in attracting_blocks(cmap, bound)]


def block_lattices(
    cmap: CellMap,
    bound: int | None = None,
    seeds: Sequence[Iterable[int]] | None = None,
) -> tuple[SetLattice, SetLattice]:
    """The attracting-block and repelling-block lattices.

    Exhaustive when n_cells is inside the bound; otherwise the sublattice
    generated from forward images of the seed blocks.
    """
    universe = tuple(range(cmap.n))
    try:
        att = attracting_blocks(cmap, bound)
        rep = repelling_blocks(cmap, bound)
        return (
            SetLattice(universe, att, check=False),
            SetLattice(universe, rep, check=False),
        )
    except TooLarge:
        if seeds is None:
            raise
    family = {frozenset(), cmap.all_cells()}
    for seed in seeds:
        blk = frozenset(seed)
        if not is_attracting_block(blk, cmap):
            raise NotAnAttractingBlock(f"seed {sorted(blk)} is not an attracting block")
        while True:
            family.add(blk)
            nxt = cmap.image(blk)
            if nxt == blk:
                break
            blk = nxt
    family = _close_family(family)
    att = SetLattice(universe, family, check=False)
    rep = SetLattice(universe, [cmap.all_cells() - b for b in family], check=False)
    return att, rep


def _close_family(family):
    family = set(family)
    changed = True
    while changed:
        changed = False
        for a in list(family):
            for b in list(family):
                for c in (a | b, a & b):
                    if c not in family:
                        family.add(c)
                        changed = True
    return family


def comb_att_lattice(cmap: CellMap) -> SetLattice:
    """{comb_inv(N) | N an attracting block}, join union, meet comb_inv(cap).

    The join law and the meet identity for attracting blocks are re-verified
    at runtime over the block family actually used.
    """
    att_blocks, _ = block_lattices(cmap)
    blocks = list(att_blocks.elements)
    cache: dict[frozenset, frozenset] = {}

    def ci(n: frozenset) -> frozenset:
        if n not in cache:
            cache[n] = comb_inv(n, cmap)
        return cache[n]

    elems = {ci(b) for b in blocks}
    for a in blocks:
        for b in blocks:
            if ci(a | b) != ci(a) | ci(b):
                raise AssertionError(f"comb_inv join law fails at {sorted(a)}, {sorted(b)}")
    for a in elems:
        for b in elems:
            if ci(frozenset(ci(a) & ci(b))) != ci(a & b):
                raise AssertionError(f"comb_inv meet identity fails at {sorted(a)}, {sorted(b)}")
    meet = lambda x, y: comb_inv(x & y, cmap)
    return SetLattice(tuple(range(cmap.n)), elems, meet=meet)


def comb_rep_lattice(cmap: CellMap) -> SetLattice:
    """{comb_inv_plus(W) | W a repelling block}, join union, meet comb_inv_plus(cap)."""
    _, rep_blocks = block_lattices(cmap)
    elems = {comb_inv_plus(w, cmap) for w in rep_blocks.elements}
    meet = lambda x, y: comb_inv_plus(x & y, cmap)
    return SetLattice(tuple(range(cmap.n)), elems, meet=meet)


def shrink_repelling_block(
    block: Iterable[int],
    cmap: CellMap,
    max_depth: int | None = None,
) -> frozenset:
    """Backward-image shrinking W_k = W ^ F^-1(W_{k-1}).

    Stops at the fixed point, which equals comb_inv_plus(W) and is reached
    within n_cells steps, or after ``max_depth`` steps.
    """
    w = frozenset(block)
    if not is_repelling_block(w, cmap):
        raise NotARepellingBlock(f"{sorted(w)} is not a repelling block")
    return _shrink_rep_steps(w, cmap, cmap.n if max_depth is None else max_depth)


def _shrink_rep_steps(w: frozenset, cmap: CellMap, depth: int) -> frozenset:
    for _ in range(depth):
        nxt = w & cmap.preimage(w)
        if nxt == w:
            return w
        w = nxt
    return w


def _shrink_att_steps(w: frozenset, cmap: CellMap, depth: int) -> frozenset:
    for _ in range(depth):
        nxt = cmap.image(w)
        if nxt == w:
            return w
        w = nxt
    return w


def _forward_closure(cells: frozenset, cmap: CellMap) -> frozenset:
    out = set(cells)
    frontier = set(cells)
    while frontier:
        nxt = {w for c in frontier for w in cmap.arrows[c]} - out
        out |= nxt
        frontier = nxt
    return frozenset(out)


def _shrinking_oracle(partial: PartialLift, q, depths: Iterable[int], block) -> dict:
    """Conditioners by progressive shrinking, deepest shrink = the image itself.

    ``block(l, depth)`` is the conditioner for the L element l at that
    depth.  Retries with deeper shrinking before giving up; on exhaustion it
    returns the deepest family and the engine reports the obstruction.
    Reads the embedding from the partial lift's own problem so that it works
    both for direct problems and for duality-transported ones.
    """
    problem = partial.problem
    s = problem.s
    downs = problem.down_sets()
    mu = frozenset(problem.poset.down_set(q).members)
    k_lam = partial.table[partial.lam]
    family = {}
    for depth in depths:
        family = {alpha: block(s[alpha], depth) for alpha in downs}
        if all((family[mu] & family[alpha]) <= k_lam for alpha in downs if q not in alpha):
            return family
    return family


def grid_lift_problem(cmap: CellMap, images: Sequence[Iterable[int]]) -> LiftProblem:
    """Package a repeller-side lift: h = comb_inv_plus on repelling blocks.

    The image family must form a bounded distributive sublattice under union
    and comb_inv_plus(cap); each image is its own repelling block (anything
    outside a block pointing into the walk-core would itself have an infinite
    walk), so sections are the images themselves, and conditioners shrink
    from them.
    """
    meet = lambda a, b: comb_inv_plus(a & b, cmap)
    lat = checked_sublattice(tuple(range(cmap.n)), images, meet, comb_inv_plus(cmap.all_cells(), cmap))
    poset, s = birkhoff_embedding(lat)

    def section(l: frozenset) -> frozenset:
        if not is_repelling_block(l, cmap) or comb_inv_plus(l, cmap) != l:
            raise NotARepellingBlock(f"no repelling block realizes {sorted(l)}")
        return l

    def oracle(partial: PartialLift, q) -> dict:
        return _shrinking_oracle(partial, q, range(cmap.n + 1), lambda l, d: _shrink_rep_steps(l, cmap, d))

    return LiftProblem(
        poset=poset,
        target=lat,
        s=s,
        ambient=cmap.all_cells(),
        h=lambda w: comb_inv_plus(w, cmap),
        section=section,
        conditioner_oracle=oracle,
        member=lambda w: is_repelling_block(w, cmap),
        top_unique=True,
    )


def grid_attractor_lift(
    cmap: CellMap,
    images: Sequence[Iterable[int]],
    seeds: Mapping[frozenset, frozenset] | None = None,
    direct: bool = False,
    pinned: Mapping[frozenset, frozenset] | None = None,
):
    """Lift an attractor-side sublattice, by duality transport or directly.

    The duality route realizes * as A -> comb_inv_plus(N^c) for a block N
    with comb_inv(N) = A, lifts on the repeller side, and transports back
    through cell-set complement.  The direct route runs the induction with
    h = comb_inv on attracting blocks; ``pinned`` forces specific block
    choices (and the obstruction, when the pinned family admits no
    conditioners, surfaces as ObstructionFound).
    """
    ambient = cmap.all_cells()
    meet = lambda a, b: comb_inv(a & b, cmap)
    lat = checked_sublattice(tuple(range(cmap.n)), images, meet, comb_inv(ambient, cmap))
    poset, s = birkhoff_embedding(lat)
    seeds = dict(seeds or {})
    pinned = dict(pinned or {})

    def att_block_for(a: frozenset) -> frozenset:
        if a in pinned:
            return pinned[a]
        blk = seeds.get(a, a)
        if not is_attracting_block(blk, cmap):
            blk = _forward_closure(blk, cmap)
        if comb_inv(blk, cmap) != a:
            raise NotAnAttractingBlock(f"no attracting block realizes {sorted(a)}")
        return blk

    if not direct:
        def star(a: frozenset) -> frozenset:
            return comb_inv_plus(ambient - att_block_for(a), cmap)

        rep_images = {star(a) for a in lat.elements}
        spec = AttractorLiftSpec(
            poset=poset,
            att_lattice=lat,
            s_att=s,
            star=star,
            att_h=lambda n: comb_inv(n, cmap),
            rep_problem=lambda dual, s_rep: replace(
                grid_lift_problem(cmap, rep_images), poset=dual, s=dict(s_rep)
            ),
            ambient=ambient,
            member=lambda n: is_attracting_block(n, cmap),
        )
        return transport_by_duality(spec)

    def block(l: frozenset, depth: int) -> frozenset:
        return pinned[l] if l in pinned else _shrink_att_steps(att_block_for(l), cmap, depth)

    def oracle(partial: PartialLift, q) -> dict:
        return _shrinking_oracle(partial, q, range(cmap.n + 1), block)

    problem = LiftProblem(
        poset=poset,
        target=lat,
        s=s,
        ambient=ambient,
        h=lambda n: comb_inv(n, cmap),
        section=att_block_for,
        conditioner_oracle=oracle,
        member=lambda n: is_attracting_block(n, cmap),
        top_unique=comb_inv(ambient, cmap) == ambient,
    )
    return lift(problem)
