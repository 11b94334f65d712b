"""Lift problems for exact finite systems.

On a finite discrete space every repeller is a repelling neighborhood of
itself and every attractor an attracting neighborhood of itself, so the
section is the identity and the conditioners are the lattice elements
themselves.  The repeller side is lifted directly through Inv+; the
attractor problem (h = Inv) goes through the duality transport onto a
repeller problem on the dual poset, whose embedding check certifies the
dual family.

A given family is checked on masks, as a ring of sets.  Attractors are the
unions of cycles and repellers the unions of basins; both families are
closed under intersection, and Inv fixes every union of cycles, so the
attractor meet Inv(a & b) is plain a & b.  A family of them that holds 0
and the top and is closed under union and intersection over pairs is a
ring of sets, distributive by set algebra, with no core call and no triple.
"""

from __future__ import annotations

from operator import and_
from typing import Callable, Iterable, Mapping, Sequence

from .dynsys import FiniteDynSys
from .lattice import NotASublattice, SetLattice, _require_bounds, _require_closed, _show, birkhoff_embedding
from .lifting import LiftCertificate, LiftProblem, lift, transport_by_duality
from .order import Poset, canonical_order


def _ring_of_sets(
    system: FiniteDynSys,
    elements: Sequence[Iterable],
    is_member: Callable[[int], bool],
    what: str,
    top: Iterable,
    core: Callable[[frozenset], frozenset] | None,
) -> SetLattice:
    """The family as a SetLattice with ``core``, once each element passes ``is_member`` and the masks form a ring.

    The first element that fails raises NotASublattice "... is not ``what``"
    with the element as witness; then the bounds and the pair closure under
    union and intersection, as in ``checked_sublattice``.  ``core`` is only
    carried to the lattice: no check calls it.
    """
    masks = {}
    for e in elements:
        m = system.mask(e)
        if not is_member(m):
            bad = system.unmask(m)
            raise NotASublattice(f"{_show(system.states, bad)} is not {what}", bad)
        masks[m] = None
    family = list(masks)
    _require_bounds(system.states, family, 0, system.mask(top), system.unmask)
    _require_closed(system.states, family, and_, system.unmask)
    ordered = canonical_order(family, len(system.states))
    return SetLattice(system.states, map(system.unmask, ordered), core, check=False, _canonical=True)


def repeller_sublattice(system: FiniteDynSys, elements: Sequence[Iterable]) -> SetLattice:
    """The top is all states; the lattice has no core."""
    return _ring_of_sets(system, elements, system._is_repeller, "a repeller", system.states, None)


def attractor_sublattice(system: FiniteDynSys, elements: Sequence[Iterable]) -> SetLattice:
    """The top is the union of all cycles, Inv of all states.

    The lattice keeps the core Inv, as ``att_lattice()`` does, so its meet on
    any two sets is Inv(a & b); on its own elements that is plain
    intersection.
    """
    return _ring_of_sets(system, elements, system._is_attractor, "an attractor", system.inv(system.states), system.inv)


def _repeller_problem(system: FiniteDynSys, poset: Poset, s: Mapping) -> LiftProblem:
    return LiftProblem(
        poset=poset,
        s=s,
        ambient=frozenset(system.states),
        h=system.inv_plus,
        section=lambda l: l,
        member=system.is_repelling_nbhd,
    )


def repeller_lift_problem(system: FiniteDynSys, elements: Sequence[Iterable]) -> LiftProblem:
    return _repeller_problem(system, *birkhoff_embedding(repeller_sublattice(system, elements)))


def repeller_lift(system: FiniteDynSys, elements: Sequence[Iterable]) -> LiftCertificate:
    return lift(repeller_lift_problem(system, elements))


def attractor_lift(system: FiniteDynSys, elements: Sequence[Iterable]) -> LiftCertificate:
    lat = attractor_sublattice(system, elements)
    poset, s = birkhoff_embedding(lat)
    problem = LiftProblem(
        poset=poset,
        s=s,
        ambient=frozenset(system.states),
        h=system.inv,
        section=lambda l: l,
        member=system.is_attracting_nbhd,
    )
    star = {a: system.dual_repeller(a) for a in lat.elements}
    return transport_by_duality(problem, star.__getitem__, lambda dual, s_rep: _repeller_problem(system, dual, s_rep))
