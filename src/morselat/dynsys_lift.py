"""Lift problems for exact finite systems.

On a finite discrete space every repeller is a repelling neighborhood of
itself and every attractor an attracting neighborhood of itself, so the
section is the identity and the conditioners are the lattice elements
themselves.  The repeller side is lifted directly through Inv+; the
attractor problem (h = Inv) goes through the duality transport onto a
repeller problem on the dual poset, whose embedding check certifies the
dual family.

A given family is first tested element by element on masks: a union of
cycles is an attractor, a union of basins a repeller.  Both families are
closed under intersection, and Inv fixes every union of cycles, so the
attractor meet Inv(a & b) is plain a & b.  The family then goes to
checked_sublattice with no core: 0, the top, and closure under union and
intersection over pairs make it a ring of sets, distributive by set algebra,
with no core call and no triple.  The problems run on masks over the
states, with the mask kernels of ``dynsys`` as h, membership and *.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from .dynsys import FiniteDynSys, _inv, _inv_plus
from .lattice import NotASublattice, SetLattice, _show, birkhoff_embedding, checked_sublattice
from .lifting import LiftCertificate, LiftProblem, lift, transport_by_duality
from .order import Poset


def _members(system: FiniteDynSys, elements: Sequence[Iterable], is_member: Callable[[int], bool], what: str) -> list:
    """The elements as frozensets; the first whose mask fails ``is_member`` raises "... is not ``what``"."""
    family = [frozenset(e) for e in elements]
    for e in family:
        if not is_member(system.mask(e)):
            raise NotASublattice(f"{_show(system.states, e)} is not {what}", e)
    return family


def repeller_sublattice(system: FiniteDynSys, elements: Sequence[Iterable]) -> SetLattice:
    """The top is all states; the lattice has no core."""
    return checked_sublattice(system.states, _members(system, elements, system._is_repeller, "a repeller"))


def attractor_sublattice(system: FiniteDynSys, elements: Sequence[Iterable]) -> SetLattice:
    """The top is the union of all cycles, Inv of all states, so those states are the universe of the check.

    The lattice returned keeps the core Inv over all states, as
    ``att_lattice()`` does, so its meet on any two sets is Inv(a & b); on its
    own elements that is plain intersection.
    """
    family = _members(system, elements, system._is_attractor, "an attractor")
    on_cycles = system.inv(system.states)
    ring = checked_sublattice([x for x in system.states if x in on_cycles], family)
    return SetLattice(system.states, ring.elements, system.inv, check=False)


def _repeller_problem(system: FiniteDynSys, poset: Poset, s: Mapping[int, int]) -> LiftProblem:
    return LiftProblem(
        poset=poset,
        s=s,
        universe=system.states,
        h=partial(_inv_plus, system._pre1),
        section=lambda l: l,
        member=system._is_repelling_nbhd,
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
        universe=system.states,
        h=partial(_inv, system._cycles),
        section=lambda l: l,
        member=system._is_attracting_nbhd,
    )
    star = {a: system._dual_mask(a, True) for a in lat.masks}
    return transport_by_duality(problem, star.__getitem__, lambda dual, s_rep: _repeller_problem(system, dual, s_rep))
