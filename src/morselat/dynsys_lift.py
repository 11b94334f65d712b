"""Lift problems for exact finite systems.

On a finite discrete space every repeller is a repelling neighborhood of
itself and every attractor an attracting neighborhood of itself, so the
section is the identity and the conditioners are the lattice elements
themselves.  The repeller side is lifted directly through Inv+; the
attractor problem (h = Inv) goes through the duality transport onto the
same repeller side on the dual poset, whose embedding check certifies the
dual family.

A given family is masked once, over the states, and tested element by
element on its masks: a union of cycles is an attractor, a union of basins
a repeller.  Both families are closed under intersection, and Inv fixes
every union of cycles, so the attractor meet Inv(a & b) is plain a & b.
The masks make one SetLattice, checked without its core: 0, the top (all
states, or the union of the cycles) and closure under union and
intersection make it a ring of sets, distributive by set algebra, with no
core call, no triple and no label set.  The problems run on masks over the
states, with the mask kernels of ``dynsys`` as h, membership and *.
"""

from __future__ import annotations

from functools import partial
from operator import and_
from typing import Iterable, Sequence

from .dynsys import FiniteDynSys, _inv, _inv_plus
from .lattice import NotASublattice, SetLattice, _require_sublattice
from .lifting import LiftCertificate, LiftProblem, lift, transport_by_duality


def _sublattice(system: FiniteDynSys, elements: Sequence[Iterable], is_member, what, top, core=None) -> SetLattice:
    """The elements as one SetLattice over the states, each mask tested by ``is_member``, then checked as a ring."""
    family = list(dict.fromkeys(map(system.mask, elements)))
    for m in family:
        if not is_member(m):
            e = system.unmask(m)
            raise NotASublattice(f"{sorted(e, key=system.index.get)} is not {what}", e)
    lat = SetLattice(system.states, family, core, check=False)
    _require_sublattice(lat, family, top, and_)
    return lat


def repeller_sublattice(system: FiniteDynSys, elements: Sequence[Iterable]) -> SetLattice:
    """The top is all states; the lattice has no core."""
    return _sublattice(system, elements, system._is_repeller, "a repeller", system._full)


def attractor_sublattice(system: FiniteDynSys, elements: Sequence[Iterable]) -> SetLattice:
    """The top is the union of all cycles, Inv of all states; the lattice has the core Inv, as Att does."""
    top = _inv(system._cycles, system._full)
    return _sublattice(system, elements, system._is_attractor, "an attractor", top, partial(_inv, system._cycles))


def _repeller_side(system: FiniteDynSys) -> tuple:
    """h = Inv+, the identity section and repelling-neighborhood membership: the repeller lift's and its transport's."""
    return partial(_inv_plus, system._pre1), lambda l: l, system._is_repelling_nbhd


def repeller_lift_problem(system: FiniteDynSys, elements: Sequence[Iterable]) -> LiftProblem:
    return LiftProblem.on(repeller_sublattice(system, elements), *_repeller_side(system))


def repeller_lift(system: FiniteDynSys, elements: Sequence[Iterable]) -> LiftCertificate:
    return lift(repeller_lift_problem(system, elements))


def attractor_lift(system: FiniteDynSys, elements: Sequence[Iterable]) -> LiftCertificate:
    lat = attractor_sublattice(system, elements)
    problem = LiftProblem.on(lat, partial(_inv, system._cycles), lambda l: l, system._is_attracting_nbhd)
    star = {a: system._dual_mask(a, True) for a in lat.masks}
    return transport_by_duality(problem, star.__getitem__, *_repeller_side(system))
