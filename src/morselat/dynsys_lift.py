"""Lift problems for exact finite systems.

On a finite discrete space every repeller is a repelling neighborhood of
itself and every attractor an attracting neighborhood of itself, so the
section is the identity and the conditioners are the lattice elements
themselves.  The repeller side is lifted directly through Inv+; the
attractor problem (h = Inv) goes through the duality transport onto a
repeller problem on the dual poset, whose embedding check certifies the
dual family.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .dynsys import FiniteDynSys
from .lattice import NotASublattice, SetLattice, birkhoff_embedding, checked_sublattice
from .lifting import LiftCertificate, LiftProblem, lift, transport_by_duality
from .order import Poset


def repeller_sublattice(system: FiniteDynSys, elements: Sequence[Iterable]) -> SetLattice:
    family = [frozenset(e) for e in elements]
    for e in family:
        flags = system.classify_invariance(e)
        if not (flags.forward_backward and system.inv_plus(e) == e):
            raise NotASublattice(f"{sorted(map(repr, e))} is not a repeller", e)
    return checked_sublattice(system.states, family)


def attractor_sublattice(system: FiniteDynSys, elements: Sequence[Iterable]) -> SetLattice:
    family = [frozenset(e) for e in elements]
    for e in family:
        if system.image(e) != e or system.omega(e) != e:
            raise NotASublattice(f"{sorted(map(repr, e))} is not an attractor", e)
    return checked_sublattice(system.states, family, system.inv)


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
