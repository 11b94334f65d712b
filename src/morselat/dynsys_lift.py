"""Lift problems for exact finite systems.

On a finite discrete space every repeller is a repelling neighborhood of
itself and every attractor an attracting neighborhood of itself, so sections
are the lattice elements themselves and v_alpha = s(alpha) always satisfies
the shrink condition (the repeller meet is intersection, and Inv(a ^ b) =
a ^ b for attractors, which are unions of cycles).  The repeller side is
lifted directly through Inv+; the attractor problem (h = Inv) goes through
the duality transport onto a repeller problem on the dual poset.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .dynsys import FiniteDynSys
from .lattice import NotASublattice, SetLattice, birkhoff_embedding, checked_sublattice
from .lifting import LiftCertificate, LiftProblem, PartialLift, lift, transport_by_duality
from .order import Poset


def _self_conditioner_oracle(partial: PartialLift, q) -> dict:
    """v_alpha = s(alpha): legal because each element is its own h-section."""
    return {alpha: value for alpha, value in partial.problem.s.items()}


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


def _repeller_problem(system: FiniteDynSys, lat: SetLattice, poset: Poset, s: Mapping) -> LiftProblem:
    return LiftProblem(
        poset=poset,
        target=lat,
        s=s,
        ambient=frozenset(system.states),
        h=system.inv_plus,
        section=lambda l: l,
        conditioner_oracle=_self_conditioner_oracle,
        member=system.is_repelling_nbhd,
        top_unique=True,
    )


def repeller_lift_problem(system: FiniteDynSys, elements: Sequence[Iterable]) -> LiftProblem:
    lat = repeller_sublattice(system, elements)
    return _repeller_problem(system, lat, *birkhoff_embedding(lat))


def repeller_lift(system: FiniteDynSys, elements: Sequence[Iterable]) -> LiftCertificate:
    return lift(repeller_lift_problem(system, elements))


def attractor_lift(system: FiniteDynSys, elements: Sequence[Iterable]) -> LiftCertificate:
    lat = attractor_sublattice(system, elements)
    poset, s = birkhoff_embedding(lat)
    problem = LiftProblem(
        poset=poset,
        target=lat,
        s=s,
        ambient=frozenset(system.states),
        h=system.inv,
        section=lambda l: l,
        conditioner_oracle=_self_conditioner_oracle,
        member=system.is_attracting_nbhd,
        top_unique=False,
    )
    star = {a: system.dual_repeller(a) for a in lat.elements}
    rep_lat = repeller_sublattice(system, star.values())
    return transport_by_duality(
        problem, star.__getitem__, lambda dual, s_rep: _repeller_problem(system, rep_lat, dual, s_rep)
    )
