"""Lift problems for exact finite systems.

On a finite discrete space every repeller is a repelling neighborhood of
itself and every attractor an attracting neighborhood of itself, so sections
default to the lattice elements themselves and the conditioner family
v_alpha = s(alpha) always satisfies the shrink condition (the meet on the
repeller side is plain intersection).  The repeller side is lifted directly
through Inv+; the attractor side goes through the duality transport.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

from .dynsys import FiniteDynSys
from .lattice import NotASublattice, SetLattice, birkhoff_embedding, checked_sublattice
from .lifting import (
    AttractorLiftSpec,
    LiftCertificate,
    LiftProblem,
    PartialLift,
    lift,
    transport_by_duality,
)


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
    meet = lambda a, b: system.inv(a & b)
    return checked_sublattice(system.states, family, meet, system.inv(system.states))


def repeller_lift_problem(system: FiniteDynSys, elements: Sequence[Iterable]) -> LiftProblem:
    lat = repeller_sublattice(system, elements)
    poset, s = birkhoff_embedding(lat)
    return LiftProblem(
        poset=poset,
        target=lat,
        s=s,
        ambient=frozenset(system.states),
        h=lambda u: system.inv_plus(u),
        section=lambda l: l,
        conditioner_oracle=_self_conditioner_oracle,
        member=lambda u: system.is_repelling_nbhd(u),
        top_unique=True,
    )


def repeller_lift(system: FiniteDynSys, elements: Sequence[Iterable]) -> LiftCertificate:
    return lift(repeller_lift_problem(system, elements))


def attractor_lift(system: FiniteDynSys, elements: Sequence[Iterable]) -> LiftCertificate:
    lat = attractor_sublattice(system, elements)
    poset, s = birkhoff_embedding(lat)
    spec = AttractorLiftSpec(
        poset=poset,
        att_lattice=lat,
        s_att=s,
        star=lambda a: system.dual_repeller(a),
        att_h=lambda u: system.inv(u),
        rep_problem=lambda dual, s_rep: replace(
            repeller_lift_problem(system, set(s_rep.values())), poset=dual, s=dict(s_rep)
        ),
        ambient=frozenset(system.states),
        member=lambda u: system.is_attracting_nbhd(u),
    )
    return transport_by_duality(spec)
