"""Constructive lifting of lattice embeddings through epimorphisms.

Given an embedding s of a down-set lattice O(P) into L and an epimorphism
h : K -> L evaluated by oracles, the engine runs the inductive construction:
start with k(0) = 0, repeatedly pick a minimal q outside the current down-set
lambda, obtain conditioners v_alpha in h^-1(s(alpha)) satisfying

    v_mu ^ v_alpha <= k(lambda)      (mu = down-set of q, q not in alpha)

combine them with the cached ones by meet, carve the new Booleanization atom

    B_q = v_mu ^ k(lambda)^c

and extend k to all down-sets inside lambda union mu by unions of atoms.
Every concrete K in this package is a sublattice of a powerset, so atoms are
plain set differences and the ambient Boolean algebra never needs to be
materialized.

The certificate records the assignment, the atoms, and a per-step audit of
the disjointness and annihilation identities; LiftCertificate.verify()
re-checks everything independently of the construction path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .lattice import HomReport, SetLattice
from .order import Poset, all_posets


class LiftError(Exception):
    pass


class ObstructionFound(LiftError):
    def __init__(self, step, q, alpha, witness):
        self.step = step
        self.q = q
        self.alpha = alpha
        self.witness = witness
        super().__init__(
            f"step {step}: no conditioner family for q={q!r}: "
            f"v_mu ^ v_alpha escapes k(lambda) at alpha={sorted(map(repr, alpha))}, "
            f"excess {sorted(map(repr, witness))}"
        )


class SectionInconsistent(LiftError):
    pass


class TopNotUnique(LiftError):
    pass


class ConditionerMissing(LiftError):
    def __init__(self, alpha):
        self.alpha = alpha
        super().__init__(f"no conditioner supplied for alpha={sorted(map(repr, alpha))}")


class NotAnEmbedding(LiftError):
    pass


@dataclass(frozen=True)
class LiftProblem:
    """A lifting instance: find k with h o k = s.

    ``s`` maps every down-set of ``poset`` (as a frozenset of carrier labels)
    to an element of ``target``.  K is a sublattice of the powerset of
    ``ambient``; ``h`` evaluates the epimorphism on any K element,
    ``section`` produces some h-preimage of an L element, and
    ``conditioner_oracle(partial_lift, q)`` returns a full family
    {alpha -> v_alpha} over O(P).
    """

    poset: Poset
    target: SetLattice
    s: Mapping[frozenset, frozenset]
    ambient: frozenset
    h: Callable[[frozenset], frozenset]
    section: Callable[[frozenset], frozenset]
    conditioner_oracle: Callable[["PartialLift", object], Mapping[frozenset, frozenset]]
    member: Callable[[frozenset], bool] | None = None
    top_unique: bool = True

    def down_sets(self) -> list[frozenset]:
        return [frozenset(d.members) for d in self.poset.all_down_sets()]

    def check_embedding(self) -> None:
        downs = self.down_sets()
        missing = [d for d in downs if d not in self.s]
        if missing:
            raise NotAnEmbedding(f"s is not total on O(P); missing {missing[0]!r}")
        images = {d: self.s[d] for d in downs}
        if len(set(images.values())) != len(downs):
            raise NotAnEmbedding("s is not injective")
        lat = self.target
        if images[frozenset()] != lat.bottom:
            raise NotAnEmbedding("s(0) != 0")
        full = frozenset(self.poset.carrier)
        if images[full] != lat.top:
            raise NotAnEmbedding("s(1) != 1")
        for a in downs:
            for b in downs:
                if images[frozenset(a | b)] != lat.join(images[a], images[b]):
                    raise NotAnEmbedding(f"s does not preserve joins at {(a, b)!r}")
                if images[frozenset(a & b)] != lat.meet(images[a], images[b]):
                    raise NotAnEmbedding(f"s does not preserve meets at {(a, b)!r}")


@dataclass
class PartialLift:
    """k on O(lambda^T): all down-sets inside lambda, plus the top P -> 1."""

    problem: LiftProblem
    lam: frozenset
    table: dict[frozenset, frozenset]
    conditioners: dict[frozenset, frozenset] | None = None

    def domain(self) -> list[frozenset]:
        full = frozenset(self.problem.poset.carrier)
        out = [d for d in self.problem.down_sets() if d <= self.lam]
        if full not in out:
            out.append(full)
        return out


@dataclass(frozen=True)
class LiftStep:
    q: object
    mu: frozenset
    lam_before: frozenset
    conditioners: dict
    atom: frozenset
    checks: dict


@dataclass
class LiftCertificate:
    problem: LiftProblem
    table: dict[frozenset, frozenset]
    atoms: dict
    audit: list[LiftStep]
    top_preserved: bool

    def verify(self) -> None:
        """Re-check hom laws, injectivity and h o k = s, independent of the construction."""
        prob = self.problem
        downs = prob.down_sets()
        for d in downs:
            if d not in self.table:
                raise LiftError(f"certificate table misses {d!r}")
            if prob.h(self.table[d]) != prob.s[d]:
                raise LiftError(f"h(k({sorted(map(repr, d))})) != s(...)")
            if prob.member is not None and not prob.member(self.table[d]):
                raise LiftError(f"k({sorted(map(repr, d))}) is not a K element")
        if len({self.table[d] for d in downs}) != len(downs):
            raise LiftError("k is not injective")
        if self.table[frozenset()] != frozenset():
            raise LiftError("k(0) != 0")
        for a in downs:
            for b in downs:
                if self.table[frozenset(a | b)] != self.table[a] | self.table[b]:
                    raise LiftError(f"k does not preserve joins at {(a, b)!r}")
                if self.table[frozenset(a & b)] != self.table[a] & self.table[b]:
                    raise LiftError(f"k does not preserve meets at {(a, b)!r}")
        full = frozenset(prob.poset.carrier)
        if self.top_preserved and self.table[full] != prob.ambient:
            raise LiftError("k(1) != 1 but certificate claims top preservation")


def is_partial_lift(candidate: PartialLift, problem: LiftProblem | None = None) -> HomReport:
    """Def 5.4: hom laws on O(lambda^T) plus h(k(beta)) = s(beta) for beta <= lambda."""
    prob = problem or candidate.problem
    full = frozenset(prob.poset.carrier)
    downs = [d for d in prob.down_sets() if d <= candidate.lam]
    for d in downs:
        if d not in candidate.table:
            return HomReport(False, "totality on O(lambda^T)", (d,))
    if full not in candidate.table:
        return HomReport(False, "k(1) = 1 (missing top entry)", (full,))
    if candidate.table[full] != prob.ambient:
        return HomReport(False, "k(1) = 1", (full,))
    if candidate.table.get(frozenset()) != frozenset():
        return HomReport(False, "k(0) = 0", (frozenset(),))
    for a in downs:
        for b in downs:
            if candidate.table[frozenset(a | b)] != candidate.table[a] | candidate.table[b]:
                return HomReport(False, "k(a v b) = k(a) v k(b)", (a, b))
            if candidate.table[frozenset(a & b)] != candidate.table[a] & candidate.table[b]:
                return HomReport(False, "k(a ^ b) = k(a) ^ k(b)", (a, b))
    for d in downs:
        if prob.h(candidate.table[d]) != prob.s[d]:
            return HomReport(False, "h(k(beta)) = s(beta)", (d,))
    return HomReport(True)


def lift_atom(candidate: PartialLift, p) -> frozenset:
    """B(k)({p}) = k(down p) minus k(down p without p), inside the ambient powerset."""
    dp = frozenset(candidate.problem.poset.down_set(p).members)
    return candidate.table[dp] - candidate.table[dp - {p}]


def is_conditional_lift(candidate: PartialLift, problem: LiftProblem | None = None) -> HomReport:
    """Def 5.5 (Eq 18) cross-checked against the Prop 5.7 atom form.

    The two characterizations are equivalent; both are evaluated and must
    agree, otherwise the engine itself is broken.
    """
    prob = problem or candidate.problem
    base = is_partial_lift(candidate, prob)
    if not base:
        return base
    if candidate.conditioners is None:
        raise ConditionerMissing(frozenset())
    downs = prob.down_sets()
    for alpha in downs:
        if alpha not in candidate.conditioners:
            raise ConditionerMissing(alpha)
        v = candidate.conditioners[alpha]
        if prob.h(v) != prob.s[alpha]:
            return HomReport(False, "v_alpha in h^-1(s(alpha))", (alpha, v))
    lam_downs = [d for d in downs if d <= candidate.lam]
    eq18_witness = None
    for gamma in lam_downs:
        for beta in lam_downs:
            for alpha in downs:
                if gamma & alpha <= beta:
                    v = candidate.conditioners[alpha]
                    if (candidate.table[gamma] & v) - candidate.table[beta]:
                        eq18_witness = (gamma, alpha, beta)
                        break
            if eq18_witness:
                break
        if eq18_witness:
            break
    atom_witness = None
    for p in candidate.lam:
        bp = lift_atom(candidate, p)
        for alpha in downs:
            if p not in alpha and bp & candidate.conditioners[alpha]:
                atom_witness = (p, alpha)
                break
        if atom_witness:
            break
    if (eq18_witness is None) != (atom_witness is None):
        raise AssertionError(
            "Eq (18) and the Prop 5.7 atom form disagree: "
            f"{eq18_witness!r} vs {atom_witness!r}"
        )
    if eq18_witness:
        return HomReport(False, "Eq (18) k(gamma) ^ v_alpha <= k(beta)", eq18_witness)
    return HomReport(True)


def lift(problem: LiftProblem) -> LiftCertificate:
    """Run the lifting induction and return an audited certificate."""
    problem.check_embedding()
    poset = problem.poset
    full = frozenset(poset.carrier)
    downs = problem.down_sets()
    ambient = problem.ambient

    table: dict[frozenset, frozenset] = {frozenset(): frozenset(), full: ambient}
    atoms: dict = {}
    cond: dict[frozenset, frozenset] = {}
    audit: list[LiftStep] = []

    if not poset.carrier:
        top = ambient
        if problem.h(top) != problem.s[full]:
            raise SectionInconsistent("h(1) != s(1) on the empty poset")
        return LiftCertificate(problem, {frozenset(): ambient}, {}, [], True)

    lam: frozenset = frozenset()
    step = 0
    while lam != full:
        remaining = poset.mask_of(full - lam)
        q = min(
            poset.minimal_elements(within=remaining),
            key=lambda p: poset.index[p],
        )
        mu = frozenset(poset.down_set(q).members)
        mu_pred = mu - {q}
        partial = PartialLift(problem, lam, dict(table), dict(cond) if cond else None)

        step_cond = dict(problem.conditioner_oracle(partial, q))
        if step == 0:
            # base case: the first k(down q) is anchored by the section oracle;
            # the combine below may only legally shrink it (Remark on
            # conditioner shrinking), which keeps it an h-preimage of s(mu)
            v_mu = problem.section(problem.s[mu])
            if problem.h(v_mu) != problem.s[mu]:
                raise SectionInconsistent(
                    f"section for {sorted(map(repr, problem.s[mu]))} has the wrong h image"
                )
            cond[mu] = frozenset(v_mu)

        for alpha in downs:
            if alpha not in step_cond:
                raise ConditionerMissing(alpha)
            v = step_cond[alpha]
            if problem.h(v) != problem.s[alpha]:
                raise SectionInconsistent(
                    f"conditioner for alpha={sorted(map(repr, alpha))} has the wrong h image"
                )
            cond[alpha] = (cond[alpha] & v) if alpha in cond else frozenset(v)

        # Eq (20): v_mu ^ v_alpha <= k(lambda) whenever q not in alpha; at the
        # base step k(lambda) = 0 and this is exactly condition (i)
        k_lam = table[lam]
        for alpha in downs:
            if q in alpha:
                continue
            excess = (cond[mu] & cond[alpha]) - k_lam
            if excess:
                raise ObstructionFound(step, q, alpha, excess)

        b_q = cond[mu] - k_lam
        atoms[q] = b_q
        new_lam = frozenset(lam | mu)

        for alpha in downs:
            if alpha <= new_lam and q in alpha:
                table[alpha] = table[frozenset(alpha - {q})] | b_q

        checks = {
            "k(mu) = k(pred mu) v v_mu": table[mu] == table[mu_pred] | cond[mu],
            "h(k(mu)) = s(mu)": problem.h(table[mu]) == problem.s[mu],
        }
        if problem.member is not None:
            checks["k(mu) in K"] = problem.member(table[mu])
        # Eq (22): B_p ^ v_alpha = 0 for p in (lambda u mu) not in alpha
        ok22 = True
        for alpha in downs:
            for p in new_lam - alpha:
                if atoms[p] & cond[alpha]:
                    ok22 = False
        checks["Eq (22)"] = ok22
        # Eq (23): atoms pairwise disjoint
        checks["Eq (23)"] = not any(
            atoms[p] & b_q for p in new_lam if p != q
        )
        if not all(checks.values()):
            failed = [name for name, ok in checks.items() if not ok]
            raise LiftError(f"step {step} audit failed: {failed} (q={q!r})")
        audit.append(LiftStep(q, mu, lam, {a: cond[a] for a in downs}, b_q, checks))
        lam = new_lam
        step += 1

    # the final extension step replaced k(1) with the union of all atoms
    union_top = frozenset().union(*atoms.values())
    assert table[full] == union_top
    if problem.h(union_top) != problem.s[full]:
        raise LiftError("terminal h(k(1)) != s(1)")
    top_preserved = union_top == ambient
    if problem.top_unique and not top_preserved:
        raise TopNotUnique(
            "h^-1(1) = 1 was declared but the terminal value is not the ambient top"
        )
    cert = LiftCertificate(problem, table, atoms, audit, top_preserved)
    cert.verify()
    return cert


# -- condition (i) of spaciousness ------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    method: str
    witness: tuple | None = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return f"Ok ({self.method})"
        return f"counterexample ({self.method}): {self.witness!r}"


def check_condition_i(
    k_lattice: SetLattice,
    l_lattice: SetLattice,
    h: Mapping[frozenset, frozenset],
    bound: int = 10000,
) -> ConditionReport:
    """Def 5.8(i), decided on materialized K and L.

    h^-1(0) = {0} is sufficient (Prop 5.9).  Otherwise search partial lifts
    on minimal singletons: a violation is a pair of disjoint nonzero L
    elements (s of the singleton, s of alpha) and a preimage u of the first
    meeting every preimage of the second.
    """
    fibers: dict[frozenset, list[frozenset]] = {}
    for u in k_lattice.elements:
        fibers.setdefault(frozenset(h[u]), []).append(u)
    zero_fiber = fibers.get(l_lattice.bottom, [])
    if zero_fiber == [k_lattice.bottom]:
        return ConditionReport(True, "h^-1(0) = 0 (Prop 5.9)")
    work = 0
    for l1 in l_lattice.elements:
        if l1 == l_lattice.bottom:
            continue
        for l2 in l_lattice.elements:
            if l2 == l_lattice.bottom or l2 == l1:
                continue
            if l_lattice.meet(l1, l2) != l_lattice.bottom:
                continue
            # (l1, l2) is realizable as (s({q}), s(alpha)) by a two-antichain
            # embedding when l1 v l2 = 1, otherwise by a V-shaped poset
            for u in fibers.get(l1, []):
                work += 1
                if work > bound:
                    return ConditionReport(True, f"no violation within bound {bound}")
                if all(u & v != k_lattice.bottom for v in fibers.get(l2, [])):
                    return ConditionReport(False, "singleton partial-lift search", (l1, l2, u))
    return ConditionReport(True, "exhaustive singleton search")


# -- duality transport -------------------------------------------------------


@dataclass(frozen=True)
class AttractorLiftSpec:
    """Everything needed to lift an attractor-side embedding via diagram (24).

    The attractor-side embedding s_att : O(P) -> att_lattice is transported
    to the repeller side with s_rep = star o s_att o c, lifted there, and the
    answer is pulled back with k_att = c o k_rep o c, the outer c being set
    complement in the ambient space.
    """

    poset: Poset
    att_lattice: SetLattice
    s_att: Mapping[frozenset, frozenset]
    star: Callable[[frozenset], frozenset]
    att_h: Callable[[frozenset], frozenset]
    rep_problem: Callable[[Poset, Mapping[frozenset, frozenset]], LiftProblem]
    ambient: frozenset
    member: Callable[[frozenset], bool] | None = None


def transport_by_duality(spec: AttractorLiftSpec) -> LiftCertificate:
    poset = spec.poset
    dual = poset.dual()
    carrier = frozenset(poset.carrier)
    s_rep = {}
    for d in dual.all_down_sets():
        beta = frozenset(d.members)
        s_rep[beta] = spec.star(spec.s_att[frozenset(carrier - beta)])
    rep_problem = spec.rep_problem(dual, s_rep)
    rep_cert = lift(rep_problem)
    table = {}
    for d in poset.all_down_sets():
        alpha = frozenset(d.members)
        table[alpha] = spec.ambient - rep_cert.table[frozenset(carrier - alpha)]
    att_problem = LiftProblem(
        poset=poset,
        target=spec.att_lattice,
        s=dict(spec.s_att),
        ambient=spec.ambient,
        h=spec.att_h,
        section=lambda l: table[_find_key(spec.s_att, l)],
        conditioner_oracle=lambda partial, q: {},
        member=spec.member,
        top_unique=rep_problem.top_unique,
    )
    cert = LiftCertificate(att_problem, table, {}, list(rep_cert.audit), rep_cert.top_preserved)
    for alpha in att_problem.down_sets():
        if spec.att_h(table[alpha]) != spec.s_att[alpha]:
            raise LiftError(f"transport failed: Inv(k_A({sorted(map(repr, alpha))})) != s_A")
    cert.verify()
    return cert


def _find_key(mapping: Mapping, value):
    for k, v in mapping.items():
        if v == value:
            return k
    raise KeyError(value)


# -- spaciousness falsifier ---------------------------------------------------


@dataclass(frozen=True)
class FalsifierResult:
    status: str  # "no_counterexample" | "witness" | "bound_exceeded"
    method: str
    witness: tuple | None = None
    checked: int = 0

    def __str__(self):
        if self.status == "witness":
            return f"witness found ({self.method}): {self.witness!r}"
        return f"{self.status} ({self.method}, checked {self.checked})"


def spaciousness_falsifier(
    k_lattice: SetLattice,
    l_lattice: SetLattice,
    h: Mapping[frozenset, frozenset],
    poset_bound: int = 3,
    budget: int = 2_000_000,
) -> FalsifierResult:
    """One-sided search for a Def 5.8(ii) failure.

    Fast path: when every L element is its own h-section inside K, h is
    contractive, and the L meet is plain intersection, the self-conditioner
    family v_xi = s(xi) satisfies Eq (20) for every embedding and partial
    lift (v_mu ^ v_alpha = s(mu ^ alpha) <= s(lambda) <= k(lambda)), so no
    witness can exist.  Otherwise embeddings from all posets up to
    ``poset_bound`` elements, partial lifts, and conditioner families are
    enumerated within ``budget``.
    """
    fibers: dict[frozenset, list[frozenset]] = {}
    for u in k_lattice.elements:
        fibers.setdefault(frozenset(h[u]), []).append(u)

    structural = (
        all(l in k_lattice._eset and frozenset(h[l]) == l for l in l_lattice.elements)
        and all(frozenset(h[u]) <= u for u in k_lattice.elements)
        and all(
            l_lattice.meet(a, b) == a & b
            for a in l_lattice.elements
            for b in l_lattice.elements
        )
    )
    if structural:
        return FalsifierResult("no_counterexample", "self-section certificate")

    work = 0
    checked = 0
    for size in range(1, poset_bound + 1):
        labels = tuple(f"p{i}" for i in range(size))
        for poset in all_posets(labels):
            downs = [frozenset(d.members) for d in poset.all_down_sets()]
            irr = list(poset.carrier)
            for s in _embeddings(poset, downs, l_lattice):
                for lam in downs:
                    if lam == frozenset(poset.carrier):
                        continue
                    remaining = poset.mask_of(frozenset(poset.carrier) - lam)
                    for q in poset.minimal_elements(within=remaining):
                        mu = frozenset(poset.down_set(q).members)
                        outcome, work = _check_site(
                            poset, downs, s, lam, q, mu, fibers, k_lattice, work, budget
                        )
                        checked += 1
                        if outcome is not None:
                            if outcome == "budget":
                                return FalsifierResult("bound_exceeded", "enumeration", None, checked)
                            return FalsifierResult("witness", "enumeration", outcome, checked)
    return FalsifierResult("no_counterexample", "enumeration", None, checked)


def _embeddings(poset: Poset, downs, l_lattice: SetLattice):
    """All lattice embeddings O(P) -> L, generated from irreducible images."""
    carrier = list(poset.carrier)
    full = frozenset(carrier)

    def build(assign):
        s = {}
        for d in downs:
            val = l_lattice.bottom
            for p in d:
                val = l_lattice.join(val, assign[p])
            s[d] = val
        return s

    def rec(i, assign):
        if i == len(carrier):
            s = build(assign)
            if len(set(s.values())) != len(downs):
                return
            if s[full] != l_lattice.top:
                return
            for a in downs:
                for b in downs:
                    if s[frozenset(a & b)] != l_lattice.meet(s[a], s[b]):
                        return
            yield dict(s)
            return
        p = carrier[i]
        for val in l_lattice.elements:
            if val == l_lattice.bottom:
                continue
            ok = all(
                not poset.leq(carrier[j], p) or l_lattice.leq(assign[carrier[j]], val)
                for j in range(i)
            )
            if ok:
                assign[p] = val
                yield from rec(i + 1, assign)
                del assign[p]

    yield from rec(0, {})


def _check_site(poset, downs, s, lam, q, mu, fibers, k_lattice, work, budget):
    """Does some partial lift at (s, lam, q) admit no conditioner family?"""
    lam_irr = [p for p in poset.carrier if p in lam]
    choice_lists = [fibers.get(s[frozenset(poset.down_set(p).members)], []) for p in lam_irr]
    if any(not c for c in choice_lists):
        return None, work  # s(down p) has no section at all: not a partial lift site
    mu_fiber = fibers.get(s[mu], [])
    alphas = [a for a in downs if q not in a]

    def lifts(i, assign):
        if i == len(lam_irr):
            yield dict(assign)
            return
        for val in choice_lists[i]:
            assign[lam_irr[i]] = val
            yield from lifts(i + 1, assign)
            del assign[lam_irr[i]]

    lam_downs = [d for d in downs if d <= lam]
    for assign in lifts(0, {}):
        table = {}
        for d in lam_downs:
            val = frozenset()
            for p in d:
                val |= assign[p]
            table[d] = val
        # joins of sections automatically satisfy h o k = s and stay in K,
        # but the meet law is a genuine partial-lift filter
        if any(
            table[frozenset(a & b)] != table[a] & table[b]
            for a in lam_downs
            for b in lam_downs
        ):
            continue
        k_lam = table[lam]
        family_exists = False
        for v_mu in mu_fiber:
            work += 1
            if work > budget:
                return "budget", work
            ok = True
            for alpha in alphas:
                if not any((v_mu & v) <= k_lam for v in fibers.get(s[alpha], [])):
                    ok = False
                    break
            if ok:
                family_exists = True
                break
        if not family_exists:
            return (s, lam, q, dict(assign)), work
    return None, work
