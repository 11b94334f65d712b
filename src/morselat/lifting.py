"""Constructive lifting of lattice embeddings through epimorphisms.

Given an embedding s of a down-set lattice O(P) into L and an epimorphism
h : K -> L evaluated by oracles, the engine runs the inductive construction
with one fixed conditioner family, the section's preimages

    v_alpha = section(s(alpha)) in h^-1(s(alpha)),

computed once: start with k(0) = 0, repeatedly pick a minimal q outside the
current down-set lambda, check

    v_mu ^ v_alpha <= k(lambda)      (mu = down-set of q, q not in alpha)

carve the new Booleanization atom

    B_q = v_mu ^ k(lambda)^c

and add it to the running union k(lambda).  Once lambda = P, k is built
from the atoms alone: k(alpha) is the union of B_p over p in alpha.
Every concrete K in this package is a sublattice of the powerset of a
``universe``, so K and L elements are int masks over it, atoms are ``a & ~b``
and the ambient Boolean algebra is never materialized.  L is read off h: 0
is the empty mask, 1 = h(ambient), join is OR and meet is h(a & b).

A down-set of P is an int mask over ``poset.carrier`` and an element of P
its index there, everywhere in the engine: union, meet, inclusion and the
complements ``full ^ d`` and ``ambient & ~k`` of the duality transport are
bit operations.  Labels appear only at I/O, in ``formats.certificate_payload``,
ObstructionFound and messages, through ``down_label`` and ``order.members``.

The Def 5.8 checks, check_condition_i and spaciousness_falsifier, take
K, L and a label table for h, which must be an epimorphism (ValueError
otherwise: an empty fiber would read as a missing conditioner).  They mask
the table once and search on masks; K and L may have different universes,
so the falsifier's self-section test compares them on label sets.

The certificate records the assignment and a per-step audit (with the step's
atom) of the disjointness and annihilation identities;
LiftCertificate.verify() re-checks everything independently of the
construction path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import and_, or_
from typing import Callable, Mapping, Sequence

from .lattice import HomReport, SetLattice, _broken_law
from .order import InternalCheckFailed, Poset, all_posets, members, union_over


class LiftError(Exception):
    pass


def poset_label(p):
    """A poset element as JSON: a join-irreducible, a set of states or cells, as its sorted members."""
    return sorted(p) if isinstance(p, frozenset) else p


def down_label(poset: Poset, d: int) -> list:
    """The down-set mask d of ``poset`` as JSON and in messages: its elements' labels, sorted."""
    return sorted(poset_label(p) for p in poset.members_of(d))


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class ObstructionFound(LiftError):
    """No conditioner family at a step; ``q`` and ``alpha`` are carried as poset labels."""

    def __init__(self, poset: Poset, step: int, q: int, alpha: int, witness: frozenset):
        self.step = step
        self.q = poset.carrier[q]
        self.alpha = poset.members_of(alpha)
        self.witness = witness
        super().__init__(
            f"step {step}: no conditioner family for q={poset_label(self.q)!r}: "
            f"v_mu ^ v_alpha escapes k(lambda) at alpha={down_label(poset, alpha)}, "
            f"excess {sorted(map(poset_label, witness))}"
        )


class SectionInconsistent(LiftError):
    pass


class TopNotUnique(LiftError):
    pass


class ConditionerMissing(LiftError):
    def __init__(self, poset: Poset, alpha: int):
        self.alpha = alpha
        super().__init__(f"no conditioner supplied for alpha={down_label(poset, alpha)}")


class NotAnEmbedding(LiftError):
    pass


@dataclass(frozen=True)
class LiftProblem:
    """A lifting instance: find k with h o k = s.

    K is a sublattice of the powerset of ``universe``; a K or L element is an
    int mask over it, bit i for universe[i], and ``ambient`` is the full mask.
    ``s`` maps every down-set of ``poset``, a mask over its carrier, to an
    element of L.  ``h`` evaluates the epimorphism on any K element,
    ``section`` produces some h-preimage of an L element, and ``member``
    decides membership in K.  The conditioners are the section's preimages of
    the s values, one fixed family for every step; none is shrunk or combined
    by meet.
    """

    poset: Poset
    s: Mapping[int, int]
    universe: Sequence
    h: Callable[[int], int]
    section: Callable[[int], int]
    member: Callable[[int], bool]

    @cached_property
    def down_sets(self) -> tuple[int, ...]:
        """O(P) as masks: the poset's one enumeration, shared with birkhoff_embedding."""
        return self.poset.down_masks()

    @cached_property
    def ambient(self) -> int:
        return (1 << len(self.universe)) - 1

    def check_embedding(self) -> None:
        """s is total, injective and a bounded lattice hom into L = (0, h(ambient), union, h(a ^ b))."""
        poset = self.poset
        downs = self.down_sets
        missing = [d for d in downs if d not in self.s]
        if missing:
            raise NotAnEmbedding(f"s is not total on O(P); missing {down_label(poset, missing[0])}")
        if len({self.s[d] for d in downs}) != len(downs):
            raise NotAnEmbedding("s is not injective")
        if self.s[0]:
            raise NotAnEmbedding("s(0) != 0")
        if self.s[(1 << len(poset)) - 1] != self.h(self.ambient):
            raise NotAnEmbedding("s(1) != 1")
        meets = {}

        def meet(a: int, b: int) -> int:
            # h once per distinct a & b: the pairs of O(P) have far fewer
            c = a & b
            if c not in meets:
                meets[c] = self.h(c)
            return meets[c]

        broken = _broken_law(downs, self.s, or_, meet, and_)
        if broken:
            a, b = broken[1]
            raise NotAnEmbedding(f"s does not preserve {broken[0]} at {down_label(poset, a)}, {down_label(poset, b)}")


@dataclass
class PartialLift:
    """k on O(lambda^T): all down-sets inside lambda, plus the top P -> 1; every down-set and value a mask."""

    problem: LiftProblem
    lam: int
    table: dict[int, int]
    conditioners: dict[int, int] | None = None


@dataclass(frozen=True)
class LiftStep:
    """One induction step: q is a carrier index, mu = down q and lam_before carrier masks, atom a universe mask."""

    q: int
    mu: int
    lam_before: int
    atom: int
    checks: dict


@dataclass
class LiftCertificate:
    """The lift k: ``table`` maps every down-set mask of the poset to a K element, a mask over the universe."""

    problem: LiftProblem
    table: dict[int, int]
    audit: list[LiftStep]
    top_preserved: bool

    def verify(self) -> None:
        """Re-check hom laws, injectivity and h o k = s, independent of the construction."""
        prob = self.problem
        poset = prob.poset
        downs = prob.down_sets
        for d in downs:
            if d not in self.table:
                raise LiftError(f"certificate table misses {down_label(poset, d)}")
            if prob.h(self.table[d]) != prob.s[d]:
                raise LiftError(f"h(k({down_label(poset, d)})) != s(...)")
            if not prob.member(self.table[d]):
                raise LiftError(f"k({down_label(poset, d)}) is not a K element")
        if len({self.table[d] for d in downs}) != len(downs):
            raise LiftError("k is not injective")
        if self.table[0]:
            raise LiftError("k(0) != 0")
        broken = _broken_law(downs, self.table, or_, and_, and_)
        if broken:
            a, b = broken[1]
            raise LiftError(f"k does not preserve {broken[0]} at {down_label(poset, a)}, {down_label(poset, b)}")
        if self.top_preserved and self.table[(1 << len(poset)) - 1] != prob.ambient:
            raise LiftError("k(1) != 1 but certificate claims top preservation")


def is_partial_lift(candidate: PartialLift) -> HomReport:
    """Def 5.4: hom laws on O(lambda^T) plus h(k(beta)) = s(beta) for beta <= lambda."""
    prob = candidate.problem
    full = (1 << len(prob.poset)) - 1
    downs = [d for d in prob.down_sets if not d & ~candidate.lam]
    for d in downs:
        if d not in candidate.table:
            return HomReport(False, "totality on O(lambda^T)", (d,))
    if full not in candidate.table:
        return HomReport(False, "k(1) = 1 (missing top entry)", (full,))
    if candidate.table[full] != prob.ambient:
        return HomReport(False, "k(1) = 1", (full,))
    if candidate.table.get(0) != 0:
        return HomReport(False, "k(0) = 0", (0,))
    broken = _broken_law(downs, candidate.table, or_, and_, and_)
    if broken:
        law = "k(a v b) = k(a) v k(b)" if broken[0] == "joins" else "k(a ^ b) = k(a) ^ k(b)"
        return HomReport(False, law, broken[1])
    for d in downs:
        if prob.h(candidate.table[d]) != prob.s[d]:
            return HomReport(False, "h(k(beta)) = s(beta)", (d,))
    return HomReport(True)


def lift_atom(candidate: PartialLift, p: int) -> int:
    """B(k)({p}) = k(down p) minus k(down p without p), inside the ambient powerset; p is a carrier index."""
    dp = candidate.problem.poset.below[p]
    return candidate.table[dp] & ~candidate.table[dp ^ 1 << p]


def _annihilation_failure(atoms: Mapping[int, int], downs: list[int], cond: Mapping) -> tuple | None:
    """Eq (22), the Prop 5.7 atom form: the first (p, alpha), p not in alpha, with B_p ^ v_alpha != 0, or None."""
    for p, b in atoms.items():
        for alpha in downs:
            if not alpha >> p & 1 and b & cond[alpha]:
                return p, alpha
    return None


def is_conditional_lift(candidate: PartialLift) -> HomReport:
    """Def 5.5 (Eq 18) cross-checked against the Prop 5.7 atom form.

    The two characterizations are equivalent; both are evaluated and must
    agree, otherwise the engine itself is broken.
    """
    prob = candidate.problem
    base = is_partial_lift(candidate)
    if not base:
        return base
    if candidate.conditioners is None:
        raise ConditionerMissing(prob.poset, 0)
    downs = prob.down_sets
    for alpha in downs:
        if alpha not in candidate.conditioners:
            raise ConditionerMissing(prob.poset, alpha)
        v = candidate.conditioners[alpha]
        if prob.h(v) != prob.s[alpha]:
            return HomReport(False, "v_alpha in h^-1(s(alpha))", (alpha, v))
    lam_downs = [d for d in downs if not d & ~candidate.lam]
    eq18_witness = None
    for gamma in lam_downs:
        for beta in lam_downs:
            for alpha in downs:
                if not gamma & alpha & ~beta:
                    v = candidate.conditioners[alpha]
                    if candidate.table[gamma] & v & ~candidate.table[beta]:
                        eq18_witness = (gamma, alpha, beta)
                        break
            if eq18_witness:
                break
        if eq18_witness:
            break
    atoms = {p: lift_atom(candidate, p) for p in _bits(candidate.lam)}
    atom_witness = _annihilation_failure(atoms, downs, candidate.conditioners)
    if (eq18_witness is None) != (atom_witness is None):
        raise InternalCheckFailed(
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
    below = poset.below
    full = (1 << len(poset)) - 1
    downs = problem.down_sets
    ambient = problem.ambient

    if not full:
        return LiftCertificate(problem, {0: ambient}, [], True)

    # the one conditioner family: v_alpha = section(s(alpha)), each checked
    # to be an h-preimage of s(alpha); it anchors k(down q) at the base step
    cond: dict[int, int] = {}
    for alpha in downs:
        s_alpha = problem.s[alpha]
        v = problem.section(s_alpha)
        if problem.h(v) != s_alpha:
            raise SectionInconsistent(f"section for {sorted(members(problem.universe, s_alpha))} has the wrong h image")
        cond[alpha] = v

    atoms: dict[int, int] = {}
    audit: list[LiftStep] = []
    lam = 0
    k_lam = 0
    step = 0
    while lam != full:
        # q: the first element, in carrier order, that is minimal outside lambda
        rest = full ^ lam
        q = next(i for i in range(len(below)) if below[i] & rest == 1 << i)
        mu = below[q]

        # Eq (20): v_mu ^ v_alpha <= k(lambda) whenever q not in alpha; at the
        # base step k(lambda) = 0 and this is exactly condition (i)
        for alpha in downs:
            if alpha >> q & 1:
                continue
            excess = cond[mu] & cond[alpha] & ~k_lam
            if excess:
                raise ObstructionFound(poset, step, q, alpha, members(problem.universe, excess))

        b_q = cond[mu] & ~k_lam
        atoms[q] = b_q
        k_pred, k_mu = union_over(atoms, mu ^ 1 << q), union_over(atoms, mu)

        checks = {
            "k(mu) = k(pred mu) v v_mu": k_mu == k_pred | cond[mu],
            "h(k(mu)) = s(mu)": problem.h(k_mu) == problem.s[mu],
            "k(mu) in K": problem.member(k_mu),
        }
        # Eq (22): B_p ^ v_alpha = 0 for p in (lambda u mu), the atoms so far, not in alpha
        checks["Eq (22)"] = _annihilation_failure(atoms, downs, cond) is None
        # Eq (23): atoms pairwise disjoint; the earlier ones already are
        checks["Eq (23)"] = not any(atoms[p] & b_q for p in _bits(lam))
        if not all(checks.values()):
            failed = [name for name, ok in checks.items() if not ok]
            raise LiftError(f"step {step} audit failed: {failed} (q={poset_label(poset.carrier[q])!r})")
        audit.append(LiftStep(q, mu, lam, b_q, checks))
        lam |= mu
        k_lam |= b_q
        step += 1

    # k(alpha) = B(k)(alpha), the union of the atoms of alpha (Eqs (3), (4));
    # k(1) is missed only if O(P) was enumerated without P
    table = {alpha: union_over(atoms, alpha) for alpha in downs}
    if table.get(full) != k_lam:
        raise LiftError("k(1) is not the union of the atoms")
    if problem.h(k_lam) != problem.s[full]:
        raise LiftError("terminal h(k(1)) != s(1)")
    top_preserved = k_lam == ambient
    if not top_preserved and problem.h(ambient) == ambient:
        raise TopNotUnique("h^-1(1) = 1, but the terminal value is not the ambient top")
    cert = LiftCertificate(problem, table, audit, top_preserved)
    cert.verify()
    return cert


# -- condition (i) of spaciousness ------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the Def 5.8(i) check; falsy unless the condition was shown to hold.

    An inconclusive report (the search budget ran out) is falsy and carries
    no witness.
    """

    ok: bool
    method: str
    witness: tuple | None = None
    inconclusive: bool = False

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return f"Ok ({self.method})"
        if self.inconclusive:
            return f"inconclusive ({self.method})"
        return f"counterexample ({self.method}): {self.witness!r}"


def check_condition_i(
    k_lattice: SetLattice,
    l_lattice: SetLattice,
    h: Mapping[frozenset, frozenset],
    bound: int = 10000,
) -> ConditionReport:
    """Def 5.8(i), decided on materialized K and L, for an epimorphism h : K -> L.

    h^-1(0) = {0} is sufficient (Prop 5.9).  Otherwise search partial lifts
    on minimal singletons: a violation is a pair of disjoint nonzero L
    elements (s of the singleton, s of alpha) and a preimage u of the first
    meeting every preimage of the second.  The search runs on masks; the
    witness is given as label sets.
    """
    fibers = _fibers(k_lattice, l_lattice, h)
    if fibers.get(0) == [0]:
        return ConditionReport(True, "h^-1(0) = 0 (Prop 5.9)")
    work = 0
    for l1 in l_lattice.masks:
        if not l1:
            continue
        for l2 in l_lattice.masks:
            if not l2 or l2 == l1 or l_lattice._meet_mask(l1, l2):
                continue
            # (l1, l2) is realizable as (s({q}), s(alpha)) by a two-antichain
            # embedding when l1 v l2 = 1, otherwise by a V-shaped poset
            for u in fibers[l1]:
                work += 1
                if work > bound:
                    return ConditionReport(False, f"no violation within bound {bound}", inconclusive=True)
                if all(u & v for v in fibers[l2]):
                    lu = l_lattice.universe
                    witness = (members(lu, l1), members(lu, l2), members(k_lattice.universe, u))
                    return ConditionReport(False, "singleton partial-lift search", witness)
    return ConditionReport(True, "exhaustive singleton search")


def _fibers(k_lattice: SetLattice, l_lattice: SetLattice, h: Mapping[frozenset, frozenset]) -> dict[int, list[int]]:
    """h^-1(l) for every L mask l, as K masks in K's element order.

    ValueError, naming the first K or L element at fault, unless h is total
    on K, lands in L and is onto L: the Def 5.8 checks read an empty fiber
    as a missing conditioner.
    """
    fibers: dict[int, list[int]] = {l: [] for l in l_lattice.masks}
    for u, m in zip(k_lattice.elements, k_lattice.masks):
        if u not in h:
            raise ValueError(f"h is not total on K: it has no image for {k_lattice.labels(m)}")
        if h[u] not in l_lattice:
            raise ValueError(f"h maps {k_lattice.labels(m)} to {sorted(h[u], key=repr)}, which is not in L")
        fibers[l_lattice.mask_of(h[u])].append(m)
    for l, fiber in fibers.items():
        if not fiber:
            raise ValueError(f"h is not onto L: nothing in K maps to {l_lattice.labels(l)}")
    return fibers


# -- duality transport -------------------------------------------------------


def transport_by_duality(
    problem: LiftProblem,
    star: Callable[[int], int],
    rep_problem: Callable[[Poset, Mapping[int, int]], LiftProblem],
) -> LiftCertificate:
    """Lift an attractor-side problem through the duality of diagram (24).

    s is transported to s_rep = star o s o c on the dual poset, lifted on
    ``rep_problem(dual, s_rep)``, a problem over the same universe, and
    pulled back with k = c o k_rep o c, the outer c being the complement
    ``ambient & ~k`` in the ambient space.  The certificate is one for
    ``problem`` itself, so verify() re-checks h o k = s there.
    """
    full = (1 << len(problem.poset)) - 1
    downs = problem.down_sets
    s_rep = {full ^ alpha: star(problem.s[alpha]) for alpha in downs}
    rep_cert = lift(rep_problem(problem.poset.dual(), s_rep))
    table = {alpha: problem.ambient & ~rep_cert.table[full ^ alpha] for alpha in downs}
    cert = LiftCertificate(problem, table, list(rep_cert.audit), rep_cert.top_preserved)
    cert.verify()
    return cert


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
    """One-sided search for a Def 5.8(ii) failure of an epimorphism h : K -> L.

    Fast path: when every L element is its own h-section inside K, h is
    contractive, and the L meet is plain intersection, the self-conditioner
    family v_xi = s(xi) satisfies Eq (20) for every embedding and partial
    lift (v_mu ^ v_alpha = s(mu ^ alpha) <= s(lambda) <= k(lambda)), so no
    witness can exist.  Otherwise embeddings from all posets up to
    ``poset_bound`` elements, partial lifts, and conditioner families are
    enumerated within ``budget``, on masks; a witness (s, lambda, q, the
    partial lift's values on the irreducibles of lambda) gives its L and K
    elements as label sets.
    """
    fibers = _fibers(k_lattice, l_lattice, h)
    # K and L may have different universes, so this one comparison is on label sets
    structural = (
        all(l in k_lattice and frozenset(h[l]) == l for l in l_lattice.elements)
        and all(frozenset(h[u]) <= u for u in k_lattice.elements)
        and all(l_lattice._meet_mask(a, b) == a & b for a in l_lattice.masks for b in l_lattice.masks)
    )
    if structural:
        return FalsifierResult("no_counterexample", "self-section certificate")

    work = 0
    checked = 0
    for size in range(1, poset_bound + 1):
        labels = tuple(f"p{i}" for i in range(size))
        full = (1 << size) - 1
        for poset in all_posets(labels):
            downs = poset.down_masks()
            for s in _embeddings(poset, downs, l_lattice):
                for lam in downs:
                    if lam == full:
                        continue
                    rest = full ^ lam
                    for q in range(size):
                        if poset.below[q] & rest != 1 << q:
                            continue
                        outcome, work = _check_site(poset, downs, s, lam, q, fibers, work, budget)
                        checked += 1
                        if outcome == "budget":
                            return FalsifierResult("bound_exceeded", "enumeration", None, checked)
                        if outcome is not None:
                            s_sets = {d: members(l_lattice.universe, v) for d, v in s.items()}
                            assign = {p: members(k_lattice.universe, v) for p, v in outcome.items()}
                            return FalsifierResult("witness", "enumeration", (s_sets, lam, q, assign), checked)
    return FalsifierResult("no_counterexample", "enumeration", None, checked)


def _embeddings(poset: Poset, downs: list[int], l_lattice: SetLattice):
    """All lattice embeddings O(P) -> L, generated from irreducible images: maps from down-set masks to L masks."""
    n = len(poset)
    full = (1 << n) - 1
    top = l_lattice.masks[-1]

    def rec(assign):
        i = len(assign)
        if i == n:
            s = {d: union_over(assign, d) for d in downs}
            if len(set(s.values())) == len(downs) and s[full] == top:
                if not _broken_law(downs, s, or_, l_lattice._meet_mask, and_):
                    yield s
            return
        for val in l_lattice.masks:
            if val and not any(assign[j] & ~val for j in _bits(poset.below[i]) if j < i):
                assign.append(val)
                yield from rec(assign)
                assign.pop()

    yield from rec([])


def _check_site(poset, downs, s, lam, q, fibers, work, budget):
    """A partial lift at (s, lam, q) that admits no conditioner family, as its K masks on the irreducibles of lam.

    None when every partial lift admits one, and "budget" when the budget
    runs out first; returned with the work done so far.  Masks and carrier
    indices throughout.
    """
    lam_irr = _bits(lam)
    choice_lists = [fibers[s[poset.below[p]]] for p in lam_irr]
    mu_fiber = fibers[s[poset.below[q]]]
    alpha_fibers = [fibers[s[a]] for a in downs if not a >> q & 1]

    lam_downs = [d for d in downs if not d & ~lam]
    for choice in product(*choice_lists):
        assign = dict(zip(lam_irr, choice))
        table = {d: union_over(assign, d) for d in lam_downs}
        # joins of sections automatically satisfy h o k = s and stay in K,
        # but the meet law is a genuine partial-lift filter
        if _broken_law(lam_downs, table, or_, and_, and_):
            continue
        k_lam = table[lam]
        for v_mu in mu_fiber:
            work += 1
            if work > budget:
                return "budget", work
            if all(any(not v_mu & v & ~k_lam for v in fiber) for fiber in alpha_fibers):
                break  # a conditioner family exists
        else:
            return assign, work
    return None, work
