"""Suite verifiers: each case re-checks one claim and returns a record.

Every verifier is a pure function of its inputs (random sampling is seeded
from the case id), so cases can run concurrently and reports are reproducible
modulo wall-clock fields.  The one memo, oracle-equiv's basis per orbit of
signatures (``_orbit_basis``), keeps this: a hit charges the steps the basis
first cost, so a case's status does not depend on what ran before it.

A verifier only states its checks.  It opens its record with ``_case``, one
runner that builds the ``CaseResult``, times the body into ``wall_time_ms``,
turns a ``BudgetExceededError`` into status ``budget`` and any other
exception into status ``error``, so one faulty case cannot end a sweep;
``lost_case`` opens the same record, as an ``error``, for a call whose worker
process died.
Each claim is recorded by ``CaseResult.check(key, ok, *witnesses)``: the
detail flag is written in place (so report keys keep their order), and a
false flag fails the case with the given witnesses.  Witnesses are rendered
only on failure.

Ideal equalities (gen-set, knutson) are certified by syntactic equality of
reduced Groebner bases under one order; reduced bases are unique for
(ideal, order), so one comparison proves both inclusions.  Membership runs
only once the bases differ, to name a witness for each failing direction.
"""

from __future__ import annotations

import itertools
import random
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

from .chart import CommutingFamily, GeneralizedSection
from .courant import (
    BracketTable,
    action_terms,
    formal_tensor_P,
    formal_torsion_T,
    inner_product,
    instantiate,
    tensoriality_check,
)
from .fleet import FleetFamily
from .groebner import (
    BudgetExceededError,
    GroebnerBasis,
    IdealPresentation,
    MonomialIdeal,
    StepBudget,
    buchberger_criterion,
    groebner_basis,
    initial_ideal,
    membership,
)
from .ideals import (
    build_axis_ideals,
    candidate_basis,
    eliminate,
    generator_P,
    generator_T,
    ideal_contains,
    intersect_pair,
    is_universally_tensorial_linear,
    knutson_F,
    product_ideal,
    scale_into_t_ring,
    vanishes_on_variety,
)
from .parse import render_polynomial
from .poly import MonomialOrder, Polynomial, dot, leading_term
from .xyz import (
    LETTERS,
    SHIFT,
    Signature,
    index_desc_order,
    indices_of,
    letter_block_order,
    pair_order,
    xyz_ring,
)

ORACLE_SAMPLES = 500  # random samples per oracle-equiv case
BRIDGE_SAMPLES = 12  # section triples per bridge identity
SEED_TAG = "tensorcert-2026"
# witness for reduced bases that differ while each ideal contains the other,
# which uniqueness of reduced bases rules out unless the engine is at fault
BASES_DIFFER = "reduced bases differ but membership holds both ways"


@dataclass
class CaseResult:
    case_id: str
    suite: str
    claim: str
    n: int
    signature: str
    status: str  # pass | fail | budget | error
    witnesses: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    wall_time_ms: int = 0

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "suite": self.suite,
            "claim": self.claim,
            "N": self.n,
            "signature": self.signature,
            "status": self.status,
            "witnesses": list(self.witnesses),
            "details": self.details,
            "wall_time_ms": self.wall_time_ms,
        }

    def check(self, key: str, ok: bool, *witnesses: str) -> bool:
        """Record the detail flag ``key``; a false one fails the case."""
        self.details[key] = ok
        if not ok:
            self.status = "fail"
            self.witnesses.extend(witnesses)
        return ok

    def error(self, exc: BaseException) -> None:
        """Make this an ``error`` case witnessed by ``"<type>: <message>"``."""
        self.status = "error"
        self.witnesses.append(f"{type(exc).__name__}: {exc}")


class _Opened(Exception):
    """Carries the record ``_case`` opened out of a verifier (``lost_case``)."""

    def __init__(self, case: CaseResult):
        self.case = case


_OPEN_ONLY = False  # set by ``lost_case``: ``_case`` raises its record at once


@contextmanager
def _case(suite: str, key: str, claim: str, sig: Signature):
    """The one case runner: a passing record, timed, budget-aware.  Any other
    ``Exception`` makes the case an ``error`` witnessed by ``"<type>: <message>"``,
    with its traceback on stderr."""
    case = CaseResult(f"{suite}/{key}", suite, claim, sig.n, str(sig), "pass")
    if _OPEN_ONLY:
        raise _Opened(case)
    started = time.perf_counter()
    try:
        yield case
    except BudgetExceededError:
        case.status = "budget"
    except Exception as exc:
        traceback.print_exc()
        case.error(exc)
    finally:
        case.wall_time_ms = int((time.perf_counter() - started) * 1000)


def lost_case(call, exc: BaseException) -> CaseResult:
    """The ``error`` record of a case call whose result was lost with the
    worker process that ran it, witnessed by ``exc``.

    ``call`` runs here only until its verifier opens its record: every
    verifier opens ``_case`` before any of its checks, and ``_case`` raises
    the record back instead of running the body.
    """
    global _OPEN_ONLY
    _OPEN_ONLY = True
    try:
        call()
    except _Opened as opened:
        case = opened.case
    finally:
        _OPEN_ONLY = False
    case.error(exc)
    return case


def _rendered(poly: Polynomial | None, order: MonomialOrder) -> tuple[str, ...]:
    """A witness, or none for ``None``."""
    return () if poly is None else (render_polynomial(poly, order),)


def _lead(poly: Polynomial, order: MonomialOrder) -> Polynomial:
    """The leading monomial of a nonzero polynomial."""
    return poly.ring.from_terms({leading_term(poly, order)[0]: 1})


def _seed(case_id: str) -> random.Random:
    return random.Random(f"{SEED_TAG}:{case_id}")


# -- generating-set certification -----------------------------------------------------


def j_ideal_presentation(sig: Signature) -> IdealPresentation:
    """tI^yI^z + (1-t)I^x, the t-trick presentation of I_eps.

    The products t(z_i - e_i x_i)(x_j - e_j y_j) come first, ordered by
    (i, j), then the (1-t)(y_i - e_i z_i) by increasing i.
    """
    axes = build_axis_ideals(sig, index_desc_order(sig.n))
    return scale_into_t_ring(product_ideal(axes["y"], axes["z"]), axes["x"])


def tensorial_ideal_basis(sig: Signature, budget: StepBudget | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the triple intersection: the t-free part of
    ``j_ideal_presentation``'s reduced basis."""
    return eliminate(groebner_basis(j_ideal_presentation(sig), budget))


# orbit representative -> (its t-trick basis, the steps that basis cost)
_ORBIT_BASES: dict[Signature, tuple[GroebnerBasis, int]] = {}


def _orbit_basis(sig: Signature, budget: StepBudget) -> GroebnerBasis:
    """A Groebner basis of I_sig, renamed from one basis per index orbit,
    under an order that ranks x last within each index.

    I_eps is built index by index, so renumbering the indices by a
    permutation maps I_eps onto the ideal of the permuted signature.  The
    orbit's representative lists the symmetric indices first (a stable
    sort); its reduced t-trick basis, from ``tensorial_ideal_basis``, is
    computed once and memoised with the steps it cost, and a memo hit charges
    those steps to ``budget`` again.

    The rename sends the representative's w_k to SHIFT[w]_i, where i is the
    k-th index of that sort and ``SHIFT`` is the cyclic letter shift x -> y ->
    z -> x that ``pair_order`` also uses.  The shift maps I^x onto I^y, I^y
    onto I^z and I^z onto I^x, generator by generator, so it maps I_eps
    onto itself.  The result is the reduced basis of I_sig under the renamed
    lex order, which ranks x last within each index (y_N > z_N > x_N > ...
    when sig is its own representative).  Membership does not depend on the
    order, and x last suits the samples: ``random_polynomial`` draws each
    index's x exponent first, so x carries the most (mean exponents 1, 1/2
    and 1/4 for x, y and z).  Over the N <= 3 oracle-equiv sweep the
    membership steps fall from 127,246 with z last to 59,039.
    """
    perm = sorted(range(1, sig.n + 1), key=lambda i: sig[i] == -1)
    rep = Signature(tuple(sig[i] for i in perm))
    memo = _ORBIT_BASES.get(rep)
    if memo is None:
        before = budget.used
        basis = tensorial_ideal_basis(rep, budget)
        _ORBIT_BASES[rep] = basis, budget.used - before
    else:
        basis, steps = memo
        budget.charge(steps)
    mapping = {f"{w}{k}": f"{SHIFT[w]}{i}" for k, i in enumerate(perm, 1) for w in LETTERS}
    return GroebnerBasis(
        tuple(g.rename(mapping) for g in basis.elements),
        MonomialOrder(tuple(mapping[v] for v in basis.order.ranking)),
    )


def structural_claims(basis: GroebnerBasis) -> tuple[bool, list[str]]:
    """Each element uses at most three indices, all visible in its lead term."""
    problems = []
    for g in basis.elements:
        used = indices_of(g)
        if len(used) > 3 or indices_of(_lead(g, basis.order)) != used:
            problems.append(render_polynomial(g, basis.order))
    return not problems, problems


def gen_set_case(sig: Signature, budget_limit: int) -> CaseResult:
    """Does the cubic/quadratic candidate basis generate the intersection?

    For N <= 2 the intersection is also rebuilt by double elimination,
    (I^y cap I^z) first, as an independent cross-check.
    """
    n = sig.n
    claim = "triple-intersection ideal is generated by the cubic T and quadratic P polynomials"
    with _case("gen-set", f"N{n}/{sig}", claim, sig) as case:
        budget = StepBudget(budget_limit)
        j_basis = groebner_basis(j_ideal_presentation(sig), budget)
        ok, problems = structural_claims(j_basis)
        case.check("structural_claims", ok, *problems[:3])
        intersection = eliminate(j_basis)
        case.details["intersection_basis_size"] = len(intersection.elements)
        # surfaced for inspection: extra elements beyond the T/P set live here
        case.details["intersection_basis"] = [
            render_polynomial(g, intersection.order) for g in intersection.elements
        ]

        ring = intersection.ring
        order = intersection.order
        cand = candidate_basis(sig, ring)
        cand_gb = groebner_basis(IdealPresentation(cand.members, order), budget)
        # reduced bases are unique for (ideal, order): equal bases prove both
        # inclusions; membership only runs to name a witness once they differ
        same = cand_gb.elements == intersection.elements
        ok_fwd = ok_bwd = same
        missing = extra = None
        if not same:
            ok_fwd, missing = ideal_contains(intersection, cand.members, budget)
            ok_bwd, extra = ideal_contains(cand_gb, intersection.elements, budget)
            if ok_fwd and ok_bwd:  # only an engine fault gets here
                case.status = "fail"
                case.witnesses.append(BASES_DIFFER)
        case.check("candidates_in_intersection", ok_fwd, *_rendered(missing, order))
        case.check("intersection_in_candidates", ok_bwd, *_rendered(extra, order))

        sqfree = initial_ideal(intersection).is_squarefree()
        case.details["initial_ideal_squarefree"] = sqfree

        if n <= 2:
            axes = build_axis_ideals(sig, order)
            inner = intersect_pair(axes["y"], axes["z"], budget)
            full = intersect_pair(axes["x"], IdealPresentation(inner.elements, order), budget)
            agreed = full.elements == intersection.elements
            case.check(
                "double_elimination_cross_check", agreed, "double-elimination route disagrees"
            )
    return case


# -- Knutson / product = intersection --------------------------------------------


PAIRS = (("x", "y"), ("x", "z"), ("y", "z"))


def knutson_case(sig: Signature, budget_limit: int) -> CaseResult:
    """product = intersection for the three axis pairs, with squarefree leads."""
    n = sig.n
    claim = "axis-ideal products equal the pairwise intersections; product initial ideals are squarefree"
    with _case("knutson", f"N{n}/{sig}", claim, sig) as case:
        budget = StepBudget(budget_limit)
        ring = xyz_ring(n)
        for pair in PAIRS:
            order = pair_order(pair, n)
            axes = build_axis_ideals(sig, order)
            first, second = (axes[w] for w in pair)
            product = product_ideal(first, second)
            product_gb = groebner_basis(product, budget)
            intersection = intersect_pair(first, second, budget)
            # the intersection keeps the pair's order, so equal reduced bases
            # are equal ideals; membership only names the witness
            equal = product_gb.elements == intersection.elements
            key = "".join(pair)
            if not case.check(f"{key}_product_equals_intersection", equal):
                ok, witness = ideal_contains(intersection, product_gb.elements, budget)
                if ok:
                    ok, witness = ideal_contains(product_gb, intersection.elements, budget)
                case.witnesses.append(BASES_DIFFER if ok else render_polynomial(witness, order))
            lead_ideal = initial_ideal(product_gb)
            if not case.check(f"{key}_initial_ideal_squarefree", lead_ideal.is_squarefree()):
                case.witnesses.extend(
                    render_polynomial(ring.from_terms({g: 1}))
                    for g in lead_ideal.sorted_generators()
                    if any(e > 1 for e in g)
                )

        # leading monomial of the splitting polynomial: the product of all vars
        order_xz = pair_order(("x", "z"), n)
        f_xz = knutson_F(sig)
        expected = ring.monomial({f"{w}{i}": 1 for w in "xyz" for i in range(1, n + 1)})
        if not case.check("splitting_lead_is_all_vars", _lead(f_xz, order_xz) == expected):
            case.witnesses.append(render_polynomial(f_xz, order_xz))
    return case


# -- the squeeze route (all-plus signature) ---------------------------------------


def initial_intersection_closed_form(n: int) -> MonomialIdeal:
    """<x_i x_j y_k (k <= i <= j), x_l y_m (l < m)> as a monomial ideal."""
    ring = xyz_ring(n)
    x, y = ([ring.var(f"{w}{i}") for i in range(1, n + 1)] for w in "xy")
    gens = [x[i] * x[j] * y[k] for i in range(n) for j in range(i, n) for k in range(i + 1)]
    gens += [x[l] * y[m] for l in range(n) for m in range(l + 1, n)]
    return MonomialIdeal.from_monomials(ring, (mono for g in gens for mono, _ in g.terms()))


def squeeze_case(n: int, budget_limit: int) -> CaseResult:
    """The squeeze argument: certified product bases pin the intersection's
    initial ideal, forcing the candidate set to be a Groebner basis."""
    sig = Signature((1,) * n)
    claim = "product bases certified, initial-ideal intersection matches its closed form, T/P set is a Groebner basis"
    with _case("squeeze", f"N{n}", claim, sig) as case:
        budget = StepBudget(budget_limit)
        ring = xyz_ring(n)
        order = letter_block_order(n)
        axes = build_axis_ideals(sig, order)
        products = {"".join(pair): product_ideal(*(axes[w] for w in pair)).generators for pair in PAIRS}
        products["yz"] += tuple(
            generator_P(i, j, sig, ring) for i, j in itertools.combinations(range(1, n + 1), 2)
        )
        for name, basis in products.items():
            holds, witness = buchberger_criterion(basis, order, budget)
            case.check(f"{name}_generators_are_groebner", holds, *_rendered(witness, order))

        cand = candidate_basis(sig, ring)
        in_xy, in_xz, in_yz, cand_initial = (
            initial_ideal(GroebnerBasis(basis, order))
            for basis in (*products.values(), cand.members)
        )
        computed = in_xy.intersect(in_xz).intersect(in_yz)
        closed = initial_intersection_closed_form(n)
        if not case.check("intersection_matches_closed_form", computed == closed):
            case.witnesses.extend(_monomial_witnesses(ring, computed, closed))

        x, y = ([ring.var(f"{w}{i}") for i in range(1, n + 1)] for w in "xy")
        lead_checks = all(
            _lead(generator_T(i + 1, j + 1, k + 1, sig, ring), order) == x[i] * x[k] * y[j]
            for i, j, k in itertools.product(range(n), repeat=3)
        ) and all(
            _lead(generator_P(i + 1, j + 1, sig, ring), order) == x[i] * y[j]
            for i, j in itertools.combinations(range(n), 2)
        )
        case.check("candidate_lead_terms_as_predicted", lead_checks)

        squeeze_match = cand_initial == computed
        if not case.check("candidate_initial_ideal_matches_intersection", squeeze_match):
            case.witnesses.extend(_monomial_witnesses(ring, cand_initial, computed))

        contained = all(vanishes_on_variety(p, sig) for p in cand.members)
        case.check("candidates_vanish_on_variety", contained)

        self_certified, witness = buchberger_criterion(cand.members, order, budget)
        case.check(
            "candidate_set_passes_buchberger_criterion",
            self_certified,
            *_rendered(witness, order),
        )
    return case


def _monomial_witnesses(ring, left: MonomialIdeal, right: MonomialIdeal) -> list[str]:
    """Generators on one side but not in the other ideal, rendered."""
    out = []
    for a, b in ((left, right), (right, left)):
        for g in a.sorted_generators():
            if not b.contains(g):
                out.append(render_polynomial(ring.from_terms({g: 1})))
    return out


# -- oracle equivalence ------------------------------------------------------------


def random_polynomial(rng: random.Random, n: int, max_terms: int = 6) -> Polynomial:
    """Random sparse polynomial over ``xyz_ring(n)`` with per-index
    multidegree at most 2, of at most ``max_terms`` terms.

    Each term draws, index by index, the x exponent from {0, 1, 2}, then y
    and z from what is left, then its coefficient.
    """
    randint = rng.randint
    # the x, y and z positions of each index, from the layout of ``xyz_ring``
    positions = [(i, n + i, 2 * n + i) for i in range(n)]
    terms = {}
    for _ in range(randint(1, max_terms)):
        exps = [0] * (3 * n)
        for index in positions:
            budget = 2
            for pos in index:
                e = randint(0, budget)
                exps[pos] = e
                budget -= e
        coeff = randint(-3, 3)
        if coeff:
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
    return xyz_ring(n).from_terms({m: c for m, c in terms.items() if c})


def oracle_equivalence_case(sig: Signature, budget_limit: int) -> CaseResult:
    """linear-system test == variety-vanishing test == Groebner membership.

    Membership runs against ``_orbit_basis``, a basis of the ideal under a
    relabelled lex order; membership does not depend on the order, and
    witnesses are rendered under ``index_desc_order`` whichever basis ran.
    """
    n = sig.n
    claim = "the linear-system, variety-vanishing and Groebner-membership tests agree"
    with _case("oracle-equiv", f"N{n}/{sig}", claim, sig) as case:
        budget = StepBudget(budget_limit)
        rng = _seed(case.case_id)
        ring = xyz_ring(n)
        basis = _orbit_basis(sig, budget)
        cand = candidate_basis(sig, ring)
        pool: list[Polynomial] = list(cand.members)
        while len(pool) < ORACLE_SAMPLES + len(cand.members):
            if rng.random() < 0.5:
                sample = random_polynomial(rng, n)
            else:
                # a random explicit combination of candidate generators; each
                # generator is drawn before its factor
                pairs = []
                for _ in range(rng.randint(1, 3)):
                    gen = cand.members[rng.randrange(len(cand.members))]
                    pairs.append((random_polynomial(rng, n, max_terms=2), gen))
                sample = dot(ring, pairs)
            pool.append(sample)
        agreements = 0
        all_true = []
        for sample in pool:
            linear = is_universally_tensorial_linear(sample, sig)
            variety = vanishes_on_variety(sample, sig)
            member = membership(sample.map_ring(basis.ring), basis, budget)
            all_true.append(linear and variety and member)
            if linear == variety == member:
                agreements += 1
            else:
                case.status = "fail"
                case.witnesses.append(render_polynomial(sample, index_desc_order(n)))
                case.details.setdefault("disagreements", []).append(
                    {"linear": linear, "variety": variety, "membership": member}
                )
        case.details["samples"] = len(pool)
        case.details["agreements"] = agreements
        # the candidate members head the pool
        case.check("candidate_members_all_true", all(all_true[: len(cand.members)]))
    return case


# -- tensoriality / fixture fleet ----------------------------------------------------


def random_section(rng: random.Random, family: CommutingFamily) -> GeneralizedSection:
    chart = family.chart
    ring = chart.ring

    def scalar() -> Polynomial:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * ring.nvars
            for pos in range(ring.nvars):
                exps[pos] = rng.randint(0, 1)
            c = rng.randint(-2, 2)
            if c:
                key = tuple(exps)
                terms[key] = terms.get(key, 0) + c
        return ring.from_terms({m: c for m, c in terms.items() if c})

    n = chart.dim
    return GeneralizedSection(
        chart,
        tuple(scalar() for _ in range(n)),
        tuple(scalar() for _ in range(n)),
    )


def tensoriality_case(entry: FleetFamily) -> CaseResult:
    """Bridge identities plus universal tensoriality on one fleet family."""
    family = entry.family
    sig = family.signature
    n = sig.n
    claim = "derived tensors pair to the polynomial action; candidate generators act tensorially"
    with _case("tensoriality", entry.name, claim, sig) as case:
        rng = _seed(case.case_id)
        ring = xyz_ring(n)

        index_triples = list(itertools.product(range(1, n + 1), repeat=3))
        rng.shuffle(index_triples)
        # (witness label, generator, derived tensor's formal terms) of each identity
        bridges = [
            (f"torsion bridge {i}{j}{k}", generator_T(i, j, k, sig, ring), formal_torsion_T(i, j, k, sig))
            for i, j, k in index_triples[:4]
        ]
        bridges += [
            (f"quadratic bridge {i}{j}", generator_P(i, j, sig, ring), formal_tensor_P(i, j, sig))
            for i, j in itertools.combinations(range(1, n + 1), 2)
            if sig[i] == 1 and sig[j] == 1
        ]
        bridge_ok = 0
        for label, poly, derived in bridges:
            tensor, terms = instantiate(derived, family), action_terms(poly, family)
            for _ in range(BRIDGE_SAMPLES):
                a, b, c = (random_section(rng, family) for _ in range(3))
                table = BracketTable(family, a, b)
                if inner_product(table.tensor(tensor), c) == table.action(terms, c):
                    bridge_ok += 1
                else:
                    case.status = "fail"
                    case.witnesses.append(label)
        case.details["bridge_checks"] = bridge_ok

        failures = []
        for pos, poly in enumerate(candidate_basis(sig, ring).members):
            if not tensoriality_check(poly, family):
                failures.append(pos)
        if not case.check("candidate_members_tensorial", not failures):
            case.witnesses.append(f"non-tensorial candidate positions {failures}")
    return case


def unit_not_tensorial_case(entry: FleetFamily) -> CaseResult:
    """P = 1 acts as the Courant element itself, which is not a tensor."""
    family = entry.family
    claim = "the unit polynomial is not tensorial on a chart of dimension >= 1"
    with _case("tensoriality", "unit-fails", claim, family.signature) as case:
        if tensoriality_check(xyz_ring(family.n).one, family):
            case.status = "fail"
    return case
