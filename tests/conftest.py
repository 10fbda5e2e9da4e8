"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import strategies as st

from tensorcert import groebner
from tensorcert.chart import Chart, CommutingFamily, Endomorphism, GeneralizedSection
from tensorcert.courant import (
    BracketTable,
    courant_bracket,
    formal_tensor_P,
    formal_torsion_T,
    instantiate,
)
from tensorcert.groebner import GroebnerBasis, IdealPresentation, StepBudget
from tensorcert.poly import (
    Coefficient,
    Exponents,
    MonomialOrder,
    Polynomial,
    PolyRing,
    leading_term,
    mono_divides,
    mono_lcm,
)
from tensorcert.xyz import LETTERS, Signature, ring_size, split_terms, xyz_ring


def coefficients():
    return st.fractions(
        min_value=-4, max_value=4, max_denominator=3
    ).filter(lambda q: q != 0)


def monomials(ring: PolyRing, max_exp: int = 2):
    return st.tuples(*[st.integers(0, max_exp) for _ in range(ring.nvars)])


def polynomials(ring: PolyRing, max_terms: int = 5, max_exp: int = 2):
    """Random sparse polynomials, possibly zero."""

    def build(pairs):
        terms = {}
        for mono, coeff in pairs:
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return ring.from_terms({m: c for m, c in terms.items() if c})

    return st.lists(
        st.tuples(monomials(ring, max_exp), coefficients()), max_size=max_terms
    ).map(build)


def nonzero_polynomials(ring: PolyRing, max_terms: int = 5, max_exp: int = 2):
    return polynomials(ring, max_terms, max_exp).filter(lambda f: not f.is_zero())


def seeded(name: str) -> random.Random:
    return random.Random(f"tensorcert-tests:{name}")


@pytest.fixture
def ring1() -> PolyRing:
    return xyz_ring(1)


@pytest.fixture
def ring2() -> PolyRing:
    return xyz_ring(2)


def all_signatures(n: int) -> list[Signature]:
    return Signature.sweep(n)


# -- test-side references for maps the package does not need ------------------


def substitute(f: Polynomial, assignment: dict, ring: PolyRing | None = None) -> Polynomial:
    """Exact composition f(v -> assignment[v]); unmapped variables stay themselves."""
    if ring is None:
        ring = next(iter(assignment.values())).ring if assignment else f.ring
    out = ring.zero
    for mono, c in f.terms():
        term = ring.const(c)
        for v, e in zip(f.ring.variables, mono):
            if e:
                term = term * (assignment[v] if v in assignment else ring.var(v)) ** e
        out = out + term
    return out


def normal_form(
    f: Polynomial, basis: GroebnerBasis, step_budget: StepBudget | None = None
) -> Polynomial:
    """The whole remainder of f on division by the basis elements in list order.

    No leading monomial of an element divides any term of the result.  The
    division restarts from the first element after every reduction step.
    """
    packing, divisors = basis._divisors
    if f.ring != packing.ring:
        raise ValueError("dividend and divisors must share a ring")
    remainder = dict(
        groebner._remainder_terms(
            packing.align(f), divisors, step_budget or StepBudget(), packing.guard
        )
    )
    return packing.unalign(remainder)


# -- monic Buchbergers over rational coefficients ---------------------------------


def monic_remainder(
    f: Polynomial, divisors: list[Polynomial], order: MonomialOrder, budget: StepBudget
) -> Polynomial:
    """Long division of f by the divisors over Q, one step per cancelled
    leading term, restarting from the first divisor after each step."""
    ring = f.ring
    leads = [leading_term(g, order) for g in divisors]
    remainder = ring.zero
    while not f.is_zero():
        m, c = leading_term(f, order)
        for g, (lm, lc) in zip(divisors, leads):
            if mono_divides(lm, m):
                budget.step()
                shift = tuple(a - b for a, b in zip(m, lm))
                f = f - g * ring.from_terms({shift: Fraction(c) / lc})
                break
        else:
            term = ring.from_terms({m: c})
            remainder, f = remainder + term, f - term
    return remainder


def _s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lf, lg = leading_term(f, order)[0], leading_term(g, order)[0]
    lcm = mono_lcm(lf, lg)
    s = f * f.ring.from_terms({tuple(a - b for a, b in zip(lcm, lf)): 1})
    return s - g * g.ring.from_terms({tuple(a - b for a, b in zip(lcm, lg)): 1})


def _disjoint(a: Exponents, b: Exponents) -> bool:
    return not any(x and y for x, y in zip(a, b))


def monic_buchberger(
    presentation: IdealPresentation, step_budget: StepBudget | None = None
) -> list[Polynomial]:
    """The engine's pair schedule on a monic working list, as the textbook
    writes it: each element joins through Becker-Weispfenning's UPDATE
    (Groebner Bases, 5.5), which takes the new pairs {g, h} from C in
    decreasing order of g, so the smallest g of an lcm class survives; the
    pending pair of smallest lcm, ties by (i, j), is reduced next against the
    whole list, and each nonzero remainder is appended monic."""
    order = presentation.order
    key = order.key_for(presentation.ring)
    budget = step_budget or StepBudget()
    basis: list[Polynomial] = []
    leads: list[Exponents] = []
    G: list[int] = []
    B: set[tuple[int, int]] = set()

    def lcm_of(i: int, j: int) -> Exponents:
        return mono_lcm(leads[i], leads[j])

    def update(h: Polynomial) -> None:
        nonlocal B, G
        k = len(basis)
        basis.append(h)
        leads.append(leading_term(h, order)[0])
        C = [(g, k) for g in G]
        D: list[tuple[int, int]] = []
        while C:
            g1, _ = C.pop()
            m = lcm_of(g1, k)
            if _disjoint(leads[g1], leads[k]) or not any(
                mono_divides(lcm_of(g2, k), m) for g2, _ in C + D
            ):
                D.append((g1, k))
        E = {(g, k) for g, _ in D if not _disjoint(leads[g], leads[k])}
        B = {
            (g1, g2)
            for g1, g2 in B
            if not mono_divides(leads[k], lcm_of(g1, g2))
            or lcm_of(g1, k) == lcm_of(g1, g2)
            or lcm_of(g2, k) == lcm_of(g1, g2)
        } | E
        G = [g for g in G if not mono_divides(leads[k], leads[g])] + [k]

    for g in presentation.generators:
        update(monic(g, order))
    while B:
        i, j = min(B, key=lambda pair: (key(lcm_of(*pair)), pair))
        B.remove((i, j))
        r = monic_remainder(_s_polynomial(basis[i], basis[j], order), basis, order, budget)
        if not r.is_zero():
            update(monic(r, order))
    return basis


def plain_monic_buchberger(
    presentation: IdealPresentation, step_budget: StepBudget | None = None
) -> list[Polynomial]:
    """The plain schedule on a monic working list: pairs (i, j), i < j, in
    lexicographic order of (j, i), coprime leads skipped, each nonzero
    remainder appended monic."""
    order = presentation.order
    budget = step_budget or StepBudget()
    basis = [monic(g, order) for g in presentation.generators]
    j = 1
    while j < len(basis):
        for i in range(j):
            f, g = basis[i], basis[j]
            if _disjoint(leading_term(f, order)[0], leading_term(g, order)[0]):
                continue
            r = monic_remainder(_s_polynomial(f, g, order), basis, order, budget)
            if not r.is_zero():
                basis.append(monic(r, order))
        j += 1
    return basis


# -- references for the three oracles of oracle-equiv --------------------------


def membership_by_normal_form(
    f: Polynomial, basis: GroebnerBasis, step_budget: StepBudget | None = None
) -> bool:
    """Reference: the whole remainder is zero."""
    return f.is_zero() or normal_form(f, basis, step_budget).is_zero()


def linear_by_power(f: Polynomial, sig: Signature) -> bool:
    """Reference: the three equation families on a_{I,J,K}, signs by
    ``Signature.power``."""
    buckets: dict[tuple, Coefficient] = {}
    for I, J, K, a in split_terms(f, sig.n):
        t_jk = tuple(p + q for p, q in zip(J, K))
        t_ij = tuple(p + q for p, q in zip(I, J))
        t_ik = tuple(p + q for p, q in zip(I, K))
        for key, coeff in (
            ((0, I, t_jk), sig.power(J) * a),
            ((1, K, t_ij), sig.power(I) * a),
            ((2, J, t_ik), sig.power(K) * a),
        ):
            buckets[key] = buckets.get(key, 0) + coeff
    return not any(buckets.values())


def variety_by_substitution(f: Polynomial, sig: Signature) -> bool:
    """Reference: compose with y = eps z, z = eps x and x = eps y in turn."""
    ring = f.ring
    for src, dst in (("y", "z"), ("z", "x"), ("x", "y")):
        sub = {
            f"{src}{i}": ring.monomial({f"{dst}{i}": 1}, sig[i])
            for i in range(1, sig.n + 1)
        }
        if not substitute(f, sub, ring=ring).is_zero():
            return False
    return True


# -- Hilbert numerators: an engine-free check of reduced Groebner bases ---------

T_RING = PolyRing(["t"])


def hilbert_numerator(gens) -> Polynomial:
    """K(M) in Q[t] for the monomial ideal M of the exponent tuples ``gens``:
    R/M has the Hilbert series K(M) / (1 - t)^n in n variables.

    Bigatti's pivot on a variable v that two minimal generators share,
    K(M) = K(M + <v>) + t K(M : v); once the minimal generators are pairwise
    coprime, K(M) = prod (1 - t^deg m).
    """
    gens = set(gens)
    minimal = sorted(m for m in gens if not any(d != m and mono_divides(d, m) for d in gens))
    shared = Counter(v for m in minimal for v, e in enumerate(m) if e).most_common(1)
    t = T_RING.var("t")
    if not shared or shared[0][1] < 2:
        return reduce(mul, (T_RING.one - t ** sum(m) for m in minimal), T_RING.one)
    v = shared[0][0]
    unit = tuple(int(k == v) for k in range(len(minimal[0])))
    plus = [m for m in minimal if not m[v]] + [unit]
    colon = [m[:v] + (max(m[v] - 1, 0),) + m[v + 1 :] for m in minimal]
    return hilbert_numerator(plus) + t * hilbert_numerator(colon)


def tensorial_hilbert_numerator(sig: Signature) -> Polynomial:
    """The closed form 3(1-t)^N - 3(1-t)^(2N) + (1 - s t)(1-t)^(3N-s) of
    K(in I_eps) = K(I_eps), with s the number of symmetric (+) entries.

    I_eps = I^x cap I^y I^z, so K(I_eps) = K(I^x) + K(I^y I^z) - K(I^x + I^y I^z),
    which are (1-t)^N, 2(1-t)^N - (1-t)^(2N) and 2(1-t)^(2N) - (1 - s t)(1-t)^(3N-s).
    The last holds because, mod I^x, I^y I^z is a product of two linear
    ideals whose linear forms meet in dimension s (one z_i - x_i per
    symmetric index); see Conca & Herzog, Collect. Math. 54 (2003).
    """
    n, s = sig.n, sum(e == 1 for e in sig)
    u = T_RING.one - T_RING.var("t")
    return 3 * u**n - 3 * u ** (2 * n) + (T_RING.one - s * T_RING.var("t")) * u ** (3 * n - s)


def is_reduced_basis(elements, order: MonomialOrder) -> bool:
    """Every element is monic, and no lead monomial divides a term of
    another element."""
    leads = [leading_term(g, order) for g in elements]
    if any(c != 1 for _, c in leads):
        return False
    return not any(
        mono_divides(lead, m)
        for k, g in enumerate(elements)
        for m, _ in g.terms()
        for j, (lead, _) in enumerate(leads)
        if j != k
    )


def monic(f: Polynomial, order: MonomialOrder) -> Polynomial:
    """f scaled to leading coefficient 1."""
    return f if f.is_zero() else f.scale(Fraction(1) / leading_term(f, order)[1])


# the letter permutations of S3, by cycle
S3 = {
    "e": {"x": "x", "y": "y", "z": "z"},
    "(12)": {"x": "y", "y": "x", "z": "z"},
    "(13)": {"x": "z", "y": "y", "z": "x"},
    "(23)": {"x": "x", "y": "z", "z": "y"},
    "(123)": {"x": "y", "y": "z", "z": "x"},
    "(132)": {"x": "z", "y": "x", "z": "y"},
}


def permute_letters(f: Polynomial, sigma: dict) -> Polynomial:
    """The letter-wise rename x_i -> sigma(x)_i, for every index i."""
    n = ring_size(f.ring)
    return f.rename({f"{w}{i}": f"{sigma[w]}{i}" for w in LETTERS for i in range(1, n + 1)})


def relabel_indices(f: Polynomial, rho: dict, ring: PolyRing | None = None) -> Polynomial:
    """(x_i, y_i, z_i) -> (x_rho(i), y_rho(i), z_rho(i)), simultaneously."""
    return f.rename({f"{w}{i}": f"{w}{j}" for i, j in rho.items() for w in LETTERS}, ring=ring)


def multidegree_components(f: Polynomial) -> dict[tuple[int, ...], Polynomial]:
    """f's multi-homogeneous parts, keyed by the index-wise degree I + J + K.

    On a t-free xyz ring a monomial's exponent tuple is I + J + K.
    """
    parts: dict[tuple[int, ...], dict] = {}
    for I, J, K, c in split_terms(f, ring_size(f.ring)):
        parts.setdefault(tuple(map(sum, zip(I, J, K))), {})[I + J + K] = c
    return {degree: f.ring.from_terms(terms) for degree, terms in sorted(parts.items())}


def dense_rows(endo: Endomorphism) -> tuple[tuple[Polynomial, ...], ...]:
    """The 2n x 2n entries of a matrix, rebuilt from its nonzero ones."""
    size = 2 * endo.chart.dim
    rows = []
    for row in endo.nonzero:
        dense = [endo.chart.ring.zero] * size
        for c, e in row:
            dense[c] = e
        rows.append(tuple(dense))
    return tuple(rows)


def reference_apply(endo: Endomorphism, section: GeneralizedSection) -> GeneralizedSection:
    """phi(s) row by column, adding one product at a time."""
    chart = section.chart
    out = []
    for row in dense_rows(endo):
        acc = chart.ring.zero
        for entry, comp in zip(row, section.components()):
            acc = acc + entry * comp
        out.append(acc)
    return GeneralizedSection(chart, tuple(out[: chart.dim]), tuple(out[chart.dim :]))


# -- the derived tensors: the package's bracket-table path and the plain definitions --


def torsion_T(
    i: int, j: int, k: int, family: CommutingFamily, a: GeneralizedSection, b: GeneralizedSection
) -> GeneralizedSection:
    """T^{ijk}(a, b) through one bracket table, as the tensoriality suite computes it."""
    terms = instantiate(formal_torsion_T(i, j, k, family.signature), family)
    return BracketTable(family, a, b).tensor(terms)


def tensor_P(
    i: int, j: int, family: CommutingFamily, a: GeneralizedSection, b: GeneralizedSection
) -> GeneralizedSection:
    """P^{ij}(a, b) through one bracket table, as the tensoriality suite computes it."""
    terms = instantiate(formal_tensor_P(i, j, family.signature), family)
    return BracketTable(family, a, b).tensor(terms)


def semiconcomitant(
    p1: Endomorphism, p2: Endomorphism, a: GeneralizedSection, b: GeneralizedSection
) -> GeneralizedSection:
    """K_(p1,p2)(a,b) =
    [[p1 a, p2 b]] - p1 [[a, p2 b]] - p2 [[p1 a, b]] + p1 p2 [[a, b]]
    for two members of a validated commuting family, one bracket at a time."""
    p1_a, p2_b = p1.apply(a), p2.apply(b)
    return (
        courant_bracket(p1_a, p2_b)
        - p1.apply(courant_bracket(a, p2_b))
        - p2.apply(courant_bracket(p1_a, b))
        + p1.apply(p2.apply(courant_bracket(a, b)))
    )


def reference_torsion_T(
    i: int, j: int, k: int, family: CommutingFamily, a: GeneralizedSection, b: GeneralizedSection
) -> GeneralizedSection:
    """T^{ijk}(a,b) = e_i e_k K_(k,j)(a, phi_i b) - e_k K_(k,j)(phi_i a, b), sequentially."""
    sig = family.signature
    phi_k, phi_j, phi_i = (family.members[m - 1] for m in (k, j, i))
    first = semiconcomitant(phi_k, phi_j, a, phi_i.apply(b)).scale(sig[i] * sig[k])
    second = semiconcomitant(phi_k, phi_j, phi_i.apply(a), b).scale(sig[k])
    return first - second


def reference_tensor_P(
    i: int, j: int, family: CommutingFamily, a: GeneralizedSection, b: GeneralizedSection
) -> GeneralizedSection:
    """P^{ij}(a,b) = K_(i,j)(a,b) - K_(j,i)(a,b), sequentially."""
    phi_i, phi_j = family.members[i - 1], family.members[j - 1]
    return semiconcomitant(phi_i, phi_j, a, b) - semiconcomitant(phi_j, phi_i, a, b)


def reference_compose(phi: Endomorphism, psi: Endomorphism) -> Endomorphism:
    """The matrix product phi psi, row by column, one product at a time."""
    size = range(2 * phi.chart.dim)
    zero = phi.chart.ring.zero
    phi_rows, psi_rows = dense_rows(phi), dense_rows(psi)
    return Endomorphism(
        phi.chart,
        [[sum((row[k] * psi_rows[k][c] for k in size), zero) for c in size] for row in phi_rows],
    )


def basis_vector(chart: Chart, i: int) -> GeneralizedSection:
    """The coordinate vector field in slot i (1-based)."""
    parts = [chart.ring.zero] * chart.dim
    parts[i - 1] = chart.ring.one
    return GeneralizedSection(chart, tuple(parts), (chart.ring.zero,) * chart.dim)


def basis_form(chart: Chart, i: int) -> GeneralizedSection:
    """The coordinate one-form du_i."""
    parts = [chart.ring.zero] * chart.dim
    parts[i - 1] = chart.ring.one
    return GeneralizedSection(chart, (chart.ring.zero,) * chart.dim, tuple(parts))


def basis_sections(chart: Chart) -> list[GeneralizedSection]:
    return [basis_vector(chart, i) for i in range(1, chart.dim + 1)] + [
        basis_form(chart, i) for i in range(1, chart.dim + 1)
    ]


def exact_form(f: Polynomial, chart: Chart) -> GeneralizedSection:
    """The section df."""
    zeros = (chart.ring.zero,) * chart.dim
    return GeneralizedSection(
        chart, zeros, tuple(f.derivative(f"u{i}") for i in range(1, chart.dim + 1))
    )


def vector_apply(x: tuple[Polynomial, ...], f: Polynomial, chart: Chart) -> Polynomial:
    """X(f) = sum X_j df/du_j, one product at a time."""
    terms = (comp * f.derivative(f"u{j}") for j, comp in enumerate(x, start=1))
    return sum(terms, chart.ring.zero)
