"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import strategies as st

from tensorcert import groebner
from tensorcert.chart import Chart, CommutingFamily, Endomorphism, GeneralizedSection
from tensorcert.courant import BracketTable, courant_bracket, tensor_P_terms, torsion_T_terms
from tensorcert.groebner import GroebnerBasis, StepBudget
from tensorcert.poly import (
    Coefficient,
    Exponents,
    MonomialOrder,
    Polynomial,
    PolyRing,
    leading_term,
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
    for I, J, K, a in split_terms(f):
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
    for I, J, K, c in split_terms(f):
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
    return BracketTable(family, a, b).tensor(torsion_T_terms(i, j, k, family))


def tensor_P(
    i: int, j: int, family: CommutingFamily, a: GeneralizedSection, b: GeneralizedSection
) -> GeneralizedSection:
    """P^{ij}(a, b) through one bracket table, as the tensoriality suite computes it."""
    return BracketTable(family, a, b).tensor(tensor_P_terms(i, j, family))


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
    phi_k, phi_j, phi_i = family.member(k), family.member(j), family.member(i)
    first = semiconcomitant(phi_k, phi_j, a, phi_i.apply(b)).scale(sig[i] * sig[k])
    second = semiconcomitant(phi_k, phi_j, phi_i.apply(a), b).scale(sig[k])
    return first - second


def reference_tensor_P(
    i: int, j: int, family: CommutingFamily, a: GeneralizedSection, b: GeneralizedSection
) -> GeneralizedSection:
    """P^{ij}(a,b) = K_(i,j)(a,b) - K_(j,i)(a,b), sequentially."""
    phi_i, phi_j = family.member(i), family.member(j)
    return semiconcomitant(phi_i, phi_j, a, b) - semiconcomitant(phi_j, phi_i, a, b)


# -- the bridge identities formally: exponent bookkeeping, no family, no bracket --

# a derived tensor sum M_IJ [[phi^I a, phi^J b]] with M_IJ = sum_K s_K phi^K,
# as (I, J) -> {K: s_K}, which means the same on every family of the signature
FormalTerms = dict[tuple[Exponents, Exponents], dict[Exponents, Coefficient]]


def _unit(n: int, p: int) -> Exponents:
    """e_p, for a 1-based index p."""
    return tuple(int(i == p) for i in range(1, n + 1))


def _plus(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def add_formal_semiconcomitant(
    terms: FormalTerms, p: int, q: int, I: Exponents, J: Exponents, c: Coefficient
) -> None:
    """Add c K_(p,q)(phi^I a, phi^J b) =
    c ([[phi^(I+e_p) a, phi^(J+e_q) b]] - phi_p [[phi^I a, phi^(J+e_q) b]]
    - phi_q [[phi^(I+e_p) a, phi^J b]] + phi^(e_p+e_q) [[phi^I a, phi^J b]])."""
    n = len(I)
    e_p, e_q = _unit(n, p), _unit(n, q)
    for key, K, s in (
        ((_plus(I, e_p), _plus(J, e_q)), (0,) * n, c),
        ((I, _plus(J, e_q)), e_p, -c),
        ((_plus(I, e_p), J), e_q, -c),
        ((I, J), _plus(e_p, e_q), c),
    ):
        outer = terms.setdefault(key, {})
        outer[K] = outer.get(K, 0) + s


def without_zero_terms(terms: FormalTerms) -> FormalTerms:
    """The terms with zero coefficients, and then empty keys, dropped."""
    kept = {key: {K: s for K, s in outer.items() if s} for key, outer in terms.items()}
    return {key: outer for key, outer in kept.items() if outer}


def formal_torsion_T(i: int, j: int, k: int, sig: Signature) -> FormalTerms:
    """T^{ijk}(a,b) = e_i e_k K_(k,j)(a, phi_i b) - e_k K_(k,j)(phi_i a, b), formally."""
    zero, e_i = (0,) * sig.n, _unit(sig.n, i)
    terms: FormalTerms = {}
    add_formal_semiconcomitant(terms, k, j, zero, e_i, sig[i] * sig[k])
    add_formal_semiconcomitant(terms, k, j, e_i, zero, -sig[k])
    return without_zero_terms(terms)


def formal_tensor_P(i: int, j: int, sig: Signature) -> FormalTerms:
    """P^{ij}(a,b) = K_(i,j)(a,b) - K_(j,i)(a,b), formally."""
    zero = (0,) * sig.n
    terms: FormalTerms = {}
    add_formal_semiconcomitant(terms, i, j, zero, zero, 1)
    add_formal_semiconcomitant(terms, j, i, zero, zero, -1)
    return without_zero_terms(terms)


def formal_action(poly: Polynomial, sig: Signature) -> FormalTerms:
    """The polynomial action as the tensor it pairs with c: (I, J) -> {K: c e^K}
    over the terms c x^I y^J z^K, because (phi^K)* = e^K phi^K."""
    out: FormalTerms = {}
    for I, J, K, c in split_terms(poly):
        out.setdefault((I, J), {})[K] = c * sig.power(K)
    return without_zero_terms(out)


def instantiate(terms: FormalTerms, family: CommutingFamily) -> dict:
    """(I, J) -> sum_K s_K phi^K on one family, zero matrices dropped."""
    out = {}
    for key, outer in terms.items():
        m = reduce(add, (family.power_endo(K).scale(s) for K, s in outer.items()))
        if any(m.nonzero):
            out[key] = m
    return out


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
