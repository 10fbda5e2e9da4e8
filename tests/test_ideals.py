"""Axis ideals, the T/P generators, membership oracles, and intersections."""

import functools
import itertools
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    S3,
    T_RING,
    hilbert_numerator,
    is_reduced_basis,
    monic,
    multidegree_components,
    polynomials,
    linear_by_power,
    relabel_indices,
    membership_by_normal_form,
    normal_form,
    permute_letters,
    seeded,
    substitute,
    tensorial_hilbert_numerator,
    variety_by_substitution,
)
from tensorcert.groebner import (
    IdealPresentation,
    StepBudget,
    buchberger,
    buchberger_criterion,
    groebner_basis,
    membership,
    reduce_basis,
)
from tensorcert.ideals import (
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
from tensorcert.parse import parse_polynomial, render_polynomial
from tensorcert.poly import leading_term, mono_divides
from tensorcert.verify import (
    PAIRS,
    _orbit_basis,
    j_ideal_presentation,
    random_polynomial,
    tensorial_ideal_basis,
)
from tensorcert.xyz import (
    Signature,
    index_desc_order,
    letter_block_order,
    pair_order,
    xyz_ring,
)

R1 = xyz_ring(1)
R2 = xyz_ring(2)
PLUS1 = Signature((1,))
MINUS1 = Signature((-1,))


def p(text, ring=R1):
    return parse_polynomial(text, ring)


class TestAxisIdeals:
    def test_generators_eliminate_one_letter_per_index(self):
        # structural primality witness: each generator is linear in a
        # distinct variable, so each quotient is again a polynomial ring
        from tensorcert.poly import leading_term

        order = letter_block_order(3)
        axes = build_axis_ideals(Signature((1, -1, 1)), order)
        for pres in (axes["x"], axes["y"], axes["z"]):
            leads = set()
            for g in pres.generators:
                assert g.total_degree() == 1
                mono, _ = leading_term(g, order)
                leads.add(mono)
            assert len(leads) == len(pres.generators)

    def test_plus_signature(self):
        axes = build_axis_ideals(PLUS1, letter_block_order(1))
        assert axes["x"].generators == (p("y1 - z1"),)
        assert axes["y"].generators == (p("z1 - x1"),)
        assert axes["z"].generators == (p("x1 - y1"),)

    def test_minus_signature(self):
        axes = build_axis_ideals(MINUS1, letter_block_order(1))
        assert axes["x"].generators == (p("y1 + z1"),)
        assert axes["y"].generators == (p("z1 + x1"),)
        assert axes["z"].generators == (p("x1 + y1"),)

    def test_mixed_componentwise(self):
        axes = build_axis_ideals(Signature((1, -1)), letter_block_order(2))
        assert axes["x"].generators == (p("y1 - z1", R2), p("y2 + z2", R2))


class TestGenerators:
    def test_torsion_equals_shifted_product(self):
        assert generator_T(1, 1, 1, MINUS1) == p("(x1+z1)*(y1+z1)*(x1+y1)")

    def test_torsion_plus_signature(self):
        assert generator_T(1, 1, 1, PLUS1) == p("(x1-y1)*(y1-z1)*(z1-x1)")

    def test_torsion_vanishes_on_each_component(self):
        sig = Signature((1, -1))
        torsion = generator_T(1, 2, 2, sig, R2)
        assert vanishes_on_variety(torsion, sig)

    def test_torsion_index_range(self):
        with pytest.raises(IndexError):
            generator_T(1, 2, 1, PLUS1)

    def test_quadratic_diagonal_vanishes(self):
        sig = Signature((1, 1))
        assert generator_P(1, 1, sig, R2).is_zero()

    def test_quadratic_antisymmetry(self):
        sig = Signature((1, 1))
        assert (generator_P(1, 2, sig, R2) + generator_P(2, 1, sig, R2)).is_zero()

    def test_quadratic_in_ideal(self):
        sig = Signature((1, 1))
        assert vanishes_on_variety(generator_P(1, 2, sig, R2), sig)

    def test_quadratic_rejects_skew_index(self):
        with pytest.raises(ValueError):
            generator_P(1, 2, Signature((1, -1)), R2)

    def test_candidate_basis_shape(self):
        sig = Signature((1, -1, 1))
        cand = candidate_basis(sig)
        assert len(cand.torsion_gens) == 27
        assert len(cand.quadratic_gens) == 1  # only the (1,3) symmetric pair

    def test_candidate_multihomogeneous_with_matching_support(self):
        from tensorcert.xyz import indices_of

        sig = Signature((1, 1))
        for member in candidate_basis(sig, R2).members:
            comps = multidegree_components(member)
            assert len(comps) == 1
            (degree,) = comps
            support = {i + 1 for i, d in enumerate(degree) if d}
            assert support == indices_of(member)


class TestOracles:
    def test_linear_accepts_torsion(self):
        sig = Signature((1, -1))
        assert is_universally_tensorial_linear(generator_T(2, 1, 2, sig, R2), sig)

    def test_zero_is_accepted(self):
        assert is_universally_tensorial_linear(R1.zero, MINUS1)
        assert vanishes_on_variety(R1.zero, MINUS1)

    def test_monomial_rejected_with_substitution_witness(self):
        f = p("x1*y1*z1")
        assert not is_universally_tensorial_linear(f, MINUS1)
        image = substitute(f, {"y1": -R1.var("z1")})
        assert image == p("-x1*z1^2")

    def test_linear_variable_rejected(self):
        assert not vanishes_on_variety(p("x1"), MINUS1)

    def test_oracle_agreement_on_random_samples(self):
        rng = seeded("oracle-agreement-unit")
        for sig in (PLUS1, MINUS1, Signature((1, -1)), Signature((-1, -1))):
            ring = xyz_ring(sig.n)
            basis = tensorial_ideal_basis(sig)
            members = candidate_basis(sig, ring).members
            for k in range(60):
                if k % 2:
                    sample = random_polynomial(rng, sig.n)
                else:
                    sample = ring.zero
                    for _ in range(rng.randint(1, 2)):
                        sample = sample + random_polynomial(
                            rng, sig.n, max_terms=2
                        ) * members[rng.randrange(len(members))]
                linear = is_universally_tensorial_linear(sample, sig)
                variety = vanishes_on_variety(sample, sig)
                member = membership(sample.map_ring(basis.ring), basis)
                assert linear == variety == member


class TestIntersections:
    def test_coprime_principal_lcm(self):
        plain = index_desc_order(1)
        a = IdealPresentation((p("y1 + z1"),), plain)
        b = IdealPresentation((p("(z1+x1)*(x1+y1)"),), plain)
        basis = intersect_pair(a, b)
        assert len(basis.elements) == 1
        assert basis.elements[0] == monic(p("(x1+y1)*(y1+z1)*(z1+x1)"), plain)

    def test_product_of_principal_ideals(self):
        plain = letter_block_order(1)
        a = IdealPresentation((p("x1 - y1"),), plain)
        b = IdealPresentation((p("y1 - z1"),), plain)
        assert product_ideal(a, b).generators == (p("(x1-y1)*(y1-z1)"),)

    def test_product_respects_position_order(self):
        sig = Signature((1, 1))
        axes = build_axis_ideals(sig, letter_block_order(2))
        prod = product_ideal(axes["y"], axes["z"])
        expected = tuple(
            axes["y"].generators[i] * axes["z"].generators[j]
            for i in range(2)
            for j in range(2)
        )
        assert prod.generators == expected

    def test_product_with_zero_ideal(self):
        plain = letter_block_order(1)
        a = IdealPresentation((p("x1"),), plain)
        zero = IdealPresentation((), plain)
        assert product_ideal(a, zero).generators == ()


class TestKnutsonF:
    def test_instantiation(self):
        assert knutson_F(PLUS1) == p("(x1-y1)*(y1-z1)*z1")

    def test_leading_monomial_is_all_variables(self):
        for sig in Signature.sweep(2):
            f = knutson_F(sig)
            for order in (pair_order(("x", "z"), 2), letter_block_order(2)):
                mono, coeff = leading_term(f, order)
                assert R2.from_terms({mono: 1}) == R2.monomial({v: 1 for v in R2.variables})
                assert coeff == 1

    def test_factors_are_distinct(self):
        for sig in Signature.sweep(2):
            factors = []
            for i in (1, 2):
                factors.append(p(f"x{i}", R2) - sig[i] * p(f"y{i}", R2))
                factors.append(p(f"y{i}", R2) - sig[i] * p(f"z{i}", R2))
                factors.append(p(f"z{i}", R2))
            assert len(set(factors)) == len(factors)
            product = R2.one
            for factor in factors:
                product = product * factor
            assert product == knutson_F(sig)


class TestClosedForms:
    def test_minus_one_is_shifted_torsion(self):
        basis = tensorial_ideal_basis(MINUS1)
        assert len(basis.elements) == 1
        assert basis.elements[0] == monic(p("(x1+y1)*(y1+z1)*(z1+x1)"), basis.order)

    def test_plus_one_closed_form(self):
        basis = tensorial_ideal_basis(PLUS1)
        assert len(basis.elements) == 1
        assert basis.elements[0] == monic(p("(x1-y1)*(y1-z1)*(z1-x1)"), basis.order)

    def test_dropping_quadratic_breaks_generation(self):
        sig = Signature((1, 1))
        cand = candidate_basis(sig, R2)
        order = index_desc_order(2)
        torsions_only = groebner_basis(IdealPresentation(cand.torsion_gens, order))
        quadratic = generator_P(1, 2, sig, R2)
        assert not membership(quadratic, torsions_only)
        full = groebner_basis(IdealPresentation(cand.members, order))
        assert membership(quadratic, full)


# -- properties against reference implementations ---------------------------------

AXIS_PAIRS = (("x", "y"), ("x", "z"), ("y", "z"))


def signatures(max_n: int = 2):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(*[st.sampled_from((1, -1))] * n).map(Signature)
    )


@st.composite
def product_generator_lists(draw):
    """Two generator lists drawn from one axis-ideal product at N <= 2.

    Sums of two products lie in the same ideal, and a multiple of a listed
    generator adds nothing, so distinct lists often generate one ideal.
    """
    sig = draw(signatures())
    pair = draw(st.sampled_from(AXIS_PAIRS))
    ring = xyz_ring(sig.n)
    order = pair_order(pair, sig.n)
    axes = build_axis_ideals(sig, order)
    first, second = (axes[w] for w in pair)
    gens = list(product_ideal(first, second).generators)
    pool = gens + [g + h for g, h in itertools.combinations(gens, 2)]
    pick = st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)
    a = draw(pick)
    b = draw(
        st.one_of(
            pick,
            st.permutations(a),
            st.just(a + [a[0] * ring.var("x1")]),
        )
    )
    return order, a, list(b)


@given(data=product_generator_lists())
@settings(max_examples=40, deadline=None)
def test_reduced_basis_equality_matches_mutual_membership(data):
    order, a, b = data
    gb_a = groebner_basis(IdealPresentation(tuple(a), order))
    gb_b = groebner_basis(IdealPresentation(tuple(b), order))
    mutual = ideal_contains(gb_a, b)[0] and ideal_contains(gb_b, a)[0]
    assert (gb_a.elements == gb_b.elements) == mutual


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_signed_rename_variety_matches_substitution(data):
    sig = data.draw(signatures())
    ring = xyz_ring(sig.n)
    f = data.draw(polynomials(ring, max_terms=4))
    # multiples of a generator vanish on one, two or all three components
    axes = build_axis_ideals(sig, letter_block_order(sig.n))
    factors = list(candidate_basis(sig, ring).members)
    factors += axes["x"].generators + axes["y"].generators + axes["z"].generators
    factors += [g * h for g, h in itertools.product(axes["y"].generators, axes["z"].generators)]
    if data.draw(st.booleans()):
        f = f * data.draw(st.sampled_from(factors))
    assert vanishes_on_variety(f, sig) == variety_by_substitution(f, sig)


SIGNATURES_UP_TO_3 = [sig for n in (1, 2, 3) for sig in Signature.sweep(n)]


@functools.cache
def basis_of(sig):
    return tensorial_ideal_basis(sig)


@st.composite
def oracle_samples(draw):
    """(sig, f) over the 14 signatures with N <= 3: f is a random polynomial
    or a random combination of the T/P generators, so a member."""
    sig = draw(st.sampled_from(SIGNATURES_UP_TO_3))
    ring = xyz_ring(sig.n)
    if draw(st.booleans()):
        return sig, draw(polynomials(ring, max_terms=6))
    members = candidate_basis(sig, ring).members
    f = ring.zero
    for _ in range(draw(st.integers(1, 3))):
        factor = draw(polynomials(ring, max_terms=2, max_exp=1))
        f = f + factor * draw(st.sampled_from(members))
    return sig, f


def test_random_polynomial_draws_are_pinned():
    # every oracle-equiv pool, and so every golden report, rests on these draws
    rng = seeded("random-polynomial-draws")
    drawn = [random_polynomial(rng, 2, max_terms=3) for _ in range(3)]
    assert [render_polynomial(f) for f in drawn] == [
        "-x1^2*x2^2",
        "3*x1*x2^2*y1 + x1*x2^2",
        "x1*x2^2*y1 - x2*z1*z2",
    ]
    assert rng.random() == 0.5106819263043376


@functools.cache
def j_steps(sig):
    """(the I^x-first t-free basis, its steps, the steps of j_ideal_presentation)."""
    axes = build_axis_ideals(sig, index_desc_order(sig.n))
    x_first = scale_into_t_ring(axes["x"], product_ideal(axes["y"], axes["z"]))
    x_budget, budget = StepBudget(), StepBudget()
    x_basis = eliminate(groebner_basis(x_first, x_budget))
    groebner_basis(j_ideal_presentation(sig), budget)
    return x_basis, x_budget.used, budget.used


@pytest.mark.parametrize("sig", SIGNATURES_UP_TO_3 + [Signature.parse("++++")], ids=str)
def test_products_first_basis_equals_the_x_first_one(sig):
    # tI^x + (1-t)I^yI^z presents the same ideal's t-trick; reduced bases are
    # unique for (ideal, order), so its t-free part must be the same basis
    x_basis = j_steps(sig)[0]
    assert basis_of(sig).order == x_basis.order
    assert basis_of(sig).elements == x_basis.elements


def test_both_t_trick_orders_take_pinned_steps_up_to_n3():
    # J's steps over the N <= 3 sweep, I^x first and products first; with
    # normal selection and Gebauer-Moeller pair management neither order
    # is cheaper at every signature
    totals = [sum(j_steps(sig)[k] for sig in SIGNATURES_UP_TO_3) for k in (1, 2)]
    assert totals == [6_915, 7_362]


@pytest.mark.parametrize("sig", SIGNATURES_UP_TO_3, ids=str)
def test_orbit_basis_generates_the_ideal(sig):
    orbit = _orbit_basis(sig, StepBudget())
    own = basis_of(sig)
    assert all(membership(g, own) for g in orbit.elements)
    assert all(membership(g, orbit) for g in own.elements)
    assert buchberger_criterion(orbit.elements, orbit.order) == (True, None)
    # the representative lists the symmetric indices first; its index k is
    # renamed to the index of sig it came from, and its letters are shifted
    # x -> y -> z -> x, which maps I_eps onto itself and ranks x last
    origin = [i for i in range(1, sig.n + 1) if sig[i] == 1]
    origin += [i for i in range(1, sig.n + 1) if sig[i] == -1]
    rep = Signature(tuple(sig[i] for i in origin))
    rho = {k: i for k, i in enumerate(origin, 1)}
    assert orbit.elements == tuple(
        permute_letters(relabel_indices(g, rho), S3["(123)"]) for g in basis_of(rep).elements
    )


@given(sample=oracle_samples())
@settings(max_examples=150, deadline=None)
def test_oracles_match_their_references(sample):
    sig, f = sample
    basis = basis_of(sig)
    assert is_universally_tensorial_linear(f, sig) == linear_by_power(f, sig)
    assert vanishes_on_variety(f, sig) == variety_by_substitution(f, sig)
    assert membership(f, basis) == membership_by_normal_form(f, basis)


@given(sample=oracle_samples())
@settings(max_examples=60, deadline=None)
def test_early_exit_membership_never_outspends_the_full_division(sample):
    sig, f = sample
    basis = basis_of(sig)
    early, full = StepBudget(), StepBudget()
    assert membership(f, basis, early) == normal_form(f, basis, full).is_zero()
    assert early.used <= full.used


@pytest.mark.parametrize(
    "f, sig",
    [
        (generator_T(1, 1, 1, PLUS1), Signature((1, 1))),
        (generator_T(1, 2, 1, Signature((1, 1))), PLUS1),
    ],
)
def test_oracles_refuse_a_signature_of_another_length(f, sig):
    for oracle in (is_universally_tensorial_linear, vanishes_on_variety):
        with pytest.raises(ValueError, match="indices but the signature has"):
            oracle(f, sig)


# -- the committed gen-set bases, re-checked with no Groebner engine -------------


@functools.cache
def golden_gen_set_bases(name):
    """{signature: intersection basis} of the gen-set cases of a committed report."""
    report = json.loads((pathlib.Path(__file__).parent / "data" / name).read_text(encoding="utf-8"))
    bases = {}
    for case in report["cases"]:
        if case["suite"] == "gen-set":
            sig = Signature.parse(case["signature"])
            texts = case["details"]["intersection_basis"]
            bases[sig] = [parse_polynomial(text, xyz_ring(sig.n)) for text in texts]
    return bases


def initial_numerator(basis, sig):
    order = index_desc_order(sig.n)
    return hilbert_numerator(leading_term(g, order)[0] for g in basis)


# N -> (committed report, the signatures of its gen-set cases)
GOLDEN_GEN_SET = {
    n: (f"report-all-n{n}.json", [str(sig) for k in range(1, n + 1) for sig in Signature.sweep(k)])
    for n in (1, 2, 3, 4)
} | {5: ("report-all-n5-sig.json", ["+++++", "++---"])}


@pytest.mark.parametrize("n", sorted(GOLDEN_GEN_SET))
def test_golden_gen_set_bases_are_the_reduced_bases(n):
    """Each committed basis B of I_eps vanishes on the three components, so
    B lies in I_eps (an intersection of primes), and <in B> lies in in(I_eps).
    B is reduced under the index-descending order, and <in B> has the closed
    form's Hilbert numerator, so <in B> = in(I_eps): B is the reduced
    Groebner basis, with no Buchberger run to say so."""
    name, signatures = GOLDEN_GEN_SET[n]
    bases = golden_gen_set_bases(name)
    assert sorted(str(sig) for sig in bases) == sorted(signatures)
    for sig, basis in bases.items():
        assert all(variety_by_substitution(g, sig) for g in basis), sig
        assert is_reduced_basis(basis, index_desc_order(sig.n)), sig
        assert initial_numerator(basis, sig) == tensorial_hilbert_numerator(sig), sig


@pytest.mark.parametrize("sig", SIGNATURES_UP_TO_3, ids=str)
def test_dropping_any_golden_basis_element_breaks_the_numerator(sig):
    basis = golden_gen_set_bases("report-all-n3.json")[sig]
    closed = tensorial_hilbert_numerator(sig)
    for k in range(len(basis)):
        assert initial_numerator(basis[:k] + basis[k + 1 :], sig) != closed, (sig, k)


# -- Knutson's pairwise intersections, re-checked with no Groebner engine ----------

# I^w is the ideal of the linear space src_i = eps_i dst_i, (src, dst) = AXIS_SPACES[w]
AXIS_SPACES = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}


def vanishes_on_axis_space(f, sig, axis):
    src, dst = AXIS_SPACES[axis]
    ring = f.ring
    sub = {f"{src}{i}": ring.monomial({f"{dst}{i}": 1}, sig[i]) for i in range(1, sig.n + 1)}
    return substitute(f, sub, ring=ring).is_zero()


def pair_hilbert_numerator(n):
    """K(I^a cap I^b) = K(I^a) + K(I^b) - K(I^a + I^b) = 2(1-t)^N - (1-t)^(2N):
    each axis ideal is generated by N independent linear forms, and the two
    sets together by 2N."""
    u = T_RING.one - T_RING.var("t")
    return 2 * u**n - u ** (2 * n)


@pytest.mark.parametrize("sig", SIGNATURES_UP_TO_3, ids=str)
def test_knutson_intersections_are_the_reduced_bases(sig):
    """The basis B that ``intersect_pair`` returns for I^a cap I^b vanishes
    on both linear spaces, so it lies in the intersection (of two primes) and
    <in B> lies in its initial ideal.  B is reduced, and <in B> has the
    intersection's Hilbert numerator, so <in B> is that initial ideal: B is
    the reduced Groebner basis, with no Buchberger run to say so.  Dropping
    any one element breaks the numerator."""
    closed = pair_hilbert_numerator(sig.n)
    for pair in PAIRS:
        order = pair_order(pair, sig.n)
        axes = build_axis_ideals(sig, order)
        for w in pair:
            assert all(vanishes_on_axis_space(g, sig, w) for g in axes[w].generators)
        basis = intersect_pair(*(axes[w] for w in pair)).elements
        assert all(vanishes_on_axis_space(g, sig, w) for g in basis for w in pair), (sig, pair)
        assert is_reduced_basis(basis, order), (sig, pair)
        leads = [leading_term(g, order)[0] for g in basis]
        assert hilbert_numerator(leads) == closed, (sig, pair)
        for k in range(len(leads)):
            assert hilbert_numerator(leads[:k] + leads[k + 1 :]) != closed, (sig, pair, k)


@st.composite
def monomial_ideals(draw):
    n = draw(st.integers(1, 4))
    return n, draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=6))


@given(ideal=monomial_ideals())
@settings(max_examples=100, deadline=None)
def test_hilbert_numerator_matches_standard_monomial_counts(ideal):
    """K(M) = (1 - t)^n sum_d h(d) t^d, with h(d) the number of degree-d
    monomials outside M; K has degree at most that of the lcm of all
    generators, below top."""
    n, gens = ideal
    top = 3 * n + 1
    t = T_RING.var("t")
    series = T_RING.zero
    for d in range(top + 1):
        for vs in itertools.combinations_with_replacement(range(n), d):
            m = tuple(vs.count(v) for v in range(n))
            if not any(mono_divides(g, m) for g in gens):
                series = series + t**d
    expected = T_RING.from_terms(
        {deg: c for deg, c in (series * (T_RING.one - t) ** n).terms() if deg[0] <= top}
    )
    assert hilbert_numerator(gens) == expected
