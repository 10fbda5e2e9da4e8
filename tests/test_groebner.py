"""Engine tests: S-polynomials, ordered division, Buchberger, monomial ideals.

Expected values come from hand-checkable long division, the worked
three-variable example, and the principal-ideal lcm rule for intersections.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import monic, nonzero_polynomials, normal_form, polynomials, seeded
from tensorcert import groebner
from tensorcert.groebner import (
    BudgetExceededError,
    GroebnerBasis,
    IdealPresentation,
    MonomialIdeal,
    StepBudget,
    buchberger,
    buchberger_criterion,
    groebner_basis,
    initial_ideal,
    membership,
    reduce_basis,
)
from tensorcert.ideals import eliminate, intersect_pair
from tensorcert.parse import parse_polynomial
from tensorcert.poly import MonomialOrder, leading_term, mono_divides
from tensorcert.xyz import elimination_order, index_desc_order, xyz_ring

R1 = xyz_ring(1)
LEX = MonomialOrder(("x1", "y1", "z1"))


def p(text, ring=R1):
    return parse_polynomial(text, ring)


def pres(texts, order=LEX, ring=R1):
    return IdealPresentation(tuple(p(t, ring) for t in texts), order)


def s_polynomial(f, g, order):
    """The engine's own S-polynomial of two divisors, back in ring coordinates."""
    packing, packed = GroebnerBasis((f, g), order)._divisors
    s = groebner._s_poly_aligned(*packed, *packing.lcm_shifts(*packed))
    return packing.unalign(s)


class TestSPolynomial:
    def test_worked_example(self):
        s = s_polynomial(p("x1 - y1"), p("x1 - z1"), LEX)
        assert s == p("z1 - y1")

    def test_coprime_leads_cancel_fully(self):
        s = s_polynomial(p("x1"), p("y1"), LEX)
        assert s.is_zero()

    def test_self_pair_is_zero(self):
        f = p("x1^2 - y1*z1")
        assert s_polynomial(f, f, LEX).is_zero()

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            s_polynomial(R1.zero, p("x1"), LEX)

    @given(f=nonzero_polynomials(R1), g=nonzero_polynomials(R1))
    @settings(max_examples=80)
    def test_leading_terms_cancel(self, f, g):
        s = s_polynomial(f, g, LEX)
        if s.is_zero():
            return
        from tensorcert.poly import mono_lcm

        lcm = mono_lcm(leading_term(f, LEX)[0], leading_term(g, LEX)[0])
        key = LEX.key_for(R1)
        assert key(leading_term(s, LEX)[0]) < key(lcm)


def divide(f, texts):
    """Remainder of f on division by the listed divisors, in list order."""
    return normal_form(f, GroebnerBasis(tuple(p(t) for t in texts), LEX))


class TestDivision:
    def test_remainder_survives_when_leads_do_not_divide(self):
        assert divide(p("y1 - z1"), ["x1 - y1", "x1 - z1"]) == p("y1 - z1")

    def test_exact_division(self):
        assert divide(p("x1 - y1"), ["x1 - y1"]).is_zero()

    def test_hand_long_division(self):
        assert divide(p("x1^2"), ["x1 - y1"]) == p("y1^2")

    def test_divisor_list_order_matters(self):
        f = p("x1^2*y1")
        first = divide(f, ["x1^2", "x1 - z1"])
        second = divide(f, ["x1 - z1", "x1^2"])
        assert first.is_zero()
        assert second == p("y1*z1^2")

    @given(f=polynomials(R1, max_terms=6), g1=nonzero_polynomials(R1), g2=nonzero_polynomials(R1))
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_identity(self, f, g1, g2):
        remainder = normal_form(f, GroebnerBasis((g1, g2), LEX))
        lead1 = leading_term(g1, LEX)[0]
        lead2 = leading_term(g2, LEX)[0]
        for mono, _ in remainder.terms():
            assert not mono_divides(lead1, mono)
            assert not mono_divides(lead2, mono)
        # f - r is a combination of the divisors
        assert membership(f - remainder, groebner_basis(IdealPresentation((g1, g2), LEX)))

    def test_input_checks(self):
        basis = GroebnerBasis((p("x1 - y1"),), LEX)
        with pytest.raises(ValueError):
            normal_form(p("x1 - y1", xyz_ring(2)), basis)
        with pytest.raises(ValueError):
            normal_form(p("x1"), GroebnerBasis((), LEX))
        with pytest.raises(ValueError):
            normal_form(p("x1"), GroebnerBasis((p("x1"), R1.zero), LEX))
        with pytest.raises(ValueError):
            normal_form(p("x1"), GroebnerBasis((p("x1"),), MonomialOrder(("x1", "y1"))))

    def test_basis_is_packed_once(self, monkeypatch):
        basis = groebner_basis(pres(["x1^2 - y1", "x1*y1 - z1", "y1^2 - x1*z1"]))
        queries = [p("x1^3"), p("y1 - z1"), p("x1*y1*z1 - z1^2"), p("x1^2 - y1")]
        calls = []
        original = groebner._Packing.align

        def counting(packing, f):
            calls.append(f)
            return original(packing, f)

        monkeypatch.setattr(groebner._Packing, "align", counting)
        for f in queries:
            membership(f, basis)
        assert len(calls) == len(basis.elements) + len(queries)


class TestPacking:
    @given(f=polynomials(xyz_ring(2)))
    @settings(max_examples=60, deadline=None)
    def test_align_packs_the_highest_ranked_variable_first(self, f):
        order = index_desc_order(2)
        packing = groebner._Packing(order, f.ring)
        positions = order.positions(f.ring)
        last = len(positions) - 1
        expected = {
            sum(m[pos] << 64 * (last - k) for k, pos in enumerate(positions)): c
            for m, c in f.terms()
        }
        assert packing.align(f) == expected
        assert packing.unalign(expected) == f

    def test_align_names_the_highest_ranked_exponent_at_the_cap(self):
        cap = groebner.EXPONENT_CAP
        packing = groebner._Packing(MonomialOrder(("z1", "y1", "x1")), R1)
        below = p(f"x1^{cap - 1}*z1 - y1")
        assert packing.unalign(packing.align(below)) == below
        with pytest.raises(ValueError, match=f"^exponent {cap} too large for the packed representation$"):
            packing.align(p(f"x1^{cap + 1}*z1^{cap} - y1"))


class TestBuchberger:
    def test_worked_example_gains_y_minus_z(self):
        basis = buchberger(pres(["x1 - y1", "x1 - z1"]))
        reduced = reduce_basis(basis)
        assert [str_poly(g) for g in reduced.elements] == ["y1 - z1", "x1 - z1"]

    def test_single_generator(self):
        basis = groebner_basis(pres(["x1"]))
        assert basis.elements == (p("x1"),)

    def test_empty_presentation_rejected(self):
        with pytest.raises(ValueError, match="empty presentation"):
            buchberger(IdealPresentation((), LEX))

    def test_criterion_holds_after_computation(self):
        basis = buchberger(pres(["x1^2 - y1", "x1*y1 - z1", "y1^2 - x1*z1"]))
        holds, witness = buchberger_criterion(basis.elements, LEX)
        assert holds and witness is None

    def test_criterion_detects_incomplete_basis(self):
        holds, witness = buchberger_criterion([p("x1 - y1"), p("x1 - z1")], LEX)
        assert not holds
        assert witness == p("z1 - y1") or witness == p("y1 - z1")

    def test_budget_exhaustion_is_distinct(self):
        tiny = StepBudget(2)
        with pytest.raises(BudgetExceededError):
            buchberger(pres(["x1^2 - y1", "x1*y1 - z1", "y1^2 - x1*z1"]), tiny)

    @given(
        gens=st.lists(nonzero_polynomials(R1, max_terms=3), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_coprime_skip_against_all_pairs_criterion(self, gens, data):
        presentation = IdealPresentation(tuple(gens), LEX)
        holds, witness = buchberger_criterion(buchberger(presentation).elements, LEX)
        assert holds and witness is None
        shuffled = data.draw(st.permutations(gens))
        assert (
            groebner_basis(IdealPresentation(tuple(shuffled), LEX)).elements
            == groebner_basis(presentation).elements
        )


class TestReduceBasis:
    def test_interreduction(self):
        basis = GroebnerBasis((p("x1 - y1"), p("x1 - z1"), p("y1 - z1")), LEX)
        reduced = reduce_basis(basis)
        assert [str_poly(g) for g in reduced.elements] == ["y1 - z1", "x1 - z1"]

    def test_idempotent(self):
        basis = reduce_basis(buchberger(pres(["x1 - y1", "x1 - z1"])))
        assert reduce_basis(basis) == basis

    def test_canonical_under_generator_permutation(self):
        rng = seeded("permute-generators")
        gens = [p("x1^2 - y1"), p("x1*y1 - z1"), p("z1^2 - x1")]
        reference = None
        for perm in itertools.permutations(gens):
            reduced = groebner_basis(IdealPresentation(perm, LEX))
            if reference is None:
                reference = reduced.elements
            assert reduced.elements == reference
        assert rng is not None

    def test_elements_are_monic(self):
        reduced = groebner_basis(pres(["-2*x1 + y1", "3*y1^2 - z1"]))
        for g in reduced.elements:
            assert leading_term(g, LEX)[1] == 1


class TestMembership:
    def test_membership_of_combination(self):
        basis = groebner_basis(pres(["x1 - y1", "x1 - z1"]))
        assert membership(p("y1 - z1"), basis)

    def test_zero_is_member(self):
        basis = groebner_basis(pres(["x1*y1"]))
        assert membership(R1.zero, basis)

    def test_degree_obstruction(self):
        basis = groebner_basis(pres(["x1*y1"]))
        assert not membership(p("x1"), basis)

    def test_decided_at_the_first_irreducible_term(self):
        basis = groebner_basis(pres(["y1"]))
        f = p("x1 + y1*z1")  # x1 leads and is irreducible; y1*z1 reduces
        early, full = StepBudget(), StepBudget()
        assert not membership(f, basis, early)
        assert normal_form(f, basis, full) == p("x1")
        assert (early.used, full.used) == (0, 1)

    @given(
        c1=polynomials(R1, max_terms=2),
        c2=polynomials(R1, max_terms=2),
        g1=nonzero_polynomials(R1, max_terms=3),
        g2=nonzero_polynomials(R1, max_terms=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_explicit_combinations_are_members(self, c1, c2, g1, g2):
        basis = groebner_basis(IdealPresentation((g1, g2), LEX))
        assert membership(c1 * g1 + c2 * g2, basis)


class TestElimination:
    def test_principal_coprime_lcm(self):
        plain = index_desc_order(1)
        a = IdealPresentation((p("x1"),), plain)
        b = IdealPresentation((p("y1"),), plain)
        basis = intersect_pair(a, b)
        assert [str_poly(g) for g in basis.elements] == ["x1*y1"]

    def test_shared_factor_lcm(self):
        plain = index_desc_order(1)
        a = IdealPresentation((p("x1*y1"),), plain)
        b = IdealPresentation((p("y1*z1"),), plain)
        basis = intersect_pair(a, b)
        assert len(basis.elements) == 1
        assert basis.elements[0] == p("x1*y1*z1")

    def test_linear_factor_products(self):
        rng = seeded("lcm-cases")
        plain = index_desc_order(1)
        forms = [p("x1 + y1"), p("y1 + z1"), p("z1 + x1"), p("x1 - 2*z1")]
        for _ in range(6):
            take_a = sorted(rng.sample(range(4), rng.randint(1, 3)))
            take_b = sorted(rng.sample(range(4), rng.randint(1, 3)))
            fa = R1.one
            for i in take_a:
                fa = fa * forms[i]
            fb = R1.one
            for i in take_b:
                fb = fb * forms[i]
            lcm = R1.one
            for i in sorted(set(take_a) | set(take_b)):
                lcm = lcm * forms[i]
            a, b = (IdealPresentation((f,), plain) for f in (fa, fb))
            basis = intersect_pair(a, b)
            assert len(basis.elements) == 1
            assert basis.elements[0] == monic(lcm, plain)

    def test_self_intersection(self):
        plain = index_desc_order(1)
        ideal = IdealPresentation((p("x1 - y1"), p("y1^2 - z1")), plain)
        basis = intersect_pair(ideal, ideal)
        direct = groebner_basis(ideal)
        assert basis.elements == direct.elements

    def test_presentation_ranking_t_is_refused(self):
        # <t - x1> is not the zero ideal, yet eliminating a t that the
        # caller's presentation already uses would leave no element at all
        r1t = xyz_ring(1, with_t=True)
        ideal = IdealPresentation((p("t - x1", r1t),), elimination_order(1))
        with pytest.raises(ValueError):
            intersect_pair(ideal, ideal)

    def test_eliminate_needs_t_ranked_first(self):
        basis = groebner_basis(IdealPresentation((p("x1 - y1"),), index_desc_order(1)))
        with pytest.raises(ValueError):
            eliminate(basis)


class TestMonomialIdeals:
    def test_intersection_is_lcm(self):
        a = MonomialIdeal.from_monomials(R1, [mono({"x1": 1, "y1": 1})])
        b = MonomialIdeal.from_monomials(R1, [mono({"x1": 2})])
        assert a.intersect(b) == MonomialIdeal.from_monomials(R1, [mono({"x1": 2, "y1": 1})])

    def test_self_intersection(self):
        a = MonomialIdeal.from_monomials(R1, [mono({"x1": 1}), mono({"y1": 2})])
        assert a.intersect(a) == a

    def test_minimalization(self):
        a = MonomialIdeal.from_monomials(R1, [mono({"x1": 1}), mono({"x1": 2, "y1": 1})])
        assert a.minimal_generators == frozenset({mono({"x1": 1})})

    def test_squarefree(self):
        assert MonomialIdeal.from_monomials(
            R1, [mono({"x1": 1, "y1": 1, "z1": 1})]
        ).is_squarefree()
        assert not MonomialIdeal.from_monomials(R1, [mono({"x1": 2})]).is_squarefree()
        ring2 = xyz_ring(2)
        squarefree = MonomialIdeal.from_monomials(
            ring2, [mono({"x1": 1, "x2": 1, "y1": 1}, ring2)]
        )
        assert squarefree.is_squarefree()

    def test_initial_ideal_of_reduced_basis(self):
        basis = groebner_basis(pres(["x1 - z1", "y1 - z1"]))
        expected = MonomialIdeal.from_monomials(R1, [mono({"x1": 1}), mono({"y1": 1})])
        assert initial_ideal(basis) == expected

    def test_initial_ideal_principal(self):
        basis = groebner_basis(pres(["x1^2"]))
        assert initial_ideal(basis) == MonomialIdeal.from_monomials(R1, [mono({"x1": 2})])


def mono(mapping, ring=R1):
    exps = [0] * ring.nvars
    for name, e in mapping.items():
        exps[ring.index(name)] = e
    return tuple(exps)


def str_poly(g):
    from tensorcert.parse import render_polynomial

    return render_polynomial(g, LEX)


def test_normal_form_is_unique_for_groebner_bases():
    basis = groebner_basis(pres(["x1^2 - y1", "x1*y1 - z1"]))
    f = p("x1^3 + x1*y1^2 - z1^2")
    shuffled = GroebnerBasis(tuple(reversed(basis.elements)), LEX)
    assert normal_form(f, basis) == normal_form(f, shuffled)
