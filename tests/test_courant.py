"""Courant-algebroid axioms, the polynomial action, and the derived tensors."""

from fractions import Fraction
from itertools import chain, product

import pytest

from conftest import (
    S3,
    add_formal_semiconcomitant,
    basis_form,
    basis_sections,
    basis_vector,
    exact_form,
    formal_action,
    formal_tensor_P,
    formal_torsion_T,
    instantiate,
    permute_letters,
    reference_tensor_P,
    reference_torsion_T,
    relabel_indices,
    seeded,
    semiconcomitant,
    substitute,
    tensor_P,
    torsion_T,
    vector_apply,
    without_zero_terms,
)
from tensorcert.chart import Chart, CommutingFamily, Endomorphism, GeneralizedSection
from tensorcert import courant
from tensorcert.courant import (
    BracketTable,
    action_terms,
    courant_bracket,
    courant_element,
    inner_product,
    polynomial_action,
    tensor_P_terms,
    tensoriality_check,
    torsion_T_terms,
)
from tensorcert.fleet import _blocks, build_fleet
from tensorcert.ideals import (
    candidate_basis,
    generator_P,
    generator_T,
    is_universally_tensorial_linear,
    vanishes_on_variety,
)
from tensorcert.parse import parse_polynomial
from tensorcert.poly import dot
from tensorcert.verify import random_polynomial, random_section
from tensorcert.xyz import (
    Signature,
    ring_size,
    split_terms,
    uses_t,
    xyz_ring,
)

FLEET = {entry.name: entry.family for entry in build_fleet()}
SMALL_CHART_FAMILIES = sorted(name for name, fam in FLEET.items() if fam.chart.dim <= 2)


def rnd_scalar(rng, chart, degree=1):
    ring = chart.ring
    terms = {}
    for _ in range(2):
        key = tuple(rng.randint(0, degree) for _ in range(ring.nvars))
        coeff = Fraction(rng.randint(-2, 2))
        if coeff:
            terms[key] = terms.get(key, Fraction(0)) + coeff
    return ring.from_terms({m: c for m, c in terms.items() if c})


def rnd_section(rng, chart):
    n = chart.dim
    return GeneralizedSection(
        chart,
        tuple(rnd_scalar(rng, chart) for _ in range(n)),
        tuple(rnd_scalar(rng, chart) for _ in range(n)),
    )


class TestInnerProduct:
    def test_vector_form_pairing(self):
        chart = Chart(1)
        pairing = inner_product(basis_vector(chart, 1), basis_form(chart, 1))
        assert pairing == chart.ring.const(Fraction(1, 2))

    def test_vectors_pair_to_zero(self):
        chart = Chart(2)
        assert inner_product(basis_vector(chart, 1), basis_vector(chart, 2)).is_zero()

    def test_symmetry_on_random_sections(self):
        rng = seeded("pairing-symmetry")
        chart = Chart(2)
        for _ in range(20):
            a, b = rnd_section(rng, chart), rnd_section(rng, chart)
            assert inner_product(a, b) == inner_product(b, a)

    def test_halving_matches_the_fraction_product(self):
        rng = seeded("pairing-halving")
        for name, family in sorted(FLEET.items()):
            ring = family.chart.ring
            for _ in range(3):
                a, b = random_section(rng, family), random_section(rng, family)
                for left in (a, a.scale(Fraction(1, 3))):
                    pairs = chain(zip(left.form, b.vector), zip(b.form, left.vector))
                    expected = dot(ring, pairs).scale(Fraction(1, 2))
                    got = inner_product(left, b)
                    assert got == expected, name
                    types = {m: type(c) for m, c in got.terms()}
                    assert types == {m: type(c) for m, c in expected.terms()}, name


class TestCourantBracket:
    def test_lie_derivative_example(self):
        chart = Chart(1)
        a = basis_vector(chart, 1)
        b = basis_form(chart, 1).scale(chart.coordinate(1))
        assert courant_bracket(a, b) == basis_form(chart, 1)

    def test_constant_vectors_commute(self):
        chart = Chart(2)
        a, b = basis_vector(chart, 1), basis_vector(chart, 2)
        assert courant_bracket(a, b).is_zero()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_vector_part_is_the_lie_bracket(self, dim):
        rng = seeded(f"lie-bracket-{dim}")
        chart = Chart(dim)
        for _ in range(25):
            a, b = rnd_section(rng, chart), rnd_section(rng, chart)
            x, y = a.vector, b.vector
            lie = tuple(
                vector_apply(x, y[i], chart) - vector_apply(y, x[i], chart) for i in range(dim)
            )
            assert courant_bracket(a, b).vector == lie

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_leibniz_second_slot(self, dim):
        rng = seeded(f"leibniz-2-{dim}")
        chart = Chart(dim)
        for _ in range(25):
            a, b = rnd_section(rng, chart), rnd_section(rng, chart)
            f = rnd_scalar(rng, chart, degree=2)
            lhs = courant_bracket(a, b.scale(f))
            rhs = courant_bracket(a, b).scale(f) + b.scale(vector_apply(a.vector, f, chart))
            assert lhs == rhs

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_leibniz_first_slot_with_pairing_term(self, dim):
        rng = seeded(f"leibniz-1-{dim}")
        chart = Chart(dim)
        for _ in range(25):
            a, b = rnd_section(rng, chart), rnd_section(rng, chart)
            f = rnd_scalar(rng, chart, degree=2)
            lhs = courant_bracket(a.scale(f), b)
            df = exact_form(f, chart)
            rhs = (
                courant_bracket(a, b).scale(f)
                - a.scale(vector_apply(b.vector, f, chart))
                + df.scale(2 * inner_product(a, b))
            )
            assert lhs == rhs

    def test_courant_axiom_both_identities(self):
        rng = seeded("courant-axiom")
        chart = Chart(2)
        for _ in range(25):
            a, b, c = (rnd_section(rng, chart) for _ in range(3))
            lhs = vector_apply(a.vector, inner_product(b, c), chart)
            first = inner_product(courant_bracket(a, b), c) + inner_product(
                courant_bracket(a, c), b
            )
            second = inner_product(courant_bracket(b, c), a) + inner_product(
                courant_bracket(c, b), a
            )
            assert lhs == first == second


class TestCourantElement:
    def test_worked_value(self):
        chart = Chart(1)
        tau = courant_element(chart)
        a = basis_vector(chart, 1)
        b = basis_form(chart, 1).scale(chart.coordinate(1))
        assert tau(a, b, a) == chart.ring.const(Fraction(1, 2))

    def test_constant_vector_only_sections(self):
        chart = Chart(2)
        tau = courant_element(chart)
        vs = [basis_vector(chart, 1), basis_vector(chart, 2), basis_vector(chart, 1)]
        assert tau(*vs).is_zero()


class TestPolynomialAction:
    def test_unit_acts_trivially(self):
        family = FLEET["diag-skew-n1"]
        tau = courant_element(family.chart)
        form = polynomial_action(xyz_ring(1).one, family, tau)
        rng = seeded("unit-action")
        for _ in range(5):
            a, b, c = (rnd_section(rng, family.chart) for _ in range(3))
            assert form(a, b, c) == tau(a, b, c)

    def test_x_with_identity_member(self):
        chart = Chart(1)
        family = CommutingFamily([Endomorphism.identity(chart)], Signature((1,)))
        tau = courant_element(chart)
        form = polynomial_action(xyz_ring(1).var("x1"), family, tau)
        rng = seeded("x-action")
        for _ in range(5):
            a, b, c = (rnd_section(rng, chart) for _ in range(3))
            assert form(a, b, c) == tau(a, b, c)

    def test_index_mismatch_rejected(self):
        family = FLEET["diag-skew-n1"]
        with pytest.raises(ValueError):
            polynomial_action(xyz_ring(2).var("x2"), family, courant_element(family.chart))

    def test_sigma_equivariance(self):
        def permute_form(tau, sigma):
            # (sigma tau)(a, b, c) = tau(sigma^-1 (a, b, c)), slots labelled x, y, z;
            # slot p reads the argument at sigma(p)
            slot = {"x": 0, "y": 1, "z": 2}
            source = [slot[sigma[w]] for w in "xyz"]
            return lambda *args: tau(*(args[q] for q in source))

        family = FLEET["generic-sym-pair-n2"]
        chart = family.chart
        tau = courant_element(chart)
        rng = seeded("sigma-equivariance")
        for name, sigma in S3.items():
            for _ in range(3):
                poly = random_polynomial(rng, 2, max_terms=3)
                a, b, c = (rnd_section(rng, chart) for _ in range(3))
                lhs = permute_form(polynomial_action(poly, family, tau), sigma)(a, b, c)
                rhs = polynomial_action(
                    permute_letters(poly, sigma), family, permute_form(tau, sigma)
                )(a, b, c)
                assert lhs == rhs, name

    def test_family_reindexing(self):
        family = FLEET["diag-mixed-n2"]  # three members over the plane chart
        chart = family.chart
        tau = courant_element(chart)
        rng = seeded("family-reindexing")
        rho = {1: 2, 2: 3, 3: 1}
        rho_inv = {v: k for k, v in rho.items()}
        permuted = CommutingFamily(
            tuple(family.members[rho_inv[i] - 1] for i in (1, 2, 3)),
            Signature(tuple(family.signature[rho_inv[i]] for i in (1, 2, 3))),
        )
        for _ in range(5):
            poly = random_polynomial(rng, 3, max_terms=3)
            a, b, c = (rnd_section(rng, chart) for _ in range(3))
            lhs = polynomial_action(poly, permuted, tau)(a, b, c)
            rhs = polynomial_action(relabel_indices(poly, rho_inv), family, tau)(a, b, c)
            assert lhs == rhs

    def test_member_rescaling(self):
        family = FLEET["generic-sym-pair-n2"]
        chart = family.chart
        ring = xyz_ring(2)
        tau = courant_element(chart)
        rng = seeded("member-rescaling")
        scale = (Fraction(2), Fraction(-1, 2))
        scaled = CommutingFamily(
            tuple(m.scale(c) for m, c in zip(family.members, scale)), family.signature
        )
        sub = {
            f"{w}{i}": ring.monomial({f"{w}{i}": 1}, scale[i - 1])
            for w in "xyz"
            for i in (1, 2)
        }
        for _ in range(5):
            poly = random_polynomial(rng, 2, max_terms=3)
            rescaled_poly = substitute(poly, sub, ring=ring)
            a, b, c = (rnd_section(rng, chart) for _ in range(3))
            assert polynomial_action(poly, scaled, tau)(a, b, c) == polynomial_action(
                rescaled_poly, family, tau
            )(a, b, c)

    def test_sum_of_families_via_juxtaposition(self):
        family = FLEET["generic-sym-pair-n2"]
        chart = family.chart
        ident = Endomorphism.identity(chart)
        other = CommutingFamily((ident.scale(2), ident.scale(Fraction(1, 2))), family.signature)
        summed = CommutingFamily(
            tuple(m1 + m2 for m1, m2 in zip(family.members, other.members)),
            family.signature,
        )
        juxtaposed = CommutingFamily(
            family.members + other.members,
            Signature(family.signature.entries + other.signature.entries),
        )
        ring4 = xyz_ring(4)
        sub = {
            f"{w}{i}": ring4.var(f"{w}{i}") + ring4.var(f"{w}{i + 2}")
            for w in "xyz"
            for i in (1, 2)
        }
        tau = courant_element(chart)
        rng = seeded("family-sum")
        for _ in range(4):
            poly = random_polynomial(rng, 2, max_terms=2)
            expanded = substitute(poly, sub, ring=ring4)
            a, b, c = (rnd_section(rng, chart) for _ in range(3))
            assert polynomial_action(poly, summed, tau)(a, b, c) == polynomial_action(
                expanded, juxtaposed, tau
            )(a, b, c)


class TestTensoriality:
    def test_shifted_torsion_polynomial_is_universal(self):
        poly = parse_polynomial("(x1+z1)*(y1+z1)*(x1+y1)", xyz_ring(1))
        for name in ("diag-skew-n1", "gacs-complex-n2", "generic-skew-n2"):
            assert tensoriality_check(poly, FLEET[name])

    def test_torsion_pair_tensorial_without_universality(self):
        # the two-factor polynomial is tensorial for an almost complex member
        poly = parse_polynomial("(x1+z1)*(y1+z1)", xyz_ring(1))
        sig = Signature((-1,))
        assert not vanishes_on_variety(poly, sig)
        assert tensoriality_check(poly, FLEET["gacs-complex-n2"])
        # and fails for a generic skew member
        assert not tensoriality_check(poly, FLEET["generic-skew-n2"])

    def test_unit_fails_on_any_chart(self):
        assert not tensoriality_check(xyz_ring(1).one, FLEET["diag-skew-n1"])

    def test_defect_reduction_spot_check(self):
        # basis-level pass must imply vanishing for composite f and random sections
        family = FLEET["generic-skew-n2"]
        chart = family.chart
        poly = generator_T(1, 1, 1, family.signature, xyz_ring(1))
        assert tensoriality_check(poly, family)
        form = polynomial_action(poly, family, courant_element(chart))
        rng = seeded("defect-spot-check")
        for _ in range(10):
            f = rnd_scalar(rng, chart, degree=2)
            a, b, c = (rnd_section(rng, chart) for _ in range(3))
            assert form(a, b.scale(f), c) == f * form(a, b, c)
            assert form(a.scale(f), b, c) == f * form(a, b, c)

    def test_check_forms_no_product_with_a_zero_operand(self, monkeypatch):
        import tensorcert.chart as chart_module

        formed = []

        def nonzero_only(ring, pairs):
            pairs = list(pairs)
            assert all(p and q for p, q in pairs), "a product with a zero operand was formed"
            formed.append(len(pairs))
            return dot(ring, pairs)

        cases = [
            (family, poly)
            for family in FLEET.values()
            for poly in (xyz_ring(family.n).one, *candidate_basis(family.signature).members)
        ]
        monkeypatch.setattr(courant, "dot", nonzero_only)
        monkeypatch.setattr(chart_module, "dot", nonzero_only)
        verdicts = {tensoriality_check(poly, family) for family, poly in cases}
        assert formed and verdicts == {True, False}

    def test_linear_oracle_implies_tensorial_on_every_family(self):
        # the three equation families of the linear oracle are the defects of
        # tensoriality_check grouped by phi-power, so a pass is tensorial on
        # every family of the signature; a failure may still pass on one family
        by_signature: dict[Signature, list] = {}
        for family in FLEET.values():
            by_signature.setdefault(family.signature, []).append(family)
        rng = seeded("linear-implies-tensorial")
        passed = failed = 0
        for sig, families in by_signature.items():
            ring = xyz_ring(sig.n)
            members = candidate_basis(sig, ring).members
            variables = [ring.var(v) for v in ring.variables]
            polys = [random_polynomial(rng, sig.n, max_terms=4) for _ in range(20)]
            for _ in range(20):
                combination = ring.zero
                for _ in range(2):
                    factor = rng.choice([ring.one, *variables]).scale(rng.choice([-2, -1, 1, 3]))
                    combination = combination + factor * rng.choice(members)
                polys.append(combination)
            for poly in polys:
                if not is_universally_tensorial_linear(poly, sig):
                    failed += 1
                    continue
                passed += 1
                for family in families:
                    assert tensoriality_check(poly, family), (str(sig), poly)
        assert passed and failed


# -- the bracket-table reference oracle for tensoriality_check ----------------------


def _powers_applied(family, powers, sections):
    return [
        {p: family.power_endo(p).apply(sec) for p in powers} for sec in sections
    ]


def _action_table(family, groups, a_app, b_app, c_app):
    """values[ia][ib][ic] of the action form, sharing brackets over the c slot."""
    zero = family.chart.ring.zero
    size = len(a_app)
    table = [[[zero] * size for _ in range(size)] for _ in range(size)]
    for ia, a_pows in enumerate(a_app):
        for ib, b_pows in enumerate(b_app):
            for (pi, pj), ks in groups.items():
                bracket = courant_bracket(a_pows[pi], b_pows[pj])
                for ic, c_pows in enumerate(c_app):
                    acc = table[ia][ib][ic]
                    for pk, coeff in ks:
                        acc = acc + inner_product(bracket, c_pows[pk]).scale(coeff)
                    table[ia][ib][ic] = acc
    return table


def reference_defect(poly, family):
    """First nonzero function-linearity defect of (P ._phi tau_C), or None.

    Evaluates the action form itself with brackets on basis sections and on
    their u_i-multiples in the first two slots and compares; the defect is a
    derivation in the function slot, so f = u_1..u_n decides it.
    """
    assert not uses_t(poly) and ring_size(poly.ring) == family.n
    chart = family.chart
    groups: dict[tuple, list] = {}
    for I, J, K, coeff in split_terms(poly):
        groups.setdefault((I, J), []).append((K, coeff))
    powers = {p for (pi, pj) in groups for p in (pi, pj)}
    powers.update(pk for ks in groups.values() for pk, _ in ks)
    basis = basis_sections(chart)
    applied = _powers_applied(family, powers, basis)
    base = _action_table(family, groups, applied, applied, applied)
    size = len(basis)
    for i in range(1, chart.dim + 1):
        f = chart.coordinate(i)
        scaled = _powers_applied(family, powers, [sec.scale(f) for sec in basis])
        second = _action_table(family, groups, applied, scaled, applied)
        first = _action_table(family, groups, scaled, applied, applied)
        for ia in range(size):
            for ib in range(size):
                for ic in range(size):
                    expected = f * base[ia][ib][ic]
                    d2 = second[ia][ib][ic] - expected
                    if not d2.is_zero():
                        return d2, ("second-slot", i, basis[ia], basis[ib], basis[ic])
                    d1 = first[ia][ib][ic] - expected
                    if not d1.is_zero():
                        return d1, ("first-slot", i, basis[ia], basis[ib], basis[ic])
    return None


def assert_same_verdict(poly, family) -> bool:
    verdict = tensoriality_check(poly, family)
    assert verdict == (reference_defect(poly, family) is None), poly
    return verdict


class TestTensorialityAgainstBracketTables:
    @pytest.mark.parametrize("name", SMALL_CHART_FAMILIES)
    def test_candidate_members(self, name):
        family = FLEET[name]
        for poly in candidate_basis(family.signature, xyz_ring(family.n)).members:
            assert_same_verdict(poly, family)

    def test_unit_polynomial(self):
        for name in SMALL_CHART_FAMILIES:
            family = FLEET[name]
            assert not assert_same_verdict(xyz_ring(family.n).one, family)

    def test_torsion_pair(self):
        poly = parse_polynomial("(x1+z1)*(y1+z1)", xyz_ring(1))
        verdicts = {
            name: assert_same_verdict(poly, FLEET[name])
            for name in SMALL_CHART_FAMILIES
            if FLEET[name].n == 1
        }
        assert verdicts["gacs-complex-n2"] and not verdicts["generic-skew-n2"]

    @pytest.mark.parametrize(
        "name, text", [("vector-valued-n1", "y1*z1"), ("form-valued-quadratic-n1", "x1*x2*y2")]
    )
    def test_first_slot_terms_cancel(self, name, text):
        # tensorial only because the pairing and vector terms of the
        # first-slot defect cancel: dropping either one flips the verdict
        family = FLEET[name]
        assert assert_same_verdict(parse_polynomial(text, xyz_ring(family.n)), family)

    def test_seeded_random_polynomials(self):
        rng = seeded("tensoriality-oracle")
        verdicts = set()
        for name in ("diag-skew-n1", "gacs-complex-n2", "generic-sym-pair-n2", "diag-mixed-n2"):
            family = FLEET[name]
            ring = xyz_ring(family.n)
            members = candidate_basis(family.signature, ring).members
            for _ in range(3):
                poly = random_polynomial(rng, family.n, max_terms=3)
                verdicts.add(assert_same_verdict(poly, family))
                # a multiple of a candidate member lies in the ideal
                multiple = poly * members[rng.randrange(len(members))]
                verdicts.add(assert_same_verdict(multiple, family))
        assert verdicts == {True, False}

    def test_second_slot_defect_alone(self):
        # a skew phi over the plane (nilpotent on vectors plus a bivector) with
        # phi^2 as second member: x2*y1*z1 has no first-slot defect, so only
        # the second-slot section shows that it is not tensorial
        chart = Chart(2)
        ring = chart.ring
        z, uu = ring.zero, chart.coordinate(1) * chart.coordinate(2)
        phi = _blocks(
            chart,
            a=[[z, ring.const(-2)], [z, z]],
            b=[[z, uu], [-uu, z]],
            d=[[z, z], [ring.const(2), z]],
        )
        family = CommutingFamily((phi, phi.compose(phi)), Signature((-1, 1)))
        assert not assert_same_verdict(parse_polynomial("x2*y1*z1", xyz_ring(2)), family)

    def test_check_makes_no_bracket(self, monkeypatch):
        import tensorcert.courant as courant

        def refuse(a, b):
            raise AssertionError("tensoriality_check evaluated a bracket")

        monkeypatch.setattr(courant, "courant_bracket", refuse)
        family = FLEET["gacs-complex-n2"]
        ring = xyz_ring(1)
        assert tensoriality_check(parse_polynomial("(x1+z1)*(y1+z1)", ring), family)
        assert not tensoriality_check(ring.one, family)


class TestSemiconcomitant:
    def test_identity_second_member_gives_zero(self):
        chart = Chart(2)
        first = FLEET["generic-sym-n2"].members[0]
        pair = CommutingFamily(
            (first, Endomorphism.identity(chart)), Signature((1, 1))
        )
        rng = seeded("semiconcomitant-identity")
        for _ in range(6):
            a, b = rnd_section(rng, chart), rnd_section(rng, chart)
            assert semiconcomitant(*pair.members, a, b).is_zero()

    def test_pairing_identity(self):
        pair = FLEET["generic-sym-pair-n2"]
        ring = xyz_ring(2)
        sig = pair.signature
        poly = (ring.var("x1") - ring.monomial({"z1": 1}, sig[1])) * (
            ring.var("y2") - ring.monomial({"z2": 1}, sig[2])
        )
        form = polynomial_action(poly, pair, courant_element(pair.chart))
        rng = seeded("semiconcomitant-pairing")
        seen_nonzero = False
        for _ in range(8):
            a, b, c = (rnd_section(rng, pair.chart) for _ in range(3))
            value = form(a, b, c)
            assert inner_product(semiconcomitant(*pair.members, a, b), c) == value
            seen_nonzero = seen_nonzero or not value.is_zero()
        assert seen_nonzero

    def test_reduces_to_nijenhuis_torsion_for_gacs(self):
        gacs = FLEET["gacs-complex-n2"].members[0]
        pair = CommutingFamily((gacs, gacs), Signature((-1, -1)))
        single = CommutingFamily((gacs,), Signature((-1,)))
        ring = xyz_ring(1)
        poly = parse_polynomial("(x1+z1)*(y1+z1)", ring)
        form = polynomial_action(poly, single, courant_element(pair.chart))
        rng = seeded("nijenhuis")
        for _ in range(6):
            a, b, c = (rnd_section(rng, pair.chart) for _ in range(3))
            assert inner_product(semiconcomitant(*pair.members, a, b), c) == form(a, b, c)


class TestTorsionTensor:
    def test_zero_family_gives_zero(self):
        family = FLEET["zero-skew-n1"]
        rng = seeded("zero-torsion")
        a, b = rnd_section(rng, family.chart), rnd_section(rng, family.chart)
        assert torsion_T(1, 1, 1, family, a, b).is_zero()

    def test_single_skew_member_matches_shifted_torsion(self):
        family = FLEET["generic-skew-n2"]
        phi = family.members[0]
        pair = CommutingFamily((phi, phi), Signature((-1, -1)))
        rng = seeded("shifted-torsion")
        seen_nonzero = False
        for _ in range(8):
            a, b = rnd_section(rng, family.chart), rnd_section(rng, family.chart)
            nijenhuis = lambda s, t: semiconcomitant(*pair.members, s, t)
            shifted = nijenhuis(phi.apply(a), b) + nijenhuis(a, phi.apply(b))
            value = torsion_T(1, 1, 1, family, a, b)
            assert value == shifted
            seen_nonzero = seen_nonzero or not value.is_zero()
        assert seen_nonzero

    def test_pairing_identity_across_fleet(self):
        rng = seeded("torsion-bridge")
        for name in ("generic-skew-n2", "generic-sym-pair-n2", "kahler-metric-n2", "diag-vv-skew-n3"):
            family = FLEET[name]
            n = family.n
            ring = xyz_ring(n)
            tau = courant_element(family.chart)
            for _ in range(3):
                i, j, k = (rng.randint(1, n) for _ in range(3))
                poly = generator_T(i, j, k, family.signature, ring)
                form = polynomial_action(poly, family, tau)
                a, b, c = (rnd_section(rng, family.chart) for _ in range(3))
                assert inner_product(torsion_T(i, j, k, family, a, b), c) == form(a, b, c)


class TestBracketMemo:
    def test_bridge_sample_computes_each_bracket_once(self, monkeypatch):
        computed, requested = [], []
        bracket = BracketTable.bracket

        def counted(a, b):
            computed.append((a, b))
            return courant_bracket(a, b)

        def requesting(table, I, J):
            requested.append((I, J))
            return bracket(table, I, J)

        monkeypatch.setattr(courant, "courant_bracket", counted)
        monkeypatch.setattr(BracketTable, "bracket", requesting)
        family = FLEET["generic-mixed-n2"]
        rng = seeded("bracket-reuse")
        a, b, c = (random_section(rng, family) for _ in range(3))
        poly = generator_T(1, 2, 1, family.signature, xyz_ring(family.n))
        table = BracketTable(family, a, b)
        value = inner_product(table.tensor(torsion_T_terms(1, 2, 1, family)), c)
        assert value == table.action(action_terms(poly, family), c) and not value.is_zero()
        # one bracket per distinct key, of the sections that key names, in first-request order
        keys = list(dict.fromkeys(requested))
        assert len(keys) < len(requested)
        assert computed == [
            (family.power_endo(I).apply(a), family.power_endo(J).apply(b)) for I, J in keys
        ]


class TestDerivedTensorsAgainstReference:
    @pytest.mark.parametrize("name", sorted(FLEET))
    def test_table_path_matches_the_sequential_reference(self, name):
        family = FLEET[name]
        n = family.n
        rng = seeded(f"derived-tensor-reference:{name}")
        symmetric = [i for i in range(1, n + 1) if family.signature[i] == 1]
        for _ in range(2):
            a, b = random_section(rng, family), random_section(rng, family)
            for i, j, k in product(range(1, n + 1), repeat=3):
                expected = reference_torsion_T(i, j, k, family, a, b)
                assert torsion_T(i, j, k, family, a, b) == expected
            for i, j in product(symmetric, repeat=2):
                assert tensor_P(i, j, family, a, b) == reference_tensor_P(i, j, family, a, b)


def _bridge_identities(max_n: int):
    """(signature, derived tensor formally, its generator) of every T^{ijk} and
    every symmetric P^{ij}, i < j, at every signature with N <= max_n."""
    for n in range(1, max_n + 1):
        ring = xyz_ring(n)
        for sig in Signature.sweep(n):
            for i, j, k in product(range(1, n + 1), repeat=3):
                yield sig, formal_torsion_T(i, j, k, sig), generator_T(i, j, k, sig, ring)
            for i, j in product(range(1, n + 1), repeat=2):
                if i < j and sig[i] == sig[j] == 1:
                    yield sig, formal_tensor_P(i, j, sig), generator_P(i, j, sig, ring)


class TestBridgeIdentitiesFormally:
    """<T(a, b), c> and <P(a, b), c> equal their generators' action for every
    commuting family of the signature: the same bracket keys carry the same
    outer sums of powers of phi, with no family and no bracket evaluated."""

    def test_every_identity_holds_at_n_up_to_four(self):
        identities = list(_bridge_identities(4))
        assert len(identities) == 1274 + 31
        for sig, derived, poly in identities:
            assert derived == formal_action(poly, sig), (str(sig), poly)

    def test_fleet_terms_are_the_formal_expansion(self):
        checked = 0
        for family in FLEET.values():
            sig, n = family.signature, family.n
            for i, j, k in product(range(1, n + 1), repeat=3):
                expected = instantiate(formal_torsion_T(i, j, k, sig), family)
                assert torsion_T_terms(i, j, k, family) == expected
                checked += 1
            for i, j in product(range(1, n + 1), repeat=2):
                if i < j and sig[i] == sig[j] == 1:
                    expected = instantiate(formal_tensor_P(i, j, sig), family)
                    assert tensor_P_terms(i, j, family) == expected
                    checked += 1
        assert checked == 220

    def test_mutations_break_identities(self):
        # at N <= 3: e_i dropped from the first torsion coefficient, and the
        # generator's split compared without the e^K twist
        checked = broken_eps_i = broken_twist = 0
        for n in range(1, 4):
            ring, zero = xyz_ring(n), (0,) * n
            for sig in Signature.sweep(n):
                for i, j, k in product(range(1, n + 1), repeat=3):
                    poly = generator_T(i, j, k, sig, ring)
                    e_i = tuple(int(m == i) for m in range(1, n + 1))
                    terms = {}
                    add_formal_semiconcomitant(terms, k, j, zero, e_i, sig[k])
                    add_formal_semiconcomitant(terms, k, j, e_i, zero, -sig[k])
                    broken_eps_i += without_zero_terms(terms) != formal_action(poly, sig)
                    untwisted = formal_action(poly, Signature((1,) * n))
                    broken_twist += formal_torsion_T(i, j, k, sig) != untwisted
                    checked += 1
        assert checked == 250
        assert (broken_eps_i, broken_twist) == (125, 165)


class TestQuadraticTensor:
    def test_diagonal_vanishes(self):
        family = FLEET["generic-sym-pair-n2"]
        rng = seeded("quadratic-diagonal")
        a, b = rnd_section(rng, family.chart), rnd_section(rng, family.chart)
        assert tensor_P(1, 1, family, a, b).is_zero()

    def test_equal_members_vanish(self):
        psi = FLEET["generic-sym-n2"].members[0]
        family = CommutingFamily((psi, psi), Signature((1, 1)))
        rng = seeded("quadratic-equal-members")
        for _ in range(5):
            a, b = rnd_section(rng, family.chart), rnd_section(rng, family.chart)
            assert tensor_P(1, 2, family, a, b).is_zero()

    def test_skew_index_rejected(self):
        family = FLEET["kahler-metric-n2"]  # signature -+
        rng = seeded("quadratic-skew-index")
        a, b = rnd_section(rng, family.chart), rnd_section(rng, family.chart)
        with pytest.raises(ValueError):
            tensor_P(1, 2, family, a, b)

    def test_pairing_identity_nonzero(self):
        family = FLEET["generic-sym-pair-n2"]
        ring = xyz_ring(2)
        poly = generator_P(1, 2, family.signature, ring)
        form = polynomial_action(poly, family, courant_element(family.chart))
        rng = seeded("quadratic-bridge")
        seen_nonzero = False
        for _ in range(8):
            a, b, c = (rnd_section(rng, family.chart) for _ in range(3))
            value = form(a, b, c)
            assert inner_product(tensor_P(1, 2, family, a, b), c) == value
            seen_nonzero = seen_nonzero or not value.is_zero()
        assert seen_nonzero

    def test_antisymmetry_of_tensor(self):
        family = FLEET["generic-sym-pair-n2"]
        rng = seeded("quadratic-antisymmetry")
        for _ in range(5):
            a, b = rnd_section(rng, family.chart), rnd_section(rng, family.chart)
            lhs = tensor_P(1, 2, family, a, b)
            rhs = tensor_P(2, 1, family, a, b)
            assert (lhs + rhs).is_zero()


class TestAlternatingRemark:
    @pytest.mark.parametrize(
        "family_name,orbit",
        [
            ("generic-skew-n2", [(1, 1, 1)]),
            ("diag-vv-skew-n2", [(1, 1, 2), (1, 2, 1), (2, 1, 1)]),
            ("form-valued-skew-n2", [(1, 2, 2), (2, 1, 2), (2, 2, 1)]),
        ],
    )
    def test_symmetrized_torsion_form_is_alternating(self, family_name, orbit):
        family = FLEET[family_name]
        if family.n == 1:
            ring = xyz_ring(1)
        else:
            ring = xyz_ring(family.n)
        symmetrized = ring.zero
        for s in orbit:
            symmetrized = symmetrized + generator_T(*s, family.signature, ring)
        for sigma in S3.values():
            assert permute_letters(symmetrized, sigma) == symmetrized
        form = polynomial_action(symmetrized, family, courant_element(family.chart))
        rng = seeded(f"alternating-{family_name}")
        for _ in range(10):
            a, b, c = (rnd_section(rng, family.chart) for _ in range(3))
            value = form(a, b, c)
            assert value == -form(b, a, c)
            assert value == -form(a, c, b)
