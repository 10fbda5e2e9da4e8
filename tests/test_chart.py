"""Charts, sections, endomorphisms, adjoints, and family validation."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    basis_sections,
    basis_vector,
    dense_rows,
    polynomials,
    reference_apply,
    reference_compose,
    seeded,
)
from tensorcert.chart import (
    Chart,
    ChartMismatchError,
    CommutingFamily,
    Endomorphism,
    FamilyValidationError,
    GeneralizedSection,
    chart_ring,
)
from tensorcert.courant import inner_product
from tensorcert.fleet import build_fleet
from tensorcert.verify import random_section as fleet_section
from tensorcert.xyz import Signature


def random_section(rng, chart):
    ring = chart.ring

    def scalar():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            key = tuple(rng.randint(0, 1) for _ in range(ring.nvars))
            c = Fraction(rng.randint(-2, 2))
            if c:
                terms[key] = terms.get(key, Fraction(0)) + c
        return ring.from_terms({m: c for m, c in terms.items() if c})

    n = chart.dim
    return GeneralizedSection(chart, tuple(scalar() for _ in range(n)), tuple(scalar() for _ in range(n)))


def random_endo(rng, chart):
    size = 2 * chart.dim
    return Endomorphism(
        chart,
        [[chart.ring.const(rng.randint(-2, 2)) for _ in range(size)] for _ in range(size)],
    )


@st.composite
def sparse_endomorphisms(draw, chart):
    """Endomorphisms mixing all-zero rows, rows e_j, and rows of constant and
    linear entries (zeros among them)."""
    ring = chart.ring
    size = 2 * chart.dim
    coordinates = [chart.coordinate(i) for i in range(1, chart.dim + 1)]
    constant = st.integers(-3, 3).map(ring.const)
    linear = st.tuples(st.integers(-2, 2), st.sampled_from(coordinates), constant).map(
        lambda t: t[1].scale(t[0]) + t[2]
    )
    rows = []
    for _ in range(size):
        kind = draw(st.sampled_from(("zero", "unit", "entries")))
        if kind == "zero":
            rows.append([ring.zero] * size)
        elif kind == "unit":
            j = draw(st.integers(0, size - 1))
            rows.append([ring.one if c == j else ring.zero for c in range(size)])
        else:
            entry = st.one_of(st.just(ring.zero), constant, linear)
            rows.append(draw(st.lists(entry, min_size=size, max_size=size)))
    return Endomorphism(chart, rows)


class TestSections:
    def test_module_structure(self):
        chart = Chart(2)
        a = basis_vector(chart, 1)
        u1 = chart.coordinate(1)
        scaled = a.scale(u1)
        assert scaled.vector[0] == u1
        assert (scaled - scaled).is_zero()

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatchError):
            basis_vector(Chart(1), 1) + basis_vector(Chart(2), 1)

    def test_foreign_ring_component_rejected(self):
        chart = Chart(2)
        z = chart.ring.zero
        for foreign in (chart_ring(1).one, chart_ring(1).zero, chart_ring(3).var("u1")):
            with pytest.raises(ChartMismatchError):
                GeneralizedSection(chart, (z, z), (z, foreign))
            rows = [[z] * 4 for _ in range(4)]
            rows[2][1] = foreign
            with pytest.raises(ChartMismatchError):
                Endomorphism(chart, rows)


class TestEndomorphisms:
    def test_identity_acts_trivially(self):
        chart = Chart(2)
        rng = seeded("endo-identity")
        s = random_section(rng, chart)
        assert Endomorphism.identity(chart).apply(s) == s

    def test_compose_matches_application(self):
        rng = seeded("endo-compose")
        chart = Chart(2)
        for _ in range(10):
            phi, psi = random_endo(rng, chart), random_endo(rng, chart)
            s = random_section(rng, chart)
            assert phi.compose(psi).apply(s) == phi.apply(psi.apply(s))

    def test_apply_and_compose_match_row_by_column_reference(self):
        rng = seeded("endo-reference")
        for entry in build_fleet():
            family = entry.family
            sections = [fleet_section(rng, family) for _ in range(3)]
            sections += basis_sections(family.chart)
            for phi in family.members:
                for s in sections:
                    assert phi.apply(s) == reference_apply(phi, s)
                for psi in family.members:
                    assert phi.compose(psi) == reference_compose(phi, psi)

    @given(data=st.data(), dim=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_sparse_kernels_match_row_by_column_reference(self, data, dim):
        chart = Chart(dim)
        phi = data.draw(sparse_endomorphisms(chart))
        psi = data.draw(sparse_endomorphisms(chart))
        scalars = polynomials(chart.ring, max_terms=3)
        comps = data.draw(st.lists(scalars, min_size=2 * dim, max_size=2 * dim))
        s = GeneralizedSection(chart, tuple(comps[:dim]), tuple(comps[dim:]))
        assert phi.apply(s) == reference_apply(phi, s)
        assert phi.compose(psi) == reference_compose(phi, psi)

    @given(data=st.data(), dim=st.integers(1, 3), value=st.fractions(-3, 3, max_denominator=3))
    @settings(max_examples=60, deadline=None)
    def test_sum_scale_and_adjoint_match_the_dense_reference(self, data, dim, value):
        chart = Chart(dim)
        size = range(2 * dim)
        phi = data.draw(sparse_endomorphisms(chart))
        psi = data.draw(sparse_endomorphisms(chart))
        a, b = dense_rows(phi), dense_rows(psi)
        assert phi + psi == Endomorphism(chart, [[a[r][c] + b[r][c] for c in size] for r in size])
        assert phi.scale(value) == Endomorphism(chart, [[e.scale(value) for e in row] for row in a])

        def swap(i):
            return (i + dim) % (2 * dim)

        adjoint = Endomorphism(chart, [[a[swap(c)][swap(r)] for c in size] for r in size])
        assert phi.adjoint() == adjoint
        # entries that cancel or scale to zero leave the sparse rows, as in the
        # validated zero matrix
        zero = Endomorphism(chart, [[chart.ring.zero for _ in size] for _ in size])
        cancelled = phi + phi.scale(-1)
        assert cancelled == zero == phi.scale(0)
        assert cancelled.nonzero == zero.nonzero == tuple(() for _ in size)

    def test_unit_rows_share_the_component(self):
        chart = Chart(2)
        s = random_section(seeded("endo-unit-rows"), chart)
        image = Endomorphism.identity(chart).apply(s)
        assert all(p is q for p, q in zip(image.components(), s.components()))

    def test_adjoint_identity(self):
        chart = Chart(1)
        assert Endomorphism.identity(chart).adjoint() == Endomorphism.identity(chart)

    def test_adjoint_defining_identity_on_bases(self):
        rng = seeded("adjoint-pairs")
        for dim in (1, 2):
            chart = Chart(dim)
            basis = basis_sections(chart)
            for _ in range(6):
                phi = random_endo(rng, chart)
                adj = phi.adjoint()
                for a in basis:
                    for b in basis:
                        assert inner_product(phi.apply(a), b) == inner_product(a, adj.apply(b))

    def test_adjoint_contravariance(self):
        rng = seeded("adjoint-contravariant")
        chart = Chart(2)
        for _ in range(8):
            phi, psi = random_endo(rng, chart), random_endo(rng, chart)
            assert phi.compose(psi).adjoint() == psi.adjoint().compose(phi.adjoint())

    def test_derived_results_equal_their_validated_construction(self):
        # compose, scale, adjoint, + and apply skip the ring check; what they
        # build must be what the checking constructors build from it
        rng = seeded("endo-unchecked-construction")
        for dim in (1, 2):
            chart = Chart(dim)
            for _ in range(6):
                phi, psi = random_endo(rng, chart), random_endo(rng, chart)
                s, t = random_section(rng, chart), random_section(rng, chart)
                for endo in (phi.compose(psi), phi.scale(Fraction(-3, 2)), phi.adjoint(), phi + psi):
                    checked = Endomorphism(chart, dense_rows(endo))
                    assert (dense_rows(endo), endo.nonzero) == (dense_rows(checked), checked.nonzero)
                for section in (phi.apply(s), s + t, s - t, -s, s.scale(t.vector[0])):
                    checked = GeneralizedSection(chart, section.vector, section.form)
                    assert (section.vector, section.form) == (checked.vector, checked.form)
                    assert type(section.vector) is type(section.form) is tuple


class TestFamilies:
    def test_skew_single(self):
        chart = Chart(1)
        o, z = chart.ring.one, chart.ring.zero
        phi = Endomorphism(chart, [[o, z], [z, -o]])
        family = CommutingFamily([phi], Signature((-1,)))
        assert family.n == 1

    def test_repeated_skew_member_commutes(self):
        chart = Chart(1)
        o, z = chart.ring.one, chart.ring.zero
        phi = Endomorphism(chart, [[o, z], [z, -o]])
        family = CommutingFamily([phi, phi], Signature((-1, -1)))
        assert family.member(1) == family.member(2)

    def test_wrong_symmetry_type_rejected(self):
        chart = Chart(1)
        o, z = chart.ring.one, chart.ring.zero
        skew = Endomorphism(chart, [[o, z], [z, -o]])
        with pytest.raises(FamilyValidationError, match="member 1 is not symmetric"):
            CommutingFamily([skew], Signature((1,)))

    def test_noncommuting_pair_rejected(self):
        chart = Chart(1)
        ring = chart.ring
        z = ring.zero
        sym_b = Endomorphism(chart, [[z, ring.one], [z, z]])
        sym_c = Endomorphism(chart, [[z, z], [ring.one, z]])
        with pytest.raises(FamilyValidationError, match="do not commute"):
            CommutingFamily([sym_b, sym_c], Signature((1, 1)))

    def test_power_endo_caches_consistently(self):
        fleet = {e.name: e for e in build_fleet()}
        family = fleet["kahler-pair-n2"].family
        phi1, phi2 = family.members
        assert family.power_endo((2, 1)) == phi1.compose(phi1).compose(phi2)
        assert family.power_endo((0, 0)) == Endomorphism.identity(family.chart)

    def test_power_endo_is_the_product_of_member_powers(self):
        for entry in build_fleet():
            family = entry.family
            identity = Endomorphism.identity(family.chart)
            for exponents in itertools.product(range(3), repeat=family.n):
                expected = identity
                for member, e in zip(family.members, exponents):
                    for _ in range(e):
                        expected = reference_compose(expected, member)
                assert family.power_endo(exponents) == expected, (entry.name, exponents)

    def test_power_endo_rejects_malformed_keys(self):
        family = next(e.family for e in build_fleet() if e.family.n == 2)
        for key in ((1,), (1, 0, 5), (-1, 0)):
            with pytest.raises(ValueError):
                family.power_endo(key)
            assert key not in family._power_cache

    def test_fleet_members_all_validate(self):
        # construction re-checks symmetry and commutation for every fixture
        assert len(build_fleet()) >= 20
