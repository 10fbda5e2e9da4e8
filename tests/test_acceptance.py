"""Acceptance suite: every exit criterion, exact tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

One criterion is expected to fail and is marked strict-xfail: squarefreeness
of the initial ideal of the triple intersection.  The single-index part of
that ideal is principal with a degree-3 generator whose six monomials all
contain a square (e.g. x1^2*y1 for N = 1), so no monomial order can produce
a squarefree initial ideal; the products in the pairwise suite are the
squarefree witnesses instead.
"""

import itertools
import time
from fractions import Fraction

import pytest

from conftest import exact_form, monic, seeded, tensor_P, torsion_T, vector_apply
from tensorcert.chart import CommutingFamily, GeneralizedSection
from tensorcert.courant import (
    courant_bracket,
    courant_element,
    inner_product,
    polynomial_action,
    tensoriality_check,
)
from tensorcert.fleet import build_fleet
from tensorcert.groebner import membership
from tensorcert.ideals import (
    candidate_basis,
    generator_P,
    generator_T,
    is_universally_tensorial_linear,
    vanishes_on_variety,
)
from tensorcert.parse import parse_polynomial
from tensorcert.verify import (
    gen_set_case,
    knutson_case,
    oracle_equivalence_case,
    random_polynomial,
    squeeze_case,
    tensorial_ideal_basis,
)
from tensorcert.xyz import Signature, xyz_ring

BUDGET = 10**7
FLEET = build_fleet()


def announce(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status}{'  ' + detail if detail else ''}")


def sweep_up_to(n_max: int) -> list[Signature]:
    out = []
    for n in range(1, n_max + 1):
        out.extend(Signature.sweep(n))
    return out


@pytest.fixture(scope="module")
def gen_set_results():
    started = time.perf_counter()
    results = {str(sig): gen_set_case(sig, BUDGET) for sig in sweep_up_to(3)}
    results["_elapsed"] = time.perf_counter() - started
    return results


def rnd_section(rng, chart):
    ring = chart.ring

    def scalar():
        terms = {}
        for _ in range(2):
            key = tuple(rng.randint(0, 1) for _ in range(ring.nvars))
            c = Fraction(rng.randint(-2, 2))
            if c:
                terms[key] = terms.get(key, Fraction(0)) + c
        return ring.from_terms({m: c for m, c in terms.items() if c})

    n = chart.dim
    return GeneralizedSection(
        chart, tuple(scalar() for _ in range(n)), tuple(scalar() for _ in range(n))
    )


def test_generating_set_certification_n_le_3(gen_set_results):
    """Computed triple intersection equals the T/P span, exactly, in < 60 s."""
    elapsed = gen_set_results["_elapsed"]
    bad = [
        case.case_id
        for key, case in gen_set_results.items()
        if key != "_elapsed"
        and not (
            case.status == "pass"
            and case.details["candidates_in_intersection"]
            and case.details["intersection_in_candidates"]
        )
    ]
    ok = not bad and elapsed < 60.0
    announce(
        "generating-set certification (N <= 3, all signatures)",
        ok,
        f"14 cases in {elapsed:.1f}s",
    )
    assert not bad, bad
    assert elapsed < 60.0


def test_structural_claims_on_elimination_basis(gen_set_results):
    """Reduced-basis elements use <= 3 indices, all visible in the lead term."""
    bad = [
        case.case_id
        for key, case in gen_set_results.items()
        if key != "_elapsed" and not case.details.get("structural_claims")
    ]
    announce("structural claims on the elimination basis (N <= 3)", not bad)
    assert not bad, bad


def test_n1_closed_forms():
    """The two one-index ideals are principal with the expected cubics."""
    ring = xyz_ring(1)
    checks = {
        "-": "(x1+y1)*(y1+z1)*(z1+x1)",
        "+": "(x1-y1)*(y1-z1)*(z1-x1)",
    }
    ok = True
    for sig_text, poly_text in checks.items():
        basis = tensorial_ideal_basis(Signature.parse(sig_text), None)
        expected = monic(parse_polynomial(poly_text, ring), basis.order)
        ok = ok and basis.elements == (expected,)
    announce("N = 1 closed forms (both signatures)", ok)
    assert ok


def test_knutson_suite_n_le_3():
    """Product equals intersection on all axis pairs; squarefree initial data."""
    started = time.perf_counter()
    bad = []
    for sig in sweep_up_to(3):
        case = knutson_case(sig, BUDGET)
        if case.status != "pass":
            bad.append(case.case_id)
            continue
        if not all(
            case.details[f"{a}{b}_product_equals_intersection"]
            and case.details[f"{a}{b}_initial_ideal_squarefree"]
            for a, b in (("x", "y"), ("x", "z"), ("y", "z"))
        ):
            bad.append(case.case_id)
        if not case.details["splitting_lead_is_all_vars"]:
            bad.append(case.case_id + ":lead")
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 60.0
    announce("knutson product/intersection suite (N <= 3)", ok, f"{elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 60.0


def test_squeeze_route_n_le_4():
    """Certified product bases squeeze the all-plus ideal's initial ideal."""
    started = time.perf_counter()
    bad = []
    for n in (1, 2, 3, 4):
        case = squeeze_case(n, BUDGET)
        if case.status != "pass" or not all(
            v for k, v in case.details.items() if isinstance(v, bool)
        ):
            bad.append(case.case_id)
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 300.0
    announce("squeeze route (all-plus signature, N <= 4)", ok, f"{elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 300.0


def test_three_way_oracle_equivalence():
    """Linear system == variety vanishing == basis membership, 500+ samples."""
    bad = []
    for sig in sweep_up_to(3):
        case = oracle_equivalence_case(sig, BUDGET)
        if case.status != "pass" or case.details["agreements"] != case.details["samples"]:
            bad.append(case.case_id)
        if not case.details["candidate_members_all_true"]:
            bad.append(case.case_id + ":members")
    announce("three-way oracle equivalence (N <= 3, 500+ samples each)", not bad)
    assert not bad, bad


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: the single-index slice of the triple "
        "intersection is principal with generator (x1 - e1 y1)(y1 - e1 z1)"
        "(z1 - e1 x1), all of whose monomials contain a square, so its "
        "initial ideal has a non-squarefree minimal generator under every "
        "monomial order (see the decisions ledger); the ideal is radical "
        "regardless, and the pairwise products carry the squarefree witness"
    ),
)
def test_radicality_witness_squarefree_initial_ideal(gen_set_results):
    """Squarefreeness of the triple intersection's initial ideal (defective)."""
    bad = [
        case.case_id
        for key, case in gen_set_results.items()
        if key != "_elapsed" and not case.details.get("initial_ideal_squarefree")
    ]
    announce(
        "radicality witness: squarefree initial ideal of the intersection",
        not bad,
        "(documented defect; see ledger)",
    )
    assert not bad, bad


def test_tensor_bridge_and_universal_tensoriality():
    """Derived tensors pair to the action; candidates tensorial fleet-wide."""
    assert len(FLEET) >= 20
    assert {e.family.chart.dim for e in FLEET} == {1, 2, 3}
    rng = seeded("acceptance-bridge")
    torsion_checks = 0
    quadratic_checks = 0
    for entry in FLEET:
        family = entry.family
        n = family.n
        ring = xyz_ring(n)
        tau = courant_element(family.chart)
        forms = {}
        for _ in range(100):
            i, j, k = (rng.randint(1, n) for _ in range(3))
            key = ("T", i, j, k)
            if key not in forms:
                forms[key] = polynomial_action(
                    generator_T(i, j, k, family.signature, ring), family, tau
                )
            a, b, c = (rnd_section(rng, family.chart) for _ in range(3))
            lhs = inner_product(torsion_T(i, j, k, family, a, b), c)
            assert lhs == forms[key](a, b, c), (entry.name, key)
            torsion_checks += 1
        sym_pairs = [
            (i, j)
            for i, j in itertools.combinations(range(1, n + 1), 2)
            if family.signature[i] == 1 and family.signature[j] == 1
        ]
        for i, j in sym_pairs:
            key = ("P", i, j)
            forms[key] = polynomial_action(
                generator_P(i, j, family.signature, ring), family, tau
            )
        for _ in range(100 if sym_pairs else 0):
            i, j = sym_pairs[rng.randrange(len(sym_pairs))]
            a, b, c = (rnd_section(rng, family.chart) for _ in range(3))
            lhs = inner_product(tensor_P(i, j, family, a, b), c)
            assert lhs == forms[("P", i, j)](a, b, c), (entry.name, (i, j))
            quadratic_checks += 1

    non_tensorial = []
    for entry in FLEET:
        ring = xyz_ring(entry.family.n)
        for poly in candidate_basis(entry.family.signature, ring).members:
            if not tensoriality_check(poly, entry.family):
                non_tensorial.append(entry.name)
                break
    unit_fails = not tensoriality_check(
        xyz_ring(1).one, next(e for e in FLEET if e.name == "diag-skew-n1").family
    )
    ok = not non_tensorial and unit_fails
    announce(
        "tensor bridge + universal tensoriality on the fleet",
        ok,
        f"{len(FLEET)} families, {torsion_checks}+{quadratic_checks} bridge triples",
    )
    assert torsion_checks >= 100 * len(FLEET)
    assert not non_tensorial, non_tensorial
    assert unit_fails


def test_courant_algebroid_axioms():
    """Compatibility and both Leibniz identities, 200+ exact random instances."""
    from tensorcert.chart import Chart

    rng = seeded("acceptance-axioms")
    checked = 0
    for dim in (1, 2, 3):
        chart = Chart(dim)
        for _ in range(34):
            a, b, c = (rnd_section(rng, chart) for _ in range(3))
            f = rnd_section(rng, chart).vector[0]
            lhs = vector_apply(a.vector, inner_product(b, c), chart)
            assert lhs == inner_product(courant_bracket(a, b), c) + inner_product(
                courant_bracket(a, c), b
            )
            assert lhs == inner_product(courant_bracket(b, c), a) + inner_product(
                courant_bracket(c, b), a
            )
            assert courant_bracket(a, b.scale(f)) == courant_bracket(a, b).scale(
                f
            ) + b.scale(vector_apply(a.vector, f, chart))
            df = exact_form(f, chart)
            assert courant_bracket(a.scale(f), b) == courant_bracket(a, b).scale(
                f
            ) - a.scale(vector_apply(b.vector, f, chart)) + df.scale(
                2 * inner_product(a, b)
            )
            checked += 2
    announce("courant-algebroid axioms", checked >= 200, f"{checked} instances")
    assert checked >= 200


def test_alternating_symmetrized_torsion():
    """The symmetrized one-index torsion form is alternating, 100+ triples."""
    by_name = {e.name: e.family for e in FLEET}
    checked = 0
    ok = True
    for name in ("generic-skew-n2", "diag-skew-n1"):
        family = by_name[name]
        ring = xyz_ring(1)
        poly = generator_T(1, 1, 1, Signature((-1,)), ring)
        form = polynomial_action(poly, family if family.n == 1 else _restrict(family), courant_element(family.chart))
        rng = seeded(f"acceptance-alternating-{name}")
        for _ in range(60):
            a, b, c = (rnd_section(rng, family.chart) for _ in range(3))
            value = form(a, b, c)
            ok = ok and value == -form(b, a, c) and value == -form(a, c, b)
            checked += 1
    announce("alternating symmetrized torsion form", ok and checked >= 100, f"{checked} triples")
    assert ok
    assert checked >= 100


def _restrict(family: CommutingFamily) -> CommutingFamily:
    """First member as a one-element family (for one-index polynomials)."""
    return CommutingFamily((family.members[0],), Signature((family.signature[1],)))


def test_n4_sweep():
    """All sixteen length-4 signatures, within the half-hour budget."""
    started = time.perf_counter()
    bad = []
    for sig in Signature.sweep(4):
        case = gen_set_case(sig, BUDGET)
        if case.status != "pass":
            bad.append(case.case_id)
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 1800.0
    announce("N = 4 sweep (16 signatures)", ok, f"{elapsed:.0f}s")
    assert not bad, bad
    assert elapsed < 1800.0


def test_n6_profile_signature_extremes():
    """The computer-checked base case at the two signature extremes.

    Budget exhaustion is reported, not failed; equality claims must hold
    whenever the computation completes.
    """
    outcomes = {}
    for entries in ((1,) * 6, (-1,) * 6):
        sig = Signature(entries)
        case = gen_set_case(sig, 10**8)
        outcomes[str(sig)] = case.status
        assert case.status in ("pass", "budget"), case.witnesses
    announce("N = 6 profile (signature extremes)", True, str(outcomes))
