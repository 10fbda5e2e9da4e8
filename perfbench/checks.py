"""Output checks, made in the benchmark process after each round, untimed.

Each check returns the ids of the cases whose output it refutes.  The
checks rest on computations of their own: a small exact evaluator for
rendered polynomials, ``sympy.groebner`` when sympy imports, and seeded
polynomials of known ideal status.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

BRIDGE_SAMPLES = 12  # tensoriality_case's default sample count per identity

# -- a small exact evaluator for the canonical rendered form --------------------

_TERM = re.compile(r"([+-]?)([^+-]+)")

Terms = dict[tuple[tuple[str, int], ...], Fraction]


def parse_terms(text: str) -> Terms:
    """Rendered polynomial -> {((var, exp), ...): coefficient}."""
    terms: Terms = {}
    for sign, body in _TERM.findall(text.replace(" ", "")):
        coeff = Fraction(-1 if sign == "-" else 1)
        mono: dict[str, int] = {}
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                mono[name] = mono.get(name, 0) + int(exp or 1)
        key = tuple(sorted(mono.items()))
        terms[key] = terms.get(key, 0) + coeff
    return {m: c for m, c in terms.items() if c}


def signs(sig_text: str) -> dict[int, int]:
    return {i: 1 if ch == "+" else -1 for i, ch in enumerate(sig_text, start=1)}


def vanishes_on_subspaces(terms: Terms, eps: dict[int, int]) -> bool:
    """Zero under each of y = eps z, z = eps x and x = eps y."""
    for src, dst in (("y", "z"), ("z", "x"), ("x", "y")):
        image: dict = {}
        for mono, c in terms.items():
            renamed: dict[str, int] = {}
            for name, e in mono:
                if name[0] == src:
                    if e % 2 and eps[int(name[1:])] == -1:
                        c = -c
                    name = dst + name[1:]
                renamed[name] = renamed.get(name, 0) + e
            key = tuple(sorted(renamed.items()))
            image[key] = image.get(key, 0) + c
        if any(image.values()):
            return False
    return True


# -- gen-set ------------------------------------------------------------------


def _lex_monic(poly: dict[tuple[int, ...], Fraction]) -> frozenset:
    lead = poly[max(poly)]
    return frozenset((m, c / lead) for m, c in poly.items())


def sympy_t_free_basis(sig_text: str):
    """Monic t-free part of sympy's reduced lex basis of the J ideal
    tI^x + (1-t)I^yI^z, under t > x_N > y_N > z_N > ... > z_1; None without sympy."""
    try:
        import sympy
    except ImportError:
        return None
    eps = signs(sig_text)
    n = len(sig_text)
    t = sympy.Symbol("t")
    x, y, z = ({i: sympy.Symbol(f"{w}{i}") for i in eps} for w in "xyz")
    gens = [t] + [v for i in range(n, 0, -1) for v in (x[i], y[i], z[i])]
    ideal = [t * (y[i] - eps[i] * z[i]) for i in eps]
    ideal += [
        (1 - t) * (z[i] - eps[i] * x[i]) * (x[j] - eps[j] * y[j]) for i in eps for j in eps
    ]
    basis = sympy.groebner(ideal, *gens, order="lex")
    out = set()
    for poly in basis.polys:
        terms = {m: Fraction(str(c)) for m, c in poly.terms()}
        if all(m[0] == 0 for m in terms):
            out.add(_lex_monic({m[1:]: c for m, c in terms.items()}))
    return out, [str(g) for g in gens[1:]]


def check_genset(cases: list[dict], sympy_cache: dict) -> list[str]:
    refuted = []
    for case in cases:
        details = case["details"]
        basis = [parse_terms(text) for text in details.get("intersection_basis", [])]
        eps = signs(case["signature"])
        ok = (
            case["status"] == "pass"
            and details.get("candidates_in_intersection") is True
            and details.get("intersection_in_candidates") is True
            and len(basis) == details.get("intersection_basis_size")
            and len(basis) > 0
            and all(vanishes_on_subspaces(g, eps) for g in basis)
        )
        if ok and case["N"] <= 2:
            sig = case["signature"]
            if sig not in sympy_cache:
                sympy_cache[sig] = sympy_t_free_basis(sig)
            if sympy_cache[sig] is not None:
                expected, names = sympy_cache[sig]
                ours = {
                    _lex_monic(
                        {tuple(dict(m).get(v, 0) for v in names): c for m, c in g.items()}
                    )
                    for g in basis
                }
                ok = ours == expected
        if not ok:
            refuted.append(case["case_id"])
    return refuted


# -- oracle-equiv ---------------------------------------------------------------


def check_oracle(cases: list[dict]) -> list[str]:
    refuted = []
    for case in cases:
        details = case["details"]
        n = case["N"]
        eps = signs(case["signature"])
        sym_pairs = sum(1 for i in eps for j in eps if i < j and eps[i] == eps[j] == 1)
        if not (
            case["status"] == "pass"
            and details.get("agreements") == details.get("samples")
            and details.get("samples") == 500 + n**3 + sym_pairs
            and details.get("candidate_members_all_true") is True
        ):
            refuted.append(case["case_id"])
    return refuted


def _random_poly(rng: random.Random, ring, max_terms: int) -> object:
    """Sparse polynomial with 1..max_terms terms of degree 1..3, small coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(1, 3)):
            exps[rng.randrange(ring.nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    return ring.from_terms(terms)


def _as_terms(poly) -> Terms:
    names = poly.ring.variables
    return {
        tuple((names[p], e) for p, e in enumerate(m) if e): c for m, c in poly.terms()
    }


def membership_spot_check(sig_text: str, seed: int, count: int = 6) -> bool:
    """Public ``membership`` on polynomials of known status: T/P combinations
    are members; polynomials that miss one of the subspaces are not."""
    from tensorcert.groebner import membership
    from tensorcert.ideals import candidate_basis
    from tensorcert.verify import tensorial_ideal_basis
    from tensorcert.xyz import Signature

    sig = Signature.parse(sig_text)
    basis = tensorial_ideal_basis(sig)
    ring = basis.ring
    generators = candidate_basis(sig, ring).members
    eps = signs(sig_text)
    rng = random.Random(f"perfbench:membership:{seed}:{sig_text}")
    members = non_members = 0
    while members < count:
        f = ring.zero
        for _ in range(rng.randint(1, 3)):
            f = f + _random_poly(rng, ring, 2) * rng.choice(generators)
        if f.is_zero():
            continue
        members += 1
        if not membership(f, basis):
            return False
    while non_members < count:
        f = _random_poly(rng, ring, 4)
        if vanishes_on_subspaces(_as_terms(f), eps):
            continue
        non_members += 1
        if membership(f, basis):
            return False
    return True


# -- tensoriality -----------------------------------------------------------------


def check_tensor(cases: list[dict], fleet: dict) -> list[str]:
    refuted = []
    for case in cases:
        name = case["case_id"].split("/", 1)[1]
        details = case["details"]
        if name == "unit-fails":
            ok = case["status"] == "pass"
        else:
            sig = fleet[name].family.signature
            n = sig.n
            sym_pairs = sum(
                1 for i in range(1, n + 1) for j in range(i + 1, n + 1) if sig[i] == sig[j] == 1
            )
            ok = (
                case["status"] == "pass"
                and details.get("bridge_checks") == (min(4, n**3) + sym_pairs) * BRIDGE_SAMPLES
                and details.get("candidate_members_tensorial") is True
            )
        if not ok:
            refuted.append(case["case_id"])
    return refuted


def _random_scalar(rng: random.Random, ring, constant_ok: bool = True):
    while True:
        f = _random_poly(rng, ring, 3) if rng.random() < 0.8 else ring.const(rng.randint(1, 3))
        if constant_ok or f.total_degree() > 0:
            return f


def _random_section(rng: random.Random, chart):
    from tensorcert.chart import GeneralizedSection

    parts = tuple(_random_scalar(rng, chart.ring) for _ in range(2 * chart.dim))
    return GeneralizedSection(chart, parts[: chart.dim], parts[chart.dim :])


def _first_slot_linear(poly, family, rng: random.Random) -> bool:
    """(P ._phi tau_C)(f a, b, c) == f (P ._phi tau_C)(a, b, c) on seeded data."""
    from tensorcert.courant import courant_element, polynomial_action

    chart = family.chart
    form = polynomial_action(poly, family, courant_element(chart))
    a, b, c = (_random_section(rng, chart) for _ in range(3))
    f = _random_scalar(rng, chart.ring, constant_ok=False)
    return form(a.scale(f), b, c) == f * form(a, b, c)


def action_spot_check(entry, seed: int) -> bool:
    """One seeded candidate generator of the family acts function-linearly."""
    from tensorcert.ideals import candidate_basis
    from tensorcert.xyz import xyz_ring

    family = entry.family
    rng = random.Random(f"perfbench:action:{seed}:{entry.name}")
    poly = rng.choice(candidate_basis(family.signature, xyz_ring(family.n)).members)
    return _first_slot_linear(poly, family, rng)


def unit_spot_check(fleet: dict, seed: int, tries: int = 5) -> bool:
    """The unit polynomial acts as tau_C itself: some seeded draw must show
    a nonzero first-slot defect on a seeded family."""
    from tensorcert.xyz import xyz_ring

    rng = random.Random(f"perfbench:unit:{seed}")
    family = fleet[rng.choice(sorted(fleet))].family
    unit = xyz_ring(family.n).one
    return any(not _first_slot_linear(unit, family, rng) for _ in range(tries))
