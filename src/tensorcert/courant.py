"""Courant-Dorfman calculus and the polynomial action on trilinear forms.

The bracket is computed exactly on polynomial components:

    [[X + alpha, Y + beta]] = [X, Y] + L_X beta - i_Y d(alpha)

and the Courant element is tau_C(a, b, c) = <[[a, b]], c>.  A polynomial in
the x/y/z ring acts on forms by inserting endomorphism powers into the three
slots; tensoriality of (P, phi) means the resulting form is function-linear.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .chart import Chart, CommutingFamily, GeneralizedSection, _check_chart
from .poly import Polynomial
from .xyz import ring_size, split_terms, uses_t

Vector = tuple[Polynomial, ...]
# an R-trilinear form on sections, evaluated as form(a, b, c)
Trilinear = Callable[[GeneralizedSection, GeneralizedSection, GeneralizedSection], Polynomial]


def vector_apply(x: Vector, f: Polynomial, chart: Chart) -> Polynomial:
    """X(f) = sum X_j df/du_j."""
    acc = chart.ring.zero
    for j, comp in enumerate(x, start=1):
        if not comp.is_zero():
            acc = acc + comp * f.derivative(f"u{j}")
    return acc


def lie_bracket(x: Vector, y: Vector, chart: Chart) -> Vector:
    out = []
    for i in range(chart.dim):
        out.append(vector_apply(x, y[i], chart) - vector_apply(y, x[i], chart))
    return tuple(out)


def differential(f: Polynomial, chart: Chart) -> Vector:
    return tuple(f.derivative(f"u{i}") for i in range(1, chart.dim + 1))


def inner_product(a: GeneralizedSection, b: GeneralizedSection) -> Polynomial:
    """The tautological pairing (alpha(Y) + beta(X)) / 2."""
    _check_chart(a, b)
    acc = a.chart.ring.zero
    for alpha_i, y_i in zip(a.form, b.vector):
        acc = acc + alpha_i * y_i
    for beta_i, x_i in zip(b.form, a.vector):
        acc = acc + beta_i * x_i
    return acc.scale(Fraction(1, 2))


def courant_bracket(a: GeneralizedSection, b: GeneralizedSection) -> GeneralizedSection:
    """[[X + alpha, Y + beta]] = [X, Y] + L_X beta - i_Y d(alpha), exactly."""
    _check_chart(a, b)
    chart = a.chart
    x, alpha = a.vector, a.form
    y, beta = b.vector, b.form
    vec = lie_bracket(x, y, chart)
    form = []
    for i in range(1, chart.dim + 1):
        acc = chart.ring.zero
        for j in range(1, chart.dim + 1):
            xj, yj = x[j - 1], y[j - 1]
            # (L_X beta)_i = X_j d_j beta_i + beta_j d_i X_j
            if not xj.is_zero():
                acc = acc + xj * beta[i - 1].derivative(f"u{j}")
            if not beta[j - 1].is_zero():
                acc = acc + beta[j - 1] * xj.derivative(f"u{i}")
            # (i_Y d alpha)_i = Y_j (d_j alpha_i - d_i alpha_j)
            if not yj.is_zero():
                acc = acc - yj * (
                    alpha[i - 1].derivative(f"u{j}") - alpha[j - 1].derivative(f"u{i}")
                )
        form.append(acc)
    return GeneralizedSection(chart, vec, tuple(form))


def courant_element(chart: Chart) -> Trilinear:
    """tau_C(a, b, c) = <[[a, b]], c>."""
    return lambda a, b, c: inner_product(courant_bracket(a, b), c)


def polynomial_action(
    poly: Polynomial, family: CommutingFamily, tau: Trilinear
) -> Trilinear:
    """(P ._phi tau)(a,b,c) = sum a_IJK tau(phi^I a, phi^J b, phi^K c)."""
    if uses_t(poly):
        raise ValueError("the action is defined on the t-free ring")
    n = ring_size(poly.ring)
    if n != family.n:
        raise ValueError(f"polynomial has {n} indices but the family has {family.n}")
    terms = split_terms(poly)

    def ev(a, b, c):
        acc = family.chart.ring.zero
        for I, J, K, coeff in terms:
            value = tau(
                family.power_endo(I).apply(a),
                family.power_endo(J).apply(b),
                family.power_endo(K).apply(c),
            )
            acc = acc + value.scale(coeff)
        return acc

    return ev


def _powers_applied(family: CommutingFamily, powers, sections):
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


def tensoriality_defect(
    poly: Polynomial, family: CommutingFamily
) -> tuple[Polynomial, tuple] | None:
    """First nonzero function-linearity defect of (P ._phi tau_C), or None.

    The defect is a derivation in the function slot and scalar-trilinear in
    the sections, so vanishing for f = u_1..u_n over the 2n basis sections in
    the first two slots decides it; the third slot is always function-linear.
    """
    if uses_t(poly):
        raise ValueError("the action is defined on the t-free ring")
    if ring_size(poly.ring) != family.n:
        raise ValueError(
            f"polynomial has {ring_size(poly.ring)} indices but the family has {family.n}"
        )
    chart = family.chart
    # terms grouped by the (I, J) power pair, so brackets are shared over K
    groups: dict[tuple, list] = {}
    for I, J, K, coeff in split_terms(poly):
        groups.setdefault((I, J), []).append((K, coeff))
    powers = {p for (pi, pj) in groups for p in (pi, pj)}
    powers.update(pk for ks in groups.values() for pk, _ in ks)
    basis = chart.basis_sections()
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


def tensoriality_check(poly: Polynomial, family: CommutingFamily) -> bool:
    """Is (P ._phi tau_C) function-linear, i.e. a genuine tensor?"""
    return tensoriality_defect(poly, family) is None


# -- semiconcomitant and the derived tensors -----------------------------------


def semiconcomitant(
    pair: CommutingFamily, a: GeneralizedSection, b: GeneralizedSection
) -> GeneralizedSection:
    """K_(phi1,phi2)(a,b) =
    [[p1 a, p2 b]] - p1 [[a, p2 b]] - p2 [[p1 a, b]] + p1 p2 [[a, b]]."""
    if pair.n != 2:
        raise ValueError("semiconcomitant takes a commuting pair")
    p1, p2 = pair.member(1), pair.member(2)
    return (
        courant_bracket(p1.apply(a), p2.apply(b))
        - p1.apply(courant_bracket(a, p2.apply(b)))
        - p2.apply(courant_bracket(p1.apply(a), b))
        + p1.apply(p2.apply(courant_bracket(a, b)))
    )


def torsion_T(
    i: int,
    j: int,
    k: int,
    family: CommutingFamily,
    a: GeneralizedSection,
    b: GeneralizedSection,
) -> GeneralizedSection:
    """T^{ijk}(a,b) = e_i e_k K_(k,j)(a, phi_i b) - e_k K_(k,j)(phi_i a, b)."""
    sig = family.signature
    pair = family.subpair(k, j)
    phi_i = family.member(i)
    first = semiconcomitant(pair, a, phi_i.apply(b)).scale(sig[i] * sig[k])
    second = semiconcomitant(pair, phi_i.apply(a), b).scale(sig[k])
    return first - second


def tensor_P(
    i: int,
    j: int,
    family: CommutingFamily,
    a: GeneralizedSection,
    b: GeneralizedSection,
) -> GeneralizedSection:
    """P^{ij}(a,b) = K_(i,j)(a,b) - K_(j,i)(a,b); symmetric indices only."""
    sig = family.signature
    for idx in (i, j):
        if sig[idx] != 1:
            raise ValueError(f"index {idx} is skew; the P tensor needs symmetric indices")
    return semiconcomitant(family.subpair(i, j), a, b) - semiconcomitant(
        family.subpair(j, i), a, b
    )
