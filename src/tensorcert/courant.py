"""Courant-Dorfman calculus and the polynomial action on trilinear forms.

The bracket is computed exactly on polynomial components:

    [[X + alpha, Y + beta]] = [X, Y] + L_X beta - i_Y d(alpha)

and the Courant element is tau_C(a, b, c) = <[[a, b]], c>.  A polynomial in
the x/y/z ring acts on forms by inserting endomorphism powers into the three
slots; tensoriality of (P, phi) means the resulting form is function-linear.
That is decided pointwise from the anchor identities of the bracket, so the
check needs no bracket and no derivative (``tensoriality_check``).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Callable

from .chart import Chart, CommutingFamily, Endomorphism, GeneralizedSection, _check_chart
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


def _add_scaled(
    acc: GeneralizedSection, f: Polynomial, section: GeneralizedSection
) -> GeneralizedSection:
    """acc + f section, skipping the zero multiples that basis sections make common."""
    return acc if f.is_zero() else acc + section.scale(f)


def tensoriality_check(poly: Polynomial, family: CommutingFamily) -> bool:
    """Is (P ._phi tau_C) function-linear, i.e. a genuine tensor?

    Decided pointwise, with no bracket.  As (phi^K)* = e^K phi^K, the action
    is <sum c e^K phi^K [[phi^I a, phi^J b]], c> over the terms c x^I y^J z^K,
    so the third slot is function-linear, and the anchor identities

        [[f a, b]] = f [[a, b]] - (rho(b) f) a + 2 <a, b> df,
        [[a, f b]] = f [[a, b]] + (rho(a) f) b

    leave first- and second-slot defects that are function-linear in a, b
    and df.  The pairing is nondegenerate, so the action is tensorial iff,
    for all basis sections a, b and f = u_i, both of these vanish:

        sum c e^K phi^K (2 <phi^I a, phi^J b> du_i - (phi^J b)_i phi^I a),
        sum c e^K phi^K ((phi^I a)_i phi^J b).
    """
    if uses_t(poly):
        raise ValueError("the action is defined on the t-free ring")
    if ring_size(poly.ring) != family.n:
        raise ValueError(
            f"polynomial has {ring_size(poly.ring)} indices but the family has {family.n}"
        )
    chart, sig = family.chart, family.signature
    # the outer endomorphism sum_K c e^K phi^K, per (I, J)
    outer: dict[tuple, Endomorphism] = {}
    for I, J, K, coeff in split_terms(poly):
        sign = prod(sig[k] for k, e in enumerate(K, start=1) if e % 2)
        term = family.power_endo(K).scale(coeff * sign)
        outer[I, J] = outer[I, J] + term if (I, J) in outer else term
    basis = chart.basis_sections()
    forms = basis[chart.dim :]
    parts = []  # phi^I a, phi^J b, and the outer endomorphism of those and of du_i
    for (I, J), m in outer.items():
        left = [family.power_endo(I).apply(s) for s in basis]
        right = [family.power_endo(J).apply(s) for s in basis]
        m_left, m_right = [m.apply(s) for s in left], [m.apply(s) for s in right]
        parts.append((left, right, m_left, m_right, [m.apply(s) for s in forms]))
    zero = GeneralizedSection(chart, (chart.ring.zero,) * chart.dim, (chart.ring.zero,) * chart.dim)
    for ia in range(len(basis)):
        for ib in range(len(basis)):
            pairings = [2 * inner_product(left[ia], right[ib]) for left, right, *_ in parts]
            for i in range(chart.dim):
                # the first defect is pairing_part - anchor_part
                pairing_part = anchor_part = second = zero
                for (left, right, m_left, m_right, m_du), pairing in zip(parts, pairings):
                    pairing_part = _add_scaled(pairing_part, pairing, m_du[i])
                    anchor_part = _add_scaled(anchor_part, right[ib].vector[i], m_left[ia])
                    second = _add_scaled(second, left[ia].vector[i], m_right[ib])
                if pairing_part != anchor_part or not second.is_zero():
                    return False
    return True


# -- semiconcomitant and the derived tensors -----------------------------------


def semiconcomitant(
    p1: Endomorphism, p2: Endomorphism, a: GeneralizedSection, b: GeneralizedSection
) -> GeneralizedSection:
    """K_(p1,p2)(a,b) =
    [[p1 a, p2 b]] - p1 [[a, p2 b]] - p2 [[p1 a, b]] + p1 p2 [[a, b]]
    for two members of a validated commuting family."""
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
    phi_k, phi_j, phi_i = family.member(k), family.member(j), family.member(i)
    first = semiconcomitant(phi_k, phi_j, a, phi_i.apply(b)).scale(sig[i] * sig[k])
    second = semiconcomitant(phi_k, phi_j, phi_i.apply(a), b).scale(sig[k])
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
    phi_i, phi_j = family.member(i), family.member(j)
    return semiconcomitant(phi_i, phi_j, a, b) - semiconcomitant(phi_j, phi_i, a, b)
