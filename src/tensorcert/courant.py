"""Courant-Dorfman calculus and the polynomial action on trilinear forms.

The bracket is computed exactly on polynomial components:

    [[X + alpha, Y + beta]] = [X, Y] + L_X beta - i_Y d(alpha)

and the Courant element is tau_C(a, b, c) = <[[a, b]], c>.  A polynomial in
the x/y/z ring acts on forms by inserting endomorphism powers into the three
slots; tensoriality of (P, phi) means the resulting form is function-linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .chart import Chart, CommutingFamily, GeneralizedSection, _check_chart
from .poly import Polynomial
from .xyz import Signature, ring_size, split_terms, uses_t

Vector = tuple[Polynomial, ...]


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


def anchor(a: GeneralizedSection) -> Vector:
    return a.vector


@dataclass(frozen=True)
class TrilinearForm:
    """An R-trilinear form on sections, wrapped as an evaluator."""

    chart: Chart
    evaluator: Callable[
        [GeneralizedSection, GeneralizedSection, GeneralizedSection], Polynomial
    ]

    def __call__(self, a, b, c) -> Polynomial:
        return self.evaluator(a, b, c)


def courant_element(chart: Chart) -> TrilinearForm:
    """tau_C(a, b, c) = <[[a, b]], c>."""
    return TrilinearForm(chart, lambda a, b, c: inner_product(courant_bracket(a, b), c))


def permute_form(tau: TrilinearForm, sigma: dict[str, str]) -> TrilinearForm:
    """(sigma tau)(a,b,c) = tau(sigma^{-1}(a,b,c)), slots labelled x,y,z."""
    slot = {"x": 0, "y": 1, "z": 2}
    # slot p reads the argument at sigma(p): tau(args_sigma(1), args_sigma(2), ...)
    source = {slot[w]: slot[sigma[w]] for w in sigma}

    def ev(a, b, c):
        args = (a, b, c)
        return tau(args[source[0]], args[source[1]], args[source[2]])

    return TrilinearForm(tau.chart, ev)


def polynomial_action(
    poly: Polynomial, family: CommutingFamily, tau: TrilinearForm
) -> TrilinearForm:
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

    return TrilinearForm(family.chart, ev)


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


# -- the eigenvalue determinant predicate ---------------------------------------


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


EigenvalueVector = tuple[GaussianRational, ...]


def whitney_star_condition(
    lam: Sequence[GaussianRational],
    mu: Sequence[GaussianRational],
    xi: Sequence[GaussianRational],
    sig: Signature,
) -> bool:
    """Does L_xi belong to the Whitney sum L_lam (*) L_mu?

    True iff det [[l_i, l_j, 1], [m_i, m_j, 1], [x_i, x_j, 1]] = 0 for every
    index pair (i, j) with both signature entries +1.
    """
    if not (len(lam) == len(mu) == len(xi) == sig.n):
        raise ValueError("eigenvalue vectors must have the signature's length")
    one = GaussianRational.of(1)
    sym = [i for i in range(sig.n) if sig.entries[i] == 1]
    for i in sym:
        for j in sym:
            rows = (
                (lam[i], lam[j], one),
                (mu[i], mu[j], one),
                (xi[i], xi[j], one),
            )
            det = (
                rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            )
            if not det.is_zero():
                return False
    return True
