"""Courant-Dorfman calculus and the polynomial action on trilinear forms.

The bracket is computed exactly on polynomial components:

    [[X + alpha, Y + beta]] = [X, Y] + L_X beta - i_Y d(alpha)

from the Jacobians of X, Y, alpha and beta, each computed once per bracket;
both the vector part and the form part read their derivatives from them.
The Courant element is tau_C(a, b, c) = <[[a, b]], c>.  A polynomial in
the x/y/z ring acts on forms by inserting endomorphism powers into the three
slots; tensoriality of (P, phi) means the resulting form is function-linear.
That is decided pointwise from the anchor identities of the bracket, so the
check needs no bracket and no derivative (``tensoriality_check``).  Its
matrices are mostly zeros, so it forms only products of nonzero entries and
scatters each to the defect component it belongs to; a component that
receives no product is zero and costs nothing.

Every sum of products here is one call of the multiply-accumulate kernel
``poly.dot``.  Every bracket of a bridge identity has the form
[[phi^I a, phi^J b]] for exponent vectors I and J: the four brackets of each
semiconcomitant, with the outer endomorphism applied afterwards, and every
tau_C(phi^I a, phi^J b, phi^K c) of the polynomial action.  So a bridge
sample (a, b) gets one ``BracketTable``, which computes phi^I a and phi^J b
once per exponent vector and each bracket once per key (I, J); it lives for
that sample only.  Expanding the semiconcomitants, a derived tensor is
sum M_IJ [[phi^I a, phi^J b]], M_IJ = sum_K s_K phi^K.  ``formal_torsion_T`` and
``formal_tensor_P`` write it, and ``formal_action`` the action, as (I, J) -> {K: s_K}
for every family of the signature; ``instantiate`` builds one family's M_IJ,
and the table sums them against its brackets with one ``dot`` per output
component.  An exponent key names phi_j phi_i b and phi^(e_i + e_j) b alike,
which the commutativity checked by ``CommutingFamily`` makes exact.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import add
from typing import Callable

from .chart import (
    Chart,
    CommutingFamily,
    Endomorphism,
    GeneralizedSection,
    _check_chart,
    _section,
)
from .poly import Coefficient, Exponents, Polynomial, dot
from .xyz import Signature, split_terms

Vector = tuple[Polynomial, ...]
# an R-trilinear form on sections, evaluated as form(a, b, c)
Trilinear = Callable[[GeneralizedSection, GeneralizedSection, GeneralizedSection], Polynomial]
# a derived tensor sum M_IJ [[phi^I a, phi^J b]], as (I, J) -> M_IJ
BracketTerms = dict[tuple[Exponents, Exponents], Endomorphism]
# the same with M_IJ = sum_K s_K phi^K, as (I, J) -> {K: s_K}, on any family
FormalTerms = dict[tuple[Exponents, Exponents], dict[Exponents, Coefficient]]
# a polynomial's terms c x^I y^J z^K as (I, J, K, c), c a constant of the chart ring
ActionTerms = list[tuple[Exponents, Exponents, Exponents, Polynomial]]


def inner_product(a: GeneralizedSection, b: GeneralizedSection) -> Polynomial:
    """The tautological pairing (alpha(Y) + beta(X)) / 2."""
    _check_chart(a, b)
    pairs = chain(zip(a.form, b.vector), zip(b.form, a.vector))
    return dot(a.chart.ring, pairs).halve()


def _jacobian(comps: Vector, dim: int) -> list[list[Polynomial]]:
    """d[j][i] = d comps_j / du_i."""
    return [[p.derivative(f"u{i}") for i in range(1, dim + 1)] for p in comps]


def courant_bracket(a: GeneralizedSection, b: GeneralizedSection) -> GeneralizedSection:
    """[[X + alpha, Y + beta]] = [X, Y] + L_X beta - i_Y d(alpha), exactly."""
    _check_chart(a, b)
    chart = a.chart
    x, alpha = a.vector, a.form
    y, beta = b.vector, b.form
    n = chart.dim
    dx, dy, dalpha, dbeta = (_jacobian(comps, n) for comps in (x, y, alpha, beta))
    neg_y = [-yj for yj in y]
    # [X, Y]_i = X_j d_j Y_i - Y_j d_j X_i
    vec = tuple(
        dot(
            chart.ring,
            (pair for j in range(n) for pair in ((x[j], dy[i][j]), (neg_y[j], dx[i][j]))),
        )
        for i in range(n)
    )
    # (L_X beta)_i = X_j d_j beta_i + beta_j d_i X_j
    # (i_Y d alpha)_i = Y_j (d_j alpha_i - d_i alpha_j)
    form = tuple(
        dot(
            chart.ring,
            (
                pair
                for j in range(n)
                for pair in (
                    (x[j], dbeta[i][j]),
                    (beta[j], dx[j][i]),
                    (neg_y[j], dalpha[i][j]),
                    (y[j], dalpha[j][i]),
                )
            ),
        )
        for i in range(n)
    )
    return _section(chart, vec, form)


def courant_element(chart: Chart) -> Trilinear:
    """tau_C(a, b, c) = <[[a, b]], c>."""
    return lambda a, b, c: inner_product(courant_bracket(a, b), c)


def action_terms(poly: Polynomial, family: CommutingFamily) -> ActionTerms:
    """The terms a_IJK x^I y^J z^K of P, each coefficient in the chart ring."""
    const = family.chart.ring.const
    return [(I, J, K, const(coeff)) for I, J, K, coeff in split_terms(poly, family.n)]


def polynomial_action(
    poly: Polynomial, family: CommutingFamily, tau: Trilinear
) -> Trilinear:
    """(P ._phi tau)(a,b,c) = sum a_IJK tau(phi^I a, phi^J b, phi^K c)."""
    terms = action_terms(poly, family)
    ring = family.chart.ring
    # the exponents each slot needs, so phi^I a is applied once per evaluation
    slot_exponents = [{term[slot] for term in terms} for slot in range(3)]

    def ev(a, b, c):
        pa, pb, pc = (
            {e: family.power_endo(e).apply(section) for e in exponents}
            for exponents, section in zip(slot_exponents, (a, b, c))
        )
        return dot(ring, ((tau(pa[I], pb[J], pc[K]), coeff) for I, J, K, coeff in terms))

    return ev


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

    With M = sum c e^K phi^K per part (I, J), L = phi^I, R = phi^J and the
    pairing matrix G_ab = 2 <L e_a, R e_b>, component r of the two defects
    at basis sections e_a, e_b is

        sum over parts of G_ab M_r,n+i - R_ib (ML)_ra   and   L_ia (MR)_rb.

    G's row a is row swap(a) of adjoint(L) R, so it comes from the sparse
    matrix product like M L and M R.  Each nonzero pair (G_ab, M_r,n+i),
    (-R_ib, (ML)_ra) and (L_ia, (MR)_rb) is scattered to its first- or
    second-slot component (a, b, i, r), and each component that received
    pairs is one ``dot``.  A component that receives none is zero, so the
    action is tensorial iff every such ``dot`` is zero.
    """
    ring, n = family.chart.ring, family.chart.dim
    size = range(2 * n)
    # the outer endomorphism sum_K c e^K phi^K, per (I, J)
    outer = instantiate(formal_action(poly, family.signature), family)
    # defect component (a, b, i, r) -> its nonzero pairs, per slot
    first: dict[tuple[int, int, int, int], list] = {}
    second: dict[tuple[int, int, int, int], list] = {}
    for (I, J), m in outer.items():
        left, right = family.power_endo(I), family.power_endo(J)
        m_cols, ml_cols, mr_cols = (_columns(e) for e in (m, m.compose(left), m.compose(right)))
        # G's row a is row swap(a) of adjoint(L) R, and swap is an involution
        for s, row in enumerate(left.adjoint().compose(right).nonzero):
            a = (s + n) % (2 * n)
            for b, g in row:
                for i in range(n):
                    for r, e in m_cols[n + i]:
                        first.setdefault((a, b, i, r), []).append((g, e))
        for i in range(n):
            for b, e in right.nonzero[i]:
                neg_e = -e
                for a in size:
                    for r, f in ml_cols[a]:
                        first.setdefault((a, b, i, r), []).append((neg_e, f))
            for a, e in left.nonzero[i]:
                for b in size:
                    for r, f in mr_cols[b]:
                        second.setdefault((a, b, i, r), []).append((e, f))
    return not any(dot(ring, pairs) for pairs in chain(first.values(), second.values()))


def _columns(endo: Endomorphism) -> list[list[tuple[int, Polynomial]]]:
    """Per column c, the (row, entry) pairs with a nonzero entry."""
    cols: list[list[tuple[int, Polynomial]]] = [[] for _ in endo.nonzero]
    for r, row in enumerate(endo.nonzero):
        for c, e in row:
            cols[c].append((r, e))
    return cols


# -- the bridge identities: one bracket table per sample, the tensors formally --


class BracketTable:
    """The brackets [[phi^I a, phi^J b]] of one sample (a, b), each computed once.

    phi^I a and phi^J b are computed once per exponent vector, and each
    bracket once per key (I, J), by ``courant_bracket`` looked up when it is
    needed.  A table lives for one sample; nothing is keyed by section value.
    """

    __slots__ = ("family", "a", "b", "_left", "_right", "_brackets")

    def __init__(self, family: CommutingFamily, a: GeneralizedSection, b: GeneralizedSection):
        self.family = family
        self.a = a
        self.b = b
        self._left: dict[Exponents, GeneralizedSection] = {}
        self._right: dict[Exponents, GeneralizedSection] = {}
        self._brackets: dict[tuple[Exponents, Exponents], GeneralizedSection] = {}

    def _power(self, powers: dict, exponents: Exponents, section: GeneralizedSection):
        value = powers.get(exponents)
        if value is None:
            value = powers[exponents] = self.family.power_endo(exponents).apply(section)
        return value

    def bracket(self, I: Exponents, J: Exponents) -> GeneralizedSection:
        """[[phi^I a, phi^J b]]."""
        value = self._brackets.get((I, J))
        if value is None:
            value = courant_bracket(
                self._power(self._left, I, self.a), self._power(self._right, J, self.b)
            )
            self._brackets[I, J] = value
        return value

    def tensor(self, terms: BracketTerms) -> GeneralizedSection:
        """sum M_IJ [[phi^I a, phi^J b]], one ``dot`` per output component."""
        chart = self.family.chart
        ring, n = chart.ring, chart.dim
        parts = [(m.nonzero, self.bracket(I, J).components()) for (I, J), m in terms.items()]
        out = [
            dot(ring, ((e, comps[c]) for rows, comps in parts for c, e in rows[r]))
            for r in range(2 * n)
        ]
        return _section(chart, tuple(out[:n]), tuple(out[n:]))

    def action(self, terms: ActionTerms, c: GeneralizedSection) -> Polynomial:
        """(P ._phi tau_C)(a, b, c) = sum a_IJK <[[phi^I a, phi^J b]], phi^K c>,
        with phi^K c computed once per K and one pairing per term."""
        family = self.family
        powers = {K: family.power_endo(K).apply(c) for K in {term[2] for term in terms}}
        return dot(
            family.chart.ring,
            ((inner_product(self.bracket(I, J), powers[K]), coeff) for I, J, K, coeff in terms),
        )


def _add_semiconcomitant(
    terms: FormalTerms, p: int, q: int, I: Exponents, J: Exponents, c: Coefficient
) -> None:
    """Add c K_(p,q)(phi^I a, phi^J b) =
    c ([[phi^(I+e_p) a, phi^(J+e_q) b]] - phi_p [[phi^I a, phi^(J+e_q) b]]
    - phi_q [[phi^(I+e_p) a, phi^J b]] + phi^(e_p+e_q) [[phi^I a, phi^J b]])."""
    zero = (0,) * len(I)
    e_p = _raised(zero, p)
    for key, K, s in (
        ((_raised(I, p), _raised(J, q)), zero, c),
        ((I, _raised(J, q)), e_p, -c),
        ((_raised(I, p), J), _raised(zero, q), -c),
        ((I, J), _raised(e_p, q), c),
    ):
        outer = terms.setdefault(key, {})
        outer[K] = outer.get(K, 0) + s


def _raised(exponents: Exponents, i: int) -> Exponents:
    """exponents + e_i, for a 1-based index i."""
    return exponents[: i - 1] + (exponents[i - 1] + 1,) + exponents[i:]


def _without_zero_terms(terms: FormalTerms) -> FormalTerms:
    """The terms with zero coefficients, and then empty keys, dropped."""
    kept = {key: {K: s for K, s in outer.items() if s} for key, outer in terms.items()}
    return {key: outer for key, outer in kept.items() if outer}


def formal_torsion_T(i: int, j: int, k: int, sig: Signature) -> FormalTerms:
    """The derived tensor T^{ijk}(a,b) = e_i e_k K_(k,j)(a, phi_i b) - e_k K_(k,j)(phi_i a, b),
    where K is the semiconcomitant

        K_(p,q)(a,b) = [[p a, q b]] - p [[a, q b]] - q [[p a, b]] + p q [[a, b]].
    """
    zero = (0,) * sig.n
    e_i = _raised(zero, i)
    terms: FormalTerms = {}
    _add_semiconcomitant(terms, k, j, zero, e_i, sig[i] * sig[k])
    _add_semiconcomitant(terms, k, j, e_i, zero, -sig[k])
    return _without_zero_terms(terms)


def formal_tensor_P(i: int, j: int, sig: Signature) -> FormalTerms:
    """The derived tensor P^{ij}(a,b) = K_(i,j)(a,b) - K_(j,i)(a,b), i and j symmetric."""
    for idx in (i, j):
        if sig[idx] != 1:
            raise ValueError(f"index {idx} is skew; the P tensor needs symmetric indices")
    zero = (0,) * sig.n
    terms: FormalTerms = {}
    _add_semiconcomitant(terms, i, j, zero, zero, 1)
    _add_semiconcomitant(terms, j, i, zero, zero, -1)
    return _without_zero_terms(terms)


def formal_action(poly: Polynomial, sig: Signature) -> FormalTerms:
    """The polynomial action as the tensor it pairs with c: (I, J) -> {K: c e^K}
    over the terms c x^I y^J z^K, because (phi^K)* = e^K phi^K."""
    out: FormalTerms = {}
    for I, J, K, c in split_terms(poly, sig.n):
        out.setdefault((I, J), {})[K] = c * sig.power(K)
    return out


def instantiate(terms: FormalTerms, family: CommutingFamily) -> BracketTerms:
    """(I, J) -> sum_K s_K phi^K on one family, zero matrices (no bracket) dropped."""
    out: BracketTerms = {}
    for key, outer in terms.items():
        m = reduce(add, (family.power_endo(K).scale(s) for K, s in outer.items()))
        if any(m.nonzero):
            out[key] = m
    return out
