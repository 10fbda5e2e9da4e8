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
sum M_IJ [[phi^I a, phi^J b]]; ``torsion_T_terms`` and ``tensor_P_terms``
build the outer endomorphisms M_IJ once per identity, and the table sums
them against its brackets with one ``dot`` per output component.  An
exponent key names phi_j phi_i b and phi^(e_i + e_j) b alike, which the
commutativity checked by ``CommutingFamily`` makes exact.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable

from .chart import (
    Chart,
    CommutingFamily,
    Endomorphism,
    GeneralizedSection,
    _check_chart,
    _section,
)
from .poly import Exponents, Polynomial, dot
from .xyz import ring_size, split_terms

Vector = tuple[Polynomial, ...]
# an R-trilinear form on sections, evaluated as form(a, b, c)
Trilinear = Callable[[GeneralizedSection, GeneralizedSection, GeneralizedSection], Polynomial]
# a derived tensor sum M_IJ [[phi^I a, phi^J b]], as (I, J) -> M_IJ
BracketTerms = dict[tuple[Exponents, Exponents], Endomorphism]
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
    n = ring_size(poly.ring)
    if n != family.n:
        raise ValueError(f"polynomial has {n} indices but the family has {family.n}")
    const = family.chart.ring.const
    return [(I, J, K, const(coeff)) for I, J, K, coeff in split_terms(poly)]


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
    if ring_size(poly.ring) != family.n:
        raise ValueError(
            f"polynomial has {ring_size(poly.ring)} indices but the family has {family.n}"
        )
    chart, sig = family.chart, family.signature
    ring, n = chart.ring, chart.dim
    size = range(2 * n)
    # the outer endomorphism sum_K c e^K phi^K, per (I, J)
    outer: BracketTerms = {}
    for I, J, K, coeff in split_terms(poly):
        _add_term(outer, (I, J), family.power_endo(K).scale(coeff * sig.power(K)))
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


def _add_term(terms: BracketTerms, key: tuple[Exponents, Exponents], m: Endomorphism) -> None:
    terms[key] = terms[key] + m if key in terms else m


def _columns(endo: Endomorphism) -> list[list[tuple[int, Polynomial]]]:
    """Per column c, the (row, entry) pairs with a nonzero entry."""
    cols: list[list[tuple[int, Polynomial]]] = [[] for _ in endo.nonzero]
    for r, row in enumerate(endo.nonzero):
        for c, e in row:
            cols[c].append((r, e))
    return cols


# -- the bridge identities: one bracket table per sample ---------------------


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


def _semiconcomitant_terms(
    terms: BracketTerms,
    family: CommutingFamily,
    p: int,
    q: int,
    I: Exponents,
    J: Exponents,
    coeff,
) -> None:
    """Add coeff K_(p,q)(phi^I a, phi^J b) to ``terms``, term by term:
    [[phi^(I+e_p) a, phi^(J+e_q) b]] - phi_p [[phi^I a, phi^(J+e_q) b]]
    - phi_q [[phi^(I+e_p) a, phi^J b]] + phi_p phi_q [[phi^I a, phi^J b]]."""
    phi_p, phi_q = family.member(p), family.member(q)
    I_p, J_q = _raised(I, p), _raised(J, q)
    identity = family.power_endo((0,) * family.n)
    _add_term(terms, (I_p, J_q), identity.scale(coeff))
    _add_term(terms, (I, J_q), phi_p.scale(-coeff))
    _add_term(terms, (I_p, J), phi_q.scale(-coeff))
    _add_term(terms, (I, J), phi_p.compose(phi_q).scale(coeff))


def _raised(exponents: Exponents, i: int) -> Exponents:
    """exponents + e_i, for a 1-based index i."""
    return exponents[: i - 1] + (exponents[i - 1] + 1,) + exponents[i:]


def _nonzero_terms(terms: BracketTerms) -> BracketTerms:
    """The terms whose matrix has a nonzero entry; the rest need no bracket."""
    return {key: m for key, m in terms.items() if any(m.nonzero)}


def torsion_T_terms(i: int, j: int, k: int, family: CommutingFamily) -> BracketTerms:
    """The derived tensor T^{ijk}(a,b) = e_i e_k K_(k,j)(a, phi_i b) - e_k K_(k,j)(phi_i a, b)
    as sum M_IJ [[phi^I a, phi^J b]], where K is the semiconcomitant

        K_(p,q)(a,b) = [[p a, q b]] - p [[a, q b]] - q [[p a, b]] + p q [[a, b]].
    """
    sig = family.signature
    zero = (0,) * family.n
    e_i = _raised(zero, i)
    terms: BracketTerms = {}
    _semiconcomitant_terms(terms, family, k, j, zero, e_i, sig[i] * sig[k])
    _semiconcomitant_terms(terms, family, k, j, e_i, zero, -sig[k])
    return _nonzero_terms(terms)


def tensor_P_terms(i: int, j: int, family: CommutingFamily) -> BracketTerms:
    """The derived tensor P^{ij}(a,b) = K_(i,j)(a,b) - K_(j,i)(a,b) as
    sum M_IJ [[phi^I a, phi^J b]]; symmetric indices only."""
    sig = family.signature
    for idx in (i, j):
        if sig[idx] != 1:
            raise ValueError(f"index {idx} is skew; the P tensor needs symmetric indices")
    zero = (0,) * family.n
    terms: BracketTerms = {}
    _semiconcomitant_terms(terms, family, i, j, zero, zero, 1)
    _semiconcomitant_terms(terms, family, j, i, zero, zero, -1)
    return _nonzero_terms(terms)
