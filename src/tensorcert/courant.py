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
``poly.dot``.  The bridge identities ask for the same bracket several times
per sample (a semiconcomitant and the polynomial action both need
[[phi^I a, phi^J b]]), so ``semiconcomitant`` and ``courant_element`` reach
``courant_bracket`` through ``cached_bracket``: a value-keyed memo of at most
``BRACKET_MEMO_SIZE`` entries.  Sections are frozen and polynomials immutable,
so a remembered bracket is the exact bracket.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable

from .chart import Chart, CommutingFamily, Endomorphism, GeneralizedSection, _check_chart
from .poly import Polynomial, dot
from .xyz import ring_size, split_terms

Vector = tuple[Polynomial, ...]
# an R-trilinear form on sections, evaluated as form(a, b, c)
Trilinear = Callable[[GeneralizedSection, GeneralizedSection, GeneralizedSection], Polynomial]


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
    return GeneralizedSection(chart, vec, form)


BRACKET_MEMO_SIZE = 64  # distinct brackets of one bridge sample fit several times over
_bracket_memo: dict[tuple[GeneralizedSection, GeneralizedSection], GeneralizedSection] = {}


def cached_bracket(a: GeneralizedSection, b: GeneralizedSection) -> GeneralizedSection:
    """courant_bracket(a, b), remembered by value; the oldest entry goes first."""
    key = (a, b)
    value = _bracket_memo.get(key)
    if value is None:
        value = courant_bracket(a, b)
        if len(_bracket_memo) >= BRACKET_MEMO_SIZE:
            del _bracket_memo[next(iter(_bracket_memo))]
        _bracket_memo[key] = value
    return value


def courant_element(chart: Chart) -> Trilinear:
    """tau_C(a, b, c) = <[[a, b]], c>."""
    return lambda a, b, c: inner_product(cached_bracket(a, b), c)


def polynomial_action(
    poly: Polynomial, family: CommutingFamily, tau: Trilinear
) -> Trilinear:
    """(P ._phi tau)(a,b,c) = sum a_IJK tau(phi^I a, phi^J b, phi^K c)."""
    n = ring_size(poly.ring)
    if n != family.n:
        raise ValueError(f"polynomial has {n} indices but the family has {family.n}")
    ring = family.chart.ring
    terms = [(I, J, K, ring.const(coeff)) for I, J, K, coeff in split_terms(poly)]
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
    outer: dict[tuple, Endomorphism] = {}
    for I, J, K, coeff in split_terms(poly):
        term = family.power_endo(K).scale(coeff * sig.power(K))
        outer[I, J] = outer[I, J] + term if (I, J) in outer else term
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
    cols: list[list[tuple[int, Polynomial]]] = [[] for _ in endo.rows]
    for r, row in enumerate(endo.nonzero):
        for c, e in row:
            cols[c].append((r, e))
    return cols


# -- semiconcomitant and the derived tensors -----------------------------------


def semiconcomitant(
    p1: Endomorphism, p2: Endomorphism, a: GeneralizedSection, b: GeneralizedSection
) -> GeneralizedSection:
    """K_(p1,p2)(a,b) =
    [[p1 a, p2 b]] - p1 [[a, p2 b]] - p2 [[p1 a, b]] + p1 p2 [[a, b]]
    for two members of a validated commuting family."""
    p1_a, p2_b = p1.apply(a), p2.apply(b)
    return (
        cached_bracket(p1_a, p2_b)
        - p1.apply(cached_bracket(a, p2_b))
        - p2.apply(cached_bracket(p1_a, b))
        + p1.apply(p2.apply(cached_bracket(a, b)))
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
