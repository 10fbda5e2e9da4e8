"""Polynomial core: exact arithmetic, ranked lex orders, structural maps."""

import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    coefficients,
    monic,
    monomials,
    nonzero_polynomials,
    polynomials,
    substitute,
)
from tensorcert.chart import chart_ring
from tensorcert.poly import (
    MonomialOrder,
    OrderMismatchError,
    PolyRing,
    RingMismatchError,
    dot,
    leading_term,
)
from tensorcert.xyz import elimination_order, letter_block_order, xyz_ring

R1 = xyz_ring(1)
R1T = xyz_ring(1, with_t=True)
R2 = xyz_ring(2)
LEX1 = MonomialOrder(("x1", "y1", "z1"))


def p(ring, text):
    from tensorcert.parse import parse_polynomial

    return parse_polynomial(text, ring)


def mono_mul(a, b):
    return tuple(map(add, a, b))


def compare_monomials(a, b, order, ring):
    """-1, 0 or +1 as a <, =, > b under the order's sort key."""
    key = order.key_for(ring)
    return (key(a) > key(b)) - (key(a) < key(b))


class TestArithmetic:
    def test_additive_inverse(self):
        f = p(R1, "x1 - y1")
        g = p(R1, "y1 - x1")
        assert (f + g).is_zero()

    def test_distributed_product(self):
        f = p(R1, "(x1 - y1)*(y1 - z1)")
        assert f == p(R1, "x1*y1 - x1*z1 - y1^2 + y1*z1")

    def test_multiply_by_zero_absorbs(self):
        f = p(R1, "x1^2 + 3*y1")
        assert (f * R1.zero).is_zero()

    def test_ring_mismatch_rejected(self):
        with pytest.raises(RingMismatchError):
            p(R1, "x1") + p(R2, "x1")

    def test_rational_coefficients_stay_exact(self):
        f = p(R1, "1/3*x1") + p(R1, "1/6*x1")
        assert f == p(R1, "1/2*x1")

    def test_power(self):
        f = p(R1, "x1 + 1")
        assert f**3 == p(R1, "x1^3 + 3*x1^2 + 3*x1 + 1")


@given(f=polynomials(R1), g=polynomials(R1), h=polynomials(R1))
@settings(max_examples=150)
def test_ring_axioms_hold_exactly(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


class TestOrders:
    def test_t_outranks_everything(self):
        tx = R1T.monomial({"t": 1, "x1": 1})
        xsq = R1T.monomial({"x1": 2})
        order = elimination_order(1)
        assert compare_monomials(next(tx.terms())[0], next(xsq.terms())[0], order, R1T) > 0

    def test_block_order_x_beats_y(self):
        xy = next(R1.monomial({"x1": 1, "y1": 1}).terms())[0]
        yz = next(R1.monomial({"y1": 1, "z1": 1}).terms())[0]
        assert compare_monomials(xy, yz, letter_block_order(1), R1) > 0

    def test_reflexive_equality(self):
        m = next(R1.monomial({"x1": 2, "z1": 1}).terms())[0]
        assert compare_monomials(m, m, LEX1, R1) == 0

    def test_unranked_variable_is_configuration_error(self):
        with pytest.raises(OrderMismatchError):
            leading_term(p(R2, "x2 + y1"), LEX1)

    def test_zero_has_no_leading_term(self):
        with pytest.raises(ValueError):
            leading_term(R1.zero, LEX1)

    def test_leading_term_example(self):
        f = p(R1, "x1 - y1")
        mono, coeff = leading_term(f, letter_block_order(1))
        assert R1.from_terms({mono: 1}) == R1.var("x1")
        assert coeff == 1


@given(a=monomials(R1), b=monomials(R1), c=monomials(R1))
@settings(max_examples=150)
def test_order_axioms(a, b, c):
    order = letter_block_order(1)
    unit = (0,) * R1.nvars
    # totality with antisymmetry
    assert compare_monomials(a, b, order, R1) == -compare_monomials(b, a, order, R1)
    # 1 <= m for every monomial
    assert compare_monomials(unit, a, order, R1) <= 0
    # multiplicativity: a < b implies ac < bc
    if compare_monomials(a, b, order, R1) < 0:
        assert compare_monomials(mono_mul(a, c), mono_mul(b, c), order, R1) < 0


@given(f=nonzero_polynomials(R2), g=nonzero_polynomials(R2))
@settings(max_examples=100)
def test_leading_term_is_multiplicative(f, g):
    order = letter_block_order(2)
    mf, cf = leading_term(f, order)
    mg, cg = leading_term(g, order)
    mfg, cfg = leading_term(f * g, order)
    assert mfg == mono_mul(mf, mg)
    assert cfg == cf * cg


class TestSubstitute:
    def test_kills_component(self):
        f = p(R1, "x1 - y1")
        assert substitute(f, {"x1": R1.var("y1")}).is_zero()

    def test_direct_substitution(self):
        f = p(R1, "x1*y1*z1")
        image = substitute(f, {"y1": -R1.var("z1")})
        assert image == p(R1, "-x1*z1^2")

    def test_identity_extension(self):
        f = p(R2, "x1*y2 + z1")
        assert substitute(f, {}) == f


@given(f=polynomials(R1, max_terms=3), g=polynomials(R1, max_terms=3))
@settings(max_examples=60)
def test_substitute_is_ring_homomorphism(f, g):
    sub = {"x1": p(R1, "y1 + z1"), "y1": p(R1, "2*z1")}
    assert substitute(f * g, sub) == substitute(f, sub) * substitute(g, sub)
    assert substitute(f + g, sub) == substitute(f, sub) + substitute(g, sub)


class TestDerivative:
    def test_power_rule(self):
        ring = PolyRing(("u1", "u2"))
        f = ring.monomial({"u1": 3, "u2": 1}, Fraction(1, 2))
        assert f.derivative("u1") == ring.monomial({"u1": 2, "u2": 1}, Fraction(3, 2))

    def test_constant_derivative_vanishes(self):
        ring = PolyRing(("u1",))
        assert ring.const(7).derivative("u1").is_zero()


def test_monic_normalizes_leading_coefficient():
    f = p(R1, "-2*x1 + y1")
    g = monic(f, letter_block_order(1))
    assert leading_term(g, letter_block_order(1))[1] == 1
    assert g == p(R1, "x1 - 1/2*y1")


class TestCoefficientInvariant:
    """Integral coefficients are stored as int, all others as reduced
    Fractions, and no stored coefficient is zero."""

    def test_monic_divides_exactly(self):
        g = monic(p(R1, "2*x1 - 1"), LEX1)
        coeffs = dict(g.terms())
        assert coeffs == {(1, 0, 0): 1, (0, 0, 0): Fraction(-1, 2)}
        assert [type(c) for c in coeffs.values()] == [int, Fraction]

    def test_integral_fraction_is_stored_as_int(self):
        a = R1.monomial({"x1": 1}, Fraction(2)) + R1.const(Fraction(-3, 1))
        b = R1.monomial({"x1": 1}, 2) + R1.const(-3)
        assert a == b and hash(a) == hash(b)
        assert all(type(c) is int for _, c in a.terms())
        assert dict(R1.one.terms()) == {(0, 0, 0): 1}
        assert all(type(c) is int for _, c in R1.one.terms())

    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            R1.const(0.5)
        with pytest.raises(TypeError):
            R1.var("x1").scale(2.0)


# -- a Fraction-only reference: terms as {exponents: Fraction}, zeros dropped --


def _ref(f):
    return {m: Fraction(c) for m, c in f.terms()}


def _ref_collect(pairs):
    out = {}
    for m, c in pairs:
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_add(a, b):
    return _ref_collect([*a.items(), *b.items()])


def _ref_mul(a, b):
    return _ref_collect(
        (mono_mul(ma, mb), ca * cb) for ma, ca in a.items() for mb, cb in b.items()
    )


def _ref_pow(a, n, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_substitute(a, images, ring):
    out = {}
    for m, c in a.items():
        term = {(0,) * ring.nvars: Fraction(c)}
        for v, e in zip(ring.variables, m):
            term = _ref_mul(term, _ref_pow(images.get(v, _ref(ring.var(v))), e, ring.nvars))
        out = _ref_add(out, term)
    return out


def _assert_canonical(f):
    for _, c in f.terms():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert c != 0


@given(
    f=polynomials(R1, max_terms=4),
    g=polynomials(R1, max_terms=4),
    k=st.one_of(coefficients(), st.integers(-3, 3)),
    n=st.integers(0, 3),
)
@settings(max_examples=150)
def test_coefficient_invariant_against_fraction_reference(f, g, k, n):
    a, b = _ref(f), _ref(g)
    x_img, y_img = g, p(R1, "1/2*z1 + 2")
    swapped = {"x1": "y1", "y1": "x1"}
    merged = {"x1": "y1"}  # not injective on every support: terms may collide
    cases = [
        (f + g, _ref_add(a, b)),
        (f - g, _ref_add(a, {m: -c for m, c in b.items()})),
        (f * g, _ref_mul(a, b)),
        (f.scale(k), {m: c * k for m, c in a.items() if k}),
        (f ** n, _ref_pow(a, n, R1.nvars)),
        (
            f.derivative("y1"),
            _ref_collect(
                ((m[0], m[1] - 1, m[2]), c * m[1]) for m, c in a.items() if m[1]
            ),
        ),
        (f.rename(swapped), {(m[1], m[0], m[2]): c for m, c in a.items()}),
        (f.rename(merged), _ref_collect(((0, m[0] + m[1], m[2]), c) for m, c in a.items())),
        (
            substitute(f, {"x1": x_img, "y1": y_img}),
            _ref_substitute(a, {"x1": _ref(x_img), "y1": _ref(y_img)}, R1),
        ),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert _ref(got) == want


# -- the multiply-accumulate kernel ------------------------------------------------

CHART_RINGS = [chart_ring(dim) for dim in (1, 2, 3)]


def dot_operands(ring):
    return st.one_of(polynomials(ring, max_terms=4), coefficients().map(ring.const))


def assert_canonical(f):
    for _, c in f.terms():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@given(data=st.data())
@settings(max_examples=150)
def test_dot_is_the_sum_of_products(data):
    ring = data.draw(st.sampled_from(CHART_RINGS))
    pairs = data.draw(st.lists(st.tuples(dot_operands(ring), dot_operands(ring)), max_size=5))
    if data.draw(st.booleans()):
        pairs += [(-f, g) for f, g in pairs]  # cancels exactly
    result = dot(ring, pairs)
    assert result.ring is ring
    assert result == sum((f * g for f, g in pairs), ring.zero)
    assert_canonical(result)


@pytest.mark.parametrize("ring", CHART_RINGS)
def test_dot_edge_cases(ring):
    u = ring.var("u1")
    assert dot(ring, []) == ring.zero
    f = u * u + ring.const(Fraction(1, 3))
    cancelled = dot(ring, [(f, u), (ring.const(-1), f * u)])
    assert cancelled.is_zero() and len(cancelled) == 0
    # Fraction products that come out integral are stored as int
    half, twice = ring.const(Fraction(1, 2)), u.scale(2) + ring.const(4)
    for pair in ((half, twice), (twice, half)):
        folded = dot(ring, [pair, (ring.zero, u)])
        assert folded == u + ring.const(2)
        assert all(type(c) is int for _, c in folded.terms())


def test_cached_hash_does_not_cross_a_pickle():
    # str hashes are salted per process, and `certify --workers` pickles
    # polynomials into worker processes
    make = (
        "import pickle, sys; from tensorcert.xyz import xyz_ring; r = xyz_ring(1); "
        "f = r.var('x1') - r.var('y1'); hash(f); sys.stdout.buffer.write(pickle.dumps(f))"
    )
    check = (
        "import pickle, sys; from tensorcert.xyz import xyz_ring; r = xyz_ring(1); "
        "f = pickle.loads(sys.stdin.buffer.read()); "
        "assert hash(f) == hash(r.var('x1') - r.var('y1'))"
    )
    env = dict(os.environ, PYTHONHASHSEED="1")
    run = partial(subprocess.run, capture_output=True, check=True)
    data = run([sys.executable, "-c", make], env=env).stdout
    run([sys.executable, "-c", check], input=data, env=dict(env, PYTHONHASHSEED="2"))
