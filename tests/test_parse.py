"""Grammar round-trips and error reporting for the polynomial text format."""

import pytest
from hypothesis import given, settings

from conftest import polynomials
from tensorcert.chart import chart_ring
from tensorcert.ideals import generator_T
from tensorcert.parse import ParseError, parse_polynomial, render_polynomial
from tensorcert.xyz import Signature, letter_block_order, xyz_ring

R1 = xyz_ring(1)
R1T = xyz_ring(1, with_t=True)
R2 = xyz_ring(2)


class TestParse:
    def test_product_expression(self):
        f = parse_polynomial("(x1 - y1)*(y2 - z2)", R2)
        x1, y1 = R2.var("x1"), R2.var("y1")
        y2, z2 = R2.var("y2"), R2.var("z2")
        assert f == (x1 - y1) * (y2 - z2)

    def test_torsion_generator_text(self):
        f = parse_polynomial("(x1-y1)*(y1-z1)*(z1-x1)", R1)
        assert f == generator_T(1, 1, 1, Signature((1,)), R1)

    def test_t_times_linear(self):
        f = parse_polynomial("t*(y1 + z1)", R1T)
        assert f == R1T.var("t") * (R1T.var("y1") + R1T.var("z1"))

    def test_whitespace_insensitive(self):
        assert parse_polynomial(" x1\n+  y1 ", R1) == parse_polynomial("x1+y1", R1)
        # a non-breaking space and an ideographic space
        assert parse_polynomial("x1\u00a0+\u3000y1", R1) == parse_polynomial("x1+y1", R1)

    def test_rational_coefficients(self):
        f = parse_polynomial("3/2*x1 - 1/3", R1)
        assert dict(f.terms())[next(R1.var("x1").terms())[0]] == 1.5

    def test_chart_variables(self):
        ring = chart_ring(2)
        f = parse_polynomial("u1^2*u2 - 5", ring)
        assert f.total_degree() == 3


class TestParseErrors:
    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x1 +\n* y1", R1)
        assert err.value.line == 2
        assert err.value.col == 1

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_polynomial("u1 + x1", R1)

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_polynomial("x2", R1)

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="denominator"):
            parse_polynomial("1/0", R1)

    def test_t_in_t_free_ring(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_polynomial("t*x1", R1)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x1 y1", R1)

    def test_missing_index(self):
        with pytest.raises(ParseError, match="needs an index"):
            parse_polynomial("x + 1", R1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_polynomial("x1)", R1)

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_polynomial("   ", R1)

    @pytest.mark.parametrize("src, col", [("x1²", 3), ("²*x1", 1)])
    def test_non_ascii_digit_is_an_unexpected_character(self, src, col):
        # str.isdigit accepts the superscript two, but int() does not
        with pytest.raises(ParseError, match="^unexpected character '²'") as err:
            parse_polynomial(src, R1)
        assert (err.value.line, err.value.col) == (1, col)


class TestRender:
    def test_zero(self):
        assert render_polynomial(R1.zero) == "0"

    def test_term_ordering_and_signs(self):
        f = parse_polynomial("x1^2*y1 - x1^2*z1", R1)
        assert render_polynomial(f, letter_block_order(1)) == "x1^2*y1 - x1^2*z1"

    def test_unit_coefficients_are_implicit(self):
        f = parse_polynomial("-x1 + 2*y1 - 1/2", R1)
        assert render_polynomial(f, letter_block_order(1)) == "-x1 + 2*y1 - 1/2"

    def test_deterministic(self):
        f = parse_polynomial("z1 + y1 + x1", R1)
        order = letter_block_order(1)
        assert render_polynomial(f, order) == render_polynomial(f, order) == "x1 + y1 + z1"


@given(f=polynomials(R2, max_terms=6, max_exp=3))
@settings(max_examples=150)
def test_roundtrip_block_order(f):
    order = letter_block_order(2)
    assert parse_polynomial(render_polynomial(f, order), R2) == f


@given(f=polynomials(R1T, max_terms=5))
@settings(max_examples=100)
def test_roundtrip_default_order_with_t(f):
    assert parse_polynomial(render_polynomial(f), R1T) == f
