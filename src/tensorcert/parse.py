"""Bidirectional text format for polynomials.

Grammar (whitespace-insensitive, explicit ``*`` only)::

    expr     := ('-')? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := rational | var ('^' nat)? | '(' expr ')'
    var      := 't' | ('x'|'y'|'z'|'u') nat
    rational := nat ('/' nat)?
    nat      := [0-9]+

Rendering is canonical: terms in decreasing order, coefficient written only
when different from +-1, so ``parse(render(f)) == f`` exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .poly import MonomialOrder, Polynomial, PolyRing, sorted_terms


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.reason = message
        self.line = line
        self.col = col


@dataclass
class _Token:
    kind: str  # 'name' | 'nat' | an operator character | 'end'
    text: str
    line: int
    col: int


# one alternative per token kind, tried in this order; ``\s`` is Unicode
# whitespace and anything else is an error
_TOKEN = re.compile(
    r"(?P<nat>[0-9]+)|(?P<name>[txyzu][0-9]*)|(?P<op>[-+*^()/])|(?P<space>\s+)|(?P<bad>.)"
)


def tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0  # columns count code points from the last newline
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "space":
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rindex("\n") + 1
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        else:
            tokens.append(_Token(text if kind == "op" else kind, text, line, col))
    tokens.append(_Token("end", "", line, len(src) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ring: PolyRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse_expr(self) -> Polynomial:
        negate = False
        if self.peek().kind == "-":
            self.take()
            negate = True
        result = self.parse_term()
        if negate:
            result = -result
        while self.peek().kind in "+-":
            op = self.take().kind
            term = self.parse_term()
            result = result + term if op == "+" else result - term
        return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.peek().kind == "*":
            self.take()
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            inner = self.parse_expr()
            if self.peek().kind != ")":
                self.error("expected ')'")
            self.take()
            return inner
        if tok.kind == "nat":
            return self.ring.const(self.parse_rational())
        if tok.kind == "name":
            self.take()
            name = self.resolve_var(tok)
            exponent = 1
            if self.peek().kind == "^":
                self.take()
                etok = self.peek()
                if etok.kind != "nat":
                    self.error("expected an exponent")
                self.take()
                exponent = int(etok.text)
            return self.ring.monomial({name: exponent} if exponent else {})
        self.error("expected a factor")

    def parse_rational(self) -> Fraction:
        tok = self.take()
        numerator = int(tok.text)
        if self.peek().kind == "/":
            self.take()
            dtok = self.peek()
            if dtok.kind != "nat":
                self.error("expected a denominator")
            self.take()
            if int(dtok.text) == 0:
                self.error("zero denominator", dtok)
            return Fraction(numerator, int(dtok.text))
        return Fraction(numerator)

    def resolve_var(self, tok: _Token) -> str:
        name = tok.text
        letter = name[0]
        if letter == "t" and len(name) > 1:
            self.error("t carries no index", tok)
        if letter != "t" and len(name) == 1:
            self.error(f"variable {letter!r} needs an index", tok)
        if name in self.ring:
            return name
        if letter != "t" and f"{letter}1" in self.ring:
            self.error(f"index of {name!r} out of range for this ring", tok)
        self.error(f"unknown variable {name!r}", tok)


def parse_polynomial(src: str, ring: PolyRing) -> Polynomial:
    """Parse the grammar above into an exact polynomial over ``ring``."""
    parser = _Parser(tokenize(src), ring)
    if parser.peek().kind == "end":
        parser.error("empty input")
    result = parser.parse_expr()
    if parser.peek().kind != "end":
        parser.error("trailing input")
    return result


def render_polynomial(f: Polynomial, order: MonomialOrder | None = None) -> str:
    """Canonical text form, terms in decreasing ``order``."""
    if f.is_zero():
        return "0"
    if order is None:
        order = MonomialOrder(f.ring.variables)
    pieces: list[str] = []
    for n, (mono, coeff) in enumerate(sorted_terms(f, order)):
        factors = []
        for name in order.ranking:
            if name not in f.ring:
                continue
            e = mono[f.ring.index(name)]
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude)] + factors)
        if n == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces)
