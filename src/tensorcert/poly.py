"""Sparse multivariate polynomials over exact rationals, with ranked lex orders.

Everything here is immutable after construction and safe to share between
workers.  Monomials are exponent tuples aligned to ``PolyRing.variables``.
A stored coefficient is never zero and never a float: an integral value is a
plain ``int`` and any other value a reduced ``fractions.Fraction`` (positive
denominator other than 1).  Python ints are exact and far cheaper than
``Fraction``; equality, hashing and rendering cannot tell ``2`` from
``Fraction(2)``, so the convention is invisible outside the coefficients'
types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Iterator, Mapping

Exponents = tuple[int, ...]
Coefficient = int | Fraction  # int when integral, else a reduced Fraction; never 0


class RingMismatchError(ValueError):
    """Operands live in different polynomial rings."""


class OrderMismatchError(ValueError):
    """A monomial order does not rank every variable of the ring."""


def _as_coeff(value) -> Coefficient:
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return _norm(value)
    if isinstance(value, int):  # bool and other int subclasses
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _norm(c: Coefficient) -> Coefficient:
    """Fold an integral Fraction back to int; anything else passes through."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


class PolyRing:
    """A polynomial ring with a fixed, ordered tuple of named variables."""

    __slots__ = ("variables", "_index", "_zero", "_one", "_unit_mono")

    def __init__(self, variables: Iterable[str]):
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.variables = names
        self._index = {v: i for i, v in enumerate(names)}
        self._unit_mono: Exponents = (0,) * len(names)
        self._zero = Polynomial(self, {})
        self._one = Polynomial(self, {self._unit_mono: 1})

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyRing) and self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    def __repr__(self) -> str:
        return f"PolyRing({', '.join(self.variables)})"

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"variable {name!r} not in {self!r}") from None

    @property
    def zero(self) -> Polynomial:
        return self._zero

    @property
    def one(self) -> Polynomial:
        return self._one

    def const(self, value) -> Polynomial:
        c = _as_coeff(value)
        if c == 0:
            return self._zero
        return Polynomial(self, {self._unit_mono: c})

    def var(self, name: str) -> Polynomial:
        return self.monomial({name: 1})

    def monomial(self, exponents: Mapping[str, int], coeff=1) -> Polynomial:
        """Build ``coeff * prod(v**e)`` from a sparse exponent mapping."""
        c = _as_coeff(coeff)
        if c == 0:
            return self._zero
        exps = [0] * self.nvars
        for name, e in exponents.items():
            if e < 0:
                raise ValueError(f"negative exponent for {name}")
            exps[self.index(name)] = e
        return Polynomial(self, {tuple(exps): c})

    def from_terms(self, terms: Mapping[Exponents, Coefficient]) -> Polynomial:
        clean = {m: _as_coeff(c) for m, c in terms.items() if c != 0}
        for m in clean:
            if len(m) != self.nvars or any(e < 0 for e in m):
                raise ValueError(f"bad exponent tuple {m}")
        return Polynomial(self, clean)


class Polynomial:
    """Immutable sparse polynomial; equality is exact term-wise equality."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolyRing, terms: dict[Exponents, Coefficient]):
        self.ring = ring
        self._terms = terms

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Exponents, Coefficient]]:
        return iter(self._terms.items())

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(m) for m in self._terms)

    def support_vars(self) -> set[str]:
        names = self.ring.variables
        out: set[str] = set()
        for m in self._terms:
            for v, e in zip(names, m):
                if e:
                    out.add(v)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        from .parse import render_polynomial  # cycle-free at call time

        return f"<poly {render_polynomial(self)}>"

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: Polynomial) -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        self._check_ring(other)
        terms = dict(self._terms)
        get = terms.get
        for m, c in other._terms.items():
            a = get(m)
            if a is None:
                terms[m] = c
                continue
            s = a + c
            if s:
                terms[m] = _norm(s)
            else:
                del terms[m]
        return Polynomial(self.ring, terms)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> Polynomial:
        return self + (-self._coerce(other))

    def __mul__(self, other) -> Polynomial:
        if type(other) is not Polynomial and isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ring(other)
        return dot(self.ring, ((self, other),))

    __rmul__ = __mul__

    def _coerce(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            return other
        return self.ring.const(other)

    def scale(self, value) -> Polynomial:
        c = _as_coeff(value)
        if c == 0:
            return self.ring.zero
        return Polynomial(self.ring, {m: _norm(k * c) for m, k in self._terms.items()})

    def halve(self) -> Polynomial:
        """self / 2, with no Fraction arithmetic on an integral coefficient.

        An even int halves to an int and an odd one to a Fraction; a reduced
        Fraction's half is again reduced and never integral.
        """
        return Polynomial(
            self.ring,
            {
                m: (Fraction(c, 2) if c & 1 else c // 2) if type(c) is int else c / 2
                for m, c in self._terms.items()
            },
        )

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structural maps ----------------------------------------------------

    def rename(self, mapping: Mapping[str, str], ring: PolyRing | None = None) -> Polynomial:
        """Variable renaming (must be injective on the support)."""
        target = ring if ring is not None else self.ring
        out: dict[Exponents, Coefficient] = {}
        get = out.get
        names = self.ring.variables
        for m, c in self._terms.items():
            exps = [0] * target.nvars
            for v, e in zip(names, m):
                if e:
                    exps[target.index(mapping.get(v, v))] += e
            key = tuple(exps)
            a = get(key)
            if a is None:
                out[key] = c
                continue
            s = a + c
            if s:
                out[key] = _norm(s)
            else:
                del out[key]
        return Polynomial(target, out)

    def map_ring(self, target: PolyRing) -> Polynomial:
        """Reinterpret in another ring sharing the support variables by name."""
        if target == self.ring:
            return self
        return self.rename({}, ring=target)

    def derivative(self, name: str) -> Polynomial:
        i = self.ring.index(name)
        out: dict[Exponents, Coefficient] = {}
        for m, c in self._terms.items():
            e = m[i]
            if e:
                # distinct monomials stay distinct after d/dv, so no collisions
                out[m[:i] + (e - 1,) + m[i + 1 :]] = _norm(c * e)
        return Polynomial(self.ring, out)


# -- fused multiply-accumulate -------------------------------------------------


def dot(ring: PolyRing, pairs: Iterable[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """sum p * q over the pairs, accumulated into one term dict.

    Every operand must already live in ``ring``; there is no per-product ring
    check.  A constant operand (the common case for endomorphism entries)
    scales the other one's terms without forming monomial sums.
    """
    unit = ring._unit_mono
    acc: dict[Exponents, Coefficient] = {}
    get = acc.get
    for p, q in pairs:
        pt, qt = p._terms, q._terms
        if not pt or not qt:
            continue
        if len(qt) == 1 and unit in qt:
            pt, qt = qt, pt
        if len(pt) == 1 and unit in pt:
            c = pt[unit]
            for m, k in qt.items():
                a = get(m)
                acc[m] = c * k if a is None else a + c * k
            continue
        for ma, ca in pt.items():
            for mb, cb in qt.items():
                m = tuple(map(add, ma, mb))
                a = get(m)
                acc[m] = ca * cb if a is None else a + ca * cb
    return Polynomial(ring, {m: _norm(c) for m, c in acc.items() if c})


# -- monomial helpers (exponent tuples) --------------------------------------


def mono_divides(a: Exponents, b: Exponents) -> bool:
    """True iff monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


# -- monomial orders ----------------------------------------------------------


@dataclass(frozen=True)
class MonomialOrder:
    """Lex order given by an explicit variable ranking (highest first).

    The ranking may name variables a ring lacks; it must rank every variable
    of a ring it is used on.  An order is nothing but its ranking: the
    elimination order of an intersection is built by the intersection itself
    (``ideals.scale_into_t_ring``).
    """

    ranking: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.ranking)) != len(self.ranking):
            raise ValueError("ranking repeats a variable")

    def validate(self, ring: PolyRing) -> None:
        missing = [v for v in ring.variables if v not in self.ranking]
        if missing:
            raise OrderMismatchError(f"order does not rank {missing}")

    def positions(self, ring: PolyRing) -> tuple[int, ...]:
        """The ring positions of the variables, highest-ranked first."""
        self.validate(ring)
        return tuple(ring.index(v) for v in self.ranking if v in ring)

    def key_for(self, ring: PolyRing) -> Callable[[Exponents], Exponents]:
        """Sort key: native tuple comparison of the key equals this order."""
        positions = self.positions(ring)
        return lambda m: tuple(m[p] for p in positions)


def leading_term(f: Polynomial, order: MonomialOrder) -> tuple[Exponents, Coefficient]:
    """The order-greatest term of a nonzero polynomial."""
    if f.is_zero():
        raise ValueError("zero polynomial has no leading term")
    key = order.key_for(f.ring)
    m = max(f._terms, key=key)
    return m, f._terms[m]


def sorted_terms(f: Polynomial, order: MonomialOrder) -> list[tuple[Exponents, Coefficient]]:
    """Terms in decreasing order."""
    key = order.key_for(f.ring)
    return sorted(f._terms.items(), key=lambda mc: key(mc[0]), reverse=True)
