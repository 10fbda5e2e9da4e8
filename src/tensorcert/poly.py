"""Sparse multivariate polynomials over exact rationals, with ranked lex orders.

Everything here is immutable after construction and safe to share between
workers.  Monomials are exponent tuples aligned to ``PolyRing.variables``;
coefficients are ``fractions.Fraction`` (always reduced, positive denominator).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

Exponents = tuple[int, ...]
Coefficient = Fraction


class RingMismatchError(ValueError):
    """Operands live in different polynomial rings."""


class OrderMismatchError(ValueError):
    """A monomial order does not rank every variable of the ring."""


def _as_coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


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
        self._one = Polynomial(self, {self._unit_mono: Fraction(1)})

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

    def from_terms(self, terms: Mapping[Exponents, Fraction]) -> Polynomial:
        clean = {m: _as_coeff(c) for m, c in terms.items() if c != 0}
        for m in clean:
            if len(m) != self.nvars or any(e < 0 for e in m):
                raise ValueError(f"bad exponent tuple {m}")
        return Polynomial(self, clean)

    def mono_dict(self, mono: Exponents) -> dict[str, int]:
        """Sparse {variable: exponent} view of an exponent tuple."""
        return {v: e for v, e in zip(self.variables, mono) if e != 0}


class Polynomial:
    """Immutable sparse polynomial; equality is exact term-wise equality."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolyRing, terms: dict[Exponents, Fraction]):
        self.ring = ring
        self._terms = terms

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(self._terms.items())

    def coefficient(self, mono: Exponents) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def constant_value(self) -> Fraction:
        """Value as a constant; raises if the polynomial is not constant."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1:
            m, c = next(iter(self._terms.items()))
            if not any(m):
                return c
        raise ValueError("polynomial is not constant")

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
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        self._check_ring(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            s = terms.get(m, Fraction(0)) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.ring, terms)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> Polynomial:
        return self + (-self._coerce(other))

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ring(other)
        out: dict[Exponents, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                m = tuple(ea + eb for ea, eb in zip(ma, mb))
                s = out.get(m, Fraction(0)) + ca * cb
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __radd__(self, other) -> Polynomial:
        return self + other

    def __rsub__(self, other) -> Polynomial:
        return (-self) + other

    def _coerce(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            return other
        return self.ring.const(other)

    def scale(self, value) -> Polynomial:
        c = _as_coeff(value)
        if c == 0:
            return self.ring.zero
        return Polynomial(self.ring, {m: k * c for m, k in self._terms.items()})

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

    def mul_term(self, mono: Exponents, coeff: Fraction) -> Polynomial:
        if coeff == 0:
            return self.ring.zero
        return Polynomial(
            self.ring,
            {tuple(a + b for a, b in zip(m, mono)): c * coeff for m, c in self._terms.items()},
        )

    # -- structural maps ----------------------------------------------------

    def substitute(
        self, assignment: Mapping[str, "Polynomial"], ring: PolyRing | None = None
    ) -> Polynomial:
        """Exact composition; variables missing from the map stay themselves."""
        target = ring
        if target is None:
            target = next(iter(assignment.values())).ring if assignment else self.ring
        images: dict[str, Polynomial] = {}
        for v in self.support_vars():
            img = assignment.get(v)
            if img is None:
                img = target.var(v)  # identity extension; KeyError if absent
            elif img.ring != target:
                raise RingMismatchError("assignment images live in different rings")
            images[v] = img
        result = target.zero
        names = self.ring.variables
        power_cache: dict[tuple[str, int], Polynomial] = {}
        for m, c in self._terms.items():
            term = target.const(c)
            for v, e in zip(names, m):
                if not e:
                    continue
                key = (v, e)
                p = power_cache.get(key)
                if p is None:
                    p = images[v] ** e
                    power_cache[key] = p
                term = term * p
            result = result + term
        return result

    def rename(self, mapping: Mapping[str, str], ring: PolyRing | None = None) -> Polynomial:
        """Variable renaming (must be injective on the support)."""
        target = ring if ring is not None else self.ring
        out: dict[Exponents, Fraction] = {}
        names = self.ring.variables
        for m, c in self._terms.items():
            exps = [0] * target.nvars
            for v, e in zip(names, m):
                if e:
                    exps[target.index(mapping.get(v, v))] += e
            key = tuple(exps)
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return Polynomial(target, out)

    def map_ring(self, target: PolyRing) -> Polynomial:
        """Reinterpret in another ring sharing the support variables by name."""
        if target == self.ring:
            return self
        return self.rename({}, ring=target)

    def derivative(self, name: str) -> Polynomial:
        i = self.ring.index(name)
        out: dict[Exponents, Fraction] = {}
        for m, c in self._terms.items():
            e = m[i]
            if e:
                dm = m[:i] + (e - 1,) + m[i + 1 :]
                s = out.get(dm, Fraction(0)) + c * e
                if s:
                    out[dm] = s
                else:
                    out.pop(dm, None)
        return Polynomial(self.ring, out)


# -- monomial helpers (exponent tuples) --------------------------------------


def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Exponents, b: Exponents) -> bool:
    """True iff monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Exponents, b: Exponents) -> Exponents:
    """a / b, assuming divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_gcd(a: Exponents, b: Exponents) -> Exponents:
    return tuple(min(x, y) for x, y in zip(a, b))


# -- monomial orders ----------------------------------------------------------


@dataclass(frozen=True)
class MonomialOrder:
    """Lex order given by an explicit variable ranking (highest first).

    ``eliminates`` marks the auxiliary variable used for ideal intersection;
    it must then be the highest-ranked variable.
    """

    ranking: tuple[str, ...]
    eliminates: str | None = None

    def __post_init__(self):
        if len(set(self.ranking)) != len(self.ranking):
            raise ValueError("ranking repeats a variable")
        if self.eliminates is not None:
            if not self.ranking or self.ranking[0] != self.eliminates:
                raise ValueError("eliminated variable must rank highest")

    def validate(self, ring: PolyRing) -> None:
        missing = [v for v in ring.variables if v not in self.ranking]
        if missing:
            raise OrderMismatchError(f"order does not rank {missing}")

    def key_for(self, ring: PolyRing) -> Callable[[Exponents], Exponents]:
        """Sort key: native tuple comparison of the key equals this order."""
        self.validate(ring)
        positions = tuple(ring.index(v) for v in self.ranking if v in ring)
        return lambda m: tuple(m[p] for p in positions)

    def without(self, name: str) -> MonomialOrder:
        rk = tuple(v for v in self.ranking if v != name)
        elim = self.eliminates if self.eliminates != name else None
        return MonomialOrder(rk, eliminates=elim)


def compare_monomials(a: Exponents, b: Exponents, order: MonomialOrder, ring: PolyRing) -> int:
    """-1, 0 or +1 as a <, =, > b under the order."""
    key = order.key_for(ring)
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


def leading_term(f: Polynomial, order: MonomialOrder) -> tuple[Exponents, Fraction]:
    """The order-greatest term of a nonzero polynomial."""
    if f.is_zero():
        raise ValueError("zero polynomial has no leading term")
    key = order.key_for(f.ring)
    m = max(f._terms, key=key)
    return m, f._terms[m]


def sorted_terms(f: Polynomial, order: MonomialOrder) -> list[tuple[Exponents, Fraction]]:
    """Terms in decreasing order."""
    key = order.key_for(f.ring)
    return sorted(f._terms.items(), key=lambda mc: key(mc[0]), reverse=True)


def monic(f: Polynomial, order: MonomialOrder) -> Polynomial:
    if f.is_zero():
        return f
    _, c = leading_term(f, order)
    return f.scale(1 / c)
