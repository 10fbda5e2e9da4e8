"""A polynomial coordinate chart for the generalized tangent bundle.

Scalars are exact-rational polynomials in the chart coordinates u_1..u_n;
sections are vector-field + one-form pairs; endomorphisms are 2n x 2n scalar
matrices acting on stacked (vector, form) components.  Every component must
live in the chart's ring, which is checked once at construction, so matrix
products and applications sum their products with the ``poly.dot`` kernel.
A section or matrix that this module or ``courant`` builds from components
already in the ring skips that check through one private constructor each
(``_section``, ``Endomorphism._unchecked``); public construction validates.

The fleet's endomorphisms are block and diagonal matrices, mostly zeros, so
an endomorphism is only each row's nonzero (column, entry) pairs, columns
ascending, a canonical form that equality reads; every matrix operation
forms only products of nonzero entries and keeps what is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add, sub
from typing import Iterable, Sequence

from .poly import Polynomial, PolyRing, dot
from .xyz import Signature

_chart_ring_cache: dict[int, PolyRing] = {}


def chart_ring(dim: int) -> PolyRing:
    ring = _chart_ring_cache.get(dim)
    if ring is None:
        ring = PolyRing(tuple(f"u{i}" for i in range(1, dim + 1)))
        _chart_ring_cache[dim] = ring
    return ring


@dataclass(frozen=True)
class Chart:
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("chart dimension must be >= 1")

    @property
    def ring(self) -> PolyRing:
        return chart_ring(self.dim)

    def coordinate(self, i: int) -> Polynomial:
        return self.ring.var(f"u{i}")


class ChartMismatchError(ValueError):
    """Operands live over different charts."""


def _check_chart(a, b) -> None:
    if a.chart != b.chart:
        raise ChartMismatchError(f"{a.chart} vs {b.chart}")


def _check_ring(chart: Chart, components: Iterable[Polynomial]) -> None:
    ring = chart.ring
    for p in components:
        if p.ring is not ring and p.ring != ring:
            raise ChartMismatchError(f"a component in {p.ring!r} over {chart}")


@dataclass(frozen=True)
class GeneralizedSection:
    """A section X + alpha of TM + T*M with polynomial components."""

    chart: Chart
    vector: tuple[Polynomial, ...]
    form: tuple[Polynomial, ...]

    def __post_init__(self):
        n = self.chart.dim
        if len(self.vector) != n or len(self.form) != n:
            raise ValueError("component count does not match the chart dimension")
        _check_ring(self.chart, self.vector + self.form)

    def components(self) -> tuple[Polynomial, ...]:
        return self.vector + self.form

    def _componentwise(self, op, other: "GeneralizedSection") -> "GeneralizedSection":
        _check_chart(self, other)
        return _section(
            self.chart,
            tuple(map(op, self.vector, other.vector)),
            tuple(map(op, self.form, other.form)),
        )

    def __add__(self, other: "GeneralizedSection") -> "GeneralizedSection":
        return self._componentwise(add, other)

    def __sub__(self, other: "GeneralizedSection") -> "GeneralizedSection":
        return self._componentwise(sub, other)

    def __neg__(self) -> "GeneralizedSection":
        return self.scale(self.chart.ring.const(-1))

    def scale(self, f) -> "GeneralizedSection":
        """Module action of a scalar (polynomial or rational)."""
        if not isinstance(f, Polynomial):
            f = self.chart.ring.const(f)
        return _section(
            self.chart,
            tuple(f * a for a in self.vector),
            tuple(f * a for a in self.form),
        )

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components())


def _section(
    chart: Chart, vector: tuple[Polynomial, ...], form: tuple[Polynomial, ...]
) -> GeneralizedSection:
    """A section from n vector and n form components already in the chart's ring."""
    section = object.__new__(GeneralizedSection)
    object.__setattr__(section, "chart", chart)
    object.__setattr__(section, "vector", vector)
    object.__setattr__(section, "form", form)
    return section


class Endomorphism:
    """A 2n x 2n scalar matrix acting on (vector, form) stacked columns; the
    constructor takes 2n dense rows and keeps their ``nonzero`` pairs."""

    __slots__ = ("chart", "nonzero")

    def __init__(self, chart: Chart, rows: Sequence[Sequence[Polynomial]]):
        size = 2 * chart.dim
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError(f"matrix must be {size}x{size}")
        _check_ring(chart, chain.from_iterable(rows))
        self.chart = chart
        self.nonzero = tuple(tuple((j, e) for j, e in enumerate(r) if e) for r in rows)

    @classmethod
    def _unchecked(cls, chart: Chart, nonzero: tuple) -> "Endomorphism":
        """A matrix from its 2n rows of (column, entry) pairs: entries nonzero
        and already in the chart's ring, columns ascending."""
        endo = object.__new__(cls)
        endo.chart = chart
        endo.nonzero = nonzero
        return endo

    @classmethod
    def identity(cls, chart: Chart) -> "Endomorphism":
        one = chart.ring.one
        return cls._unchecked(chart, tuple(((i, one),) for i in range(2 * chart.dim)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Endomorphism)
            and self.chart == other.chart
            and self.nonzero == other.nonzero
        )

    def apply(self, section: GeneralizedSection) -> GeneralizedSection:
        _check_chart(self, section)
        comps = section.components()
        ring = self.chart.ring
        out = [_row_times(ring, row, comps) for row in self.nonzero]
        n = self.chart.dim
        return _section(self.chart, tuple(out[:n]), tuple(out[n:]))

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """Matrix product; (self.compose(other))(s) == self(other(s)).

        Each nonzero e = self[r][j] meets each nonzero f = other[j][c], and
        the product is scattered to entry (r, c); an entry that receives
        products is one ``dot`` and is kept when that is nonzero.
        """
        _check_chart(self, other)
        ring = self.chart.ring
        rows = []
        for row in self.nonzero:
            products: dict[int, list[tuple[Polynomial, Polynomial]]] = {}
            for j, e in row:
                for c, f in other.nonzero[j]:
                    products.setdefault(c, []).append((e, f))
            entries = ((c, dot(ring, products[c])) for c in sorted(products))
            rows.append(tuple((c, e) for c, e in entries if e))
        return Endomorphism._unchecked(self.chart, tuple(rows))

    def __add__(self, other: "Endomorphism") -> "Endomorphism":
        _check_chart(self, other)
        rows = []
        for a, b in zip(self.nonzero, other.nonzero):
            entries = dict(a)
            for c, f in b:
                entries[c] = entries[c] + f if c in entries else f
            rows.append(tuple((c, e) for c, e in sorted(entries.items()) if e))
        return Endomorphism._unchecked(self.chart, tuple(rows))

    def scale(self, value) -> "Endomorphism":
        """Multiply by a rational; a zero factor leaves no entry."""
        scaled = (((c, e.scale(value)) for c, e in row) for row in self.nonzero)
        return Endomorphism._unchecked(
            self.chart, tuple(tuple((c, e) for c, e in row if e) for row in scaled)
        )

    def adjoint(self) -> "Endomorphism":
        """The adjoint for the tautological pairing: block-swap transpose."""
        n = self.chart.dim
        size = 2 * n
        rows: list[list[tuple[int, Polynomial]]] = [[] for _ in range(size)]
        # entry (r, c) is entry (swap(c), swap(r)); ascending c keeps rows sorted
        for c in range(size):
            for j, e in self.nonzero[(c + n) % size]:
                rows[(j + n) % size].append((c, e))
        return Endomorphism._unchecked(self.chart, tuple(map(tuple, rows)))


def _row_times(ring: PolyRing, row, values: Sequence[Polynomial]) -> Polynomial:
    """sum e * values[j] over a row's nonzero (j, e) pairs.

    An empty row gives the ring's zero and the row e_j gives values[j]
    itself (polynomials are immutable, so sharing it is safe); any other row
    is one ``dot``.
    """
    if not row:
        return ring.zero
    if len(row) == 1 and row[0][1] == ring.one:
        return values[row[0][0]]
    return dot(ring, ((e, values[j]) for j, e in row))


class FamilyValidationError(ValueError):
    """A symmetry-type or commutation constraint failed at construction."""


class CommutingFamily:
    """An N-tuple of pairwise-commuting endomorphisms of checked signature."""

    __slots__ = ("members", "signature", "chart", "_power_cache")

    def __init__(self, members: Sequence[Endomorphism], signature: Signature):
        members = tuple(members)
        if len(members) != signature.n:
            raise FamilyValidationError("member count differs from signature length")
        charts = {m.chart for m in members}
        if len(charts) != 1:
            raise FamilyValidationError("members live over different charts")
        for pos, phi in enumerate(members, start=1):
            expected = phi.scale(signature[pos])
            if phi.adjoint() != expected:
                kind = "symmetric" if signature[pos] == 1 else "skew-symmetric"
                raise FamilyValidationError(f"member {pos} is not {kind} for the pairing")
        for p in range(len(members)):
            for q in range(p + 1, len(members)):
                if members[p].compose(members[q]) != members[q].compose(members[p]):
                    raise FamilyValidationError(
                        f"members {p + 1} and {q + 1} do not commute"
                    )
        self.members = members
        self.signature = signature
        self.chart = members[0].chart
        self._power_cache: dict[tuple[int, ...], Endomorphism] = {}

    @property
    def n(self) -> int:
        return len(self.members)

    def member(self, i: int) -> Endomorphism:
        return self.members[i - 1]

    def power_endo(self, exponents: Iterable[int]) -> Endomorphism:
        """phi^I = prod phi_i^(I_i), cached per family.

        The key holds one nonnegative exponent per member; any other key
        raises ``ValueError``.
        """
        key = tuple(exponents)
        cached = self._power_cache.get(key)
        if cached is None:
            if len(key) != len(self.members) or any(e < 0 for e in key):
                raise ValueError(
                    f"exponent key {key} needs {len(self.members)} nonnegative entries"
                )
            cached = Endomorphism.identity(self.chart)
            for member, e in zip(self.members, key):
                for _ in range(e):
                    cached = cached.compose(member)
            self._power_cache[key] = cached
        return cached
