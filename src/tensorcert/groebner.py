"""Buchberger's algorithm, ordered division, reduced bases and monomial ideals.

The pair schedule is part of the contract: pairs (i, j), i < j, are processed
in lexicographic order of (j, i) over the current generator list, dividing
against the current list in list order, and nonzero remainders are appended
monic at the tail.  Pairs whose leading monomials are coprime are always
skipped, because their S-polynomials reduce to zero (Buchberger's first
criterion); ``buchberger_criterion`` stays the honest all-pairs check.
``groebner_basis`` is the one entry point: Buchberger followed by reduction
to the reduced basis, which is canonical for (ideal, order).

Internally monomials are re-aligned to the active order and bit-packed into
integers, so comparison, multiplication and divisibility are single integer
operations; the public API stays in ring coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .poly import (
    Coefficient,
    Exponents,
    MonomialOrder,
    Polynomial,
    PolyRing,
    leading_term,
    mono_lcm,
    mono_divides,
)

DEFAULT_STEP_BUDGET = 10_000_000

class BudgetExceededError(RuntimeError):
    """The reduction-step budget ran out; never a silent wrong answer."""

    def __init__(self, limit: int):
        super().__init__(f"step budget of {limit} reduction steps exhausted")
        self.limit = limit


class StepBudget:
    """Counts leading-term cancellations across one Groebner computation."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_STEP_BUDGET):
        self.limit = limit
        self.used = 0

    def step(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceededError(self.limit)


@dataclass(frozen=True)
class IdealPresentation:
    """An ordered generator list; the order of the list is semantically real."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if any(g.is_zero() for g in self.generators):
            raise ValueError("zero generators are not allowed")
        rings = {g.ring for g in self.generators}
        if len(rings) > 1:
            raise ValueError("generators live in different rings")
        if self.generators:
            self.order.validate(self.generators[0].ring)

    @property
    def ring(self) -> PolyRing:
        if not self.generators:
            raise ValueError("empty presentation has no ring")
        return self.generators[0].ring


@dataclass(frozen=True)
class GroebnerBasis:
    elements: tuple[Polynomial, ...]
    order: MonomialOrder

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))

    @property
    def ring(self) -> PolyRing:
        return self.elements[0].ring

    @cached_property
    def _divisors(self) -> tuple[tuple[int, ...], int, list["_Aligned"]]:
        """(positions, guard mask, packed elements), built on first division."""
        if not self.elements:
            raise ValueError("need at least one divisor")
        if any(g.is_zero() for g in self.elements):
            raise ValueError("zero generators are not allowed")
        if len({g.ring for g in self.elements}) > 1:
            raise ValueError("generators live in different rings")
        positions = _positions(self.order, self.ring)
        aligned = [_Aligned(_align(g, positions)) for g in self.elements]
        return positions, _guard_mask(len(positions)), aligned


# -- aligned-core helpers -----------------------------------------------------
#
# Inside the engine a monomial is a single integer: 64-bit exponent fields,
# the highest-ranked variable in the most significant field.  Then integer
# comparison is exactly the lex order, multiplication is addition, and
# divisibility is one subtract-and-mask (an underflowing field sets its guard
# bit).  Input exponents are capped at 2^15, so fields cannot overflow within
# any realistic step budget.  Coefficients arrive in the ``poly`` convention
# (a plain int when integral, else a reduced Fraction, never a float) and
# cross ``_align`` unconverted; quotients made inside the engine may be
# integral Fractions, which ``_unalign`` folds back through ``from_terms``.

_FIELD_BITS = 64
_FIELD_CAP = 1 << 15


def _positions(order: MonomialOrder, ring: PolyRing) -> tuple[int, ...]:
    order.validate(ring)
    return tuple(ring.index(v) for v in order.ranking if v in ring)


def _guard_mask(nvars: int) -> int:
    mask = 0
    for _ in range(nvars):
        mask = (mask << _FIELD_BITS) | (1 << (_FIELD_BITS - 1))
    return mask


def _pack(exps: Exponents) -> int:
    packed = 0
    for e in exps:
        if e >= _FIELD_CAP:
            raise ValueError(f"exponent {e} too large for the packed representation")
        packed = (packed << _FIELD_BITS) | e
    return packed


def _unpack(packed: int, nvars: int) -> Exponents:
    out = []
    mask = (1 << _FIELD_BITS) - 1
    for _ in range(nvars):
        out.append(packed & mask)
        packed >>= _FIELD_BITS
    return tuple(reversed(out))


def _align(f: Polynomial, positions: tuple[int, ...]) -> dict[int, Coefficient]:
    return {_pack(tuple(m[p] for p in positions)): c for m, c in f.terms()}


def _unalign(d: dict[int, Coefficient], positions: tuple[int, ...], ring: PolyRing) -> Polynomial:
    nvars = len(positions)
    inverse = [0] * nvars
    for rank_pos, ring_pos in enumerate(positions):
        inverse[ring_pos] = rank_pos
    terms = {}
    for packed, c in d.items():
        exps = _unpack(packed, nvars)
        terms[tuple(exps[i] for i in inverse)] = c
    return ring.from_terms(terms)


class _Aligned:
    """A divisor in packed coordinates with its cached leading data."""

    __slots__ = ("terms", "lm", "lc")

    def __init__(self, terms: dict[int, Coefficient]):
        self.terms = terms
        self.lm = max(terms)
        self.lc = terms[self.lm]


def _divide_aligned(
    p_terms: dict[int, Coefficient],
    divisors: list[_Aligned],
    budget: StepBudget,
    guard: int,
) -> dict[int, Coefficient]:
    """The remainder of p, restarting from the first divisor after each step."""
    p = dict(p_terms)
    remainder: dict[int, Coefficient] = {}
    get = p.get
    while p:
        m = max(p)
        c = p[m]
        for g in divisors:
            shift = m - g.lm
            if shift & guard:
                continue
            budget.step()
            factor = _exact_div(c, g.lc)
            for gm, gc in g.terms.items():
                key = shift + gm
                s = get(key, 0) - factor * gc
                if s:
                    p[key] = s
                else:
                    del p[key]
            break
        else:
            remainder[m] = c
            del p[m]
    return remainder


def _lcm_shifts(f: _Aligned, g: _Aligned, nvars: int) -> tuple[int, int]:
    """(lcm/lm_f, lcm/lm_g) as packed shifts."""
    ef = _unpack(f.lm, nvars)
    eg = _unpack(g.lm, nvars)
    shift_f = _pack(tuple(max(a, b) - a for a, b in zip(ef, eg)))
    shift_g = _pack(tuple(max(a, b) - b for a, b in zip(ef, eg)))
    return shift_f, shift_g


def _s_poly_aligned(f: _Aligned, g: _Aligned, nvars: int) -> dict[int, Coefficient]:
    shift_f, shift_g = _lcm_shifts(f, g, nvars)
    out: dict[int, Coefficient] = {}
    for m, c in f.terms.items():
        out[m + shift_f] = c * g.lc
    for m, c in g.terms.items():
        key = m + shift_g
        s = out.get(key, 0) - c * f.lc
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _coprime(f: _Aligned, g: _Aligned, nvars: int) -> bool:
    return all(
        a == 0 or b == 0 for a, b in zip(_unpack(f.lm, nvars), _unpack(g.lm, nvars))
    )


def _exact_div(c, lc):
    """c / lc without ever touching floats; ints divide into Fractions."""
    if lc == 1:
        return c
    if lc == -1:
        return -c
    if isinstance(c, int) and isinstance(lc, int):
        return Fraction(c, lc)
    return c / lc


def _monic_aligned(terms: dict[int, Coefficient]) -> dict[int, Coefficient]:
    lc = terms[max(terms)]
    if lc == 1:
        return terms
    if lc == -1:
        return {m: -c for m, c in terms.items()}
    return {m: _exact_div(c, lc) for m, c in terms.items()}


# -- public operations --------------------------------------------------------


def normal_form(
    f: Polynomial, basis: GroebnerBasis, step_budget: StepBudget | None = None
) -> Polynomial:
    """The remainder of f on division by the basis elements in list order.

    No leading monomial of an element divides any term of the result.  The
    division restarts from the first element after every reduction step.
    """
    positions, guard, divisors = basis._divisors
    if f.ring != basis.ring:
        raise ValueError("dividend and divisors must share a ring")
    remainder = _divide_aligned(
        _align(f, positions), divisors, step_budget or StepBudget(), guard
    )
    return _unalign(remainder, positions, basis.ring)


def membership(f: Polynomial, basis: GroebnerBasis, step_budget: StepBudget | None = None) -> bool:
    """Ideal membership via the remainder-zero test against a Groebner basis."""
    if f.is_zero():
        return True
    return normal_form(f, basis, step_budget).is_zero()


def buchberger(
    presentation: IdealPresentation, step_budget: StepBudget | None = None
) -> GroebnerBasis:
    """Plain Buchberger with the documented deterministic pair schedule.

    Coprime-lead pairs are skipped: their S-polynomials always reduce to zero.
    """
    if not presentation.generators:
        raise ValueError("cannot run Buchberger on an empty presentation")
    ring = presentation.ring
    budget = step_budget or StepBudget()
    positions = _positions(presentation.order, ring)
    nvars = len(positions)
    guard = _guard_mask(nvars)
    originals = [_align(g, positions) for g in presentation.generators]
    # dividing by scaled copies changes quotients but never remainders, so the
    # working list is monic to keep coefficient growth down
    basis = [_Aligned(_monic_aligned(t)) for t in originals]
    j = 1
    while j < len(basis):
        for i in range(j):
            gi, gj = basis[i], basis[j]
            if _coprime(gi, gj, nvars):
                continue
            s = _s_poly_aligned(gi, gj, nvars)
            if not s:
                continue
            r = _divide_aligned(s, basis, budget, guard)
            if r:
                monic_r = _monic_aligned(r)
                basis.append(_Aligned(monic_r))
                originals.append(monic_r)
        j += 1
    elements = tuple(_unalign(t, positions, ring) for t in originals)
    return GroebnerBasis(elements, presentation.order)


def buchberger_criterion(
    elements: tuple[Polynomial, ...] | list[Polynomial],
    order: MonomialOrder,
    step_budget: StepBudget | None = None,
) -> tuple[bool, Polynomial | None]:
    """Check every S-pair reduces to zero against the list, in list order.

    All pairs are checked honestly (no coprime shortcut); on failure the
    offending nonzero remainder is returned as a witness.
    """
    elements = tuple(elements)
    if not elements:
        return True, None
    ring = elements[0].ring
    budget = step_budget or StepBudget()
    positions = _positions(order, ring)
    nvars = len(positions)
    guard = _guard_mask(nvars)
    aligned = [_Aligned(_align(g, positions)) for g in elements]
    for j in range(1, len(aligned)):
        for i in range(j):
            s = _s_poly_aligned(aligned[i], aligned[j], nvars)
            if not s:
                continue
            r = _divide_aligned(s, aligned, budget, guard)
            if r:
                return False, _unalign(r, positions, ring)
    return True, None


def reduce_basis(basis: GroebnerBasis, step_budget: StepBudget | None = None) -> GroebnerBasis:
    """The unique reduced Groebner basis: monic, minimal, tails fully reduced.

    Elements come out sorted by increasing leading monomial, so the result is
    independent of the input generator ordering.
    """
    ring = basis.ring
    budget = step_budget or StepBudget()
    positions = _positions(basis.order, ring)
    guard = _guard_mask(len(positions))
    aligned = [_monic_aligned(_align(g, positions)) for g in basis.elements if not g.is_zero()]
    aligned.sort(key=max)
    kept: list[_Aligned] = []
    for terms in aligned:
        lm = max(terms)
        if any(not ((lm - h.lm) & guard) for h in kept):
            continue
        kept.append(_Aligned(terms))
    result = []
    for pos, g in enumerate(kept):
        others = kept[:pos] + kept[pos + 1 :]
        if others:
            r = _divide_aligned(g.terms, others, budget, guard)
        else:
            r = g.terms
        result.append(r)
    result.sort(key=max)
    elements = tuple(_unalign(r, positions, ring) for r in result)
    return GroebnerBasis(elements, basis.order)


def groebner_basis(
    presentation: IdealPresentation, step_budget: StepBudget | None = None
) -> GroebnerBasis:
    """Buchberger followed by reduction to the canonical basis."""
    budget = step_budget or StepBudget()
    return reduce_basis(buchberger(presentation, budget), budget)


def eliminate(basis: GroebnerBasis, variable: str = "t") -> GroebnerBasis:
    """The variable-free part of a basis under an elimination order.

    For an order ranking t above everything, the t-free subset of a (reduced)
    Groebner basis of tI + (1-t)J is a (reduced) Groebner basis of I with t
    eliminated; elements are re-homed in the smaller ring.
    """
    if basis.order.eliminates != variable:
        raise ValueError(f"order does not eliminate {variable!r}")
    ring = basis.ring
    small = PolyRing(tuple(v for v in ring.variables if v != variable))
    free = [g.map_ring(small) for g in basis.elements if variable not in g.support_vars()]
    return GroebnerBasis(tuple(free), basis.order.without(variable))


# -- monomial ideals ----------------------------------------------------------


def _minimalize(monos: set[Exponents]) -> frozenset[Exponents]:
    minimal = set()
    for m in sorted(monos, key=lambda m: (sum(m), m)):
        if not any(mono_divides(g, m) for g in minimal):
            minimal.add(m)
    return frozenset(minimal)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal kept by its unique minimal generating set."""

    ring: PolyRing
    minimal_generators: frozenset[Exponents]

    @classmethod
    def from_monomials(cls, ring: PolyRing, monomials) -> "MonomialIdeal":
        return cls(ring, _minimalize(set(monomials)))

    def contains(self, mono: Exponents) -> bool:
        return any(mono_divides(g, mono) for g in self.minimal_generators)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.ring != other.ring:
            raise ValueError("monomial ideals over different rings")
        lcms = {
            mono_lcm(a, b) for a in self.minimal_generators for b in other.minimal_generators
        }
        return MonomialIdeal.from_monomials(self.ring, lcms)

    def equals(self, other: "MonomialIdeal") -> bool:
        """Equality as ideals: mutual divisibility of the minimal generators."""
        return self.ring == other.ring and all(
            other.contains(g) for g in self.minimal_generators
        ) and all(self.contains(g) for g in other.minimal_generators)

    def is_squarefree(self) -> bool:
        return all(all(e <= 1 for e in g) for g in self.minimal_generators)

    def sorted_generators(self) -> list[Exponents]:
        return sorted(self.minimal_generators, key=lambda m: (sum(m), m))


def initial_ideal(basis: GroebnerBasis) -> MonomialIdeal:
    """Minimal monomial generators of the initial ideal of a Groebner basis."""
    lms = {leading_term(g, basis.order)[0] for g in basis.elements}
    return MonomialIdeal.from_monomials(basis.ring, lms)
