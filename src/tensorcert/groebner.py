"""Buchberger's algorithm, ordered division, reduced bases and monomial ideals.

The pair schedule is part of the contract: pairs (i, j), i < j, are processed
in lexicographic order of (j, i) over one working list, dividing against it
in list order.  The list is monic throughout: it starts as the inputs made
monic, each nonzero remainder is appended monic at the tail, and the whole
list is what ``buchberger`` returns.  Pairs whose leading monomials are
coprime are always skipped, because their S-polynomials reduce to zero
(Buchberger's first criterion); ``buchberger_criterion`` stays the honest
all-pairs check.
Division has one kernel, which hands out the remainder's terms largest first;
a term leaves the dividend only once no leading monomial divides it, and no
later step reaches it again.  So ``membership`` decides at the first
irreducible term and never builds the rest of the remainder.
``groebner_basis`` is the one entry point: Buchberger followed by reduction
to the reduced basis, which is canonical for (ideal, order).  The engine
works for any ring and any ranked lex order; it knows no auxiliary
variables, so elimination lives with the intersections in ``ideals``.

Internally monomials are re-aligned to the active order and bit-packed into
integers, so comparison, multiplication and divisibility are single integer
operations.  ``_Packing`` is the only code that knows that format; each
operation builds one for its (order, ring), packs its inputs through it and
unpacks its results through it, so the public API stays in ring coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

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
EXPONENT_CAP = 1 << 15  # every input exponent must stay below this


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

    def charge(self, steps: int) -> None:
        """Count ``steps`` taken once before, for work whose result is reused."""
        self.used += steps
        if self.used > self.limit:
            raise BudgetExceededError(self.limit)


def _check_generators(generators: tuple[Polynomial, ...]) -> None:
    if any(g.is_zero() for g in generators):
        raise ValueError("zero generators are not allowed")
    if len({g.ring for g in generators}) > 1:
        raise ValueError("generators live in different rings")


@dataclass(frozen=True)
class IdealPresentation:
    """An ordered generator list; the order of the list is semantically real."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        _check_generators(self.generators)
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
    def _divisors(self) -> tuple["_Packing", list["_Aligned"]]:
        """(packing, packed elements), built on first division."""
        if not self.elements:
            raise ValueError("need at least one divisor")
        _check_generators(self.elements)
        packing = _Packing(self.order, self.ring)
        return packing, [_Aligned(packing.align(g)) for g in self.elements]


# -- the packed core ------------------------------------------------------------
#
# Inside the engine a monomial is a single integer: 64-bit exponent fields,
# the highest-ranked variable in the most significant field.  Then integer
# comparison is exactly the lex order, multiplication is addition, and
# divisibility is one subtract-and-mask (an underflowing field sets its guard
# bit).  ``_Packing`` is the only code that knows which field holds which
# variable.  Input exponents stay below ``EXPONENT_CAP``, so fields cannot
# overflow within any realistic step budget.  Coefficients arrive in the
# ``poly`` convention (a plain int when integral, else a reduced Fraction,
# never a float) and cross ``align`` unconverted; quotients made inside the
# engine may be integral Fractions, which ``unalign`` folds back through
# ``from_terms``.

_FIELD_BITS = 64


class _Packing:
    """The packed format of one (order, ring): field positions and guard mask."""

    __slots__ = ("ring", "positions", "nvars", "guard")

    def __init__(self, order: MonomialOrder, ring: PolyRing):
        self.ring = ring
        self.positions = order.positions(ring)
        self.nvars = len(self.positions)
        # the top bit of every field
        self.guard = sum(1 << (k * _FIELD_BITS + _FIELD_BITS - 1) for k in range(self.nvars))

    def _pack(self, exps: Exponents) -> int:
        packed = 0
        for e in exps:
            if e >= EXPONENT_CAP:
                raise ValueError(f"exponent {e} too large for the packed representation")
            packed = (packed << _FIELD_BITS) | e
        return packed

    def _unpack(self, packed: int) -> Exponents:
        mask = (1 << _FIELD_BITS) - 1
        return tuple(packed >> (k * _FIELD_BITS) & mask for k in reversed(range(self.nvars)))

    def align(self, f: Polynomial) -> dict[int, Coefficient]:
        """f's terms by packed monomial: one pass and one cap check per monomial."""
        positions = self.positions
        out = {}
        for m, c in f.terms():
            if max(m) >= EXPONENT_CAP:
                self._pack(tuple(m[p] for p in positions))  # raises, naming it
            packed = 0
            for p in positions:
                packed = packed << _FIELD_BITS | m[p]
            out[packed] = c
        return out

    def unalign(self, terms: dict[int, Coefficient]) -> Polynomial:
        exps = [0] * self.nvars
        out = {}
        for packed, c in terms.items():
            for pos, e in zip(self.positions, self._unpack(packed)):
                exps[pos] = e
            out[tuple(exps)] = c
        return self.ring.from_terms(out)

    def lcm_shifts(self, f: "_Aligned", g: "_Aligned") -> tuple[int, int]:
        """(lcm/lm_f, lcm/lm_g); the first equals lm_g iff the leads are coprime."""
        lcm = self._pack(tuple(map(max, self._unpack(f.lm), self._unpack(g.lm))))
        return lcm - f.lm, lcm - g.lm


class _Aligned:
    """A divisor in packed coordinates with its cached leading data."""

    __slots__ = ("terms", "lm", "lc")

    def __init__(self, terms: dict[int, Coefficient]):
        self.terms = terms
        self.lm = max(terms)
        self.lc = terms[self.lm]


def _remainder_terms(
    p_terms: dict[int, Coefficient],
    divisors: list[_Aligned],
    budget: StepBudget,
    guard: int,
) -> Iterator[tuple[int, Coefficient]]:
    """The remainder of p term by term, largest first, restarting from the
    first divisor after each step.

    A term is yielded once no leading monomial divides it; every later step
    only touches smaller monomials, so a yielded term is final.
    """
    p = dict(p_terms)
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
            yield m, c
            del p[m]


def _s_poly_aligned(
    f: _Aligned, g: _Aligned, shift_f: int, shift_g: int
) -> dict[int, Coefficient]:
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


def membership(f: Polynomial, basis: GroebnerBasis, step_budget: StepBudget | None = None) -> bool:
    """Ideal membership via the remainder-zero test against a Groebner basis.

    Decided at the first remainder term: f is a member iff none comes out.
    """
    if f.is_zero():
        return True
    packing, divisors = basis._divisors
    if f.ring != packing.ring:
        raise ValueError("dividend and divisors must share a ring")
    remainder = _remainder_terms(
        packing.align(f), divisors, step_budget or StepBudget(), packing.guard
    )
    return next(remainder, None) is None


def buchberger(
    presentation: IdealPresentation, step_budget: StepBudget | None = None
) -> GroebnerBasis:
    """Plain Buchberger with the documented deterministic pair schedule.

    Coprime-lead pairs are skipped: their S-polynomials always reduce to zero.
    Returns the whole working list, which is monic throughout: the inputs
    made monic, then each nonzero remainder made monic.
    """
    packing = _Packing(presentation.order, presentation.ring)
    budget = step_budget or StepBudget()
    # dividing by scaled copies changes quotients but never remainders, so the
    # working list is monic to keep coefficient growth down
    basis = [_Aligned(_monic_aligned(packing.align(g))) for g in presentation.generators]
    j = 1
    while j < len(basis):
        for i in range(j):
            gi, gj = basis[i], basis[j]
            shift_i, shift_j = packing.lcm_shifts(gi, gj)
            if shift_i == gj.lm:
                continue
            s = _s_poly_aligned(gi, gj, shift_i, shift_j)
            if not s:
                continue
            r = dict(_remainder_terms(s, basis, budget, packing.guard))
            if r:
                basis.append(_Aligned(_monic_aligned(r)))
        j += 1
    return GroebnerBasis(tuple(packing.unalign(g.terms) for g in basis), presentation.order)


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
    packing, aligned = GroebnerBasis(elements, order)._divisors
    budget = step_budget or StepBudget()
    for j in range(1, len(aligned)):
        for i in range(j):
            f, g = aligned[i], aligned[j]
            s = _s_poly_aligned(f, g, *packing.lcm_shifts(f, g))
            if not s:
                continue
            r = dict(_remainder_terms(s, aligned, budget, packing.guard))
            if r:
                return False, packing.unalign(r)
    return True, None


def reduce_basis(basis: GroebnerBasis, step_budget: StepBudget | None = None) -> GroebnerBasis:
    """The unique reduced Groebner basis: monic, minimal, tails fully reduced.

    Elements come out sorted by increasing leading monomial, so the result is
    independent of the input generator ordering.
    """
    packing = _Packing(basis.order, basis.ring)
    budget = step_budget or StepBudget()
    monic = [_Aligned(_monic_aligned(packing.align(g))) for g in basis.elements if not g.is_zero()]
    kept: list[_Aligned] = []
    for g in sorted(monic, key=lambda g: g.lm):
        if all((g.lm - h.lm) & packing.guard for h in kept):
            kept.append(g)
    result = []
    for pos, g in enumerate(kept):
        others = kept[:pos] + kept[pos + 1 :]
        result.append(dict(_remainder_terms(g.terms, others, budget, packing.guard)))
    result.sort(key=max)
    return GroebnerBasis(tuple(map(packing.unalign, result)), basis.order)


def groebner_basis(
    presentation: IdealPresentation, step_budget: StepBudget | None = None
) -> GroebnerBasis:
    """Buchberger followed by reduction to the canonical basis."""
    budget = step_budget or StepBudget()
    return reduce_basis(buchberger(presentation, budget), budget)


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

    def is_squarefree(self) -> bool:
        return all(all(e <= 1 for e in g) for g in self.minimal_generators)

    def sorted_generators(self) -> list[Exponents]:
        return sorted(self.minimal_generators, key=lambda m: (sum(m), m))


def initial_ideal(basis: GroebnerBasis) -> MonomialIdeal:
    """Minimal monomial generators of the initial ideal of a Groebner basis."""
    lms = {leading_term(g, basis.order)[0] for g in basis.elements}
    return MonomialIdeal.from_monomials(basis.ring, lms)
