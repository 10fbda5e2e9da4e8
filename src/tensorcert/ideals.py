"""The ideal zoo: axis ideals, cubic/quadratic generators, and oracles.

For a signature eps the three axis ideals are

    I^x = <y_i - eps_i z_i>,   I^y = <z_i - eps_i x_i>,   I^z = <x_i - eps_i y_i>

and the universally tensorial ideal is their intersection.  Membership in it
has two oracles besides Groebner membership: a linear system on the
coefficient tensor, and vanishing on the three linear subvarieties, each
reached by a signed renaming of one letter.  Both read the exponent split
x^I y^J z^K once, and take every sign eps^E from the parity of E's skew
exponents: the variety oracle maps each term to its signed image in one dict
pass per subvariety, with no intermediate polynomial.  The two are not
independent of each other: each sums the same signed coefficients into the
same (key, sign) buckets, so they agree by construction.  Groebner
membership checks them independently, and so do the tests' references
(grouping by ``Signature.power``, and substituting polynomials).

Intersections use the t-trick, I cap J = (tI + (1-t)J) cap Q[x, y, z], and
this module owns both halves of it and its order: ``scale_into_t_ring`` ranks
t above the presentations' own t-free order, which makes lex an elimination
order, and ``eliminate`` drops t again.  Ideal equality is decided by
comparing reduced Groebner bases, which are unique for (ideal, order);
``ideal_contains`` only names a witness once two bases differ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add

from .groebner import (
    GroebnerBasis,
    IdealPresentation,
    StepBudget,
    groebner_basis,
    membership,
)
from .poly import Coefficient, MonomialOrder, Polynomial, PolyRing
from .xyz import Signature, ring_size, split_terms, uses_t, xyz_ring


def axis_generator(letter: str, i: int, sig: Signature, ring: PolyRing) -> Polynomial:
    """The index-i generator of I^letter; T, P and F are products of these."""
    e = sig[i]
    if letter == "x":
        return ring.var(f"y{i}") - ring.monomial({f"z{i}": 1}, e)
    if letter == "y":
        return ring.var(f"z{i}") - ring.monomial({f"x{i}": 1}, e)
    if letter == "z":
        return ring.var(f"x{i}") - ring.monomial({f"y{i}": 1}, e)
    raise ValueError(f"bad axis letter {letter!r}")


def build_axis_ideals(sig: Signature, order: MonomialOrder) -> dict[str, IdealPresentation]:
    """The axis ideals by letter, generators listed by index ascending."""
    ring = xyz_ring(sig.n)
    return {
        letter: IdealPresentation(
            tuple(axis_generator(letter, i, sig, ring) for i in range(1, sig.n + 1)), order
        )
        for letter in "xyz"
    }


def generator_T(i: int, j: int, k: int, sig: Signature, ring: PolyRing | None = None) -> Polynomial:
    """The cubic generator (x_i - e_i y_i)(y_j - e_j z_j)(z_k - e_k x_k)."""
    n = sig.n
    for idx in (i, j, k):
        if not 1 <= idx <= n:
            raise IndexError(f"index {idx} out of range 1..{n}")
    ring = ring if ring is not None else xyz_ring(n)
    return (
        axis_generator("z", i, sig, ring)
        * axis_generator("x", j, sig, ring)
        * axis_generator("y", k, sig, ring)
    )


def generator_P(i: int, j: int, sig: Signature, ring: PolyRing | None = None) -> Polynomial:
    """The quadratic generator (z_i-x_i)(x_j-y_j) - (z_j-x_j)(x_i-y_i).

    Only defined for symmetric index pairs; antisymmetric in (i, j), so the
    diagonal vanishes identically.
    """
    n = sig.n
    for idx in (i, j):
        if not 1 <= idx <= n:
            raise IndexError(f"index {idx} out of range 1..{n}")
        if sig[idx] != 1:
            raise ValueError(f"index {idx} is skew (signature -1); P is undefined")
    ring = ring if ring is not None else xyz_ring(n)
    g_i, g_j = (axis_generator("y", idx, sig, ring) for idx in (i, j))  # z - x
    h_i, h_j = (axis_generator("z", idx, sig, ring) for idx in (i, j))  # x - y
    return g_i * h_j - g_j * h_i


@dataclass(frozen=True)
class CandidateBasis:
    """All N^3 cubic generators plus the quadratics for symmetric pairs i<j."""

    torsion_gens: tuple[Polynomial, ...]
    quadratic_gens: tuple[Polynomial, ...]

    @property
    def members(self) -> tuple[Polynomial, ...]:
        return self.torsion_gens + self.quadratic_gens


def candidate_basis(sig: Signature, ring: PolyRing | None = None) -> CandidateBasis:
    n = sig.n
    ring = ring if ring is not None else xyz_ring(n)
    torsions = tuple(
        generator_T(i, j, k, sig, ring)
        for i, j, k in itertools.product(range(1, n + 1), repeat=3)
    )
    quadratics = tuple(
        generator_P(i, j, sig, ring)
        for i, j in itertools.combinations(range(1, n + 1), 2)
        if sig[i] == 1 and sig[j] == 1
    )
    return CandidateBasis(torsions, quadratics)


# -- the two non-Groebner oracles ----------------------------------------------


def _skew_positions(f: Polynomial, sig: Signature) -> list[int]:
    """The 0-based positions of sig's skew entries; eps^E = -1 iff the
    exponents of E at them have an odd sum.  sig must match f's N."""
    n = ring_size(f.ring)
    if n != sig.n:
        raise ValueError(f"polynomial has {n} indices but the signature has {sig.n}")
    return [i for i, e in enumerate(sig) if e == -1]


def is_universally_tensorial_linear(f: Polynomial, sig: Signature) -> bool:
    """Check the three families of linear equations on the coefficient tensor
    a_{I,J,K} of x^I y^J z^K:

    sum_J eps^J a_{I,J,T-J} = 0,  sum_J eps^J a_{J,T-J,I} = 0,
    sum_J eps^J a_{T-J,I,J} = 0   for all (I, T).

    A pass means f acts tensorially for every commuting family of signature
    sig, on every chart.  Group the two defect sections of
    ``courant.tensoriality_check`` by phi-power, using only the adjoint rule
    (phi^I)* = eps^I phi^I and commutativity, phi^K phi^I = phi^(I+K):

    - the pairing term eps^K <phi^I a, phi^J b> phi^K du_i equals
      eps^I eps^K <a, phi^(I+J) b> phi^K du_i: with K fixed, the terms with
      I + J = T share a section and carry weight eps^I, the second family;
    - the first-slot vector term eps^K (phi^J b)_i phi^(I+K) a: with J fixed,
      the terms with I + K = T share a section and carry weight eps^K, the
      third family;
    - the second-slot term eps^K (phi^I a)_i phi^(J+K) b: with I fixed, the
      terms with J + K = T carry weight eps^K = eps^T eps^J, the first family
      up to the sign eps^T.

    So each family's equations make every grouped coefficient vanish, and
    both defects vanish whatever the family.  The converse does not hold
    family by family: a polynomial that fails here can still be tensorial on
    one family.
    """
    skew = _skew_positions(f, sig)
    buckets: dict[tuple, Coefficient] = {}
    get = buckets.get
    for I, J, K, a in split_terms(f):
        for key, E in (
            ((0, I, tuple(map(add, J, K))), J),  # a_{I, J, T-J} with J = J
            ((1, K, tuple(map(add, I, J))), I),  # a_{J, T-J, I}: J = I, I = K
            ((2, J, tuple(map(add, I, K))), K),  # a_{T-J, I, J}: J = K, I = J
        ):
            buckets[key] = get(key, 0) + (-a if sum([E[i] for i in skew]) & 1 else a)
    return not any(buckets.values())


def vanishes_on_variety(f: Polynomial, sig: Signature) -> bool:
    """True iff f vanishes on the three linear components y = diag(eps) z,
    z = diag(eps) x and x = diag(eps) y.

    Each substitution sends a variable to a signed variable, so it maps a
    term to a single term: y = diag(eps) z sends a x^I y^J z^K to
    eps^J a x^I z^(J+K), and the other two likewise.  The sign eps^J is the
    parity of J's skew exponents, and each substitution is one pass that
    sums the signed coefficients by image monomial.
    """
    skew = _skew_positions(f, sig)
    terms = split_terms(f)
    # (substituted, untouched, receiving) positions in (I, J, K)
    for src, keep, dst in ((1, 0, 2), (2, 1, 0), (0, 2, 1)):
        image: dict[tuple, Coefficient] = {}
        get = image.get
        for term in terms:
            E, a = term[src], term[3]
            key = (term[keep], tuple(map(add, E, term[dst])))
            image[key] = get(key, 0) + (-a if sum([E[i] for i in skew]) & 1 else a)
        if any(image.values()):
            return False
    return True


# -- intersections and products -------------------------------------------------


def scale_into_t_ring(i_pres: IdealPresentation, j_pres: IdealPresentation) -> IdealPresentation:
    """Generators of tI + (1-t)J in the t-extended ring, I's first.

    Both presentations are t-free.  The result is ordered lex with t ranked
    above I's order, so t is eliminated first.
    """
    if "t" in i_pres.order.ranking or "t" in j_pres.order.ranking:
        raise ValueError("the t-trick needs presentations whose order does not rank t")
    t_ring = xyz_ring(ring_size(i_pres.ring), with_t=True)
    t = t_ring.var("t")
    one_minus_t = t_ring.one - t
    gens = [t * g.map_ring(t_ring) for g in i_pres.generators]
    gens += [one_minus_t * g.map_ring(t_ring) for g in j_pres.generators]
    return IdealPresentation(tuple(gens), MonomialOrder(("t",) + i_pres.order.ranking))


def eliminate(basis: GroebnerBasis) -> GroebnerBasis:
    """The t-free part of a basis under an order ranking t first.

    For such an order the t-free subset of a (reduced) Groebner basis of
    tI + (1-t)J is a (reduced) Groebner basis of I cap J under the order
    without t; elements are re-homed in the t-free ring.
    """
    ranking = basis.order.ranking
    if ranking[:1] != ("t",):
        raise ValueError("eliminating t needs an order ranking t first")
    ring = xyz_ring(ring_size(basis.ring))
    free = [g.map_ring(ring) for g in basis.elements if not uses_t(g)]
    return GroebnerBasis(tuple(free), MonomialOrder(ranking[1:]))


def intersect_pair(
    i_pres: IdealPresentation,
    j_pres: IdealPresentation,
    step_budget: StepBudget | None = None,
) -> GroebnerBasis:
    """I intersect J by elimination: reduced basis of tI + (1-t)J, t dropped.

    The result is the reduced Groebner basis of the intersection under I's
    order.
    """
    return eliminate(groebner_basis(scale_into_t_ring(i_pres, j_pres), step_budget))


def product_ideal(i_pres: IdealPresentation, j_pres: IdealPresentation) -> IdealPresentation:
    """All pairwise generator products, ordered by (i, j) generator positions."""
    gens = tuple(g * h for g in i_pres.generators for h in j_pres.generators)
    return IdealPresentation(gens, i_pres.order)


def knutson_F(sig: Signature) -> Polynomial:
    """The splitting polynomial prod (x_i - e_i y_i)(y_i - e_i z_i) z_i."""
    ring = xyz_ring(sig.n)
    f = ring.one
    for i in range(1, sig.n + 1):
        f = f * axis_generator("z", i, sig, ring) * axis_generator("x", i, sig, ring)
        f = f * ring.var(f"z{i}")
    return f


def ideal_contains(
    basis: GroebnerBasis, polys, step_budget: StepBudget | None = None
) -> tuple[bool, Polynomial | None]:
    """Do all the polynomials reduce to zero?  Returns a witness otherwise."""
    for f in polys:
        if not membership(f.map_ring(basis.ring), basis, step_budget):
            return False, f
    return True, None
