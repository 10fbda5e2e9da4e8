"""The 3N-variable ring R[x_1..x_N, y_1..y_N, z_1..z_N].

Variables are named ``x1 .. xN, y1 .. yN, z1 .. zN`` plus the auxiliary
``t`` of the t-trick (see ``ideals``); ``t`` is an ordinary variable of the
extended ring.  This module owns the ring layout, so the split of a monomial
into its exponent vectors x^I y^J z^K lives here (``split_terms``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .poly import Coefficient, Exponents, MonomialOrder, Polynomial, PolyRing

LETTERS = ("x", "y", "z")

_ring_cache: dict[tuple[int, bool], PolyRing] = {}


def xyz_ring(n_indices: int, with_t: bool = False) -> PolyRing:
    """Ring on {x_i, y_i, z_i : i <= N}, optionally with the elimination t."""
    if n_indices < 1:
        raise ValueError("need at least one index")
    key = (n_indices, with_t)
    ring = _ring_cache.get(key)
    if ring is None:
        names = (["t"] if with_t else []) + [
            f"{w}{i}" for w in LETTERS for i in range(1, n_indices + 1)
        ]
        ring = PolyRing(names)
        _ring_cache[key] = ring
    return ring


def ring_size(ring: PolyRing) -> int:
    """N of an xyz ring."""
    n, rem = divmod(ring.nvars - (1 if "t" in ring else 0), 3)
    if rem:
        raise ValueError(f"{ring!r} is not an xyz ring")
    return n


def indices_of(f: Polynomial) -> set[int]:
    """Indices i with some x_i, y_i or z_i in the support (t ignored)."""
    return {int(v[1:]) for v in f.support_vars() if v != "t"}


def uses_t(f: Polynomial) -> bool:
    ring = f.ring
    if "t" not in ring:
        return False
    t = ring.index("t")
    return any(m[t] for m, _ in f.terms())


def split_terms(f: Polynomial) -> list[tuple[Exponents, Exponents, Exponents, Coefficient]]:
    """(I, J, K, coefficient) for every term x^I y^J z^K of a t-free polynomial.

    Relies on the layout of ``xyz_ring``: t first if present, then the x, y
    and z blocks, each by index ascending, so I, J and K are slices.
    """
    if uses_t(f):
        raise ValueError("the x^I y^J z^K split is undefined for t-dependent polynomials")
    ring = f.ring
    n = ring_size(ring)
    with_t = "t" in ring
    if ring != xyz_ring(n, with_t):
        raise ValueError(f"{ring!r} does not have the xyz ring layout")
    x = int(with_t)
    y, z = x + n, x + 2 * n
    return [(m[x:y], m[y:z], m[z:], c) for m, c in f.terms()]


# -- signatures ---------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """Entry +1 marks a symmetric endomorphism, -1 a skew one."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("signature must have length >= 1")
        if any(e not in (1, -1) for e in self.entries):
            raise ValueError("signature entries must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        """1-based lookup, matching the mathematical subscripts."""
        return self.entries[i - 1]

    def __str__(self) -> str:
        return "".join("+" if e == 1 else "-" for e in self.entries)

    @classmethod
    def parse(cls, text: str) -> "Signature":
        mapping = {"+": 1, "-": -1}
        try:
            return cls(tuple(mapping[ch] for ch in text))
        except KeyError:
            raise ValueError(f"bad signature string {text!r}; use e.g. '+-+'") from None

    @classmethod
    def sweep(cls, n: int) -> list["Signature"]:
        """All signatures of length n, lexicographic with +1 before -1."""
        return [cls(s) for s in itertools.product((1, -1), repeat=n)]

    def power(self, exponents: Iterable[int]) -> int:
        """eps^J = prod eps_i^(J_i)."""
        out = 1
        for e, j in zip(self.entries, exponents):
            if j % 2 and e == -1:
                out = -out
        return out


# -- the named monomial orders ------------------------------------------------


def elimination_order(n: int) -> MonomialOrder:
    """t > x_N > y_N > z_N > x_(N-1) > ... > x_1 > y_1 > z_1."""
    return MonomialOrder(("t",) + index_desc_order(n).ranking)


def index_desc_order(n: int, letters: tuple[str, str, str] = LETTERS) -> MonomialOrder:
    """x_N > y_N > z_N > ... > x_1 > y_1 > z_1 (letters may be rotated)."""
    rk = []
    for i in range(n, 0, -1):
        rk += [f"{w}{i}" for w in letters]
    return MonomialOrder(tuple(rk))


def letter_block_order(n: int) -> MonomialOrder:
    """x_1 > x_2 > ... > x_N > y_1 > ... > y_N > z_1 > ... > z_N."""
    rk = [f"{w}{i}" for w in LETTERS for i in range(1, n + 1)]
    return MonomialOrder(tuple(rk))


def pair_order(pair: tuple[str, str], n: int) -> MonomialOrder:
    """Cyclic rotation of the index-descending order matched to an axis pair.

    The identity "product = intersection" for the (x,z) pair is proved under
    x_N > y_N > z_N > ...; the other two pairs follow by the cyclic shift
    x -> y -> z -> x, which also rotates the order.
    """
    rotations = {
        frozenset(("x", "z")): ("x", "y", "z"),
        frozenset(("x", "y")): ("y", "z", "x"),
        frozenset(("y", "z")): ("z", "x", "y"),
    }
    return index_desc_order(n, rotations[frozenset(pair)])


def order_from_spec(spec: str, n: int) -> MonomialOrder:
    """CLI order specs: 'elim', 'desc', 'block', or an explicit comma list."""
    if spec == "elim":
        return elimination_order(n)
    if spec == "desc":
        return index_desc_order(n)
    if spec == "block":
        return letter_block_order(n)
    if "," in spec:
        return MonomialOrder(tuple(s.strip() for s in spec.split(",")))
    raise ValueError(f"unknown order spec {spec!r}")
