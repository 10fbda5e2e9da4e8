"""sympy as an independent oracle for the engine's reduced bases.

The J ideal tI^yI^z + (1-t)I^x is rebuilt here from its definition with
sympy symbols, so the comparison also covers the generator construction.
Reduced lex bases are unique, so both sides must agree term by term once
made monic.
"""

from fractions import Fraction

import pytest

from tensorcert.groebner import groebner_basis
from tensorcert.verify import j_ideal_presentation
from tensorcert.xyz import Signature

sympy = pytest.importorskip("sympy")

SIGNATURES = [str(s) for n in (1, 2, 3) for s in Signature.sweep(n)]


def _monic(terms: dict) -> frozenset:
    lead = terms[max(terms)]
    return frozenset((m, Fraction(c) / lead) for m, c in terms.items())


def _sympy_basis(sig: Signature, ranking: tuple[str, ...]) -> set:
    eps = {i: sig[i] for i in range(1, sig.n + 1)}
    sym = {name: sympy.Symbol(name) for name in ranking}
    t = sym["t"]
    x, y, z = ({i: sym[f"{w}{i}"] for i in eps} for w in "xyz")
    ideal = [t * (z[i] - eps[i] * x[i]) * (x[j] - eps[j] * y[j]) for i in eps for j in eps]
    ideal += [(1 - t) * (y[i] - eps[i] * z[i]) for i in eps]
    basis = sympy.groebner(ideal, *(sym[name] for name in ranking), order="lex")
    return {
        _monic({m: Fraction(str(c)) for m, c in poly.terms()}) for poly in basis.polys
    }


@pytest.mark.parametrize("text", SIGNATURES)
def test_j_basis_matches_sympy(text):
    sig = Signature.parse(text)
    ranking = ("t",) + tuple(f"{w}{i}" for i in range(sig.n, 0, -1) for w in "xyz")
    ours = groebner_basis(j_ideal_presentation(sig))
    positions = [ours.ring.index(v) for v in ranking]
    mine = {
        _monic({tuple(m[p] for p in positions): c for m, c in g.terms()})
        for g in ours.elements
    }
    assert mine == _sympy_basis(sig, ranking)
