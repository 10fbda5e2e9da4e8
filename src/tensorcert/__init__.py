"""Exact Groebner-basis certification of tensoriality ideals.

The package has three layers: an exact sparse-polynomial core with ranked lex
orders (``poly``, ``xyz``, ``parse``), a plain-Buchberger engine with ordered
division and canonical reduced bases (``groebner``), and the domain layer:
the tensoriality ideals with their oracles (``ideals``), a symbolic Courant
model over polynomial charts (``chart``, ``courant``, ``fleet``), suite
verifiers (``verify``) and the ``tensorcert`` CLI (``cli``, ``report``).
"""

__version__ = "0.1.0"

from .poly import (
    MonomialOrder,
    OrderMismatchError,
    Polynomial,
    PolyRing,
    RingMismatchError,
    leading_term,
)
from .xyz import (
    Signature,
    elimination_order,
    index_desc_order,
    letter_block_order,
    pair_order,
    xyz_ring,
)
from .parse import ParseError, parse_polynomial, render_polynomial
from .groebner import (
    BudgetExceededError,
    GroebnerBasis,
    IdealPresentation,
    MonomialIdeal,
    StepBudget,
    buchberger,
    buchberger_criterion,
    groebner_basis,
    initial_ideal,
    membership,
    reduce_basis,
)
from .ideals import (
    build_axis_ideals,
    candidate_basis,
    eliminate,
    generator_P,
    generator_T,
    intersect_pair,
    is_universally_tensorial_linear,
    knutson_F,
    product_ideal,
    vanishes_on_variety,
)
from .chart import Chart, CommutingFamily, Endomorphism, GeneralizedSection
from .courant import (
    BracketTable,
    action_terms,
    courant_bracket,
    courant_element,
    inner_product,
    polynomial_action,
    tensor_P_terms,
    tensoriality_check,
    torsion_T_terms,
)

__all__ = [name for name in dir() if not name.startswith("_")]
