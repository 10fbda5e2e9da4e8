"""Exact Groebner-basis certification of tensoriality ideals.

The package has three layers: an exact sparse-polynomial core with ranked lex
orders (``poly``, ``xyz``, ``parse``), a plain-Buchberger engine with ordered
division and canonical reduced bases (``groebner``), and the domain layer:
the tensoriality ideals with their oracles (``ideals``), a symbolic Courant
model over polynomial charts (``chart``, ``courant``, ``fleet``), suite
verifiers (``verify``) and the ``tensorcert`` CLI (``cli``, ``report``).
"""

__version__ = "0.1.0"
