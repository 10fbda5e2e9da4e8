"""A fleet of commuting endomorphism families used as evaluation fixtures.

Families are built over 1-, 2- and 3-dimensional charts and cover: zero and
scaled-identity families, constant generalized almost complex structures and
metrics, nilpotent form/vector-valued endomorphisms (some with entries linear
in the coordinates, to exercise nonconstant derivatives), and diagonal
vector-to-vector families with prescribed eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chart import Chart, CommutingFamily, Endomorphism
from .poly import Polynomial
from .xyz import Signature


@dataclass(frozen=True)
class FleetFamily:
    name: str
    family: CommutingFamily


def _blocks(chart: Chart, a=None, b=None, c=None, d=None) -> Endomorphism:
    """[[A, B], [C, D]] on (vector; form), an omitted block being zero."""
    z = [[chart.ring.zero] * chart.dim] * chart.dim
    a, b, c, d = (block or z for block in (a, b, c, d))
    return Endomorphism(chart, [[*left, *right] for left, right in [*zip(a, b), *zip(c, d)]])


def _diagonal(chart: Chart, entries) -> list[list[Polynomial]]:
    z = chart.ring.zero
    return [
        [chart.ring.const(e) if i == j else z for j in range(len(entries))]
        for i, e in enumerate(entries)
    ]


def _diag_vv(chart: Chart, diag, sym: bool) -> Endomorphism:
    """[[D, 0], [0, +-D]] for diagonal D: symmetric with +, skew with -."""
    lower = diag if sym else [-e for e in diag]
    return _blocks(chart, a=_diagonal(chart, diag), d=_diagonal(chart, lower))


def _metric(chart: Chart, diag) -> Endomorphism:
    """[[0, g^-1], [g, 0]] for a diagonal (pseudo-)metric g."""
    inverse = [Fraction(1) / Fraction(e) for e in diag]
    return _blocks(chart, b=_diagonal(chart, inverse), c=_diagonal(chart, diag))


def _kahler_structures(chart: Chart) -> tuple[Endomorphism, Endomorphism, Endomorphism]:
    """The flat Kaehler triple on a 2-dim chart: J_complex, J_symplectic, G."""
    assert chart.dim == 2
    o = chart.ring.one
    z = chart.ring.zero
    j0 = [[z, -o], [o, z]]
    jc = _blocks(chart, a=j0, d=j0)
    jw = _blocks(chart, b=j0, c=j0)
    return jc, jw, jc.compose(jw)


def build_fleet() -> list[FleetFamily]:
    """The shipped fixture fleet (>= 20 validated commuting families)."""
    out: list[FleetFamily] = []

    def add(name: str, members, sig_text: str):
        out.append(FleetFamily(name, CommutingFamily(members, Signature.parse(sig_text))))

    c1, c2, c3 = Chart(1), Chart(2), Chart(3)
    u1 = c1.coordinate(1)

    # zero and identity-scaled families
    add("zero-sym-n1", [_blocks(c1)], "+")
    add("zero-skew-n1", [_blocks(c1)], "-")
    add("scaled-id-n1", [Endomorphism.identity(c1).scale(2), Endomorphism.identity(c1).scale(-3)], "++")
    add("scaled-id-n2", [Endomorphism.identity(c2).scale(Fraction(1, 2))], "+")

    # n = 1: vector/form scaling (skew) and nilpotent form-valued endos
    d_skew = _diag_vv(c1, [1], sym=False)
    add("diag-skew-n1", [d_skew], "-")
    add("diag-mixed-n1", [_diag_vv(c1, [2], sym=True), d_skew], "+-")
    add("form-valued-linear-n1", [_blocks(c1, c=[[u1]]), _blocks(c1, c=[[c1.ring.const(3)]])], "++")
    add("vector-valued-n1", [_blocks(c1, b=[[c1.ring.one]]), _blocks(c1, b=[[u1]])], "++")
    add(
        "form-valued-quadratic-n1",
        [_blocks(c1, c=[[u1 * u1]]), _diag_vv(c1, [5], sym=True)],
        "++",
    )

    # n = 2: constant generalized almost complex structures and metrics
    jc, jw, g = _kahler_structures(c2)
    add("gacs-complex-n2", [jc], "-")
    add("gacs-symplectic-n2", [jw], "-")
    add("kahler-pair-n2", [jc, jw], "--")
    add("kahler-metric-n2", [jc, g], "-+")
    add("kahler-triple-n2", [jc, jw, g], "--+")
    add("metric-pair-n2", [_metric(c2, [1, 1]), _metric(c2, [1, -1])], "++")
    u1_2 = c2.coordinate(1)
    skew_c = [[c2.ring.zero, u1_2], [-u1_2, c2.ring.zero]]
    add(
        "form-valued-skew-n2",
        [_blocks(c2, c=[[c2.ring.zero, c2.ring.one], [-c2.ring.one, c2.ring.zero]]), _blocks(c2, c=skew_c)],
        "--",
    )
    sym_c = [[u1_2, c2.coordinate(2)], [c2.coordinate(2), c2.ring.zero]]
    add("form-valued-sym-n2", [_blocks(c2, c=sym_c), Endomorphism.identity(c2).scale(4)], "++")
    add("diag-vv-sym-n2", [_diag_vv(c2, [1, 2], sym=True), _diag_vv(c2, [3, 5], sym=True)], "++")
    add("diag-vv-skew-n2", [_diag_vv(c2, [1, -1], sym=False), _diag_vv(c2, [2, 3], sym=False)], "--")
    add(
        "diag-mixed-n2",
        [
            _diag_vv(c2, [1, 4], sym=True),
            _diag_vv(c2, [2, -1], sym=False),
            _diag_vv(c2, [0, 3], sym=True),
        ],
        "+-+",
    )

    # generic non-integrable structures (nonzero torsion/quadratic tensors)
    z2, o2 = c2.ring.zero, c2.ring.one
    u2_2 = c2.coordinate(2)
    generic_skew = Endomorphism(
        c2,
        [
            [u1_2, z2, z2, u2_2],
            [z2, z2, -u2_2, z2],
            [z2, o2, -u1_2, z2],
            [-o2, z2, z2, z2],
        ],
    )
    add("generic-skew-n2", [generic_skew], "-")
    generic_sym = Endomorphism(
        c2,
        [
            [u2_2, z2, o2, z2],
            [z2, z2, z2, o2],
            [u1_2, z2, u2_2, z2],
            [z2, z2, z2, z2],
        ],
    )
    add("generic-sym-n2", [generic_sym], "+")
    add("generic-sym-pair-n2", [generic_sym, generic_sym.compose(generic_sym)], "++")
    add("generic-mixed-n2", [generic_skew, generic_skew.compose(generic_skew)], "-+")

    # n = 3 charts
    add("metric-n3", [_metric(c3, [1, 2, 3])], "+")
    add(
        "diag-vv-sym-n3",
        [_diag_vv(c3, [1, 2, 3], sym=True), _diag_vv(c3, [0, 1, 4], sym=True)],
        "++",
    )
    add(
        "diag-vv-skew-n3",
        [
            _diag_vv(c3, [1, 0, -1], sym=False),
            _diag_vv(c3, [2, 1, 1], sym=False),
            _diag_vv(c3, [0, 0, 3], sym=False),
        ],
        "---",
    )
    return out
