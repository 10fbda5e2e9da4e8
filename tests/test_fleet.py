"""Fixture-fleet coverage."""

from fractions import Fraction

from conftest import dense_rows
from tensorcert import fleet
from tensorcert.chart import Endomorphism
from tensorcert.fleet import build_fleet


def test_fleet_size_and_chart_coverage():
    fleet = build_fleet()
    assert len(fleet) >= 20
    assert {e.family.chart.dim for e in fleet} == {1, 2, 3}
    assert {e.family.n for e in fleet} == {1, 2, 3}
    # both pure and mixed signatures appear
    signatures = {str(e.family.signature) for e in fleet}
    assert any("+" in s and "-" in s for s in signatures)


def test_names_are_unique():
    names = [e.name for e in build_fleet()]
    assert len(names) == len(set(names))


# -- the explicit 2n x 2n layouts the block builders replaced, kept as a reference --


def _explicit_diag_vv(chart, diag, sym):
    n = chart.dim
    z = chart.ring.zero
    rows = []
    for i in range(n):
        row = [z] * 2 * n
        row[i] = chart.ring.const(diag[i])
        rows.append(row)
    for i in range(n):
        row = [z] * 2 * n
        row[n + i] = chart.ring.const(diag[i] if sym else -diag[i])
        rows.append(row)
    return Endomorphism(chart, rows)


def _explicit_blocks(chart, a=None, b=None, c=None, d=None):
    n = chart.dim
    rows = [[chart.ring.zero] * 2 * n for _ in range(2 * n)]
    for top, left, block in ((0, 0, a), (0, n, b), (n, 0, c), (n, n, d)):
        if block:
            for i in range(n):
                for j in range(n):
                    rows[top + i][left + j] = block[i][j]
    return Endomorphism(chart, rows)


def _explicit_metric(chart, diag):
    n = chart.dim
    rows = [[chart.ring.zero] * 2 * n for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = chart.ring.const(Fraction(1, 1) / Fraction(diag[i]))
        rows[n + i][i] = chart.ring.const(diag[i])
    return Endomorphism(chart, rows)


def _explicit_kahler_structures(chart):
    o, z = chart.ring.one, chart.ring.zero
    jc = Endomorphism(chart, [[z, -o, z, z], [o, z, z, z], [z, z, z, -o], [z, z, o, z]])
    jw = Endomorphism(chart, [[z, z, z, -o], [z, z, o, z], [z, -o, z, z], [o, z, z, z]])
    return jc, jw, jc.compose(jw)


def test_block_builders_match_explicit_layout(monkeypatch):
    built = build_fleet()
    for name in ("_blocks", "_diag_vv", "_metric", "_kahler_structures"):
        monkeypatch.setattr(fleet, name, globals()[f"_explicit{name}"])
    explicit = build_fleet()
    assert len(built) == len(explicit) == 27
    for new, old in zip(built, explicit):
        assert new.name == old.name and new.family.signature == old.family.signature
        assert new.family.n == old.family.n
        for pos, (m_new, m_old) in enumerate(zip(new.family.members, old.family.members)):
            size = 2 * m_old.chart.dim
            assert m_new.chart == m_old.chart
            new_rows, old_rows = dense_rows(m_new), dense_rows(m_old)
            assert len(new_rows) == size
            for r in range(size):
                for c in range(size):
                    assert new_rows[r][c] == old_rows[r][c], (new.name, pos, r, c)
