"""Fixture-fleet coverage."""

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
