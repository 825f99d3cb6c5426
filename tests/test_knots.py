"""Tests for knot-table file handling."""

import pytest
from helpers import bundled_knot

from kch.diagram import DiagramError
from kch.knots import bundled_table, load_table, parse_table


def test_bundled_table_entries():
    entries = bundled_table()
    names = [name for name, _ in entries]
    assert names == ["unknot", "trefoil_lh", "trefoil_rh", "figure8",
                     "5_1", "5_2", "6_1"]


def test_bundled_knot_lookup():
    pd = bundled_knot("figure8")
    assert pd.n == 4
    with pytest.raises(KeyError):
        bundled_knot("nonexistent")


def test_parse_table_comments_and_blanks():
    text = """
# a comment
unknot: PD[X[1,1,2,2]]   # trailing comment

other: PD[X[9,9,9,9]]
"""
    entries = parse_table(text)
    assert entries == [("unknot", "PD[X[1,1,2,2]]"),
                       ("other", "PD[X[9,9,9,9]]")]


def test_parse_table_rejects_bad_lines():
    with pytest.raises(DiagramError):
        parse_table("no separator here")
    with pytest.raises(DiagramError, match=r"^line 2: empty knot name$"):
        parse_table("k1: PD[X[1,1,2,2]]\n: PD[X[1,1,2,2]]")


def test_load_table(tmp_path):
    f = tmp_path / "k.txt"
    f.write_text("k1: PD[X[1,1,2,2]]\n")
    assert load_table(str(f)) == [("k1", "PD[X[1,1,2,2]]")]
