"""Tests for the kch command line."""

import argparse
import collections
import functools
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys

import pytest
from helpers import kink_chain
from hypothesis import given, settings
from hypothesis import strategies as st

import kch.augment
import kch.cli
import kch.dga
import kch.hc0
import kch.pipeline
from kch.augment import distinguish
from kch.cli import build_parser, main
from kch.diagram import (apply_move, available_moves, mirror, parse_pd,
                         reduced, to_text)
from kch.knots import bundled_knot, bundled_table
from kch.laurent import MINUS_ONE, ONE, LaurentPoly
from kch.ncalg import NCPoly
from kch.pipeline import Run

TREFOIL_LH = "PD[X[3,6,4,1],X[5,2,6,3],X[1,4,2,5]]"
TREFOIL_RH = "PD[X[6,4,1,3],X[2,6,3,5],X[4,2,5,1]]"
UNKNOT = "PD[X[1,1,2,2]]"
FIGURE8 = "PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]"
# TREFOIL_LH with one more clasp (R2)
R2_TREFOIL_LH = ("PD[X[3,10,4,1],X[7,2,8,3],X[1,6,2,7],X[9,4,10,5],"
                 "X[8,6,9,5]]")
T_2_11 = ("PD[X[1,12,2,13],X[3,14,4,15],X[5,16,6,17],X[7,18,8,19],"
          "X[9,20,10,21],X[11,22,12,1],X[13,2,14,3],X[15,4,16,5],"
          "X[17,6,18,7],X[19,8,20,9],X[21,10,22,11]]")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse(capsys):
    code, out, _ = run_cli(capsys, "parse", "--pd", TREFOIL_LH)
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["n"] == 3
    assert len(rep["crossings"]) == 3
    assert rep["crossings"][0] == {"o": 1, "l": 2, "r": 3, "eps": -1}
    code, out, _ = run_cli(capsys, "parse", "--pd",
                           '{"crossings": [[3, 6, 4, 1], [5, 2, 6, 3], '
                           '[1, 4, 2, 5]]}')
    assert code == 0 and json.loads(out) == rep


# a label past Python's 4300-digit int-string limit is an input error too
HUGE_LABEL = "9" * 5000


@pytest.mark.parametrize("pd", [
    "PD[X[1,2,3]]",
    "PD[X[3,6,4,1]X[5,2,6,3]X[1,4,2,5]]",
    pytest.param("PD[X[%s,2,3,4]]" % HUGE_LABEL, id="5000-digit-label"),
])
def test_parse_bad_pd_exit_2(capsys, pd):
    code, out, err = run_cli(capsys, "parse", "--pd", pd)
    assert code == 2
    assert out == ""
    assert err.startswith("kch: ") and "Traceback" not in err


# edges 1 and 3 are each entered at both ends; `aug` and `compare` remove
# the kink at crossing 1 before crossing_data could refuse the code
HEAD_TO_HEAD = "PD[X[1,2,2,1],X[3,4,4,3]]"


@pytest.mark.parametrize("argv", [
    pytest.param(["parse", "--pd", HEAD_TO_HEAD], id="parse"),
    pytest.param(["aug", "--prime", "3", "--pd", HEAD_TO_HEAD], id="aug"),
    pytest.param(["compare", "--pd-a", TREFOIL_LH, "--pd-b", HEAD_TO_HEAD],
                 id="compare"),
])
def test_edge_entered_at_both_ends_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("kch: ") and "each edge must enter exactly one" \
        in err


@pytest.mark.parametrize("pd", [
    '{"crossings": 5}',
    '{"crossings": [5]}',
    '{"crossings": [["a", 1, 2, 3]]}',
    '{"crossings": [[1.5, 1, 2, 2]]}',
    '{"crossings": [[true, 1, 2, 2]]}',
    '{"crossings": [[1, 1, 2]]}',
    pytest.param('{"crossings": [[%s, 2, 3, 4]]}' % HUGE_LABEL,
                 id="5000-digit-label"),
])
def test_parse_malformed_json_crossings_exit_2(capsys, pd):
    code, out, err = run_cli(capsys, "parse", "--pd", pd)
    assert code == 2
    assert out == ""
    assert err.startswith("kch: ") and "Traceback" not in err


def test_dga_check(capsys):
    code, out, _ = run_cli(capsys, "dga", "--check", "--pd", TREFOIL_LH)
    assert code == 0
    rep = json.loads(out)
    assert rep["d_squared"] == "pass"
    assert rep["grading"] == "pass"
    assert rep["generators"] == {"degree_0": 6, "degree_1": 18,
                                 "degree_2": 12}


@pytest.mark.parametrize("argv", [["dga", "--check"], ["hc0", "--no-simplify"],
                                  ["dga"]])
def test_dga_past_crossing_bound_exit_1(capsys, monkeypatch, argv):
    # refused at once: no matrix entry is made past the bound
    n = kch.dga.MAX_DGA_CROSSINGS + 1
    pd = kink_chain(n)
    assert parse_pd(pd).n == n

    def no_entry(*args):
        raise AssertionError("an NCPoly was made past the bound")
    monkeypatch.setattr(NCPoly, "__init__", no_entry)
    code, out, err = run_cli(capsys, *argv, "--pd", pd)
    assert code == 1 and out == ""
    assert err == "kch: dga: %d crossings exceed the bound %d\n" % (n, n - 1)


def test_dga_crossing_bound_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(kch.dga, "MAX_DGA_CROSSINGS", 3)
    assert run_cli(capsys, "dga", "--check", "--pd", TREFOIL_LH)[0] == 0
    code, _, err = run_cli(capsys, "dga", "--check", "--pd", kink_chain(4))
    assert code == 1 and err == "kch: dga: 4 crossings exceed the bound 3\n"


def test_hc0(capsys):
    code, out, _ = run_cli(capsys, "hc0", "--pd", TREFOIL_LH)
    rep = json.loads(out)
    assert code == 0
    assert len(rep["generators"]) == 1
    assert len(rep["relations"]) == 2
    assert rep["eliminated"] == 5
    code, out, _ = run_cli(capsys, "hc0", "--no-simplify", "--pd", TREFOIL_LH)
    rep = json.loads(out)
    assert len(rep["generators"]) == 6
    assert rep["eliminated"] == 0


def test_aug(capsys):
    code, out, _ = run_cli(capsys, "aug", "--prime", "3", "--pd", UNKNOT)
    rep = json.loads(out)
    assert code == 0
    assert rep["p"] == 3 and rep["total"] == 3
    code, out, _ = run_cli(capsys, "aug", "--prime", "3", "--lambda", "2",
                           "--mu", "1", "--pd", UNKNOT)
    rep = json.loads(out)
    assert rep["table"] == [{"lambda": 2, "mu": 1, "count": 0}]


@pytest.mark.parametrize("argv, bad", [
    (["--prime", "5", "--lambda", "6"], "--lambda 6"),
    (["--prime", "5", "--lambda", "5"], "--lambda 5"),
    (["--prime", "3", "--lambda", "0", "--mu", "-1"], "--lambda 0"),
    (["--prime", "3", "--lambda", "1", "--mu", "-1"], "--mu -1"),
])
def test_aug_point_outside_units_exit_2(capsys, argv, bad):
    # before, such a point printed an empty table with total 0 and exit 0
    code, out, err = run_cli(capsys, "aug", "--pd", UNKNOT, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("kch: %s is not a unit" % bad)


@pytest.mark.parametrize("argv", [
    ["aug", "--prime", "3", "--pd", UNKNOT, "--max-generators", "-1"],
    ["aug", "--prime", "3", "--pd", UNKNOT, "--max-prime", "-3"],
    ["table", "--max-generators", "-1"],
])
def test_negative_bound_exit_2(capsys, argv):
    # the search bounds are no longer flags; counting bounds its own work
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_aug_intractable_exit_1(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "aug", "--prime", "31", "--pd", UNKNOT)
    assert code == 0 and json.loads(out)["p"] == 31
    monkeypatch.setattr(kch.augment, "MAX_COUNT_WORK", 100)
    code, out, err = run_cli(capsys, "aug", "--prime", "31", "--pd", UNKNOT)
    assert code == 1 and out == ""
    assert err == "kch: count: search work exceeds the bound 100\n"


def test_aug_prime_past_packed_search_exit_1(capsys):
    # two residues below p must fit in a byte of the packed point search
    code, out, err = run_cli(capsys, "aug", "--prime", "131", "--pd", UNKNOT)
    assert code == 1
    assert out == ""
    assert err.startswith("kch: count: prime 131 exceeds the bound 127")


def test_aug_checks_its_prime_before_any_stage(capsys, monkeypatch):
    def no_stage(pd):
        raise AssertionError("crossing_data ran before the prime check")

    monkeypatch.setattr(kch.pipeline, "crossing_data", no_stage)
    code, out, err = run_cli(capsys, "aug", "--prime", "131",
                             "--pd", TREFOIL_LH)
    assert code == 1 and out == ""
    assert err == ("kch: count: prime 131 exceeds the bound 127 of the "
                   "packed point search\n")
    # a malformed PD code still exits 2 first
    code, _, err = run_cli(capsys, "aug", "--prime", "131",
                           "--pd", "PD[X[1,2,2,1],X[3,4,4,3]]")
    assert code == 2 and not err.startswith("kch: count")


def test_augpoly(capsys):
    code, out, _ = run_cli(capsys, "augpoly", "--pd", UNKNOT)
    rep = json.loads(out)
    assert code == 0
    assert rep["polynomial"] == "1 + m - l - l*m"
    assert rep["supported"] is True


def test_augpoly_intractable_exit_1(capsys):
    # T(2,11): its pairwise resultants need 865,788 Laplace column sets
    code, out, err = run_cli(capsys, "augpoly", "--pd", T_2_11)
    assert code == 1 and out == ""
    assert err.startswith("kch: augpoly: 865788 column sets")


def test_apoly_check(capsys):
    code, out, _ = run_cli(capsys, "apoly-check", "--apoly", "1 + l*m^6",
                           "--pd", TREFOIL_RH)
    assert code == 0
    assert json.loads(out)["divides"] is True
    for bad in ("nonsense", "0", "l-l"):  # zero has no divisibility answer
        code, out, err = run_cli(capsys, "apoly-check", "--apoly", bad,
                                 "--pd", TREFOIL_RH)
        assert code == 2 and out == ""
        assert err.startswith("kch: bad A-polynomial: ")


def test_apoly_check_unsupported_exit_1(capsys):
    code, _, err = run_cli(capsys, "apoly-check", "--apoly", "1 + l*m^6",
                           "--pd", FIGURE8)
    assert code == 1
    assert "unsupported" in err


def test_compare(capsys):
    code, out, _ = run_cli(capsys, "compare", "--pd-a", TREFOIL_LH,
                           "--pd-b", TREFOIL_RH, "--primes", "2,3,5")
    rep = json.loads(out)
    assert code == 0
    assert rep["distinguished"] is True
    assert rep["first_difference"]["p"] == 5
    code, out, _ = run_cli(capsys, "compare", "--pd-a", TREFOIL_LH,
                           "--pd-b", TREFOIL_LH)
    rep = json.loads(out)
    assert rep["distinguished"] is False
    assert rep["first_difference"] is None


def _signature(code, primes):
    return Run(reduced(parse_pd(code))).signature(primes)


def _expected_compare(sig_a, sig_b):
    """The compare report read off two full signatures: the first
    differing entry in prime order, then in table order."""
    diff = next(({"p": t_a.p, "lambda": l0, "mu": m0, "counts": [c_a, c_b]}
                 for t_a, t_b in zip(sig_a.tables, sig_b.tables)
                 for ((l0, m0), c_a), (_, c_b) in zip(t_a.counts, t_b.counts)
                 if c_a != c_b), None)
    return {"schema": 1, "distinguished": distinguish(sig_a, sig_b),
            "first_difference": diff}


def test_compare_matches_full_signatures(capsys):
    codes = [code for _, code in bundled_table()]
    codes += [to_text(mirror(parse_pd(code))) for code in codes]
    sigs = {code: _signature(code, [2, 3, 5, 7]) for code in codes}
    for code_a, code_b in itertools.product(codes, repeat=2):
        code, out, _ = run_cli(capsys, "compare", "--pd-a", code_a,
                               "--pd-b", code_b, "--primes", "2,3,5,7")
        assert code == 0
        assert json.loads(out) == _expected_compare(sigs[code_a],
                                                    sigs[code_b])
    rng = random.Random(23)
    for name, code_a in bundled_table():
        pd = parse_pd(code_a)
        code_b = to_text(apply_move(pd, rng.choice(
            [m for m in available_moves(pd) if m["move"] == "r2_add"])))
        code, out, _ = run_cli(capsys, "compare", "--pd-a", code_a,
                               "--pd-b", code_b, "--primes", "7,2,5,3")
        assert code == 0
        rep = json.loads(out)
        assert rep == _expected_compare(_signature(code_a, [7, 2, 5, 3]),
                                        _signature(code_b, [7, 2, 5, 3]))
        assert rep["distinguished"] is False, name


@pytest.fixture
def crossing_data_calls(monkeypatch):
    """The diagrams given to crossing_data, the first stage of every run."""
    seen = []

    def recording(pd):
        seen.append(pd)
        return crossing_data(pd)

    crossing_data = kch.pipeline.crossing_data
    monkeypatch.setattr(kch.pipeline, "crossing_data", recording)
    return seen


def test_compare_checks_its_primes_before_counting(capsys):
    # the first pair's tables differ at p = 2, and the second pair reduces
    # to one code, answered without counting: only the check up front
    # reaches 131
    for code_a, code_b in ((TREFOIL_RH, FIGURE8),
                           (TREFOIL_LH, R2_TREFOIL_LH)):
        code, out, err = run_cli(capsys, "compare", "--pd-a", code_a,
                                 "--pd-b", code_b, "--primes", "2,131")
        assert code == 1 and out == ""
        assert err == ("kch: count: prime 131 exceeds the bound 127 of the "
                       "packed point search\n")


@pytest.mark.parametrize("code_a, code_b, counted", [
    # the trefoils' tables first differ at p = 5
    pytest.param(TREFOIL_LH, TREFOIL_RH, [2, 2, 3, 3, 5, 5], id="mirrors"),
    # both reduce to one diagram, so nothing is counted
    pytest.param(R2_TREFOIL_LH, TREFOIL_LH, [], id="r2-copy"),
])
def test_compare_counts_only_what_it_reports(capsys, monkeypatch, code_a,
                                             code_b, counted):
    primes = []

    def recording(pres, p):
        primes.append(p)
        return count(pres, p)

    count = kch.cli.count_augmentations
    monkeypatch.setattr(kch.cli, "count_augmentations", recording)
    code, _, _ = run_cli(capsys, "compare", "--pd-a", code_a,
                         "--pd-b", code_b, "--primes", "2,3,5,7,11")
    assert code == 0
    assert primes == counted


def test_compare_stops_counting_at_the_first_difference(capsys,
                                                        monkeypatch):
    # the trefoils' counts charge 208 at p = 5 and 540 at p = 7
    monkeypatch.setattr(kch.augment, "MAX_COUNT_WORK", 300)
    code, out, _ = run_cli(capsys, "compare", "--pd-a", TREFOIL_LH,
                           "--pd-b", TREFOIL_RH, "--primes", "2,3,5,7")
    assert code == 0
    assert json.loads(out)["first_difference"]["p"] == 5
    # a pair of one reduced code is answered without counting, so p = 7
    # never charges the bound
    code, out, _ = run_cli(capsys, "compare", "--pd-a", TREFOIL_LH,
                           "--pd-b", R2_TREFOIL_LH, "--primes", "2,3,5,7")
    assert code == 0
    assert json.loads(out) == {"schema": 1, "distinguished": False,
                               "first_difference": None}


def test_compare_of_one_reduced_code_is_exact_past_a_bound(
        capsys, monkeypatch, crossing_data_calls):
    seen = crossing_data_calls
    monkeypatch.setattr(kch.dga, "MAX_DGA_CROSSINGS", 2)
    code, out, _ = run_cli(capsys, "compare", "--pd-a", TREFOIL_LH,
                           "--pd-b", R2_TREFOIL_LH)
    assert code == 0 and seen == []
    assert json.loads(out)["distinguished"] is False
    # a pair that differs after reduction still runs into the bound
    code, out, err = run_cli(capsys, "compare", "--pd-a", TREFOIL_LH,
                             "--pd-b", TREFOIL_RH)
    assert code == 1 and out == ""
    assert err == "kch: dga: 3 crossings exceed the bound 2\n"


def test_compare_of_one_diagram_in_another_crossing_order(
        capsys, monkeypatch, crossing_data_calls):
    # the same three crossings listed in another order are one diagram, so
    # nothing is counted and the DGA's bound is never reached
    seen = crossing_data_calls
    monkeypatch.setattr(kch.dga, "MAX_DGA_CROSSINGS", 2)
    code, out, _ = run_cli(capsys, "compare", "--pd-a", TREFOIL_LH,
                           "--pd-b", "PD[X[3,6,4,1],X[1,4,2,5],X[5,2,6,3]]")
    assert code == 0 and seen == []
    assert json.loads(out) == {"schema": 1, "distinguished": False,
                               "first_difference": None}


_WALK_MOVES = ("r1_add", "r2_add")


def test_compare_is_invariant_along_reidemeister_walks(capsys,
                                                       crossing_data_calls):
    # a walk of 1-4 R1/R2 additions from a bundled knot is the same knot;
    # reduced() undoes some walks (nothing is counted) and not others
    seen = crossing_data_calls
    branches = set()

    @settings(derandomize=True, max_examples=20, deadline=None,
              database=None)
    @given(name=st.sampled_from([name for name, _ in bundled_table()]),
           data=st.data())
    def walk(name, data):
        pd = walked = bundled_knot(name)
        for _ in range(data.draw(st.integers(1, 4), label="length")):
            moves = available_moves(walked)
            kind = data.draw(st.sampled_from(_WALK_MOVES), label="kind")
            walked = apply_move(walked, data.draw(st.sampled_from(
                [m for m in moves if m["move"] == kind]), label="move"))
        seen.clear()
        code, out, _ = run_cli(capsys, "compare", "--pd-a", to_text(pd),
                               "--pd-b", to_text(walked), "--primes", "2,3,5")
        assert code == 0 and json.loads(out)["distinguished"] is False
        one_code = (sorted(reduced(pd).crossings)
                    == sorted(reduced(walked).crossings))
        assert (seen == []) == one_code
        branches.add(one_code)

    walk()
    assert branches == {False, True}


def test_table_with_file(capsys, tmp_path):
    f = tmp_path / "knots.txt"
    f.write_text("unknot: %s\nbroken: PD[X[1,2,3]]\n" % UNKNOT)
    code, out, _ = run_cli(capsys, "table", str(f), "--primes", "2,3")
    rep = json.loads(out)
    assert code == 0
    assert [k["name"] for k in rep["knots"]] == ["unknot", "broken"]
    assert "error" in rep["knots"][1]
    assert rep["distinguish_matrix"][0][0] is False
    assert rep["distinguish_matrix"][0][1] is None


def test_table_knot_with_error_is_not_compared(capsys, tmp_path):
    # T(2,11) counts at p = 2 but its augmentation polynomial is refused;
    # its row and column are null, as for a knot whose count fails
    f = tmp_path / "knots.txt"
    f.write_text("unknot: %s\nT(2,11): %s\n" % (UNKNOT, T_2_11))
    code, out, _ = run_cli(capsys, "table", str(f), "--primes", "2")
    rep = json.loads(out)
    assert code == 0
    assert rep["distinguish_matrix"] == [[False, None], [None, None]]
    unknot, torus = rep["knots"]
    assert "error" not in unknot
    assert torus["error"].startswith("augpoly: 865788 column sets")
    assert "augmentation_polynomial" not in torus


def test_table_stage_value_error_propagates(tmp_path, monkeypatch):
    # the primes are checked before any knot, so no stage raises a plain
    # ValueError on a knot's input: one is a bug, not that knot's "error"
    # entry that drops it from the distinguish matrix
    def broken(pres):
        raise ValueError("stage bug")
    monkeypatch.setattr(kch.pipeline, "augmentation_polynomial", broken)
    f = tmp_path / "knots.txt"
    f.write_text("unknot: %s\n" % UNKNOT)
    with pytest.raises(ValueError, match="stage bug"):
        main(["table", str(f), "--primes", "2"])


def test_table_empty_file(capsys, tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("# nothing here\n\n")
    code, out, _ = run_cli(capsys, "table", str(f))
    rep = json.loads(out)
    assert code == 0
    assert rep["knots"] == [] and rep["distinguish_matrix"] == []


def test_table_unreadable_file_exit_2(capsys, tmp_path):
    missing = tmp_path / "no-such-file.txt"
    code, out, err = run_cli(capsys, "table", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith("kch: cannot read %s" % missing)
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\x00knot")
    code, out, err = run_cli(capsys, "table", str(binary))
    assert code == 2 and err.startswith("kch: cannot read")


def test_table_duplicate_names_exit_2(capsys, tmp_path):
    # the distinguish matrix is keyed by name: a repeated name made it
    # compare the last knot of that name with itself
    f = tmp_path / "knots.txt"
    f.write_text("k: %s\n# comment\nk: %s\n" % (TREFOIL_LH, TREFOIL_RH))
    code, out, err = run_cli(capsys, "table", str(f), "--primes", "2,3,5")
    assert code == 2
    assert out == ""
    assert err == "kch: line 3: knot name 'k' already used on line 1\n"


def test_table_empty_name_exit_2(capsys, tmp_path):
    f = tmp_path / "knots.txt"
    f.write_text(": PD[X[1,1,2,2]]\n")
    code, out, err = run_cli(capsys, "table", str(f))
    assert (code, out, err) == (2, "", "kch: line 1: empty knot name\n")


def test_table_pairwise_distinction(capsys, tmp_path):
    f = tmp_path / "knots.txt"
    f.write_text("unknot: %s\nlh: %s\nrh: %s\n"
                 % (UNKNOT, TREFOIL_LH, TREFOIL_RH))
    code, out, _ = run_cli(capsys, "table", str(f), "--primes", "2,3,5")
    rep = json.loads(out)
    assert code == 0
    matrix = rep["distinguish_matrix"]
    for i in range(3):
        for j in range(3):
            assert matrix[i][j] == (i != j)


def test_text_output(capsys):
    code, out, _ = run_cli(capsys, "--output", "text", "augpoly",
                           "--pd", UNKNOT)
    assert code == 0
    assert "polynomial: 1 + m - l - l*m" in out


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["compare", "--pd-a", UNKNOT, "--pd-b", UNKNOT],
    ["table"],
])
def test_primes_default_is_an_immutable_tuple(command):
    # every main call shares one parser, and so its default object
    first, second = (kch.cli._PARSER.parse_args(command) for _ in range(2))
    assert first.primes == second.primes == (2, 3, 5, 7)
    assert type(first.primes) is tuple
    assert build_parser().parse_args(command).primes == first.primes


# each subcommand, text output, a default after an explicit --primes and
# again later, help, usage errors (SystemExit 2), a DiagramError (2) and an
# IntractableError (1)
SHARED_PARSER_CALLS = [
    ["parse", "--pd", TREFOIL_LH],
    ["dga", "--check", "--pd", TREFOIL_LH],
    ["hc0", "--no-simplify", "--pd", TREFOIL_LH],
    ["aug", "--prime", "3", "--lambda", "2", "--pd", UNKNOT],
    ["augpoly", "--pd", UNKNOT],
    ["apoly-check", "--apoly", "1 + l*m^6", "--pd", TREFOIL_RH],
    ["--output", "text", "compare", "--pd-a", TREFOIL_LH, "--pd-b",
     TREFOIL_RH, "--primes", "5,2"],
    ["compare", "--pd-a", TREFOIL_LH, "--pd-b", TREFOIL_RH],
    ["table", "--primes", "3"],
    ["--output", "text", "table"],
    ["compare", "--help"],
    ["not-a-command"],
    ["aug", "--pd", UNKNOT],
    ["parse", "--pd", "PD[X[1,2,3]]"],
    ["table", "--primes", "131"],
    ["aug", "--prime", "3", "--pd", UNKNOT],
    ["parse", "--pd", TREFOIL_LH],
    ["compare", "--pd-a", TREFOIL_LH, "--pd-b", TREFOIL_RH],
]


def _exit_and_output(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_calls_through_the_shared_parser_match_a_fresh_parser(capsys,
                                                              monkeypatch):
    shared = [_exit_and_output(capsys, argv) for argv in SHARED_PARSER_CALLS]
    codes = [code for code, _, _ in shared]
    assert codes.count(("SystemExit", 2)) == 2 and 1 in codes
    assert codes.count(2) == 1 and ("SystemExit", 0) in codes
    for argv, got in zip(SHARED_PARSER_CALLS, shared):
        monkeypatch.setattr(kch.cli, "_PARSER", build_parser())
        assert got == _exit_and_output(capsys, argv), argv


def test_main_never_builds_a_parser(capsys, monkeypatch):
    def no_build():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(kch.cli, "build_parser", no_build)
    for _ in range(2):
        code, out, _ = run_cli(capsys, "parse", "--pd", UNKNOT)
        assert code == 0 and json.loads(out)["n"] == 1


@pytest.mark.parametrize("argv, bad", [
    (["aug", "--prime", "4", "--pd", UNKNOT], 4),
    (["compare", "--pd-a", UNKNOT, "--pd-b", UNKNOT, "--primes", "1,2"], 1),
    (["table", "--primes", "4"], 4),
])
def test_non_prime_exit_2(capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "%d is not prime" % bad in captured.err


@pytest.mark.parametrize("argv, bad", [
    (["table", "--primes", "2,2"], 2),
    (["table", "--primes", "2,3,5,3"], 3),
    (["compare", "--pd-a", UNKNOT, "--pd-b", UNKNOT, "--primes", "2,2"], 2),
])
def test_repeated_prime_exit_2(capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "prime %d is repeated" % bad in captured.err


@pytest.mark.parametrize("argv", [
    ["compare", "--pd-a", UNKNOT, "--pd-b", UNKNOT, "--primes", "2,,3"],
    ["compare", "--pd-a", UNKNOT, "--pd-b", UNKNOT, "--primes", "2,3,"],
    ["table", "--primes", "2,,3"],
    ["table", "--primes", "2,3,"],
    ["table", "--primes", ",2"],
    ["table", "--primes", ""],
])
def test_empty_prime_item_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bad prime ''" in captured.err


# int() would read 1_3 as 13 and the Arabic-Indic digit three as 3
_NOT_ASCII_DIGITS = ["1_3", "\u0663", "+7", " 7", "7 ", "0x7"]


@pytest.mark.parametrize("text", _NOT_ASCII_DIGITS + ["-7"])
@pytest.mark.parametrize("command", [
    ["aug", "--pd", UNKNOT, "--prime"],
    ["compare", "--pd-a", UNKNOT, "--pd-b", UNKNOT, "--primes"],
    ["table", "--primes"],
], ids=["aug", "compare", "table"])
def test_prime_of_ascii_digits_only_exit_2(capsys, command, text):
    with pytest.raises(SystemExit) as exc:
        main(command + [text])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bad prime %r" % text in captured.err


@pytest.mark.parametrize("text", _NOT_ASCII_DIGITS + ["-\u0663"])
@pytest.mark.parametrize("flag", ["--lambda", "--mu"])
def test_point_of_ascii_digits_only_exit_2(capsys, flag, text):
    # a minus sign is read, so that -1 exits 2 as a non-unit
    with pytest.raises(SystemExit) as exc:
        main(["aug", "--prime", "5", "--pd", UNKNOT, flag, text])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument %s: bad integer %r" % (flag, text) in captured.err


def test_shared_unit_constants_survive_the_cli(capsys):
    # the ncalg shortcuts share ONE and MINUS_ONE among all the terms that
    # hold them; no command may write to them
    assert LaurentPoly.const(1) is ONE and LaurentPoly.const(-1) is MINUS_ONE
    assert -ONE is MINUS_ONE and -MINUS_ONE is ONE
    pd = bundled_knot("figure8")
    for kind in ("r1_add", "r2_add", "r2_add"):
        pd = apply_move(pd, [m for m in available_moves(pd)
                             if m["move"] == kind][3])
    assert run_cli(capsys, "table")[0] == 0
    assert run_cli(capsys, "dga", "--check", "--pd", to_text(pd))[0] == 0
    for _, code in bundled_table():
        assert run_cli(capsys, "augpoly", "--pd", code)[0] == 0
    assert ONE.terms == {(0, 0): 1} and MINUS_ONE.terms == {(0, 0): -1}


# the stages a command may run on each of its diagrams, and how often;
# only the d^2 and grading checks read the DGA's differential
_PARSED = {"crossing_data": 1}
_EXTRACTED = dict(_PARSED, build_dga=1)
_CHECKED = dict(_EXTRACTED, differential=1)
_SIMPLIFIED = dict(_EXTRACTED, simplify=1)
_COUNTED = dict(_SIMPLIFIED, commutative=1)


@pytest.mark.parametrize("argv, diagrams, stages", [
    pytest.param(["parse", "--pd", TREFOIL_LH], 1, _PARSED, id="parse"),
    pytest.param(["dga", "--check", "--pd", TREFOIL_LH], 1, _CHECKED,
                 id="dga"),
    # the generator counts depend on n alone, read off the parsed code
    pytest.param(["dga", "--pd", TREFOIL_LH], 1, {}, id="dga-no-check"),
    pytest.param(["hc0", "--pd", TREFOIL_LH], 1, _SIMPLIFIED, id="hc0"),
    pytest.param(["hc0", "--no-simplify", "--pd", TREFOIL_LH], 1,
                 _EXTRACTED, id="hc0-no-simplify"),
    pytest.param(["aug", "--prime", "3", "--pd", TREFOIL_LH], 1, _COUNTED,
                 id="aug"),
    pytest.param(["augpoly", "--pd", TREFOIL_LH], 1, _COUNTED, id="augpoly"),
    pytest.param(["apoly-check", "--apoly", "1 + l*m^6", "--pd", TREFOIL_LH],
                 1, _COUNTED, id="apoly-check"),
    pytest.param(["compare", "--pd-a", TREFOIL_LH, "--pd-b", TREFOIL_RH], 2,
                 _COUNTED, id="compare"),
    # both sides reduce to one diagram, so no stage runs
    pytest.param(["compare", "--pd-a", TREFOIL_LH, "--pd-b", R2_TREFOIL_LH],
                 1, {}, id="compare-r2-copy"),
    # one DGA serves the checks and the presentation, and one
    # abelianization serves every prime and the augmentation polynomial
    pytest.param(["table", "KNOTS", "--primes", "2,3"], 2,
                 dict(_CHECKED, simplify=1, commutative=1), id="table"),
])
def test_each_stage_runs_at_most_once_per_diagram(capsys, tmp_path,
                                                  monkeypatch, argv,
                                                  diagrams, stages):
    calls = collections.Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("crossing_data", "build_dga", "simplify"):
        monkeypatch.setattr(kch.pipeline, name,
                            counted(name, getattr(kch.pipeline, name)))
    for cls, name in ((kch.hc0.Presentation, "commutative"),
                      (kch.dga.FramedKnotDGA, "differential")):
        prop = functools.cached_property(counted(name,
                                                 getattr(cls, name).func))
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
    f = tmp_path / "knots.txt"
    f.write_text("unknot: %s\ntref: %s\n" % (UNKNOT, TREFOIL_LH))
    code, _, _ = run_cli(capsys, *[str(f) if a == "KNOTS" else a
                                   for a in argv])
    assert code == 0
    assert calls == {name: n * diagrams for name, n in stages.items()}


# the counts are invariants of the knot, so only the commands that print
# nothing but counts shrink the diagram first
@pytest.mark.parametrize("argv, reduces", [
    pytest.param(["parse", "--pd", R2_TREFOIL_LH], False, id="parse"),
    pytest.param(["dga", "--check", "--pd", R2_TREFOIL_LH], False, id="dga"),
    pytest.param(["hc0", "--pd", R2_TREFOIL_LH], False, id="hc0"),
    pytest.param(["hc0", "--no-simplify", "--pd", R2_TREFOIL_LH], False,
                 id="hc0-no-simplify"),
    pytest.param(["aug", "--prime", "3", "--pd", R2_TREFOIL_LH], True,
                 id="aug"),
    pytest.param(["augpoly", "--pd", R2_TREFOIL_LH], False, id="augpoly"),
    pytest.param(["apoly-check", "--apoly", "1 + l*m^6", "--pd",
                  R2_TREFOIL_LH], False, id="apoly-check"),
    # a pair that still differs after reduction, so both sides run
    pytest.param(["compare", "--pd-a", R2_TREFOIL_LH, "--pd-b", TREFOIL_RH],
                 True, id="compare"),
    pytest.param(["table", "KNOTS", "--primes", "2,3"], False, id="table"),
])
def test_only_compare_and_aug_reduce_the_diagram(capsys, tmp_path, argv,
                                                 reduces, crossing_data_calls):
    seen = crossing_data_calls
    f = tmp_path / "knots.txt"
    f.write_text("tref: %s\n" % R2_TREFOIL_LH)
    code, _, _ = run_cli(capsys, *[str(f) if a == "KNOTS" else a
                                   for a in argv])
    assert code == 0
    expected = parse_pd(TREFOIL_LH if reduces else R2_TREFOIL_LH)
    assert expected in seen
    assert all(pd in (expected, parse_pd(TREFOIL_RH)) for pd in seen)


def test_simplify_budget_exit_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(kch.hc0, "MAX_RELATION_TERMS", 20)
    code, out, err = run_cli(capsys, "hc0", "--pd", TREFOIL_LH)
    assert code == 1 and out == ""
    assert err.startswith("kch: simplify: ") and "bound 20" in err
    code, _, _ = run_cli(capsys, "hc0", "--no-simplify", "--pd", TREFOIL_LH)
    assert code == 0
    f = tmp_path / "knots.txt"
    f.write_text("unknot: %s\ntref: %s\n" % (UNKNOT, TREFOIL_LH))
    code, out, _ = run_cli(capsys, "table", str(f), "--primes", "2")
    assert code == 0
    unknot, tref = json.loads(out)["knots"]
    assert "error" not in unknot and "signature" in unknot
    assert tref["error"].startswith("simplify: ")
    assert "signature" not in tref


def test_parse_does_not_import_sympy():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "kch.cli", "parse",
         "--pd", TREFOIL_LH], capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout)["n"] == 3
    imported = {line.split("|")[-1].strip()
                for line in proc.stderr.splitlines()}
    assert "kch.augpoly" in imported and "sympy" not in imported


@pytest.mark.parametrize("primes", ["131", "2,131"])
def test_table_prime_past_bound_exit_1(capsys, primes):
    # the primes are checked once, before any knot is computed
    code, out, err = run_cli(capsys, "table", "--primes", primes)
    assert code == 1 and out == ""
    assert err == ("kch: count: prime 131 exceeds the bound 127 of the "
                   "packed point search\n")


R2_TREFOIL = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "inputs", "seed-1",
    "r2_family", "03_trefoil_lh.n9.txt")


def test_table_does_not_import_sympy():
    # the resultants of the bundled knots and of an R2-inflated trefoil
    # reach their gcd by divisibility alone, so sympy stays unloaded
    script = ("import sys; from kch.cli import main; "
              "codes = [main(['table']), main(['table', sys.argv[1]])]; "
              "print(codes, 'sympy' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script, R2_TREFOIL],
                          capture_output=True, text=True, check=True)
    assert proc.stderr == "[0, 0] False\n"
    assert proc.stdout.count('"method": "gcd-of-resultants"') == 2


# sha256 of stdout, pinned before the stages moved into kch.pipeline
GOLDEN = [
    pytest.param(
        ["table"],
        "6ada87d1f6c6854c0fd45dee4287e673c78b84771b64b8593725f985c841033e",
        id="table"),
    pytest.param(
        ["--output", "text", "table"],
        "2a28f8230ae769297a35fa95312ff21c2fae8b6a4103a4f4b143610a37bbf5ec",
        id="table-text"),
]
# knot -> digests of `hc0`, `augpoly` and `dga --check`
GOLDEN_KNOTS = {
    "unknot": (
        "261091c4befa4a552b547149172f274c485a97b82ed14a1130fd267669577d32",
        "d18145ed88eda79ed64a615be8689132af627626d842a8665213a4587dea478e",
        "8f16c9fcfb38788942b069f8bbd3a0c49190a8f1af1c4f07adf00ca247211aa4"),
    "trefoil_lh": (
        "d52d8cb79ceb2e58668cba466e5f4b8cfbda90ff000fbcdeb577455d75965a0c",
        "c37f489cb217eb6052046d2a8bca2c80660d53adeab334285194513c807eda53",
        "a085b50471d87efdead6a19b4afa7956a5cca0e5cef046b1628cf48516ff5fe3"),
    "trefoil_rh": (
        "527bbb6997cb19c9c29305b1de15c5854f3f1d28e1278422fe82d4fc8043063b",
        "0246faa3f2112293465bf472608236e209528eac46eeaf29db2b37ceec8e374a",
        "a085b50471d87efdead6a19b4afa7956a5cca0e5cef046b1628cf48516ff5fe3"),
    "figure8": (
        "e303b77fbfe981f61c6f4bb0a94ec1d52671ea830b75d76ecf18375ae2eea943",
        "69f2fad37e6cbe30a4a11dcf498f87973c865581434b8f1c60f95df441eeeb5b",
        "f036ac60977d11d5155b8f12ee3fccb85b8aca11e4893eb73150f3f09054adeb"),
    "5_1": (
        "7b9f6965753a3195dff605baa7a0e8c63fa634e337bc134d734964d79ac6a106",
        "80e52eaf2678c5e03256deb725997cb3b72045ba678d81b38afe255339bffad9",
        "7cdb0adec86a330a5e67fc01d774c38c531cf8a58899f366ac2a804fb81ca3e4"),
    "5_2": (
        "9a87b700306bcbe8de43a05665ac09859b4279ea3d89bf7d97be76781b2ef4a2",
        "3cb62dcac287d9bddbe5d00623e5129b8b4993594cfe05e58eb668c3844f8231",
        "7cdb0adec86a330a5e67fc01d774c38c531cf8a58899f366ac2a804fb81ca3e4"),
    "6_1": (
        "f400de3137e4e6e6dc571fc96c3d28d89afcf9330c301fe064a651a41d5a5043",
        "ca15dd2324b9af8455fbaa755efef2e27016ddc7de84147184a1797c970ec4b8",
        "b06f93ef363891f44ceeebdd991827ac711025b2ac8bf74ce7b43e0798fb6691"),
}
for _name, _code in bundled_table():
    for _cmd, _digest in zip((["hc0"], ["augpoly"], ["dga", "--check"]),
                             GOLDEN_KNOTS[_name]):
        GOLDEN.append(pytest.param(_cmd + ["--pd", _code], _digest,
                                   id="%s-%s" % (_cmd[0], _name)))


@pytest.mark.parametrize("argv, digest", GOLDEN)
def test_golden_output(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, (
        "stdout of `kch %s` changed; a deliberate change of a result "
        "updates its pin here and says so in CHANGES.md" % " ".join(argv))


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_readme_synopsis_lists_each_subcommands_flags():
    with open(README, encoding="utf-8") as f:
        text = f.read()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n", 2)[1]
    listed = {}
    for line in block.splitlines():
        assert line.startswith("kch "), line
        name = line.split()[1]
        assert name not in listed, line
        listed[name] = set(re.findall(r"--[a-z][a-z-]*", line))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    accepted = {name: {o for a in p._actions for o in a.option_strings
                       if o != "--help" and o.startswith("--")}
                for name, p in sub.choices.items()}
    assert listed == accepted
