"""Tests for the kch command line."""

import collections
import json
import subprocess
import sys

import pytest

import kch.cli
from kch.cli import main

TREFOIL_LH = "PD[X[3,6,4,1],X[5,2,6,3],X[1,4,2,5]]"
TREFOIL_RH = "PD[X[6,4,1,3],X[2,6,3,5],X[4,2,5,1]]"
UNKNOT = "PD[X[1,1,2,2]]"


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


def test_parse_bad_pd_exit_2(capsys):
    code, out, err = run_cli(capsys, "parse", "--pd", "PD[X[1,2,3]]")
    assert code == 2
    assert out == ""
    assert "kch:" in err


@pytest.mark.parametrize("pd", [
    '{"crossings": 5}',
    '{"crossings": [5]}',
    '{"crossings": [["a", 1, 2, 3]]}',
    '{"crossings": [[1.5, 1, 2, 2]]}',
    '{"crossings": [[true, 1, 2, 2]]}',
    '{"crossings": [[1, 1, 2]]}',
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


def test_aug_intractable_exit_1(capsys):
    code, out, err = run_cli(capsys, "aug", "--prime", "31", "--pd", UNKNOT)
    assert code == 1
    assert "kch:" in err


def test_augpoly(capsys):
    code, out, _ = run_cli(capsys, "augpoly", "--pd", UNKNOT)
    rep = json.loads(out)
    assert code == 0
    assert rep["polynomial"] == "1 + m - l - l*m"
    assert rep["supported"] is True


def test_apoly_check(capsys):
    code, out, _ = run_cli(capsys, "apoly-check", "--apoly", "1 + l*m^6",
                           "--pd", TREFOIL_RH)
    assert code == 0
    assert json.loads(out)["divides"] is True
    code, _, _ = run_cli(capsys, "apoly-check", "--apoly", "nonsense",
                         "--pd", TREFOIL_RH)
    assert code == 2


def test_apoly_check_unsupported_exit_1(capsys):
    fig8 = "PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]"
    code, _, err = run_cli(capsys, "apoly-check", "--apoly", "1 + l*m^6",
                           "--pd", fig8)
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


def test_table_runs_each_stage_once_per_knot(capsys, tmp_path, monkeypatch):
    calls = collections.Counter()

    def counted(name):
        original = getattr(kch.cli, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("simplify", "crossing_data"):
        monkeypatch.setattr(kch.cli, name, counted(name))
    f = tmp_path / "knots.txt"
    f.write_text("unknot: %s\ntref: %s\n" % (UNKNOT, TREFOIL_LH))
    code, _, _ = run_cli(capsys, "table", str(f), "--primes", "2,3")
    assert code == 0
    assert calls == {"simplify": 2, "crossing_data": 2}


def test_parse_does_not_import_sympy():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "kch.cli", "parse",
         "--pd", TREFOIL_LH], capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout)["n"] == 3
    imported = {line.split("|")[-1].strip()
                for line in proc.stderr.splitlines()}
    assert "kch.augpoly" in imported and "sympy" not in imported
