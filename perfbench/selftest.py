"""Self-test of the benchmark itself (not of the package).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test run; it takes about
half a minute, most of it one traced pass over each workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from kch import diagram as kd  # noqa: E402
from kch.knots import bundled_table  # noqa: E402

INPUTS = os.path.join(HERE, "inputs", "seed-%d" % gen.DEFAULT_SEED)


def _files(top):
    out = {}
    for dirpath, _, names in os.walk(top):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, top)] = fh.read()
    return out


def _worker(workload, traced):
    """One pass over the workload (seconds=0) in a fresh interpreter."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--inputs", INPUTS, "--seed", "1",
           "--seconds", "0"] + (["--traced"] if traced else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          env=run.child_env(), cwd=ROOT, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# -- inputs -------------------------------------------------------------

def test_base_knots_are_the_bundled_table():
    assert [(n, gen.to_text(pd)) for n, pd in gen.BASE_KNOTS.items()] \
        == [(n, kd.to_text(kd.parse_pd(c))) for n, c in bundled_table()]


def test_moves_agree_with_the_package():
    for pd in gen.BASE_KNOTS.values():
        code = kd.PDCode(pd)
        assert kd.mirror(code).crossings == gen.mirror(pd)
        for move in kd.available_moves(code):
            if move["move"] == "r1_add":
                mine = gen.r1_add(pd, move["edge"], move["sign"])
            elif move["move"] == "r2_add":
                mine = gen.r2_add(pd, move["over"], move["under"],
                                  move["chirality"])
            else:
                continue
            assert kd.apply_move(code, move).crossings == mine, move


def test_checked_in_inputs_regenerate(tmp_path):
    gen.write_inputs(gen.DEFAULT_SEED, str(tmp_path))
    assert _files(str(tmp_path)) == _files(INPUTS)


def test_fresh_seed_gives_same_shape_new_diagrams():
    for make in (gen.r2_family, gen.dga_large):
        a, b = make(1), make(2)
        assert [len(r[-1]) for r in a] == [len(r[-1]) for r in b]
        assert [r[-1] for r in a] != [r[-1] for r in b]
        for row in a + b:
            kd.PDCode(row[-1])  # a valid knot diagram
    a, b = gen.compare_pairs(1), gen.compare_pairs(2)
    assert [r[1] for r in a] == [r[1] for r in b]
    assert [r[5] for r in a] != [r[5] for r in b]


def test_reference_laws_hold_at_recording():
    with open(oracle.REFERENCE, encoding="utf-8") as fh:
        laws = json.load(fh)["laws"]
    assert {v for per in laws.values() for v in per.values()
            if not isinstance(v, str)} == set(), laws


# -- the oracle counts wrong answers as failed operations ----------------

def test_corrupt_signature_and_nonzero_exit_are_failures():
    ref = oracle.load_reference()
    main = worker.import_cli().main
    ops = worker.load_ops("table_bundled", INPUTS, ref)
    rc, out = worker.run_op(main, ["table"])
    assert oracle.check_table(rc, out, ref, {n: n for n in gen.BASE_KNOTS}) \
        == []
    rep = json.loads(out)
    rep["knots"][1]["signature"]["tables"][0]["table"][0]["count"] += 1
    corrupt = json.dumps(rep)
    rc_bad, _ = worker.run_op(main, ["table", "/nonexistent/knots.txt"])
    assert rc_bad != 0
    done = [("bundled", 0.1, rc, out), ("bundled", 0.1, 0, corrupt),
            ("bundled", 0.1, rc_bad, "")]
    failures = worker.check_all(ops, done)
    assert [f["op"] for f in failures] == [1, 2]
    assert "trefoil_lh: signature" in failures[0]["problems"][0]


def test_compare_and_dga_checks_reject_wrong_answers():
    ref = oracle.load_reference()
    dist, diff = oracle.expected_compare(ref, "mirror", "trefoil_lh",
                                         "trefoil_lh", [2, 3, 5, 7])
    assert dist and diff is not None
    good = json.dumps({"distinguished": True, "first_difference": diff})
    assert oracle.check_compare(0, good, ref, "mirror", "trefoil_lh",
                                "trefoil_lh", [2, 3, 5, 7]) == []
    assert oracle.check_compare(0, good, ref, "r2", "trefoil_lh",
                                "trefoil_lh", [2, 3, 5, 7])
    rep = {"schema": 1, "n": 3, "d_squared": "pass", "grading": "pass",
           "failures": [], "generators": {"degree_0": 6, "degree_1": 18,
                                          "degree_2": 12}}
    assert oracle.check_dga(0, json.dumps(rep), 3) == []
    rep["grading"] = "fail"
    assert oracle.check_dga(0, json.dumps(rep), 3)


# -- a pass over each workload, traced -----------------------------------

def test_traced_pass_over_each_workload():
    """No failures, and span counts that match the code: `kch table` runs
    simplify twice and crossing_data four times per knot, compare once per
    diagram, and `kch dga --check` never simplifies."""
    expect = {"table_bundled": (14, 28), "r2_family": (2, 4),
              "compare_p13": (2, 2), "dga_check_large": (0, 1)}
    for workload, (simplify, crossing) in expect.items():
        res = _worker(workload, traced=True)
        assert res["failures"] == [] and res["missing"] == [], workload
        layers = res["layers"]
        assert set(layers) | {"trace.overhead_frac"} == set(run.PER_LAYER)
        assert layers["hc0.simplify.calls_per_op"] == simplify, workload
        assert layers["diagram.crossing_data.calls_per_op"] == crossing
    assert layers["dga.share"] > 0.5


def test_tracer_reports_a_missing_name(monkeypatch):
    import kch.hc0
    worker.import_cli()
    monkeypatch.delattr(kch.hc0, "simplify")
    t = tracer.Tracer()
    t.install()
    try:
        assert "hc0.simplify" in t.missing
        assert t.summary()["trace.missing"] == len(t.missing)
    finally:
        t.uninstall()


# -- the command the benchmark is run with -------------------------------

def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "dga_check_large", "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True)
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == len(gen.DGA_SIZES)
    assert {k: v["unit"] for k, v in res["metrics"].items()} \
        == run.END_TO_END
    assert "failed_frac" in proc.stdout


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table_bundled",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=str(tmp_path),
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
