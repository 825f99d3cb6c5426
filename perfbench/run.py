"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs the workload on the diagram family checked in under inputs/ (or on a
fresh one generated by gen.py with --family-seed) in a fresh interpreter
(worker.py) for S seconds, in an operation order shuffled by --seed, and
prints a human-readable summary followed, as the last line, by one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: operation times scaled to the
reference host speed, and set-up time, the median time of fresh
interpreters running `kch parse` before and after the workload.
--trace 1 reports the per-layer metrics instead: S/2 seconds untraced,
then S/2 traced, the difference giving the tracing overhead.  Exits 2
without a result when the checkout has no kch package under src/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
from worker import WORKLOADS, calibrate  # noqa: E402

SETUP_REPEATS = 4  # before and again after the workload
SETUP_PD = "PD[X[3,6,4,1],X[5,2,6,3],X[1,4,2,5]]"  # trefoil_lh
RUN_BUDGET_S = 170  # a run must end within 180 s

# Times are reported at the host speed where worker.calibrate() takes this
# long (about its median on a quiet 2-vCPU VM with Python 3.11.7).  Each
# pass of operations is scaled by REFERENCE_CALIBRATION_S / the mean of the
# calibration times taken just before and after it, and each set-up probe
# by the calibration taken just before it; this removes much of the host's
# drift.  The raw figures are printed alongside.
REFERENCE_CALIBRATION_S = 0.025

# op_s_tail is the highest percentile that has ten samples beyond it in a
# run of median length on the reference host (rounded down to 5%).  It is
# fixed per workload: a run on a slower host or commit makes fewer passes,
# and a percentile that moved with the run length would land on another
# operation of the pass.
TAIL_PERCENTILE = {"table_bundled": 70, "r2_family": 65, "compare_p13": 90,
                   "dga_check_large": 80}

END_TO_END = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "hc0.simplify.busy_s": "s/op",
    "hc0.simplify.share": "fraction",
    "hc0.simplify.calls_per_op": "calls/op",
    "hc0.terms_out": "terms",
    "hc0.max_word_out": "letters",
    "hc0.generators_out": "generators",
    "hc0.relations_out": "relations",
    "hc0.eliminations": "generators",
    "hc0.extract.busy_s": "s/op",
    "diagram.busy_s": "s/op",
    "diagram.crossing_data.calls_per_op": "calls/op",
    "cli.self_s": "s/op",
    "augment.count.busy_s": "s/op",
    "augment.count.share": "fraction",
    "augment.search_space": "points/op",
    "augment.hit_ratio": "fraction",
    "dga.build.busy_s": "s/op",
    "dga.check.busy_s": "s/op",
    "dga.share": "fraction",
    "ncalg.mul_calls": "calls/op",
    "ncalg.substitute_calls": "calls/op",
    "augpoly.busy_s": "s/op",
    "augpoly.supported_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.missing": "count",
}


def child_env():
    """The package from this checkout, default thread settings, and a fixed
    hash seed so that dict and set layouts repeat between runs."""
    env = dict(os.environ)
    env.pop("KCH_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env):
    """Wall times of fresh `kch parse` runs, calibrate() times taken
    between them, and any wrong outputs."""
    times, calibration, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        calibration.append(calibrate())
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "kch.cli", "parse", "--pd", SETUP_PD],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        times.append(time.perf_counter() - t0)
        problems += oracle.check_parse(proc.returncode, proc.stdout)
    return times, calibration, problems


def scaled_passes(op_s, k, calibration):
    """Split the operation times into passes of k and scale each pass to
    the reference host speed."""
    out = []
    for i in range(0, len(op_s), k):
        before, after = calibration[i // k], calibration[i // k + 1]
        slow = (before + after) / 2 / REFERENCE_CALIBRATION_S
        out.append([t / slow for t in op_s[i:i + k]])
    return out


def run_worker(workload, inputs, seed, seconds, traced, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--inputs", inputs, "--seed", str(seed),
           "--seconds", repr(seconds)] + (["--traced"] if traced else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=max(deadline - time.time(), 1))
    if proc.returncode != 0:
        raise RuntimeError("worker failed (exit %d):\n%s"
                           % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(op_s, percentile):
    """Nearest-rank percentile of the operation times."""
    xs = sorted(op_s)
    return xs[max(math.ceil(percentile / 100.0 * len(xs)) - 1, 0)]


def plain_run(args, inputs, env, deadline):
    """End-to-end metrics of one untraced run, scaled to the reference
    host speed; prints them with their raw values."""
    # Set-up probes before and after the workload sample the host at two
    # times.
    setup_s, setup_cal, problems = measure_setup(env)
    run = run_worker(args.workload, inputs, args.seed, args.seconds, False,
                     env, deadline)
    more = measure_setup(env)
    setup_s, setup_cal, problems = (setup_s + more[0], setup_cal + more[1],
                                    problems + more[2])
    op_s, k = run["op_s"], run["pass_size"]
    passes = scaled_passes(op_s, k, run["calibration_s"])
    scaled = [t for p in passes for t in p]
    setup_scaled = [t * REFERENCE_CALIBRATION_S / c
                    for t, c in zip(setup_s, setup_cal)]
    tail_pct = TAIL_PERCENTILE[args.workload]
    values = {
        "ops_per_s": statistics.median(k / sum(p) for p in passes),
        "op_s_p50": statistics.median(scaled),
        "op_s_tail": tail(scaled, tail_pct),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setup_scaled),
    }
    raw = {
        "ops_per_s": statistics.median(
            k / sum(op_s[i:i + k]) for i in range(0, len(op_s), k)),
        "op_s_p50": statistics.median(op_s),
        "op_s_tail": tail(op_s, tail_pct),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setup_s),
    }
    for name, unit in END_TO_END.items():
        print("  %-36s %.6g %s (raw %.6g)"
              % (name, values[name], unit, raw[name]))
    print("  %d passes of %d ops; tail is p%d of %d ops; set-up is the "
          "median of %d fresh interpreters; median calibration %.4f s "
          "(reference %.4f s)"
          % (len(passes), k, tail_pct, len(scaled), len(setup_s),
             statistics.median(run["calibration_s"] + setup_cal),
             REFERENCE_CALIBRATION_S))
    return [run], values, problems


def traced_run(args, inputs, env, deadline):
    """Per-layer metrics: half the time untraced, half traced."""
    plain = run_worker(args.workload, inputs, args.seed, args.seconds / 2,
                       False, env, deadline)
    traced = run_worker(args.workload, inputs, args.seed, args.seconds / 2,
                        True, env, deadline)

    def mean_op_s(run):
        scaled = scaled_passes(run["op_s"], run["pass_size"],
                               run["calibration_s"])
        return sum(map(sum, scaled)) / len(run["op_s"])

    values = dict(traced["layers"])
    values["trace.overhead_frac"] = 1.0 - mean_op_s(plain) / mean_op_s(traced)
    for name, unit in PER_LAYER.items():
        print("  %-36s %.6g %s" % (name, values[name], unit))
    for name in traced["missing"]:
        print("  missing: %s (renamed or removed; its metrics read 0)" % name)
    return [plain, traced], values, []


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--family-seed", type=int, default=gen.DEFAULT_SEED,
                    help="seed of the generated diagrams (default: the "
                         "checked-in family)")
    args = ap.parse_args(argv)
    deadline = time.time() + RUN_BUDGET_S
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "kch", "__init__.py")):
        print("perfbench: no kch package under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    if args.family_seed == gen.DEFAULT_SEED:
        inputs = os.path.join(HERE, "inputs", "seed-%d" % gen.DEFAULT_SEED)
    else:
        inputs = os.path.join(ROOT, ".perfbench_work",
                              "seed-%d" % args.family_seed)
        gen.write_inputs(args.family_seed, inputs)
    env = child_env()

    print("perfbench %s seed=%d family-seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.family_seed, args.seconds,
             args.trace))
    if args.trace:
        runs, values, problems = traced_run(args, inputs, env, deadline)
        units = PER_LAYER
    else:
        runs, values, problems = plain_run(args, inputs, env, deadline)
        units = END_TO_END
    attempted = sum(len(r["op_s"]) for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    print("  %-36s %.6g (%d of %d ops)"
          % ("failed_frac", failed / attempted, failed, attempted))
    for r in runs:
        for f in r["failures"][:10]:
            print("  FAILED op %d %s: %s" % (f["op"], f["label"],
                                            "; ".join(f["problems"])))
    for p in problems:
        print("  FAILED set-up probe: %s" % p)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
