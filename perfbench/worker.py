"""One workload in a fresh interpreter: a closed loop of in-process CLI calls.

    python3 perfbench/worker.py --workload W --inputs DIR --seed N \\
        --seconds S [--traced]

A single client calls ``kch.cli.main(argv)`` for one operation, waits for
it, and starts the next, cycling through the workload's operations in a
seeded order until S seconds have passed and a pass has ended.
Each operation's stdout is captured; the outputs are checked by oracle.py
after the timed loop.  Prints one JSON object with the per-operation wall
times, the calibration times taken between passes, the failures, the peak
RSS and, with --traced, the per-layer metrics of tracer.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ("table_bundled", "r2_family", "compare_p13", "dga_check_large")

# The shared host's speed drifts by tens of percent over tens of seconds;
# a fixed pure-Python loop (~25 ms) timed between passes measures that
# drift so that run.py can report times at one reference speed.
CALIBRATION_LOOPS = 120000


def import_cli():
    """kch.cli from this checkout's src/, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import kch.cli
    if not os.path.abspath(kch.cli.__file__).startswith(src + os.sep):
        raise ImportError("kch was imported from %s, not from %s"
                          % (kch.cli.__file__, src))
    import kch.augpoly  # noqa: F401  (the tracer wraps it even when unused)
    return kch.cli


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_ops(workload, inputs, ref):
    """[(label, argv, check)] where check(rc, stdout) lists problems."""
    if workload == "table_bundled":
        bases = {name: name for name in gen.BASE_KNOTS}
        return [("bundled", ["table"],
                 lambda rc, out: oracle.check_table(rc, out, ref, bases))]
    rows = _read_jsonl(os.path.join(inputs, workload + ".jsonl"))
    if workload == "r2_family":
        return [(r["label"], ["table", os.path.join(inputs, r["file"])],
                 lambda rc, out, r=r: oracle.check_table(
                     rc, out, ref, {r["label"]: r["base"]}))
                for r in rows]
    if workload == "compare_p13":
        return [(r["label"], r["argv"],
                 lambda rc, out, r=r: oracle.check_compare(
                     rc, out, ref, r["kind"], r["a"], r["b"],
                     [int(p) for p in r["argv"][-1].split(",")]))
                for r in rows]
    if workload == "dga_check_large":
        return [(r["label"], r["argv"],
                 lambda rc, out, r=r: oracle.check_dga(rc, out, r["n"]))
                for r in rows]
    raise ValueError("unknown workload %r" % (workload,))


def run_op(main, argv):
    """(exit code or crash text, stdout) of one in-process CLI call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed operation, not a failed run
        rc = "raised %s: %s" % (type(exc).__name__, exc)
    return rc, out.getvalue()


def calibrate():
    """Wall time of a fixed loop of dict updates with tuple keys (the
    flavour of the package's own work), with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(CALIBRATION_LOOPS):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def closed_loop(main, ops, seed, seconds, tracer=None):
    """Run whole passes over the operations, back to back, until `seconds`
    have passed.  Ending on a pass boundary keeps the mix of operations
    the same in every run.  Returns [(label, s, rc, out)] and the times of
    calibrate(), run before the first pass and after every pass."""
    order = list(ops)
    random.Random(seed).shuffle(order)
    done = []
    calibration = [calibrate()]
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        label, argv, _ = order[len(done) % len(order)]
        if tracer is not None:
            tracer.begin_op(len(done))
        t0 = clock()
        rc, out = run_op(main, argv)
        t1 = clock()
        if tracer is not None:
            tracer.end_op(len(done), t0, t1)
        done.append((label, t1 - t0, rc, out))
        if len(done) % len(order) == 0:
            calibration.append(calibrate())
            if t1 >= deadline:
                return done, calibration


def check_all(ops, done):
    """Problems per failed operation, checking each distinct output once."""
    checks = {label: check for label, _, check in ops}
    verdicts = {}
    failures = []
    for k, (label, _, rc, out) in enumerate(done):
        key = (label, rc, out)
        if key not in verdicts:
            verdicts[key] = checks[label](rc, out)
        if verdicts[key]:
            failures.append({"op": k, "label": label,
                             "problems": verdicts[key][:5]})
    return failures


def run_workload(workload, inputs, seed, seconds, traced=False):
    main = import_cli().main
    ops = load_ops(workload, inputs, oracle.load_reference())
    # Warm-up: the op with the shortest argv text (the smallest diagram)
    # runs once untimed, so lazy imports and first-call set-up are paid.
    warm = min(ops, key=lambda op: len(" ".join(op[1])))
    run_op(main, warm[1])
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    done, calibration = closed_loop(main, ops, seed, seconds, tracer)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    result = {
        "workload": workload,
        "pass_size": len(ops),
        "calibration_s": calibration,
        "op_s": [d for _, d, _, _ in done],
        "peak_rss_mb": peak_kib / 1024.0,
        "failures": check_all(ops, done),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["missing"] = tracer.missing
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    result = run_workload(args.workload, args.inputs, args.seed,
                          args.seconds, args.traced)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
