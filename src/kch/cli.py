"""Command-line surface: `kch SUBCOMMAND ...`.

Exit status: 0 on success, 1 on computation failure (intractable search,
unsupported shape requested as a hard result), 2 on usage or parse errors.
All diagnostics go to stderr; reports go to stdout, JSON by default.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import knots
from .augment import (IntractableError, _check_prime, _is_prime,
                      count_augmentations, distinguish, first_difference)
from .augpoly import check_apoly_divisibility
from .dga import check_d_squared, check_grading, generator_counts
from .diagram import DiagramError, parse_pd, reduced
from .laurent import parse_poly
from .pipeline import Run

SCHEMA = 1


class ComputationError(RuntimeError):
    pass


def _parse_prime(text):
    if not (text.isascii() and text.isdigit()):  # the PD grammar's rule
        raise argparse.ArgumentTypeError("bad prime %r" % text)
    p = int(text)
    if not _is_prime(p):
        raise argparse.ArgumentTypeError("%d is not prime" % p)
    return p


def _parse_primes(text):
    primes = [_parse_prime(x) for x in text.split(",")]
    for k, p in enumerate(primes):
        if p in primes[:k]:
            raise argparse.ArgumentTypeError("prime %d is repeated" % p)
    return primes


def _parse_int(text):
    """Digits as for a prime, after an optional minus sign."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError("bad integer %r" % text)
    return int(text)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="kch",
        description="knot contact homology toolkit")
    ap.add_argument("--output", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_pd(p):
        p.add_argument("--pd", required=True,
                       help="PD code, e.g. 'PD[X[1,4,2,5],...]'")

    p = sub.add_parser("parse", help="validate a PD code, print diagram data")
    add_pd(p)

    p = sub.add_parser("dga", help="build the framed knot DGA")
    add_pd(p)
    p.add_argument("--check", action="store_true",
                   help="run the d^2=0 and grading checks")

    p = sub.add_parser("hc0", help="degree-0 homology presentation")
    add_pd(p)
    p.add_argument("--no-simplify", action="store_true")

    p = sub.add_parser("aug", help="augmentation numbers over Z_p")
    add_pd(p)
    p.add_argument("--prime", type=_parse_prime, required=True)
    p.add_argument("--lambda", dest="lam0", type=_parse_int, default=None)
    p.add_argument("--mu", dest="mu0", type=_parse_int, default=None)

    p = sub.add_parser("augpoly", help="augmentation polynomial")
    add_pd(p)

    p = sub.add_parser("apoly-check",
                       help="divisibility against an A-polynomial")
    add_pd(p)
    p.add_argument("--apoly", required=True,
                   help="A-polynomial in the rendering grammar, "
                        "e.g. '1 + l*m^6'")

    p = sub.add_parser("compare", help="compare augmentation signatures")
    p.add_argument("--pd-a", required=True)
    p.add_argument("--pd-b", required=True)
    p.add_argument("--primes", type=_parse_primes, default=(2, 3, 5, 7))

    p = sub.add_parser("table", help="batch run over a knot-table file")
    p.add_argument("file", nargs="?", default=None,
                   help="knot table path (default: bundled table)")
    p.add_argument("--primes", type=_parse_primes, default=(2, 3, 5, 7))
    return ap


# built once: parse_args leaves it as it was, and its defaults are immutable
_PARSER = build_parser()


# -- report builders --------------------------------------------------


def _diagram_stats(run):
    pd, cd = run.pd, run.cd
    return {
        "n": pd.n,
        "arcs": [list(arc) for arc in pd.arcs()],
        "crossings": [
            {"o": cd.o[k], "l": cd.l[k], "r": cd.r[k], "eps": cd.eps[k]}
            for k in range(cd.n)
        ],
        "degenerate": cd.degenerate,
    }


def _presentation_report(pres):
    return {"generators": [g.name() for g in pres.generators],
            "relations": [str(r) for r in pres.relations]}


def _check_report(dga):
    """The d^2 = 0 and grading verdicts, and the failures behind them."""
    d2 = check_d_squared(dga)
    gr = check_grading(dga)
    return ({"d_squared": "pass" if d2["pass"] else "fail",
             "grading": "pass" if gr["pass"] else "fail"},
            d2["failures"] + gr["failures"])


def cmd_parse(args):
    return _diagram_stats(Run(parse_pd(args.pd)))


def cmd_dga(args):
    """The generator counts, which depend on n alone; the DGA is built
    only to be checked."""
    pd = parse_pd(args.pd)
    rep = {"n": pd.n,
           "generators": {"degree_%d" % k: v for k, v
                          in sorted(generator_counts(pd.n).items())}}
    if args.check:
        verdicts, failures = _check_report(Run(pd).dga)
        rep.update(verdicts, failures=failures)
    return rep


def cmd_hc0(args):
    run = Run(parse_pd(args.pd))
    pres = run.presentation if args.no_simplify else run.simplified
    return {**_presentation_report(pres),
            "eliminated": len(run.presentation.generators)
            - len(pres.generators)}


def cmd_aug(args):
    for flag, value in (("--lambda", args.lam0), ("--mu", args.mu0)):
        if value is not None and not 0 < value < args.prime:
            raise DiagramError("%s %d is not a unit mod %d (use 1..%d)"
                               % (flag, value, args.prime, args.prime - 1))
    # counts are knot invariants: kinks and clasps come off first
    pd = reduced(parse_pd(args.pd))
    _check_prime(args.prime)
    table = count_augmentations(Run(pd).simplified, args.prime)
    entries = [{"lambda": l0, "mu": m0, "count": c}
               for (l0, m0), c in table.counts
               if args.lam0 in (None, l0) and args.mu0 in (None, m0)]
    return {"p": table.p, "table": entries,
            "total": sum(e["count"] for e in entries)}


def cmd_augpoly(args):
    return Run(parse_pd(args.pd)).augpoly.as_json_obj()


def cmd_apoly_check(args):
    pd = parse_pd(args.pd)
    try:
        apoly = parse_poly(args.apoly)
    except ValueError as exc:
        raise DiagramError("bad A-polynomial: %s" % exc)
    if not apoly:
        raise DiagramError("bad A-polynomial: zero polynomial")
    res = Run(pd).augpoly
    if not res.supported:
        raise ComputationError(
            "augmentation polynomial unsupported: %s" % "; ".join(res.warnings))
    return {"divides": check_apoly_divisibility(res.polynomial, apoly)}


def cmd_compare(args):
    """Where the two diagrams' counts first differ, prime by prime in the
    order given.  Counts are knot invariants, so kinks and clasps come off
    first, and diagrams that reduce to one crossing set need no count."""
    pd_a, pd_b = map(reduced, (parse_pd(args.pd_a), parse_pd(args.pd_b)))
    for p in args.primes:  # a prime past the bound exits 1 on any pair
        _check_prime(p)
    diff = None
    if sorted(pd_a.crossings) != sorted(pd_b.crossings):
        runs = Run(pd_a), Run(pd_b)
        for p in args.primes:  # nothing past the first prime that differs
            tables = [count_augmentations(run.simplified, p) for run in runs]
            if diff := first_difference(*tables):
                break
    return {"distinguished": diff is not None, "first_difference": diff}


def cmd_table(args):
    for p in args.primes:
        _check_prime(p)
    if args.file is None:
        entries = knots.bundled_table()
    else:
        try:
            entries = knots.load_table(args.file)
        except (OSError, UnicodeDecodeError) as exc:
            raise DiagramError("cannot read %s: %s" % (
                args.file, getattr(exc, "strerror", None) or exc))
    reports = []
    signatures = {}
    for name, code in entries:
        rep = {"name": name}
        try:
            run = Run(parse_pd(code))
            rep.update(_diagram_stats(run))
            rep.update(_check_report(run.dga)[0])
            rep["presentation"] = _presentation_report(run.simplified)
            sig = run.signature(args.primes)
            rep["signature"] = sig.as_json_obj()
            rep["augmentation_polynomial"] = run.augpoly.as_json_obj()
            signatures[name] = sig  # only a knot with no error is compared
        except (DiagramError, IntractableError) as exc:
            rep["error"] = str(exc)
        reports.append(rep)
    names = [r["name"] for r in reports]
    matrix = [[distinguish(signatures[a], signatures[b])
               if a in signatures and b in signatures else None
               for b in names] for a in names]
    return {"knots": reports, "distinguish_matrix": matrix}


_COMMANDS = {
    "parse": cmd_parse,
    "dga": cmd_dga,
    "hc0": cmd_hc0,
    "aug": cmd_aug,
    "augpoly": cmd_augpoly,
    "apoly-check": cmd_apoly_check,
    "compare": cmd_compare,
    "table": cmd_table,
}


def _emit_text(obj, indent=0, out=None):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                out.append("%s%s:" % (pad, k))
                _emit_text(v, indent + 1, out)
            else:
                out.append("%s%s: %s" % (pad, k, v))
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                out.append("%s-" % pad)
                _emit_text(v, indent + 1, out)
            else:
                out.append("%s- %s" % (pad, v))
    else:
        out.append("%s%s" % (pad, obj))


def main(argv=None):
    """Run one kch command on argv and return its exit status; usage
    errors and --help raise SystemExit.  Calls may share a process."""
    args = _PARSER.parse_args(argv)
    try:
        report = {"schema": SCHEMA, **_COMMANDS[args.command](args)}
    except DiagramError as exc:
        print("kch: %s" % exc, file=sys.stderr)
        return 2
    except (IntractableError, ComputationError) as exc:
        print("kch: %s" % exc, file=sys.stderr)
        return 1
    if args.output == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        lines = []
        _emit_text(report, out=lines)
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
