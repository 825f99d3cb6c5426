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
from .augment import (DEFAULT_MAX_GENERATORS, DEFAULT_MAX_PRIME,
                      IntractableError, _is_prime, aug_signature,
                      count_augmentations, distinguish, first_difference,
                      presentation_signature)
from .augpoly import augmentation_polynomial, check_apoly_divisibility
from .dga import build_dga, check_d_squared, check_grading
from .diagram import DiagramError, crossing_data, parse_pd
from .hc0 import extract_presentation, simplify
from .laurent import parse_poly, render

SCHEMA = 1


class ComputationError(RuntimeError):
    pass


def _parse_prime(text):
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("bad prime %r" % text)
    if not _is_prime(p):
        raise argparse.ArgumentTypeError("%d is not prime" % p)
    return p


def _parse_primes(text):
    primes = [_parse_prime(x) for x in text.split(",") if x.strip()]
    if not primes:
        raise argparse.ArgumentTypeError("empty prime list")
    return primes


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
    p.add_argument("--lambda", dest="lam0", type=int, default=None)
    p.add_argument("--mu", dest="mu0", type=int, default=None)
    p.add_argument("--max-generators", type=int,
                   default=DEFAULT_MAX_GENERATORS)
    p.add_argument("--max-prime", type=int, default=DEFAULT_MAX_PRIME)

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
    p.add_argument("--primes", type=_parse_primes, default=[2, 3, 5, 7])

    p = sub.add_parser("table", help="batch run over a knot-table file")
    p.add_argument("file", nargs="?", default=None,
                   help="knot table path (default: bundled table)")
    p.add_argument("--primes", type=_parse_primes, default=[2, 3, 5, 7])
    p.add_argument("--max-generators", type=int,
                   default=DEFAULT_MAX_GENERATORS)
    return ap


# -- report builders --------------------------------------------------


def _diagram_stats(pd, cd):
    return {
        "n": pd.n,
        "arcs": [list(run) for run in pd.arcs()],
        "crossings": [
            {"o": cd.o[k], "l": cd.l[k], "r": cd.r[k], "eps": cd.eps[k]}
            for k in range(cd.n)
        ],
        "degenerate": cd.degenerate,
    }


def cmd_parse(args):
    pd = parse_pd(args.pd)
    return {"schema": SCHEMA, **_diagram_stats(pd, crossing_data(pd))}


def cmd_dga(args):
    pd = parse_pd(args.pd)
    dga = build_dga(crossing_data(pd))
    rep = {
        "schema": SCHEMA,
        "n": dga.n,
        "generators": {"degree_%d" % k: v
                       for k, v in sorted(dga.generator_counts().items())},
    }
    if args.check:
        d2 = check_d_squared(dga)
        gr = check_grading(dga)
        rep["d_squared"] = "pass" if d2["pass"] else "fail"
        rep["grading"] = "pass" if gr["pass"] else "fail"
        rep["failures"] = d2["failures"] + gr["failures"]
    return rep


def cmd_hc0(args):
    pd = parse_pd(args.pd)
    pres = extract_presentation(crossing_data(pd))
    total = len(pres.generators)
    if not args.no_simplify:
        pres = simplify(pres)
    return {
        "schema": SCHEMA,
        "generators": [g.name() for g in pres.generators],
        "relations": [str(r) for r in pres.relations],
        "eliminated": total - len(pres.generators),
    }


def cmd_aug(args):
    pd = parse_pd(args.pd)
    pres = simplify(extract_presentation(crossing_data(pd)))
    table = count_augmentations(pres, args.prime,
                                max_prime=args.max_prime,
                                max_generators=args.max_generators)
    entries = [{"lambda": l0, "mu": m0, "count": c}
               for (l0, m0), c in table.counts]
    if args.lam0 is not None or args.mu0 is not None:
        entries = [e for e in entries
                   if (args.lam0 is None or e["lambda"] == args.lam0)
                   and (args.mu0 is None or e["mu"] == args.mu0)]
    return {"schema": SCHEMA, "p": table.p, "table": entries,
            "total": sum(e["count"] for e in entries)}


def _augpoly_report(pd):
    pres = simplify(extract_presentation(crossing_data(pd)))
    res = augmentation_polynomial(pres)
    return res, {"schema": SCHEMA, **res.as_json_obj()}


def cmd_augpoly(args):
    _, rep = _augpoly_report(parse_pd(args.pd))
    return rep


def cmd_apoly_check(args):
    pd = parse_pd(args.pd)
    try:
        apoly = parse_poly(args.apoly)
    except ValueError as exc:
        raise DiagramError("bad A-polynomial: %s" % exc)
    res, _ = _augpoly_report(pd)
    if not res.supported:
        raise ComputationError(
            "augmentation polynomial unsupported: %s" % "; ".join(res.warnings))
    return {"schema": SCHEMA,
            "divides": check_apoly_divisibility(res.polynomial, apoly)}


def cmd_compare(args):
    pd_a = parse_pd(args.pd_a)
    pd_b = parse_pd(args.pd_b)
    sig_a = aug_signature(pd_a, args.primes)
    sig_b = aug_signature(pd_b, args.primes)
    diff = first_difference(sig_a, sig_b)
    return {"schema": SCHEMA,
            "distinguished": distinguish(sig_a, sig_b),
            "first_difference": diff}


def cmd_table(args):
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
            pd = parse_pd(code)
            cd = crossing_data(pd)
            rep.update(_diagram_stats(pd, cd))
            dga = build_dga(cd)
            rep["d_squared"] = "pass" if check_d_squared(dga)["pass"] \
                else "fail"
            rep["grading"] = "pass" if check_grading(dga)["pass"] else "fail"
            pres = simplify(extract_presentation(cd))
            rep["presentation"] = {
                "generators": [g.name() for g in pres.generators],
                "relations": [str(r) for r in pres.relations],
            }
            sig = presentation_signature(pres, args.primes,
                                         max_generators=args.max_generators)
            rep["signature"] = sig.as_json_obj()
            signatures[name] = sig
            rep["augmentation_polynomial"] = \
                augmentation_polynomial(pres).as_json_obj()
        except (DiagramError, IntractableError, ValueError) as exc:
            rep["error"] = str(exc)
        reports.append(rep)
    names = [r["name"] for r in reports]
    matrix = []
    for a in names:
        row = []
        for b in names:
            if a not in signatures or b not in signatures:
                row.append(None)
            else:
                row.append(distinguish(signatures[a], signatures[b]))
        matrix.append(row)
    return {"schema": SCHEMA, "knots": reports,
            "distinguish_matrix": matrix}


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
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
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
