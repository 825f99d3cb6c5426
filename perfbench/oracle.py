"""Output checks for the benchmark, and the reference they compare against.

Every check takes the exit code and the captured stdout of one CLI call and
returns a list of problems; an empty list means the answer is right.  The
expected answers come from reference.json (augmentation counts of the
bundled knots at primes 2..13) and from the laws the counts obey, never
from running the code under test again.

    python3 perfbench/oracle.py --record   # rewrite reference.json

--record computes the reference with the package at hand and cross-checks
it against the mirror law, R2 invariance and the counts <-> zeros law of
supported augmentation polynomials; a law that fails is written into the
file and reported, not dropped.
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
REF_PRIMES = (2, 3, 5, 7, 11, 13)


class Reference(dict):
    """Knot name -> prime -> {(lambda, mu): count}, plus `nonrational`:
    knot name -> prime -> set of points exempt from the converse of the
    counts <-> zeros law (see record())."""


def load_reference(path=REFERENCE):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    ref = Reference({name: {int(p): {(l0, m0): c for l0, m0, c in rows}
                            for p, rows in tables.items()}
                     for name, tables in obj["knots"].items()})
    ref.nonrational = {name: {int(p): {tuple(pt) for pt in pts}
                              for p, pts in per.items()}
                       for name, per in obj["nonrational"].items()}
    return ref


def mirrored(tables):
    """Counts of the mirror knot: count_mK(l, m) = count_K(l^-1, m)."""
    return {p: {(pow(l0, -1, p), m0): c for (l0, m0), c in t.items()}
            for p, t in tables.items()}


def signature_rows(tables, primes):
    """The `tables` list of a signature JSON object, as the CLI prints it."""
    return [{"p": p, "table": [{"lambda": l0, "mu": m0, "count": c}
                               for (l0, m0), c in sorted(tables[p].items())]}
            for p in primes]


def first_difference(ta, tb, primes):
    for p in primes:
        for pt in sorted(ta[p]):
            if ta[p][pt] != tb[p][pt]:
                return {"p": p, "lambda": pt[0], "mu": pt[1],
                        "counts": [ta[p][pt], tb[p][pt]]}
    return None


# -- polynomials in the CLI's rendering grammar -------------------------

def eval_poly_mod(text, l0, m0, p):
    """Value of a rendered Laurent polynomial at (l0, m0) in Z_p.

    Terms are joined by " + " and " - "; a minus sign inside an exponent
    (m^-1) never has spaces around it."""
    parts = re.split(r" ([+-]) ", text.strip())
    total = 0
    for sign, term in zip(["+"] + parts[1::2], parts[0::2]):
        v = -1 if sign == "-" else 1
        if term.startswith("-"):
            v, term = -v, term[1:]
        for factor in term.split("*"):
            var, _, exp = factor.partition("^")
            if var in ("l", "m"):
                v *= pow(l0 if var == "l" else m0, int(exp or 1), p)
            else:
                v *= int(factor)
        total += v
    return total % p


# -- checks, one per workload -------------------------------------------

def _load(rc, out):
    if rc != 0:
        return None, ["exit code %r" % (rc,)]
    try:
        return json.loads(out), []
    except ValueError as exc:
        return None, ["stdout is not JSON: %s" % exc]


def check_table(rc, out, ref, bases, primes=(2, 3, 5, 7)):
    """`kch table`: every knot passes d^2/grading, its signature equals the
    reference of its base knot, supported augmentation polynomials vanish
    exactly where counts are nonzero, and the distinguish matrix agrees
    with the reference.  `bases` maps report names to bundled names."""
    rep, problems = _load(rc, out)
    if rep is None:
        return problems
    names = [k.get("name") for k in rep.get("knots", [])]
    if names != list(bases):
        return ["knots %r, expected %r" % (names, list(bases))]
    for k in rep["knots"]:
        name, base = k["name"], bases[k["name"]]
        if "error" in k:
            problems.append("%s: error %s" % (name, k["error"]))
            continue
        for gate in ("d_squared", "grading"):
            if k.get(gate) != "pass":
                problems.append("%s: %s %r" % (name, gate, k.get(gate)))
        want = {"primes": list(primes),
                "tables": signature_rows(ref[base], primes)}
        if k.get("signature") != want:
            problems.append("%s: signature differs from %s's reference"
                            % (name, base))
        aug = k.get("augmentation_polynomial") or {}
        if aug.get("supported"):
            exempt = ref.nonrational.get(base, {})
            for p in primes:
                for (l0, m0), c in ref[base][p].items():
                    zero = eval_poly_mod(aug["polynomial"], l0, m0, p) == 0
                    if zero != (c >= 1) and (l0, m0) not in exempt.get(p, ()):
                        problems.append(
                            "%s: count %d but polynomial %s at p=%d "
                            "(l,m)=(%d,%d)" % (name, c, "vanishes" if zero
                                               else "is nonzero", p, l0, m0))
    want_matrix = [[any(ref[bases[a]][p] != ref[bases[b]][p] for p in primes)
                    for b in names] for a in names]
    if rep.get("distinguish_matrix") != want_matrix:
        problems.append("distinguish matrix differs from the reference")
    return problems


def expected_compare(ref, kind, a, b, primes):
    """(distinguished, first_difference) that a compare must report."""
    ta = ref[a]
    tb = {"mirror": mirrored(ref[a]), "r2": ref[a], "cross": ref[b]}[kind]
    diff = first_difference(ta, tb, primes)
    return diff is not None, diff


def check_compare(rc, out, ref, kind, a, b, primes):
    rep, problems = _load(rc, out)
    if rep is None:
        return problems
    dist, diff = expected_compare(ref, kind, a, b, primes)
    if rep.get("distinguished") != dist:
        problems.append("distinguished %r, expected %r"
                        % (rep.get("distinguished"), dist))
    elif rep.get("first_difference") != diff:
        problems.append("first_difference %r, expected %r"
                        % (rep.get("first_difference"), diff))
    return problems


def check_dga(rc, out, n):
    rep, problems = _load(rc, out)
    if rep is None:
        return problems
    want = {"schema": 1, "n": n,
            "generators": {"degree_0": n * (n - 1), "degree_1": 2 * n * n,
                           "degree_2": n * n + n},
            "d_squared": "pass", "grading": "pass", "failures": []}
    return ["%s %r, expected %r" % (k, rep.get(k), v)
            for k, v in want.items() if rep.get(k) != v]


def check_parse(rc, out):
    """`kch parse` of the left-handed trefoil (the set-up probe)."""
    rep, problems = _load(rc, out)
    if rep is None:
        return problems
    if rep.get("n") != 3 or len(rep.get("arcs", ())) != 3:
        problems.append("parse report does not describe 3 crossings/arcs")
    return problems


# -- recording the reference --------------------------------------------

def _gcd_mod(a, b, p):
    """Gcd of two polynomials over Z_p, coefficient lists low to high."""
    def trim(f):
        while f and f[-1] % p == 0:
            f.pop()
        return f
    a, b = trim([x % p for x in a]), trim([x % p for x in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, shift = a[-1] * inv % p, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p
            trim(a)
        a, b = b, a
    return a


def _fiber_is_nonrational(pres, l0, m0, p):
    """True when the relations of a presentation with one generator x have
    a common factor over Z_p at (l0, m0) but no common root in Z_p: the
    augmentations there exist only over an extension field."""
    if len(pres.generators) != 1:
        return False
    g = []
    for rel in pres.relations:
        coeffs = {}
        for word, c in rel.terms.items():
            coeffs[len(word)] = coeffs.get(len(word), 0) \
                + c.evaluate_mod(l0, m0, p)
        g = _gcd_mod(g, [coeffs.get(k, 0)
                         for k in range(max(coeffs) + 1)], p)
    return len(g) > 1 and all(
        sum(c * pow(x, k, p) for k, c in enumerate(g)) % p
        for x in range(p))


def record(path=REFERENCE, r2_variants=3):
    """Compute the reference counts and cross-check the laws."""
    import random

    import gen
    from kch.augment import aug_signature
    from kch.augpoly import augmentation_polynomial
    from kch.diagram import PDCode, crossing_data
    from kch.hc0 import extract_presentation, simplify
    from kch.laurent import render

    def tables(pd):
        sig = aug_signature(PDCode(pd), list(REF_PRIMES))
        return {t.p: dict(t.counts) for t in sig.tables}

    knots, nonrational = {}, {}
    laws = {"mirror": {}, "r2": {}, "zeros": {}}
    for name, pd in gen.BASE_KNOTS.items():
        t = tables(pd)
        knots[name] = {str(p): [[l0, m0, c] for (l0, m0), c
                                in sorted(t[p].items())] for p in REF_PRIMES}
        diff = first_difference(mirrored(t), tables(gen.mirror(pd)),
                                REF_PRIMES)
        laws["mirror"][name] = "pass" if diff is None else diff
        rng = random.Random("reference:%s" % name)
        diffs = [first_difference(t, tables(gen.random_r2(pd, rng)),
                                  REF_PRIMES) for _ in range(r2_variants)]
        bad = [d for d in diffs if d is not None]
        laws["r2"][name] = "pass" if not bad else bad[0]

        pres = simplify(extract_presentation(crossing_data(PDCode(pd))))
        res = augmentation_polynomial(pres)
        if not res.supported:
            laws["zeros"][name] = "unsupported"
            continue
        poly, unexplained = render(res.polynomial), []
        for p in REF_PRIMES:
            for (l0, m0), c in sorted(t[p].items()):
                if (eval_poly_mod(poly, l0, m0, p) == 0) == (c >= 1):
                    continue
                if c == 0 and _fiber_is_nonrational(pres, l0, m0, p):
                    nonrational.setdefault(name, {}).setdefault(
                        str(p), []).append([l0, m0])
                else:
                    unexplained.append({"p": p, "lambda": l0, "mu": m0,
                                        "count": c})
        laws["zeros"][name] = unexplained[0] if unexplained else "pass"
    obj = {"primes": list(REF_PRIMES),
           "note": "augmentation counts of the bundled knots.  Laws: "
                   "mirror(K) and %d seeded R2 variants per knot have the "
                   "predicted counts; a supported augmentation polynomial "
                   "vanishes exactly where a count is nonzero, except at "
                   "the `nonrational` points, where the relations share a "
                   "factor over Z_p with no root in Z_p." % r2_variants,
           "laws": laws, "nonrational": nonrational, "knots": knots}
    text = json.dumps(obj, indent=1, sort_keys=True)
    # one [lambda, mu, count] row per line
    text = re.sub(r"\[\s+(\d+),\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2, \3]", text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return laws


def main(argv):
    if argv != ["--record"]:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(HERE)
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    laws = record()
    failed = [(law, name, res) for law, per in laws.items()
              for name, res in per.items() if res not in ("pass",
                                                          "unsupported")]
    for law, name, res in failed:
        print("law %s fails for %s: %s" % (law, name, res))
    print("wrote %s; %d law failures" % (REFERENCE, len(failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
