"""Seeded input generator for the benchmark.

Usage: python3 perfbench/gen.py --seed N --out DIR

Writes one input file per workload into DIR (see README.md for why each
workload exists).  The same seed always gives byte-identical files.

The Reidemeister moves and the mirror are implemented here on plain PD
tuples instead of being taken from ``kch.diagram``, so that a later change
to the package's move code cannot change the diagrams a benchmark run
measures.  At the commit that introduced the benchmark they agree with
``kch.diagram`` move for move (checked by selftest.py).
"""

from __future__ import annotations

import argparse
import json
import os
import random

# The bundled table of the package, frozen here so that the generated
# families do not move if the bundled table is edited.
BASE_KNOTS = {
    "unknot": [(1, 1, 2, 2)],
    "trefoil_lh": [(3, 6, 4, 1), (5, 2, 6, 3), (1, 4, 2, 5)],
    "trefoil_rh": [(6, 4, 1, 3), (2, 6, 3, 5), (4, 2, 5, 1)],
    "figure8": [(4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)],
    "5_1": [(2, 8, 3, 7), (4, 10, 5, 9), (6, 2, 7, 1), (8, 4, 9, 3),
            (10, 6, 1, 5)],
    "5_2": [(1, 4, 2, 5), (3, 8, 4, 9), (5, 10, 6, 1), (9, 6, 10, 7),
            (7, 2, 8, 3)],
    "6_1": [(1, 4, 2, 5), (7, 10, 8, 11), (3, 9, 4, 8), (9, 3, 10, 2),
            (5, 12, 6, 1), (11, 6, 12, 7)],
}

# r2_family: the crossing counts each base knot is inflated to.
# Simplify time grows steeply with n (about 2.7 s at n=10 and 6.7 s at
# n=12 on one core) and has outliers of several seconds even at n=8, so
# the sizes stop where a pass over the family stays within a few seconds.
R2_FAMILY = {"figure8": (6, 8, 10), "trefoil_lh": (9,), "5_2": (7,)}

# compare_p13: the primes of every op and the number of cross-knot pairs.
COMPARE_PRIMES = "2,3,5,7,11,13"
COMPARE_CROSS_PAIRS = 3

# dga_check_large: crossing counts, and how many of the added crossings
# are R1 kinks (the rest come in R2 pairs).
DGA_SIZES = tuple(range(16, 33, 2))
DGA_KINKS = 4


DEFAULT_SEED = 1  # the family checked in under inputs/


# -- PD codes on plain tuples ------------------------------------------

def _succ(pd, e):
    return e % (2 * len(pd)) + 1


def _over_in_slot(pd, ci):
    a, b, c, d = pd[ci]
    fwd = _succ(pd, b) == d
    bwd = _succ(pd, d) == b
    if fwd and bwd:
        return 1 if b == c else 3
    return 1 if fwd else 3


def _is_head(pd, ci, pos):
    if pos == 0:
        return True
    if pos == 2:
        return False
    return pos == _over_in_slot(pd, ci)


def faces(pd):
    """Face orbits as lists of (crossing, position) darts."""
    ends = {}
    for ci, cr in enumerate(pd):
        for pos, x in enumerate(cr):
            ends.setdefault(x, []).append((ci, pos))

    def step(t):
        d1, d2 = ends[pd[t[0]][t[1]]]
        ci, pos = d2 if t == d1 else d1
        return (ci, (pos + 1) % 4)

    seen = set()
    out = []
    for t0 in ((ci, pos) for ci in range(len(pd)) for pos in range(4)):
        if t0 in seen:
            continue
        orbit = []
        t = t0
        while t not in seen:
            seen.add(t)
            orbit.append(t)
            t = step(t)
        out.append(orbit)
    return out


def _split_edges(pd, edges):
    es = sorted(set(edges))
    out = []
    for ci, cr in enumerate(pd):
        row = []
        for pos, x in enumerate(cr):
            y = x + 2 * sum(1 for e in es if e < x)
            if x in es and _is_head(pd, ci, pos):
                y += 2
            row.append(y)
        out.append(tuple(row))
    return out


def r1_add(pd, edge, sign):
    """Add a kink on `edge`; the strand passes under first."""
    out = _split_edges(pd, [edge])
    e = edge
    out.append((e, e + 2, e + 1, e + 1) if sign == 1
               else (e, e + 1, e + 1, e + 2))
    return out


def r2_add(pd, over, under, chirality):
    """Push edge `over` across a face it shares with `under`, over it."""
    for face in faces(pd):
        labels = [pd[ci][pos] for ci, pos in face]
        if over in labels and under in labels:
            s_f = 1 if _is_head(pd, *face[labels.index(under)]) else -1
            break
    else:
        raise ValueError("edges %d and %d share no face" % (over, under))
    E = over + 2 * (under < over)
    F = under + 2 * (over < under)
    out = _split_edges(pd, [over, under])
    table = {
        (1, 1): ((F, E + 1, F + 1, E), (F + 1, E + 1, F + 2, E + 2)),
        (1, -1): ((F + 1, E + 1, F + 2, E), (F, E + 1, F + 1, E + 2)),
        (-1, 1): ((F, E, F + 1, E + 1), (F + 1, E + 2, F + 2, E + 1)),
        (-1, -1): ((F + 1, E, F + 2, E + 1), (F, E + 2, F + 1, E + 1)),
    }
    out.extend(table[(s_f, chirality)])
    return out


def mirror(pd):
    """Exchange over and under strands at every crossing."""
    return [(d, a, b, c) if _over_in_slot(pd, ci) == 3 else (b, c, d, a)
            for ci, (a, b, c, d) in enumerate(pd)]


def to_text(pd):
    return "PD[%s]" % ",".join("X[%d,%d,%d,%d]" % c for c in pd)


# -- seeded moves -------------------------------------------------------

def random_r2(pd, rng):
    """One R2 move on a random face, random edge pair and chirality."""
    sides = [sorted({pd[ci][pos] for ci, pos in face}) for face in faces(pd)]
    over, under = rng.sample(rng.choice([s for s in sides if len(s) > 1]), 2)
    return r2_add(pd, over, under, rng.choice((1, -1)))


def random_r1(pd, rng):
    return r1_add(pd, rng.randint(1, 2 * len(pd)), rng.choice((1, -1)))


def inflate(pd, target_n, rng, kinks=0):
    """Add `kinks` R1 moves, then R2 moves until the diagram has
    `target_n` crossings (target_n - n - kinks must be even)."""
    for _ in range(kinks):
        pd = random_r1(pd, rng)
    if (target_n - len(pd)) % 2:
        raise ValueError("R2 moves add crossings in pairs")
    while len(pd) < target_n:
        pd = random_r2(pd, rng)
    return pd


# -- the four workloads -------------------------------------------------

def r2_family(seed):
    """(name, base, PD) rows, one per (base, n) of R2_FAMILY."""
    rows = []
    for base, sizes in R2_FAMILY.items():
        for n in sizes:
            name = "%s.n%d" % (base, n)
            rng = random.Random("r2_family:%d:%s" % (seed, name))
            rows.append((name, base, inflate(BASE_KNOTS[base], n, rng)))
    return rows


def compare_pairs(seed):
    """(label, kind, name_a, pd_a, name_b, pd_b) rows.

    kind is "mirror" (b is the mirror of a), "r2" (b is a with one R2
    move) or "cross" (two different bundled knots)."""
    rng = random.Random("compare_p13:%d" % seed)
    names = list(BASE_KNOTS)
    rows = []
    for name in names:
        pd = BASE_KNOTS[name]
        rows.append(("%s~mirror" % name, "mirror", name, pd,
                     name, mirror(pd)))
    for name in names:
        pd = BASE_KNOTS[name]
        rows.append(("%s~r2" % name, "r2", name, pd,
                     name, random_r2(pd, rng)))
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    for a, b in rng.sample(pairs, COMPARE_CROSS_PAIRS):
        rows.append(("%s~%s" % (a, b), "cross", a, BASE_KNOTS[a],
                     b, BASE_KNOTS[b]))
    return rows


def dga_large(seed):
    """(name, PD) rows inflated by R1 kinks and R2 moves."""
    rng = random.Random("dga_check_large:%d" % seed)
    rows = []
    for n in DGA_SIZES:
        base = rng.choice(sorted(BASE_KNOTS))
        pd0 = BASE_KNOTS[base]
        kinks = DGA_KINKS + (n - len(pd0) - DGA_KINKS) % 2
        rows.append(("%s.n%d" % (base, n), inflate(pd0, n, rng, kinks)))
    return rows


def write_inputs(seed, out):
    """Write the input files of every workload into directory `out`."""
    os.makedirs(os.path.join(out, "r2_family"), exist_ok=True)
    header = "# generated by perfbench/gen.py --seed %d\n" % seed

    def put(fname, text):
        with open(os.path.join(out, fname), "w", encoding="utf-8") as fh:
            fh.write(text)

    rows = []
    for k, (name, base, pd) in enumerate(r2_family(seed)):
        fname = "r2_family/%02d_%s.txt" % (k, name)
        put(fname, "%s%s: %s\n" % (header, name, to_text(pd)))
        rows.append(json.dumps({"label": name, "base": base, "n": len(pd),
                                "file": fname}) + "\n")
    put("r2_family.jsonl", "".join(rows))
    put("compare_p13.jsonl", "".join(
        json.dumps({"label": label, "kind": kind, "a": a, "b": b,
                    "argv": ["compare", "--pd-a", to_text(pa),
                             "--pd-b", to_text(pb),
                             "--primes", COMPARE_PRIMES]}) + "\n"
        for label, kind, a, pa, b, pb in compare_pairs(seed)))
    put("dga_check_large.jsonl", "".join(
        json.dumps({"label": name, "n": len(pd),
                    "argv": ["dga", "--check", "--pd", to_text(pd)]}) + "\n"
        for name, pd in dga_large(seed)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    write_inputs(args.seed, args.out)


if __name__ == "__main__":
    main()
