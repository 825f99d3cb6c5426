"""End-to-end acceptance checks.

Each test covers one gate on the toolkit and emits a single pass/fail
line on stdout (visible with pytest -s, and in the captured output of a
failing run).  Runtime limits are asserted alongside correctness.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

from helpers import bundled_knot, nc_unit_normalize, sparse, sylvester_matrix

from kch.augment import (aug_signature, count_augmentations, distinguish,
                         first_difference)
from kch.augpoly import augmentation_polynomial, check_apoly_divisibility
from kch.dga import build_dga, check_d_squared, check_grading
from kch.diagram import apply_move, available_moves, crossing_data, parse_pd, renumber
from kch.hc0 import extract_presentation, simplify
from kch.knots import bundled_table
from kch.laurent import (LaurentPoly, UniPoly, parse_poly, resultant,
                         unit_normalize)
from kch.ncalg import Generator, NCPoly

ONE = LaurentPoly.const(1)
L = LaurentPoly.lam
M = LaurentPoly.mu

ALL_KNOTS = [name for name, _ in bundled_table()]


def _report(label, ok, elapsed, limit):
    line = "%s: %s (%.2fs, limit %ds)" % (label, "PASS" if ok else "FAIL",
                                          elapsed, limit)
    print(line)
    assert ok, line
    assert elapsed < limit, line


def _simplified(name):
    return simplify(extract_presentation(crossing_data(bundled_knot(name))))


def test_01_trefoil_matrices():
    t0 = time.time()

    def a(i, j, c=1):
        return NCPoly.gen(Generator("a", i, j), LaurentPoly.const(c))

    def s(p):
        return NCPoly.scalar(p)

    dga = build_dga(crossing_data(bundled_knot("trefoil_lh")))
    ok = (dga.psi_l == sparse([
        [a(2, 1, -1), s(M()), s(L())],
        [s(ONE), a(3, 2, -1), s(M())],
        [s(M()), s(ONE), a(1, 3, -1)]])
        and dga.psi_r == sparse(zip(*[  # columns
            [a(1, 2, -1), s(M()), s(ONE)],
            [s(ONE), a(2, 3, -1), s(M())],
            [s(L(-1) * M()), s(ONE), a(3, 1, -1)]]))
        and dga.a == [
            [s(1 + M()), a(1, 2), a(1, 3)],
            [a(2, 1), s(1 + M()), a(2, 3)],
            [a(3, 1), a(3, 2), s(1 + M())]])
    _report("acceptance 01 trefoil matrices", ok, time.time() - t0, 1)


def test_02_dga_self_consistency():
    t0 = time.time()
    ok = True
    for name in ALL_KNOTS:
        dga = build_dga(crossing_data(bundled_knot(name)))
        ok = ok and not check_d_squared(dga) and not check_grading(dga)
    rng = random.Random(20240824)
    for _ in range(50):
        pd = bundled_knot(rng.choice(ALL_KNOTS))
        while True:
            adds = [m for m in available_moves(pd)
                    if m["move"] in ("r1_add", "r2_add")]
            nxt = apply_move(pd, rng.choice(adds))
            if nxt.n > 9:
                break
            pd = nxt
            if pd.n >= 9 or rng.random() < 0.3:
                break
        dga = build_dga(crossing_data(pd))
        ok = ok and not check_d_squared(dga) and not check_grading(dga)
    _report("acceptance 02 dga self-consistency", ok, time.time() - t0, 60)


def test_03_trefoil_cord_algebra():
    t0 = time.time()
    cd = crossing_data(bundled_knot("trefoil_lh"))
    full = extract_presentation(cd)
    pres = simplify(full)
    ok = len(pres.generators) == 1 and len(pres.relations) == 2
    if ok:
        x = pres.generators[0]
        lam, mu = L(), M()
        expected = {
            nc_unit_normalize(NCPoly.gen(x, lam) * NCPoly.gen(x)
                              - NCPoly.gen(x, lam)
                              - NCPoly.scalar(mu * mu + mu)),
            nc_unit_normalize(NCPoly.gen(x, lam) * NCPoly.gen(x)
                              - NCPoly.gen(x, mu)
                              - NCPoly.scalar(mu + 1)),
        }
        ok = {nc_unit_normalize(r) for r in pres.relations} == expected
    for p in (2, 3, 5):
        ok = ok and (count_augmentations(full, p).counts
                     == count_augmentations(pres, p).counts)
    _report("acceptance 03 trefoil cord algebra", ok, time.time() - t0, 10)


def test_04_augmentation_polynomials():
    t0 = time.time()
    expected = {
        "unknot": (L() - 1) * (M() + 1),
        "trefoil_lh": (L() - 1) * (M() + 1) * (L() - M(3)),
        "trefoil_rh": (L() - 1) * (M() + 1) * (ONE - L() * M(3)),
    }
    ok = True
    for name, poly in expected.items():
        res = augmentation_polynomial(_simplified(name))
        ok = ok and res.supported \
            and res.polynomial == unit_normalize(poly)
    _report("acceptance 04 augmentation polynomials", ok, time.time() - t0, 5)


def test_05_counts_match_polynomial_zeros():
    t0 = time.time()
    ok = True
    for name in ["unknot", "trefoil_lh", "trefoil_rh"]:
        pres = _simplified(name)
        poly = augmentation_polynomial(pres).polynomial
        for p in (2, 3, 5, 7):
            for (l0, m0), count in count_augmentations(pres, p).counts:
                vanishes = poly.evaluate_mod(l0, m0, p) == 0
                ok = ok and ((count >= 1) == vanishes)
    _report("acceptance 05 counts match polynomial zeros", ok,
            time.time() - t0, 30)


def test_06_mirror_distinction():
    t0 = time.time()
    primes = [2, 3, 5, 7]
    sig_lh = aug_signature(bundled_knot("trefoil_lh"), primes)
    sig_rh = aug_signature(bundled_knot("trefoil_rh"), primes)
    _report("acceptance 06 mirror distinction",
            distinguish(sig_lh, sig_rh), time.time() - t0, 10)


def _first_difference(s1, s2):
    """The first differing entry of two signatures, in prime order."""
    return next(filter(None, map(first_difference, s1.tables, s2.tables)),
                None)


def _find_r3_site(pd, depth=2):
    """Deterministic search for a perturbed diagram with a triangle move."""
    queue = [pd]
    for _ in range(depth):
        nxt = []
        for cur in queue:
            for mv in available_moves(cur):
                if mv["move"] == "r3":
                    return cur, mv
                if mv["move"] in ("r1_add", "r2_add") and cur.n < 9:
                    nxt.append(apply_move(cur, mv))
        queue = nxt[:40]
    return None, None


def test_07_diagram_invariance():
    t0 = time.time()
    primes = [2, 3]
    failures = []
    for name in ALL_KNOTS:
        pd = bundled_knot(name)
        base = aug_signature(pd, primes)

        def check(tag, other_pd):
            sig = aug_signature(other_pd, primes)
            if distinguish(base, sig):
                failures.append("%s %s: %s" % (name, tag,
                                               _first_difference(base, sig)))

        # crossing renumbering and basepoint change
        perm = list(range(pd.n))
        perm = perm[1:] + perm[:1]
        check("renumber", renumber(pd, perm, 1))
        check("basepoint", renumber(pd, list(range(pd.n)),
                                    min(3, 2 * pd.n)))
        # R2 at the first and last two listed sites, chirality from the face
        r2s = [m for m in available_moves(pd) if m["move"] == "r2_add"]
        for mv in r2s[:2] + r2s[-2:]:
            check("r2 %s" % mv, apply_move(pd, mv))
        # R3 on a deterministically perturbed diagram
        host, mv = _find_r3_site(pd)
        if host is None:
            failures.append("%s: no R3 site found" % name)
        else:
            host_base = aug_signature(host, primes)
            sig = aug_signature(apply_move(host, mv), primes)
            if distinguish(host_base, sig):
                failures.append("%s r3 %s: %s"
                                % (name, mv,
                                   _first_difference(host_base, sig)))
        # R1: recorded, and a failure here names the framing convention
        for sign in (1, -1):
            sig = aug_signature(apply_move(
                pd, {"move": "r1_add", "edge": 1, "sign": sign}), primes)
            if distinguish(base, sig):
                failures.append(
                    "%s r1 sign=%+d changed the signature: %s -- kink "
                    "framing convention (longitude correction at crossing "
                    "1) needs review" % (name, sign,
                                         _first_difference(base, sig)))
    for f in failures:
        print("invariance failure: %s" % f)
    _report("acceptance 07 diagram invariance", not failures,
            time.time() - t0, 120)


def test_08_divisibility_identities():
    t0 = time.time()
    rh = (L() - 1) * (M() + 1) * (ONE - L() * M(3))
    ok = check_apoly_divisibility(rh, parse_poly("1 + l*m^6"))
    torus34 = (ONE - L() * M(4)) * (ONE + M()) * (ONE + L() * M(6))
    ok = ok and check_apoly_divisibility(torus34, parse_poly("1 + l*m^12"))
    ok = ok and not check_apoly_divisibility(rh, parse_poly("1 + l*m^4"))
    _report("acceptance 08 divisibility identities", ok, time.time() - t0, 1)


def test_09_oracle_suites():
    t0 = time.time()
    ok = True
    # resultants against a permutation-expansion determinant
    rng = random.Random(99)

    def det_naive(matrix):
        n = len(matrix)
        total = LaurentPoly.zero()
        for perm in itertools.permutations(range(n)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n)
                      if perm[i] > perm[j])
            prod = LaurentPoly.const(-1 if inv % 2 else 1)
            for i in range(n):
                prod = prod * matrix[i][perm[i]]
            total = total + prod
        return total

    def rand_coeff():
        return LaurentPoly({(rng.randint(-1, 1), rng.randint(-1, 1)):
                            rng.randint(-2, 2)
                            for _ in range(rng.randint(0, 2))})

    checked = 0
    while checked < 100:
        p = UniPoly([rand_coeff() for _ in range(rng.randint(2, 4))])
        q = UniPoly([rand_coeff() for _ in range(rng.randint(2, 4))])
        if not p or not q or p.degree + q.degree == 0:
            continue
        ok = ok and resultant(p, q) == det_naive(sylvester_matrix(p, q))
        checked += 1

    # pruned search against exhaustive enumeration
    for name in ALL_KNOTS:
        pres = _simplified(name)
        variables, relations = pres.commutative
        for p in (2, 3):
            pruned = dict(count_augmentations(pres, p).counts)
            for l0 in range(1, p):
                for m0 in range(1, p):
                    evaled = [[(mono, c.evaluate_mod(l0, m0, p))
                               for mono, c in rel] for rel in relations]
                    total = 0
                    for asg in itertools.product(range(p),
                                                 repeat=len(variables)):
                        good = True
                        for rel in evaled:
                            acc = 0
                            for mono, c in rel:
                                v = c
                                for var in mono:
                                    v = v * asg[var] % p
                                acc = (acc + v) % p
                            if acc:
                                good = False
                                break
                        if good:
                            total += 1
                    ok = ok and pruned[(l0, m0)] == total
    _report("acceptance 09 oracle suites", ok, time.time() - t0, 60)


def test_10_determinism():
    t0 = time.time()

    # simplify buckets relations by their frozenset word sets, so the
    # report must not depend on the string-hash seed
    def run(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        return subprocess.run([sys.executable, "-m", "kch.cli", "table"],
                              capture_output=True, env=env,
                              check=True).stdout

    first = run(0)
    ok = run(1) == first and run(4242) == first
    ok = ok and json.loads(first)["schema"] == 1
    _report("acceptance 10 determinism", ok, time.time() - t0, 120)
