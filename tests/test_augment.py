"""Tests for augmentation counting over prime fields."""

import gc
import itertools
import random

import pytest

import kch.augment
from kch.augment import (AugTable, IntractableError, aug_signature,
                         count_augmentations, distinguish, first_difference)
from kch.augpoly import augmentation_polynomial
from kch.diagram import apply_move, available_moves, crossing_data, mirror
from kch.hc0 import Presentation, extract_presentation, simplify
from kch.knots import bundled_knot, bundled_table
from kch.laurent import LaurentPoly
from kch.ncalg import Generator, NCPoly

L = LaurentPoly.lam
M = LaurentPoly.mu


def _simplified(name):
    return simplify(extract_presentation(crossing_data(bundled_knot(name))))


def _count_exhaustive(pres, p):
    """Brute-force reference counter: no pruning, no variable ordering."""
    variables, relations = pres.commutative
    nvars = len(variables)
    counts = []
    for l0 in range(1, p):
        for m0 in range(1, p):
            evaled = [[(mono, coeff.evaluate_mod(l0, m0, p))
                       for mono, coeff in rel] for rel in relations]
            total = 0
            for assignment in itertools.product(range(p), repeat=nvars):
                ok = True
                for rel in evaled:
                    acc = 0
                    for mono, c in rel:
                        v = c
                        for var in mono:
                            v = v * assignment[var] % p
                        acc = (acc + v) % p
                    if acc:
                        ok = False
                        break
                if ok:
                    total += 1
            counts.append(((l0, m0), total))
    return AugTable(p=p, counts=tuple(counts))


def _count_point(relations, nvars, lam0, mu0, p):
    """The counting loop before coefficient tables and a static plan: per
    point, evaluate every coefficient, order the variables and recurse over
    all p values of each one, testing each relation from scratch."""
    evaled = []
    for rel in relations:
        terms = []
        for mono, coeff in rel:
            c = coeff.evaluate_mod(lam0, mu0, p)
            if c:
                terms.append((mono, c))
        if not terms:
            continue  # relation vanishes identically at this point
        evaled.append(terms)

    if not evaled:
        return p ** nvars

    # order variables by frequency across relations (ties by index)
    freq = [0] * nvars
    for terms in evaled:
        seen = set()
        for mono, _ in terms:
            seen.update(mono)
        for v in seen:
            freq[v] += 1
    order = sorted(range(nvars), key=lambda v: (-freq[v], v))
    rank = {v: k for k, v in enumerate(order)}

    # relation becomes checkable once its deepest variable is assigned
    by_depth = [[] for _ in range(nvars + 1)]
    for terms in evaled:
        vs = {v for mono, _ in terms for v in mono}
        depth = max((rank[v] + 1 for v in vs), default=0)
        by_depth[depth].append(terms)

    if any(sum(c for _, c in terms) % p for terms in by_depth[0]):
        return 0

    assignment = [0] * nvars

    def value(terms):
        total = 0
        for mono, c in terms:
            v = c
            for var in mono:
                v = v * assignment[var] % p
            total = (total + v) % p
        return total

    def recurse(depth):
        if depth == nvars:
            return 1
        var = order[depth]
        count = 0
        for x in range(p):
            assignment[var] = x
            if all(value(t) == 0 for t in by_depth[depth + 1]):
                count += recurse(depth + 1)
        return count

    return recurse(0)


def _count_by_points(pres, p):
    """Reference counter: the per-point loop of _count_point."""
    variables, relations = pres.commutative
    points = [(l0, m0) for l0 in range(1, p) for m0 in range(1, p)]
    return AugTable(p=p, counts=tuple(
        (pt, _count_point(relations, len(variables), *pt, p))
        for pt in points))


def _inflated(name, n, seed):
    """A bundled knot grown to n crossings by seeded R2 moves."""
    rng = random.Random(seed)
    pd = bundled_knot(name)
    while pd.n < n:
        pd = apply_move(pd, rng.choice(
            [m for m in available_moves(pd) if m["move"] == "r2_add"]))
    return pd


def _hand_built(nvars, relations):
    """Presentation on nvars generators whose relations are given
    commutatively, as {monomial (tuple of generator indices): coefficient}."""
    gens = [Generator("a", 1, k + 2) for k in range(nvars)]
    return Presentation(generators=gens, relations=[
        NCPoly({tuple(gens[v] for v in mono): LaurentPoly.const(c)
                if isinstance(c, int) else c
                for mono, c in rel.items()}) for rel in relations])


def _assert_counts_agree(pres, p):
    got = count_augmentations(pres, p)
    assert got == _count_exhaustive(pres, p), p
    assert got == _count_by_points(pres, p), p
    return got.as_dict()


# Each case exercises one step of the compiled counter; expected(l0, m0, p)
# is worked out by hand (or by pow) independently of it.
EDGE_CASES = {
    # a relation with no variables decides the count at its point
    "nonzero constant": (1, [{(): 3}, {(0,): 1}],
                         lambda l0, m0, p: int(p == 3)),
    "constant vanishing at m = 1": (1, [{(): M() - 1}],
                                    lambda l0, m0, p: p if m0 == 1 else 0),
    # (1 - m) x: every x at m0 = 1, only x = 0 elsewhere
    "coefficient vanishing at some points": (
        1, [{(0,): 1 - M()}], lambda l0, m0, p: p if m0 == 1 else 1),
    # y occurs in no relation: a factor of p
    "generator in no relation": (2, [{(0,): 1, (): -1}],
                                 lambda l0, m0, p: p),
    # exponents beyond p - 1, and negative ones, reduce mod p - 1
    "large and negative exponents": (
        0, [{(): L(-7) * M(9) - L(13) * M(-2)}],
        lambda l0, m0, p: int(pow(l0, -7, p) * pow(m0, 9, p) % p
                              == pow(l0, 13, p) * pow(m0, -2, p) % p)),
    # x^5 = l^-6 m^4: x is a fifth root of the unit l0^-6 m0^4
    "large power of a variable": (
        1, [{(0, 0, 0, 0, 0): 1, (): -(L(-6) * M(4))}],
        lambda l0, m0, p: sum(
            pow(x, 5, p) == pow(l0, -6, p) * pow(m0, 4, p) % p
            for x in range(p))),
    # 7 x = 12 - 5 l: coefficients >= p and < 0 reduce mod p
    "large and negative coefficients": (
        1, [{(0,): 7, (): L() * 5 - 12}],
        lambda l0, m0, p: sum((7 * x - 12 + 5 * l0) % p == 0
                              for x in range(p))),
    "no variables, no relations": (0, [], lambda l0, m0, p: 1),
    "no variables, l = m": (0, [{(): L() - M()}],
                            lambda l0, m0, p: int(l0 == m0)),
    # x = y and x y z = l: x nonzero, z = l / x^2
    "three variables": (3, [{(0,): 1, (1,): -1}, {(0, 1, 2): 1, (): -L()}],
                        lambda l0, m0, p: p - 1),
}


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_kernel_edge_cases(case):
    nvars, relations, expected = EDGE_CASES[case]
    pres = _hand_built(nvars, relations)
    for p in (2, 3, 5, 7):
        counts = _assert_counts_agree(pres, p)
        assert counts == {(l0, m0): expected(l0, m0, p)
                          for l0 in range(1, p) for m0 in range(1, p)}, p


def test_chunked_reduction_at_p61():
    # at p = 61 a byte holds the sum of only 4 residues, so sums of more
    # terms are reduced mod p on the way
    cases = [_simplified(name) for name, _ in bundled_table()]
    cases = [pres for pres in cases if len(pres.generators) <= 1]
    assert len(cases) >= 4
    # 3 + 2 x - 5 l x^2 + l m x^3 - 7 m^2 x^4 - x^5 + 11 l^-3 x^6
    cases.append(_hand_built(1, [{(): 3, (0,): 2, (0, 0): -5 * L(),
                                  (0,) * 3: L() * M(), (0,) * 4: -7 * M(2),
                                  (0,) * 5: -1, (0,) * 6: 11 * L(-3)}]))
    for pres in cases:
        assert count_augmentations(pres, 61) == _count_by_points(pres, 61)


def test_unknot_table_p3():
    table = count_augmentations(_simplified("unknot"), 3)
    assert table.as_dict() == {(1, 1): 1, (1, 2): 1, (2, 1): 0, (2, 2): 1}


def test_trefoil_table_p2():
    table = count_augmentations(_simplified("trefoil_lh"), 2)
    assert table.as_dict() == {(1, 1): 2}


def test_full_and_simplified_presentations_agree():
    for name in ["unknot", "trefoil_lh", "figure8"]:
        cd = crossing_data(bundled_knot(name))
        full = extract_presentation(cd)
        simp = simplify(full)
        for p in (2, 3):
            assert count_augmentations(full, p).counts \
                == count_augmentations(simp, p).counts, (name, p)


def test_pruned_vs_exhaustive_all_knots():
    # the bundled knots, then R2 inflations with 2, 2 and 1 generators left
    pds = [bundled_knot(name) for name, _ in bundled_table()]
    pds += [_inflated("figure8", 8, 3), _inflated("6_1", 8, 5),
            _inflated("trefoil_lh", 7, 4)]
    for pd in pds:
        pres = simplify(extract_presentation(crossing_data(pd)))
        for p in (2, 3, 5, 7, 17):
            _assert_counts_agree(pres, p)


def test_bounds_and_validation():
    pres = _simplified("trefoil_lh")
    with pytest.raises(ValueError):
        count_augmentations(pres, 4)
    assert count_augmentations(pres, 17).p == 17
    # two residues below p must fit in a byte of the packed point search
    with pytest.raises(IntractableError, match="count: .* the bound 127"):
        count_augmentations(pres, 131)
    assert count_augmentations(pres, 127).p == 127


def test_work_bound(monkeypatch):
    # x0 x1 x2 - m at p = 5: 2 coefficient terms cost 2 * 16 for the
    # tables, and the 1 + 5 + 25 nodes above the relation's last variable
    # are expanded unpruned at 5 * 16 each
    pres = _hand_built(3, [{(0, 1, 2): 1, (): -M()}])
    expected = count_augmentations(pres, 5)
    monkeypatch.setattr(kch.augment, "MAX_COUNT_WORK", 2 * 16 + 31 * 5 * 16)
    assert count_augmentations(pres, 5) == expected
    for budget in (2 * 16 + 31 * 5 * 16 - 1, 2 * 16 - 1):
        monkeypatch.setattr(kch.augment, "MAX_COUNT_WORK", budget)
        with pytest.raises(IntractableError,
                           match="^count: search work exceeds the bound %d$"
                           % budget):
            count_augmentations(pres, 5)


def test_unlisted_relation_letter_is_a_value_error():
    # the shape of hc0's unlisted-generator test: a21 occurs in relations
    # but is not a generator
    a21, a31 = Generator("a", 2, 1), Generator("a", 3, 1)
    pres = Presentation(
        generators=[a31],
        relations=[NCPoly.gen(a31, M()) - NCPoly.gen(a21) * NCPoly.gen(a31),
                   NCPoly.gen(a21, L()) - NCPoly.scalar(1)])
    with pytest.raises(ValueError, match="letter a21 "):
        pres.commutative
    with pytest.raises(ValueError, match="letter a21 "):
        count_augmentations(pres, 3)
    with pytest.raises(ValueError, match="letter a21 "):
        augmentation_polynomial(pres)
    with pytest.raises(ValueError, match="letter a21 "):
        augmentation_polynomial(Presentation(generators=[],
                                             relations=pres.relations[1:]))


def test_count_leaves_no_reference_cycles():
    # the search must not keep its tables alive until the cyclic collector
    # runs: they are (p-1)^2 bytes per coefficient
    pres = _simplified("figure8")
    assert len(pres.generators) == 2
    gc.collect()
    gc.disable()
    try:
        count_augmentations(pres, 13)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_signature_and_distinguish():
    sig_lh = aug_signature(bundled_knot("trefoil_lh"), [2, 3, 5, 7])
    sig_rh = aug_signature(bundled_knot("trefoil_rh"), [2, 3, 5, 7])
    assert distinguish(sig_lh, sig_rh)
    # the trefoils' tables agree at p = 2 and 3 and first differ at 5
    diffs = [first_difference(t_lh, t_rh)
             for t_lh, t_rh in zip(sig_lh.tables, sig_rh.tables)]
    assert diffs[:2] == [None, None]
    t_lh, t_rh = sig_lh.tables[2].as_dict(), sig_rh.tables[2].as_dict()
    point = next(pt for pt in t_lh if t_lh[pt] != t_rh[pt])
    assert diffs[2] == {"p": 5, "lambda": point[0], "mu": point[1],
                        "counts": [t_lh[point], t_rh[point]]}
    assert not distinguish(sig_lh, sig_lh)
    assert all(first_difference(t, t) is None for t in sig_lh.tables)
    with pytest.raises(ValueError):
        distinguish(sig_lh, aug_signature(bundled_knot("trefoil_rh"), [2, 3]))


def test_signature_json_shape():
    sig = aug_signature(bundled_knot("unknot"), [2])
    obj = sig.as_json_obj()
    assert obj["primes"] == [2]
    assert obj["tables"][0]["p"] == 2
    assert obj["tables"][0]["table"] == [{"lambda": 1, "mu": 1, "count": 1}]


@pytest.mark.parametrize("name", [name for name, _ in bundled_table()])
def test_mirror_law(name):
    # mirroring inverts the longitude: count(K; l0, m0) equals
    # count(mirror K; l0^-1 mod p, m0)
    pd = bundled_knot(name)
    pres = simplify(extract_presentation(crossing_data(pd)))
    mirrored = simplify(extract_presentation(crossing_data(mirror(pd))))
    for p in (3, 5, 7):
        counts = count_augmentations(pres, p).as_dict()
        mirror_counts = count_augmentations(mirrored, p).as_dict()
        assert counts == {(pow(l0, -1, p), m0): c
                          for (l0, m0), c in mirror_counts.items()}, p
