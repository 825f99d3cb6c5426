"""Tests for cord-algebra presentations and their simplification."""

import random

import pytest

from kch.diagram import apply_move, available_moves, crossing_data
from kch.hc0 import (MAX_REPLACEMENT_WORD, Presentation, extract_presentation,
                     replay_log, simplify)
from kch.knots import bundled_knot, bundled_table
from kch.laurent import LaurentPoly
from kch.ncalg import Generator, NCPoly, nc_unit_normalize

L = LaurentPoly.lam
M = LaurentPoly.mu


def test_extract_counts():
    pres = extract_presentation(crossing_data(bundled_knot("trefoil_lh")))
    assert len(pres.generators) == 6
    assert len(pres.relations) == 18
    assert all(r.homogeneous_degree() in (0, "zero") for r in pres.relations)


def test_trefoil_reduces_to_one_generator():
    pres = simplify(extract_presentation(
        crossing_data(bundled_knot("trefoil_lh"))))
    assert len(pres.generators) == 1
    assert len(pres.relations) == 2
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
    got = {nc_unit_normalize(r) for r in pres.relations}
    assert got == expected


def test_unknot_reduces_to_constant_relations():
    pres = simplify(extract_presentation(crossing_data(bundled_knot("unknot"))))
    assert pres.generators == []
    consts = [r.terms.get((), LaurentPoly.zero()) for r in pres.relations]
    assert all(len(r.terms) == 1 for r in pres.relations)
    # every relation is a multiple of (l - 1)(m + 1)
    base = (L() - 1) * (M() + 1)
    from kch.laurent import divides
    for c in consts:
        assert divides(base, c)


def test_simplify_keeps_free_generators():
    # a generator not mentioned by any relation must survive
    g, h = Generator("a", 1, 2), Generator("a", 2, 1)
    pres = Presentation(generators=[g, h],
                        relations=[NCPoly.gen(g) - NCPoly.scalar(1)])
    out = simplify(pres)
    assert out.generators == [h]
    assert out.relations == []


def test_simplify_deterministic():
    cd = crossing_data(bundled_knot("5_2"))
    a = simplify(extract_presentation(cd))
    b = simplify(extract_presentation(cd))
    assert a.generators == b.generators
    assert a.relations == b.relations
    assert a.substitution_log == b.substitution_log


def test_replay_log_expresses_eliminated_generators():
    cd = crossing_data(bundled_knot("trefoil_lh"))
    pres = simplify(extract_presentation(cd))
    survivor = pres.generators[0]
    eliminated = [g for g in extract_presentation(cd).generators
                  if g != survivor]
    for g in eliminated:
        expr = replay_log(pres, g)
        assert expr.generators() <= {survivor}


def test_relation_sizes_stay_bounded():
    for name in ["figure8", "5_1", "5_2", "6_1"]:
        pres = simplify(extract_presentation(
            crossing_data(bundled_knot(name))))
        total = sum(len(str(r)) for r in pres.relations)
        assert total < 20000, (name, total)


def _simplify_by_rescanning(pres):
    """Reference for simplify: every step rescans and re-normalizes every
    relation, and substitutes into every relation that contains g."""

    def offer(rel, alive):
        for g in alive:
            coeff = rel.terms.get((g,))
            if coeff is None or not coeff.is_ring_unit():
                continue
            if any(g in w for w in rel.terms if w != (g,)):
                continue
            return g, coeff
        return None

    def dedupe(relations):
        seen, out = set(), []
        for rel in relations:
            key = nc_unit_normalize(rel) if rel else None
            if key is not None and key not in seen:
                seen.add(key)
                out.append(rel)
        return out

    relations = list(pres.relations)
    log = list(pres.substitution_log)
    alive = sorted(set(pres.generators))
    for cap in (MAX_REPLACEMENT_WORD, None):
        changed = True
        while changed:
            changed = False
            best = None
            for idx, rel in enumerate(relations):
                hit = offer(rel, alive) if rel else None
                if hit is None:
                    continue
                g, u = hit
                repl = (rel - NCPoly.gen(g, u)) * (-u.inverse_unit())
                cost = (max((len(w) for w in repl.terms), default=0),
                        len(repl.terms))
                if cap is not None and cost[0] > cap:
                    continue
                if best is None or cost + (idx, g) < best[0]:
                    best = (cost + (idx, g), idx, g, repl)
            if best is not None:
                _, idx, g, repl = best
                relations = [NCPoly.zero() if k == idx else
                             r.substitute(g, repl) if g in r.generators()
                             else r for k, r in enumerate(relations)]
                log.append((g, repl))
                alive.remove(g)
                changed = True
            relations = dedupe(relations)
    return Presentation(generators=alive, relations=relations,
                        substitution_log=log)


def _inflated(name, n, seed):
    """A bundled knot grown to n crossings by seeded R2 moves."""
    rng = random.Random(seed)
    pd = bundled_knot(name)
    while pd.n < n:
        pd = apply_move(pd, rng.choice(
            [m for m in available_moves(pd) if m["move"] == "r2_add"]))
    return pd


def _assert_same_as_reference(pres):
    got, want = simplify(pres), _simplify_by_rescanning(pres)
    assert got.generators == want.generators
    assert got.relations == want.relations
    assert got.substitution_log == want.substitution_log


@pytest.mark.parametrize("name", [name for name, _ in bundled_table()])
def test_simplify_matches_reference_on_bundled_knots(name):
    _assert_same_as_reference(
        extract_presentation(crossing_data(bundled_knot(name))))


@pytest.mark.parametrize("name, n, seed", [
    ("figure8", 8, 1), ("trefoil_lh", 7, 2), ("5_2", 7, 3), ("unknot", 7, 4),
])
def test_simplify_matches_reference_on_r2_inflations(name, n, seed):
    pd = _inflated(name, n, seed)
    assert pd.n == n
    _assert_same_as_reference(extract_presentation(crossing_data(pd)))


def test_simplify_never_eliminates_unlisted_generators():
    # a21 occurs linearly with a unit coefficient but is not a generator
    # of the presentation, so it must stay in the relations
    a12, a21, a31 = (Generator("a", 1, 2), Generator("a", 2, 1),
                     Generator("a", 3, 1))
    x, y, z = NCPoly.gen(a12), NCPoly.gen(a21), NCPoly.gen(a31)
    pres = Presentation(
        generators=[a31, a12],
        relations=[y - NCPoly.scalar(1),
                   NCPoly.gen(a12, M()) - y * z,
                   z * y - NCPoly.gen(a21, L()) + x * x,
                   -(y - NCPoly.scalar(1))])
    out = simplify(pres)
    assert out.generators == [a31]
    assert [g for g, _ in out.substitution_log] == [a12]
    assert all(a21 in r.generators() for r in out.relations)
    assert len(out.relations) == 2
    _assert_same_as_reference(pres)
