"""Tests for cord-algebra presentations and their simplification."""

import hashlib
import random

import pytest

import kch.augment
import kch.hc0
from kch.dga import build_dga
from kch.diagram import apply_move, available_moves, crossing_data
from kch.hc0 import (IntractableError, Presentation, _release, _settle,
                     extract_presentation, relation_presentation, replay_log,
                     simplify)
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


def test_presentation_from_dga_products_matches_extract():
    # Run reads the relations off the DGA's dB and dC; they must be
    # extract_presentation's, in the same order with the same term order
    for name, _ in bundled_table():
        cd = crossing_data(bundled_knot(name))
        mats = build_dga(cd).matrices
        got = relation_presentation(mats["dB"], mats["dC"])
        want = extract_presentation(cd)
        assert got.generators == want.generators
        assert [list(r.terms.items()) for r in got.relations] \
            == [list(r.terms.items()) for r in want.relations]


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


def test_simplify_size_budget(monkeypatch):
    assert kch.augment.IntractableError is IntractableError
    pres = extract_presentation(crossing_data(bundled_knot("figure8")))
    # simplifying figure8 never holds more terms than it starts with
    size = sum(len(r.terms) for r in pres.relations)
    monkeypatch.setattr(kch.hc0, "MAX_RELATION_TERMS", size)
    simplify(pres)
    monkeypatch.setattr(kch.hc0, "MAX_RELATION_TERMS", size // 2)
    with pytest.raises(IntractableError,
                       match=r"^simplify: \d+ relation terms exceed the bound"):
        simplify(pres)


def _simplify_by_rescanning(pres):
    """Reference for simplify: every step rescans and re-normalizes every
    relation, and substitutes into every relation that contains g.  It
    keeps the older two-phase rule, a phase that takes only replacements
    of words of at most two letters before an uncapped one; simplify runs
    one uncapped loop, which picks the same, since its key puts the
    longest replacement word first."""

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
    for cap in (2, None):
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


_R2_CASES = [("figure8", 8, 1), ("trefoil_lh", 7, 2), ("5_2", 7, 3),
             ("unknot", 7, 4), ("figure8", 10, 5), ("6_1", 8, 6)]


@pytest.mark.parametrize("name, n, seed", _R2_CASES)
def test_simplify_matches_reference_on_r2_inflations(name, n, seed):
    pd = _inflated(name, n, seed)
    assert pd.n == n
    _assert_same_as_reference(extract_presentation(crossing_data(pd)))


def test_simplify_keys_only_relations_that_share_a_word_set(monkeypatch):
    # a unit multiple has its relation's word set, so _settle needs a
    # normal form only where two relations share one: far fewer than settled
    keys, settled = [], []
    normalize, settle = kch.hc0.nc_unit_normalize, kch.hc0._settle

    def counting_normalize(rel):
        keys.append(rel)
        return normalize(rel)

    def counting_settle(cache, holder, heap, rels, alive):
        settled.extend(rel for _, rel in rels if rel)
        return settle(cache, holder, heap, rels, alive)

    monkeypatch.setattr(kch.hc0, "nc_unit_normalize", counting_normalize)
    monkeypatch.setattr(kch.hc0, "_settle", counting_settle)
    simplify(extract_presentation(crossing_data(_inflated("figure8", 10, 1))))
    assert len(settled) > 1000
    assert 4 * len(keys) < len(settled)


# relations over plain int letters, which _settle only hashes and orders
# as it does Generators; _X and _Y share their word set without being
# unit multiples of each other
_X = NCPoly({(0,): LaurentPoly.const(1), (1, 2): L()})
_Y = NCPoly({(0,): LaurentPoly.const(1), (1, 2): M()})
_X_UNIT = _X * LaurentPoly.unit(-1, 2, -1)
_Y_UNIT = _Y * LaurentPoly.unit(1, -1, 3)


def _settled(*batches):
    """cache, holder, heap and the dropped-term counts after settling
    batches of (position, relation) in turn, with every letter alive."""
    cache, holder, heap = {}, {}, []
    dropped = [_settle(cache, holder, heap, batch, {0, 1, 2})
               for batch in batches]
    return cache, holder, heap, dropped


def test_settle_keeps_relations_that_share_words_but_not_a_unit():
    cache, holder, heap, dropped = _settled([(0, _X), (1, _Y)])
    assert dropped == [0]
    assert [(p, entry[0]) for p, entry in cache.items()] == [(0, _X), (1, _Y)]
    assert holder == {frozenset(_X.terms): [0, 1]}
    assert sorted(heap) == [((2, 1), 0), ((2, 1), 1)]


def test_settle_keys_a_lone_word_set_lazily(monkeypatch):
    forms = []
    normalize = kch.hc0.nc_unit_normalize
    monkeypatch.setattr(kch.hc0, "nc_unit_normalize",
                        lambda rel: forms.append(rel) or normalize(rel))
    cache, holder, heap, dropped = _settled([(0, _X)], [(1, NCPoly.gen(0))])
    assert dropped == [0, 0]
    assert forms == []
    assert holder == {frozenset(_X.terms): [0], frozenset({(0,)}): [1]}
    rel, words, offer, letters = cache[0]
    assert (rel, words) == (_X, frozenset(_X.terms))
    assert offer == ((2, 1), 0, LaurentPoly.const(1))
    assert letters == {0: 1, 1: 1, 2: 1}
    assert sorted(heap) == [((0, 0), 1), ((2, 1), 0)]


def test_settle_drops_a_unit_multiple_at_a_larger_position():
    cache, holder, heap, dropped = _settled([(0, _X), (1, _X_UNIT)])
    assert dropped == [2]
    assert list(cache) == [0] and cache[0][0] is _X
    assert holder == {frozenset(_X.terms): [0]}


def test_settle_evicts_a_unit_multiple_at_a_larger_position():
    cache, holder, heap, dropped = _settled([(5, _X), (7, _Y)],
                                            [(2, _X_UNIT)])
    assert dropped == [0, 2]
    assert sorted(cache) == [2, 7] and cache[2][0] is _X_UNIT
    assert holder == {frozenset(_X.terms): [7, 2]}


def test_settle_evicts_the_second_peer_of_a_word_set():
    # the bucket holds two unit classes; the match is its second position
    cache, holder, heap, dropped = _settled([(5, _X), (7, _Y)],
                                            [(6, _Y_UNIT)])
    assert dropped == [0, 2]
    assert sorted(cache) == [5, 6] and cache[6][0] is _Y_UNIT
    assert holder == {frozenset(_X.terms): [5, 6]}


def test_settle_drops_zero_relations():
    cache, holder, heap, dropped = _settled([(0, NCPoly.zero()), (1, _X)],
                                            [(2, _X - _X)])
    assert dropped == [0, 0]
    assert list(cache) == [1]
    assert holder == {frozenset(_X.terms): [1]}


def test_release_leaves_no_empty_word_set():
    lone = NCPoly.gen(0)
    cache, holder, heap, dropped = _settled([(0, _X), (1, _Y), (2, lone)])
    assert _release(cache, holder, 0) is _X
    assert holder == {frozenset(_X.terms): [1], frozenset(lone.terms): [2]}
    assert _release(cache, holder, 2) is lone
    assert holder == {frozenset(_X.terms): [1]} and sorted(cache) == [1]


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


def _dump(pres):
    """simplify's output as text, every dict in its own order: generator
    names, then each relation's words with each coefficient's terms, then
    the substitution log."""

    def poly(p):
        return ";".join("*".join(g.name() for g in w) + "="
                        + ",".join("%d,%d:%d" % (i, j, c)
                                   for (i, j), c in coeff.terms.items())
                        for w, coeff in p.terms.items())

    lines = [" ".join(g.name() for g in pres.generators)]
    lines += [poly(r) for r in pres.relations]
    lines += ["%s -> %s" % (g.name(), poly(r))
              for g, r in pres.substitution_log]
    return "\n".join(lines)


def test_simplify_output_bytes_are_pinned():
    # the reference tests compare dicts, which ignores key order; this
    # pins the order too, on the bundled knots and the R2 inflations above
    inputs = [bundled_knot(name) for name, _ in bundled_table()]
    inputs += [_inflated(*case) for case in _R2_CASES]
    h = hashlib.sha256()
    for pd in inputs:
        pres = extract_presentation(crossing_data(pd))
        out = simplify(pres)
        h.update(_dump(out).encode() + b"\n\n")
        # the output's letters are the input's Generator objects
        given = {id(g) for r in pres.relations for w in r.terms for g in w}
        assert all(id(g) in given for r in out.relations + [
            r for _, r in out.substitution_log] for w in r.terms for g in w)
    assert h.hexdigest() == ("30b7a49725c7f8779861f5a273419233"
                            "ec45ac72e8d3a2d97752401641a87fcc")
