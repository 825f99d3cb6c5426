"""Tests for cord-algebra presentations and their simplification."""

import functools
import hashlib
import random
from collections import Counter, defaultdict

import pytest
from helpers import braid_pd, bundled_knot, nc_unit_normalize

import kch.augment
import kch.hc0
from kch.augment import AugTable, count_augmentations
from kch.dga import build_dga
from kch.diagram import apply_move, available_moves, crossing_data, mirror
from kch.hc0 import (IntractableError, Presentation, _release, _settle,
                     extract_presentation, relation_presentation, replay_log,
                     simplify)
from kch.knots import bundled_table
from kch.laurent import LaurentPoly
from kch.ncalg import Generator, NCPoly

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
        got = relation_presentation(build_dga(cd))
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
    """Reference for simplify: every step rescans every relation, counts
    the relations holding each offered letter with its own scan, keeps
    the first of each nc_unit_normalize form (each relation is normalized
    once), and substitutes into every relation that contains g.  It
    keeps the older two-phase rule, a phase that takes only replacements
    of words of at most two letters before an uncapped one; simplify runs
    one uncapped loop, which picks the same, since its key puts the
    longest replacement word first."""

    def offer(rel, alive):
        for g in sorted(w[0] for w in rel.terms if len(w) == 1):
            coeff = rel.terms[(g,)]
            if g not in alive or not coeff.is_ring_unit():
                continue
            if any(g in w for w in rel.terms if w != (g,)):
                continue
            return g, coeff
        return None

    forms = {}  # id -> (relation, its form); holding it keeps the id

    def dedupe(relations):
        seen, out = set(), []
        for rel in filter(None, relations):
            if id(rel) not in forms:
                forms[id(rel)] = rel, nc_unit_normalize(rel)
            form = forms[id(rel)][1]
            if form not in seen:
                seen.add(form)
                out.append(rel)
        return out

    relations = dedupe(pres.relations)
    log = list(pres.substitution_log)
    alive = sorted(set(pres.generators))
    for cap in (2, None):
        changed = True
        while changed:
            changed = False
            best = None
            holding = Counter(x for r in relations for x in r.generators())
            for idx, rel in enumerate(relations):
                hit = offer(rel, alive) if rel else None
                if hit is None:
                    continue
                g, u = hit
                # a unit multiple of rel - u*g, so it has the same words
                rest = [w for w in rel.terms if w != (g,)]
                longest = max(map(len, rest), default=0)
                if cap is not None and longest > cap:
                    continue
                key = (longest, holding[g], len(rest), idx)
                if best is None or key < best[0]:
                    best = (key, idx, g, u)
            if best is not None:
                _, idx, g, u = best
                repl = (relations[idx] - NCPoly.gen(g, u)) * -u.inverse_unit()
                relations = [NCPoly.zero() if k == idx else
                             r.substitute(g, repl) if g in r.generators()
                             else r for k, r in enumerate(relations)]
                log.append((g, repl))
                alive.remove(g)
                changed = True
            relations = dedupe(relations)
    return Presentation(generators=alive, relations=relations,
                        substitution_log=log)


def _inflated(name, n, seed, mirrored=False, move="r2_add"):
    """A bundled knot, or its mirror, grown to n crossings by seeded moves
    of one kind."""
    pd = bundled_knot(name)
    pd = mirror(pd) if mirrored else pd
    rng = random.Random(seed)
    while pd.n < n:
        pd = apply_move(pd, rng.choice(
            [m for m in available_moves(pd) if m["move"] == move]))
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


# (name, n, seed, mirrored, move): six R2 inflations; each bundled knot
# R2-inflated to n = 8 or 9 and its mirror to two crossings more, with
# seed 1 or 2 (each size with both seeds); each knot and its mirror with
# one R1 kink
_GROWN_CASES = [(name, n, seed, False, "r2_add") for name, n, seed in [
    ("figure8", 8, 1), ("trefoil_lh", 7, 2), ("5_2", 7, 3),
    ("unknot", 7, 4), ("figure8", 10, 5), ("6_1", 8, 6)]]
_GROWN_CASES += [(name, n + 2 * mirrored, seed, mirrored, "r2_add")
                 for name, n, seed in [
                     ("unknot", 9, 1), ("trefoil_lh", 9, 1),
                     ("trefoil_rh", 9, 1), ("figure8", 8, 2), ("5_1", 9, 2),
                     ("5_2", 9, 2), ("6_1", 8, 2)]
                 for mirrored in [False, True]]
_GROWN_CASES += [(name, n, 3, mirrored, "r1_add") for name, n in [
    ("unknot", 2), ("trefoil_lh", 4), ("trefoil_rh", 4), ("figure8", 5),
    ("5_1", 6), ("5_2", 6), ("6_1", 7)] for mirrored in [False, True]]


@pytest.mark.parametrize(
    "name, n, seed, mirrored, move", _GROWN_CASES,
    ids=["%s-%d-%d%s%s" % (name, n, seed, "-mirror" * mirrored,
                            "-r1" * (move == "r1_add"))
         for name, n, seed, mirrored, move in _GROWN_CASES])
def test_simplify_matches_reference_on_r2_inflations(name, n, seed, mirrored,
                                                     move):
    pd = _inflated(name, n, seed, mirrored, move)
    assert pd.n == n
    _assert_same_as_reference(extract_presentation(crossing_data(pd)))


def test_simplify_keys_only_relations_that_share_a_word_set(monkeypatch):
    # a unit multiple has its relation's word set, so _settle tests for
    # one only where two relations share one: far fewer than settled
    calls, settled = [], []
    multiple, settle = kch.hc0.is_unit_multiple, kch.hc0._settle

    def counting_multiple(p, q):
        calls.append(p)
        return multiple(p, q)

    def counting_settle(cache, holder, index, rels, alive):
        settled.extend(rel for _, rel in rels if rel)
        return settle(cache, holder, index, rels, alive)

    monkeypatch.setattr(kch.hc0, "is_unit_multiple", counting_multiple)
    monkeypatch.setattr(kch.hc0, "_settle", counting_settle)
    simplify(extract_presentation(crossing_data(_inflated("figure8", 12, 1))))
    assert len(settled) > 1000
    assert 4 * len(calls) < len(settled)


def _letter_index(cache):
    """letter -> the cached positions whose relations hold it, rebuilt."""
    index = {}
    for p, entry in cache.items():
        for w in entry[0].terms:
            for x in w:
                index.setdefault(x, set()).add(p)
    return index


def test_letter_index_follows_every_settle_and_release(monkeypatch):
    # _settle releases an evicted peer through _release, so this checks
    # the index mid-settle too, where it must already be consistent
    settle, release = kch.hc0._settle, kch.hc0._release
    calls = []

    def checked_settle(cache, holder, index, rels, alive):
        calls.append("settle")
        dropped = settle(cache, holder, index, rels, alive)
        assert index == _letter_index(cache)
        calls.append("settled")
        return dropped

    def checked_release(cache, holder, index, p):
        evicted = calls[-1] in ("settle", "evicted")
        rel = release(cache, holder, index, p)
        assert index == _letter_index(cache)
        if evicted:
            calls.append("evicted")
        return rel

    monkeypatch.setattr(kch.hc0, "_settle", checked_settle)
    monkeypatch.setattr(kch.hc0, "_release", checked_release)
    simplify(extract_presentation(crossing_data(_inflated("figure8", 10, 1))))
    assert calls.count("settled") > 50 and calls.count("evicted") > 10


# relations over plain int letters, which _settle only hashes and orders
# as it does Generators; _X and _Y share their word set without being
# unit multiples of each other
_X = NCPoly({(0,): LaurentPoly.const(1), (1, 2): L()})
_Y = NCPoly({(0,): LaurentPoly.const(1), (1, 2): M()})
_X_UNIT = _X * LaurentPoly.unit(-1, 2, -1)
_Y_UNIT = _Y * LaurentPoly.unit(1, -1, 3)


def _settled(*batches):
    """cache, holder, index and the dropped-term counts after settling
    batches of (position, relation) in turn, with every letter alive."""
    cache, holder, index = {}, {}, defaultdict(set)
    dropped = [_settle(cache, holder, index, batch, {0, 1, 2})
               for batch in batches]
    return cache, holder, index, dropped


def test_settle_keeps_relations_that_share_words_but_not_a_unit():
    cache, holder, index, dropped = _settled([(0, _X), (1, _Y)])
    assert dropped == [0]
    assert [(p, entry[0]) for p, entry in cache.items()] == [(0, _X), (1, _Y)]
    assert holder == {frozenset(_X.terms): [0, 1]}
    assert index == {0: {0, 1}, 1: {0, 1}, 2: {0, 1}}
    assert [entry[2] for entry in cache.values()] \
        == [((2, 1), 0, LaurentPoly.const(1))] * 2


def test_settle_keys_a_lone_word_set_lazily(monkeypatch):
    calls = []
    multiple = kch.hc0.is_unit_multiple
    monkeypatch.setattr(kch.hc0, "is_unit_multiple",
                        lambda p, q: calls.append(p) or multiple(p, q))
    cache, holder, index, dropped = _settled([(0, _X)],
                                                   [(1, NCPoly.gen(0))])
    assert dropped == [0, 0]
    assert calls == []
    assert holder == {frozenset(_X.terms): [0], frozenset({(0,)}): [1]}
    assert index == {0: {0, 1}, 1: {0}, 2: {0}}
    rel, words, offer, letters = cache[0]
    assert (rel, words) == (_X, frozenset(_X.terms))
    assert offer == ((2, 1), 0, LaurentPoly.const(1))
    assert letters == {0: 1, 1: 1, 2: 1}
    assert cache[1][2] == ((0, 0), 0, LaurentPoly.const(1))


def test_settle_drops_a_unit_multiple_at_a_larger_position():
    cache, holder, index, dropped = _settled([(0, _X), (1, _X_UNIT)])
    assert dropped == [2]
    assert list(cache) == [0] and cache[0][0] is _X
    assert holder == {frozenset(_X.terms): [0]}
    assert index == {0: {0}, 1: {0}, 2: {0}}


def test_settle_evicts_a_unit_multiple_at_a_larger_position():
    cache, holder, index, dropped = _settled([(5, _X), (7, _Y)],
                                                   [(2, _X_UNIT)])
    assert dropped == [0, 2]
    assert sorted(cache) == [2, 7] and cache[2][0] is _X_UNIT
    assert holder == {frozenset(_X.terms): [7, 2]}
    assert index == {0: {2, 7}, 1: {2, 7}, 2: {2, 7}}


def test_settle_evicts_the_second_peer_of_a_word_set():
    # the bucket holds two unit classes; the match is its second position
    cache, holder, index, dropped = _settled([(5, _X), (7, _Y)],
                                                   [(6, _Y_UNIT)])
    assert dropped == [0, 2]
    assert sorted(cache) == [5, 6] and cache[6][0] is _Y_UNIT
    assert holder == {frozenset(_X.terms): [5, 6]}
    assert index == {0: {5, 6}, 1: {5, 6}, 2: {5, 6}}


def test_settle_drops_zero_relations():
    cache, holder, index, dropped = _settled(
        [(0, NCPoly.zero()), (1, _X)], [(2, _X - _X)])
    assert dropped == [0, 0]
    assert list(cache) == [1]
    assert holder == {frozenset(_X.terms): [1]}
    assert index == {0: {1}, 1: {1}, 2: {1}}


def test_release_leaves_no_empty_word_set():
    lone = NCPoly.gen(0)
    cache, holder, index, dropped = _settled([(0, _X), (1, _Y),
                                                    (2, lone)])
    assert _release(cache, holder, index, 0) is _X
    assert holder == {frozenset(_X.terms): [1], frozenset(lone.terms): [2]}
    assert index == {0: {1, 2}, 1: {1}, 2: {1}}
    assert _release(cache, holder, index, 2) is lone
    assert holder == {frozenset(_X.terms): [1]} and sorted(cache) == [1]
    assert index == {0: {1}, 1: {1}, 2: {1}}
    assert _release(cache, holder, index, 1) is _Y
    assert holder == {} and index == {}


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
    # pins the order too, on the bundled knots and the grown cases above
    inputs = [bundled_knot(name) for name, _ in bundled_table()]
    inputs += [_inflated(*case) for case in _GROWN_CASES]
    h = hashlib.sha256()
    for pd in inputs:
        pres = extract_presentation(crossing_data(pd))
        out = simplify(pres)
        h.update(_dump(out).encode() + b"\n\n")
        # the output's letters are the input's Generator objects
        given = {id(g) for r in pres.relations for w in r.terms for g in w}
        assert all(id(g) in given for r in out.relations + [
            r for _, r in out.substitution_log] for w in r.terms for g in w)
    assert h.hexdigest() == ("1d890e030a2aae87b94d2d9f4c31c1cc"
                            "5ccb654ae067c8c4eb0e8696b827120d")


def _torus(p, q):
    """T(p, q) as the braid word (sigma_1 ... sigma_{p-1})^q on p strands."""
    return tuple(range(1, p)) * q, p


@functools.lru_cache(maxsize=None)
def _simplified_closure(word, strands, mirrored=False):
    pd = braid_pd(word, strands)
    return simplify(extract_presentation(crossing_data(
        mirror(pd) if mirrored else pd)))


def test_braid_closures_match_bundled_knots():
    # the closures the tests below rely on: sigma_1^3 is the right-handed
    # trefoil, sigma_1^5 is 5_1 and (sigma_1 sigma_2^-1)^2 the figure-eight
    for name, word, strands in [("trefoil_rh", (1, 1, 1), 2),
                                ("5_1", (1,) * 5, 2),
                                ("figure8", (1, -2, 1, -2), 3)]:
        want = simplify(extract_presentation(crossing_data(
            bundled_knot(name))))
        got = _simplified_closure(word, strands)
        for p in (3, 5, 7):
            assert count_augmentations(got, p) \
                == count_augmentations(want, p), (name, p)
    with pytest.raises(ValueError, match="is a link"):
        braid_pd((1, -2) * 3, 3)


@pytest.mark.parametrize("p, q, generators", [(3, 7, 2), (3, 8, 2),
                                              (4, 5, 4)])
def test_torus_knots_simplify_within_the_term_bound(p, q, generators):
    # the key without the live-relation count went past MAX_RELATION_TERMS
    # on each of these (152,488, 101,890 and 139,985 terms)
    pres = _simplified_closure(*_torus(p, q))
    assert len(pres.generators) == generators
    assert sum(len(r.terms) for r in pres.relations) \
        < kch.hc0.MAX_RELATION_TERMS // 100


@pytest.mark.parametrize("p, q", [(3, 7), (3, 8), (4, 5)])
def test_torus_knot_counts_obey_the_mirror_law_and_rotation(p, q):
    # a cyclic rotation of the braid word closes to another diagram of the
    # same knot, which simplify eliminates in another order
    word, strands = _torus(p, q)
    pres = _simplified_closure(word, strands)
    mirrored = _simplified_closure(word, strands, mirrored=True)
    rotated = _simplified_closure(word[1:] + word[:1], strands)
    for prime in (3, 5):
        counts = count_augmentations(pres, prime)
        assert count_augmentations(mirrored, prime).as_dict() \
            == {(pow(l0, -1, prime), m0): c
                for (l0, m0), c in counts.as_dict().items()}, prime
        assert count_augmentations(rotated, prime) == counts, prime


@pytest.mark.parametrize("p, q, counts", [
    (3, 4, (((1, 1), 2), ((1, 2), 2), ((2, 1), 2), ((2, 2), 1))),
    (3, 5, (((1, 1), 1), ((1, 2), 1), ((2, 1), 0), ((2, 2), 1)))])
def test_small_torus_knots_keep_their_counts(p, q, counts):
    # the key without the live-relation count left 3 generators here; these
    # are the counts it gave at p = 3
    pres = _simplified_closure(*_torus(p, q))
    assert len(pres.generators) == 2
    assert count_augmentations(pres, 3) == AugTable(3, counts)
