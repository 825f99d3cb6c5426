"""Tests for PD codes, crossing data and Reidemeister moves."""

import functools
import hashlib
import json
import random

import pytest

from kch.augment import aug_signature
from kch.diagram import (DiagramError, MoveError, PDCode, apply_move,
                         available_moves, crossing_data, mirror, parse_pd,
                         r1_add, r1_remove, r2_add, r2_remove, r3, renumber,
                         to_json_obj, to_text)
from kch.knots import bundled_knot, bundled_table

TREFOIL_LH = "PD[X[3,6,4,1],X[5,2,6,3],X[1,4,2,5]]"
TREFOIL_RH = "PD[X[6,4,1,3],X[2,6,3,5],X[4,2,5,1]]"
UNKNOT = "PD[X[1,1,2,2]]"


def test_parse_text_and_json():
    pd = parse_pd(TREFOIL_LH)
    assert pd.n == 3
    assert pd.crossings[0] == (3, 6, 4, 1)
    pd2 = parse_pd(json.dumps(to_json_obj(pd)))
    assert pd2 == pd
    assert parse_pd(to_text(pd)) == pd
    assert parse_pd("  PD[ X[1, 1, 2, 2] ]  ").n == 1


def test_parse_rejects_malformed():
    for bad in ["", "PD[]", "PD[X[1,2,3]]", "X[1,1,2,2]",
                "PD[X[1,1,2,2]] trailing", "{\"crossing\": []}",
                "{not json", "PD[X[1,1,2,2],junk]"]:
        with pytest.raises(DiagramError):
            parse_pd(bad)


def test_validation_rules():
    # labels must cover 1..2n exactly twice
    with pytest.raises(DiagramError):
        PDCode([(1, 1, 3, 3)])
    with pytest.raises(DiagramError):
        PDCode([(1, 1, 2, 3), (2, 4, 3, 4)])
    # under-edges must be consecutive: c = succ(a)
    with pytest.raises(DiagramError):
        PDCode([(1, 2, 4, 3), (3, 1, 2, 4)])
    # over-edges must be consecutive
    with pytest.raises(DiagramError):
        PDCode([(1, 3, 2, 1), (3, 2, 4, 4)])


def test_signs_and_over_in():
    pd = parse_pd(TREFOIL_LH)
    assert [pd.sign(k) for k in range(3)] == [-1, -1, -1]
    pd = parse_pd(TREFOIL_RH)
    assert [pd.sign(k) for k in range(3)] == [1, 1, 1]
    kink = parse_pd(UNKNOT)
    # the over strand re-enters right after the under-pass exits
    assert kink.over_in(0) == 2
    assert kink.sign(0) == 1


def test_arcs():
    pd = parse_pd(TREFOIL_LH)
    arcs = pd.arcs()
    assert len(arcs) == 3
    assert all(len(run) == 2 for run in arcs)
    arc_of = pd.arc_of()
    assert sorted(arc_of) == list(range(1, 7))
    # arcs are numbered by smallest label
    assert arc_of[1] == 1


def test_crossing_data_trefoil():
    cd = crossing_data(parse_pd(TREFOIL_LH))
    assert cd.n == 3
    assert cd.o == (1, 2, 3)
    assert cd.l == (2, 3, 1)
    assert cd.r == (3, 1, 2)
    assert cd.eps == (-1, -1, -1)
    assert not cd.degenerate


def test_crossing_data_kink_degenerate():
    cd = crossing_data(parse_pd(UNKNOT))
    assert cd.n == 1
    assert cd.degenerate
    assert cd.o == cd.l == cd.r == (1,)


def test_faces_euler():
    for name, code in bundled_table():
        pd = parse_pd(code)
        # V - E + F = 2 for a connected planar 4-valent graph
        assert len(pd.faces()) == pd.n + 2
        darts = [t for face in pd.faces() for t in face]
        assert sorted(darts) == sorted(pd.darts())


def test_mirror_involution_and_signs():
    for name in ["trefoil_lh", "figure8", "5_2"]:
        pd = bundled_knot(name)
        md = mirror(pd)
        assert {md.sign(k) for k in range(md.n)} \
            == {-pd.sign(k) for k in range(pd.n)}
        assert mirror(md) == pd
    assert mirror(parse_pd(TREFOIL_LH)) == parse_pd(TREFOIL_RH)


def test_renumber_basics():
    pd = parse_pd(TREFOIL_LH)
    assert renumber(pd, [0, 1, 2], 1) == pd
    rolled = renumber(pd, [2, 0, 1], 3)
    assert rolled.n == 3
    cd0, cd1 = crossing_data(pd), crossing_data(rolled)
    assert sorted(cd0.eps) == sorted(cd1.eps)
    with pytest.raises(DiagramError):
        renumber(pd, [0, 0, 1])
    with pytest.raises(DiagramError):
        renumber(pd, [0, 1, 2], 7)


def test_r1_round_trip():
    pd = parse_pd(TREFOIL_LH)
    for edge in range(1, 7):
        for sign in (1, -1):
            pd2 = r1_add(pd, edge, sign)
            assert pd2.n == 4
            kinks = [m for m in available_moves(pd2)
                     if m["move"] == "r1_remove"]
            assert kinks
            assert any(apply_move(pd2, m) == pd for m in kinks)
    with pytest.raises(MoveError):
        r1_add(pd, 0, 1)
    with pytest.raises(MoveError):
        r1_add(pd, 1, 2)


def test_r1_remove_guards():
    pd = parse_pd(TREFOIL_LH)
    with pytest.raises(MoveError):
        r1_remove(pd, 1)  # not a kink
    with pytest.raises(MoveError):
        r1_remove(parse_pd(UNKNOT), 1)  # would leave nothing


def test_r2_round_trip():
    pd = parse_pd(TREFOIL_LH)
    done = 0
    for mv in available_moves(pd):
        if mv["move"] != "r2_add":
            continue
        pd2 = apply_move(pd, mv)
        assert pd2.n == pd.n + 2
        rems = [m for m in available_moves(pd2) if m["move"] == "r2_remove"]
        assert any(apply_move(pd2, m) == pd for m in rems)
        done += 1
    assert done > 0


def test_r2_needs_shared_face():
    pd = parse_pd(TREFOIL_LH)
    with pytest.raises(MoveError):
        r2_add(pd, 1, 1)
    # edges 1 and 2 never bound a common face in this diagram? find a pair
    # that does not share a face and check the error
    faces = pd.faces()
    shared = set()
    for face in faces:
        labels = [pd.crossings[ci][pos] for ci, pos in face]
        for e in labels:
            for f in labels:
                shared.add((e, f))
    non_shared = [(e, f) for e in range(1, 7) for f in range(1, 7)
                  if e != f and (e, f) not in shared]
    for e, f in non_shared[:2]:
        with pytest.raises(MoveError):
            r2_add(pd, e, f)


def test_r2_remove_rejects_alternating_bigon():
    # the figure-eight standard diagram has bigons whose strands alternate;
    # none of them is a removable clasp
    pd = bundled_knot("figure8")
    for fi, face in enumerate(pd.faces()):
        if len(face) == 2:
            with pytest.raises(MoveError):
                r2_remove(pd, fi)


def test_r3_requires_triangle():
    pd = parse_pd(TREFOIL_LH)
    faces = pd.faces()
    for fi, face in enumerate(faces):
        if len(face) != 3:
            with pytest.raises(MoveError):
                r3(pd, fi)


def test_r3_preserves_crossing_count_and_signs():
    rng = random.Random(11)
    pd0 = bundled_knot("trefoil_lh")
    hits = 0
    for _ in range(30):
        pd = pd0
        for _ in range(2):
            adds = [m for m in available_moves(pd)
                    if m["move"] in ("r1_add", "r2_add")]
            pd = apply_move(pd, rng.choice(adds))
        for mv in available_moves(pd):
            if mv["move"] != "r3":
                continue
            pd2 = apply_move(pd, mv)
            assert pd2.n == pd.n
            assert sorted(pd2.crossings[k] for k in range(pd2.n)) \
                != sorted(pd.crossings[k] for k in range(pd.n)) or pd2 == pd
            assert sorted(pd.sign(k) for k in range(pd.n)) \
                == sorted(pd2.sign(k) for k in range(pd2.n))
            hits += 1
        if hits >= 5:
            break
    assert hits >= 5


@functools.lru_cache(maxsize=None)
def _walk_probe(seed, walks):
    """Each bundled knot followed by every diagram met on `walks` seeded
    walks of four R1/R2 additions from it."""
    rng = random.Random(seed)
    out = []
    for _, code in bundled_table():
        base = parse_pd(code)
        out.append(base)
        for _ in range(walks):
            cur = base
            for _ in range(4):
                adds = [m for m in available_moves(cur)
                        if m["move"] in ("r1_add", "r2_add")]
                cur = apply_move(cur, rng.choice(adds))
                out.append(cur)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _r3_probe():
    """Every diagram of the seeded walk probe with its r3 outcome per
    face."""
    out = []
    for pd in _walk_probe(5, 5):
        results = []
        for fi in range(len(pd.faces())):
            try:
                results.append(r3(pd, fi))
            except MoveError as exc:
                results.append(str(exc))
        out.append((pd, results))
    return out


def test_r3_output_pinned():
    sites = [(fi, res.crossings if isinstance(res, PDCode) else res)
             for _, results in _r3_probe() for fi, res in enumerate(results)]
    moves = sum(isinstance(res, list) for _, res in sites)
    assert len(sites) >= 1000 and moves >= 80
    assert hashlib.sha256(repr(sites).encode()).hexdigest() == (
        "9c0592db2139b768f7d020b6108c9f9a0cdd03fce00f468c0c4250958ce9ed63"
    ), "r3's moves or refusals changed on the seeded probe"


def test_every_listed_move_builds_a_diagram():
    # V - E + F = 2: each move keeps the diagram planar, and an R2 spec
    # naming the other chirality is refused
    for pd in _walk_probe(3, 1):
        for mv in available_moves(pd):
            out = apply_move(pd, mv)
            assert len(out.faces()) == out.n + 2, (pd, mv)
            if mv["move"] == "r2_add":
                with pytest.raises(MoveError):
                    apply_move(pd, dict(mv, chirality=-mv["chirality"]))


def test_r2_output_pinned():
    sites = []
    for pd in _walk_probe(3, 1):
        pairs = dict.fromkeys((m["over"], m["under"])
                              for m in available_moves(pd)
                              if m["move"] == "r2_add")
        sites.extend((e, f, r2_add(pd, e, f).crossings) for e, f in pairs)
    assert len(sites) >= 1000
    assert hashlib.sha256(repr(sites).encode()).hexdigest() == (
        "aa10959cbb6e660b5d1d88d204abcc0d2a29a50865b4fda3d93c720c726f35b1"
    ), "r2_add's output changed on the seeded probe"


def test_r3_round_trip():
    sites = [(pd, res) for pd, results in _r3_probe()
             for res in results if isinstance(res, PDCode)]
    assert len(sites) >= 40
    for pd, pd2 in sites:
        assert pd2 != pd and pd2.n == pd.n
        assert any(r3(pd2, m["face"]) == pd for m in available_moves(pd2)
                   if m["move"] == "r3")
    # signatures are costly on the larger diagrams: every fourth small site
    for pd, pd2 in [s for s in sites if s[0].n <= 8][::4]:
        assert aug_signature(pd2, [2, 3]) == aug_signature(pd, [2, 3])


def test_apply_move_unknown():
    with pytest.raises(MoveError):
        apply_move(parse_pd(UNKNOT), {"move": "r9"})


def test_available_moves_all_apply():
    for name in ["unknot", "trefoil_lh", "figure8"]:
        pd = bundled_knot(name)
        for mv in available_moves(pd):
            out = apply_move(pd, mv)
            assert isinstance(out, PDCode)
