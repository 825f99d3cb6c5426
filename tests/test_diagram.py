"""Tests for PD codes, crossing data and Reidemeister moves."""

import collections
import functools
import hashlib
import json
import random

import pytest

from kch.augment import aug_signature
from kch.diagram import (DiagramError, MoveError, PDCode, apply_move,
                         available_moves, crossing_data, mirror, parse_pd,
                         r1_add, r1_remove, r2_add, r2_remove, r3, reduced,
                         renumber, to_json_obj, to_text)
from kch.knots import bundled_knot, bundled_table
from kch.pipeline import Run

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
                "{not json", "PD[X[1,1,2,2],junk]",
                # a missing or doubled comma, and non-ASCII digits
                "PD[X[3,6,4,1]X[5,2,6,3]X[1,4,2,5]]",
                "PD[,,X[3,6,4,1],,X[5,2,6,3],X[1,4,2,5],]",
                "PD[X[\u0661,\u0664,\u0662,\u0665],X[\u0663,\u0666,\u0664,"
                "\u0661],X[\u0665,\u0662,\u0666,\u0663]]"]:
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
    # each edge enters exactly one crossing: edges 1 and 3 of the first
    # code are entered at both ends, and edges 2 and 4 of the second, one
    # crossing listed twice (crossing_data took it)
    for rows in ([(1, 2, 2, 1), (3, 4, 4, 3)], [(4, 2, 1, 3), (4, 2, 1, 3)]):
        with pytest.raises(DiagramError, match="enter no crossing"):
            PDCode(rows)


def test_over_edges_share_an_arc():
    # rows X[a, b, a+1, d] with {b, d} = {o, o+1} are label-valid exactly
    # when the entered labels a, o hit every label once, or the odd (or
    # the even) labels twice each; the edge rule keeps only the first kind,
    # and at n = 1 reads both kinds as a kink
    rng = random.Random(19)
    accepted = 0
    for _ in range(2000):
        n = rng.randint(1, 6)
        m = 2 * n
        entered = rng.choice([list(range(1, m + 1)),
                              [x for x in range(1, m + 1, 2) for _ in "ab"],
                              [x for x in range(2, m + 1, 2) for _ in "ab"]])
        rng.shuffle(entered)
        rows = []
        for a, o in zip(entered[:n], entered[n:]):
            b, d = rng.sample([o, o % m + 1], 2)
            rows.append((a, b, a % m + 1, d))
        try:
            pd = PDCode(rows)
        except DiagramError as exc:
            assert "enter no crossing" in str(exc), rows
            continue
        accepted += 1
        arc = {e: k for k, run in enumerate(pd.arcs()) for e in run}
        assert all(arc[b] == arc[d] for _, b, _, d in pd.crossings), rows
    assert accepted >= 500


def test_signs_and_over_in():
    pd = parse_pd(TREFOIL_LH)
    assert [pd.sign(k) for k in range(3)] == [-1, -1, -1]
    pd = parse_pd(TREFOIL_RH)
    assert [pd.sign(k) for k in range(3)] == [1, 1, 1]
    # the over strand re-enters right after the under-pass exits
    for code, sign in ((UNKNOT, 1), ("PD[X[1,2,2,1]]", -1)):
        kink = parse_pd(code)
        assert kink.over_in(0) == 2
        assert kink.sign(0) == sign


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
        "b90eb239ac7e11448a299b1a02783dc53d5ad08f0d88b59997c66e0827be3e12"
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
        "45067d03097c12cb7a3fb6e161834d10cc216be9310af7a0b78c9f3fc4fb9b98"
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


def test_reduced_keeps_each_bundled_knot():
    for _, code in bundled_table():
        pd = parse_pd(code)
        assert reduced(pd) == pd


def test_reduced_removes_a_clasp_drawn_non_planar():
    # TREFOIL_RH with a clasp in the chirality that breaks planarity
    pd = parse_pd("PD[X[10,6,1,5],X[4,10,5,9],X[8,4,9,3],X[7,2,8,1],"
                  "X[6,2,7,3]]")
    assert len(pd.faces()) != pd.n + 2
    assert reduced(pd) == parse_pd(TREFOIL_RH)


def test_reduced_never_adds_crossings():
    for pd in _walk_probe(3, 1) + tuple(map(mirror, _walk_probe(3, 1))):
        red = reduced(pd)
        assert red.n <= pd.n
        assert reduced(red) == red


def test_reduced_keeps_the_signature():
    # full <-> reduced: three seeded walks of three R1/R2 additions per
    # bundled knot, each undone back to the knot's crossing number
    rng = random.Random(7)
    for _, code in bundled_table():
        base = parse_pd(code)
        for _ in range(3):
            pd = base
            for _ in range(3):
                adds = [m for m in available_moves(pd)
                        if m["move"] in ("r1_add", "r2_add")]
                pd = apply_move(pd, rng.choice(adds))
            red = reduced(pd)
            assert red.n == base.n < pd.n
            assert Run(red).signature([2, 3, 5]) \
                == Run(pd).signature([2, 3, 5]), to_text(pd)


def test_moves_leave_their_input_unchanged():
    # a PDCode keeps its traced faces, so no edit may change its input
    for pd in _walk_probe(3, 1):
        crossings, faces = list(pd.crossings), pd.faces()
        for mv in available_moves(pd):
            apply_move(pd, mv)
        reduced(pd)
        assert pd.crossings == crossings
        assert pd.faces() == faces == PDCode(crossings).faces()


def test_faces_are_traced_once_per_diagram(monkeypatch):
    # each trace walks darts() once; a fresh seeded inflation per knot
    traced = collections.Counter()
    darts = PDCode.darts

    def counting(pd):
        traced[to_text(pd)] += 1
        return darts(pd)

    rng = random.Random(5)
    for _, code in bundled_table():
        pd = parse_pd(code)
        for _ in range(8):
            adds = [m for m in available_moves(pd)
                    if m["move"] in ("r1_add", "r2_add")]
            pd = apply_move(pd, rng.choice(adds))
        with monkeypatch.context() as m:
            m.setattr(PDCode, "darts", counting)
            red = reduced(pd)
            available_moves(pd)
            available_moves(red)
        assert pd.faces() is pd.faces()
        assert red.n < pd.n and traced[to_text(pd)] == 1
        assert max(traced.values()) == 1, traced.most_common(1)
        traced.clear()


def test_apply_move_unknown():
    with pytest.raises(MoveError):
        apply_move(parse_pd(UNKNOT), {"move": "r9"})


@pytest.mark.parametrize("spec, key", [
    ({"move": "r1_add"}, "edge"),
    ({"move": "r1_remove"}, "crossing"),
    ({"move": "r2_add", "over": 1}, "under"),
    ({"move": "r2_remove"}, "face"),
    ({"move": "r3"}, "face"),
    ("r1_add", "move"),
])
def test_apply_move_names_a_missing_key(spec, key):
    with pytest.raises(MoveError, match="the key '%s'" % key):
        apply_move(parse_pd(TREFOIL_LH), spec)


def test_available_moves_lists_every_site_that_builds():
    # the converse of test_available_moves_all_apply; face 2 of the last
    # code passes the clasp checks, but its removal would leave nothing
    pd2 = parse_pd("PD[X[1,1,2,4],X[2,3,3,4]]")
    with pytest.raises(MoveError, match="would leave no crossings"):
        r2_remove(pd2, 2)
    for pd in _walk_probe(3, 1) + (pd2,):
        faces = range(len(pd.faces()))
        built = {(move.__name__, site)
                 for move, sites in ((r1_remove, range(1, pd.n + 1)),
                                     (r2_remove, faces), (r3, faces))
                 for site in sites
                 if isinstance(_outcome(move, pd, site), list)}
        moves = available_moves(pd)
        listed = {(m["move"], m.get("crossing", m.get("face")))
                  for m in moves
                  if m["move"] in ("r1_remove", "r2_remove", "r3")}
        assert listed == built, to_text(pd)
        # each spec once, so a seeded walk weights every site alike
        specs = [tuple(sorted(m.items())) for m in moves]
        assert len(set(specs)) == len(specs), to_text(pd)


def test_available_moves_builds_no_diagram(monkeypatch):
    built = []
    init = PDCode.__init__

    def counting(self, crossings):
        built.append(crossings)
        init(self, crossings)

    probe = _walk_probe(3, 1)
    monkeypatch.setattr(PDCode, "__init__", counting)
    kinds = collections.Counter(m["move"] for pd in probe
                                for m in available_moves(pd))
    assert not built
    assert kinds["r2_remove"] and kinds["r3"] and kinds["r1_remove"]


def test_available_moves_all_apply():
    for name in ["unknot", "trefoil_lh", "figure8"]:
        pd = bundled_knot(name)
        for mv in available_moves(pd):
            out = apply_move(pd, mv)
            assert isinstance(out, PDCode)


def _outcome(move, pd, *site):
    try:
        return move(pd, *site).crossings
    except MoveError as exc:
        return str(exc)


def test_edit_outputs_pinned():
    # labels are compared exactly, so a relabeling that rotates or
    # permutes them changes the digest even where round trips still pass
    rng = random.Random(17)
    sites = []
    for pd in _walk_probe(3, 1):
        sites.append(("r1_add", [r1_add(pd, e, s).crossings
                                 for e in range(1, pd.num_edges + 1)
                                 for s in (1, -1)]))
        sites.append(("r1_remove", [_outcome(r1_remove, pd, k)
                                    for k in range(1, pd.n + 1)]))
        sites.append(("r2_remove", [_outcome(r2_remove, pd, fi)
                                    for fi in range(len(pd.faces()))]))
        perm = rng.sample(range(pd.n), pd.n)
        sites.append(("renumber", [renumber(pd, perm, b).crossings
                                   for b in range(1, pd.num_edges + 1)]))
        sites.append(("reduced", reduced(pd).crossings))
    assert len(sites) == 5 * 35
    removals = [res for kind, outs in sites if kind.endswith("_remove")
                for res in outs if isinstance(res, list)]
    assert len(removals) >= 90
    assert hashlib.sha256(repr(sites).encode()).hexdigest() == (
        "ea504223e205f42b34b3d2f82562a6d6130faad089520f49ecdb3f3cc3f02891"
    ), "an edit's output labels changed on the seeded probe"
