"""Oriented knot diagrams as PD codes, with derived crossing data and moves.

Conventions.  A crossing ``X[a,b,c,d]`` lists the four incident edge labels
counterclockwise starting from the incoming under-edge ``a``; edge labels
run 1..2n consecutively along the knot's orientation, so the strand
through edge x enters along pred(x) and leaves along succ(x) (``r3``
rebuilds its triangle from this alone).  The sign of a
crossing is +1 iff rotating the oriented over-strand direction
counterclockwise by 90 degrees yields the oriented under-strand direction;
in label terms the over-strand enters at position d for a positive
crossing and at position b for a negative one.

Edits renumber edges by one rule: each writes its crossings with one
sortable key per edge, in key order along the knot (a cut edge e becomes
the pieces (e, 0), (e, 1), (e, 2); a run of joined edges is keyed by its
smallest label), and ``_relabel`` ranks the keys 1..2n.

Diagram components ("arcs") are maximal runs of edges uninterrupted by
undercrossings; there are n of them, numbered by smallest edge label.
Every move ``available_moves`` lists yields a planar diagram (``len(faces())
== n + 2``); R2 takes the one planar chirality from the face it crosses.
Each move that can be refused at its site is a site check plus a build;
``available_moves`` and ``reduced`` call only the check.

A ``PDCode`` is immutable and works out its embedding once: validation
keeps each edge's darts and each crossing's over-in slot, and ``faces()``
is traced on first use and kept for every move to read.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass


class DiagramError(ValueError):
    """Invalid PD code or inapplicable diagram operation."""


class MoveError(DiagramError):
    """Requested Reidemeister move is not applicable at the given site."""


class PDCode:
    """Validated PD code of an oriented knot diagram."""

    __slots__ = ("crossings", "_darts", "_over_slots", "_faces")

    def __init__(self, crossings):
        self.crossings = [tuple(map(int, c)) for c in crossings]
        self._faces = None
        self._validate()

    # -- basics -------------------------------------------------------

    @property
    def n(self):
        return len(self.crossings)

    @property
    def num_edges(self):
        return 2 * len(self.crossings)

    def succ(self, e):
        return e % self.num_edges + 1

    def __eq__(self, other):
        return isinstance(other, PDCode) and self.crossings == other.crossings

    def __repr__(self):
        return to_text(self)

    def _validate(self):
        """Check the code and keep its edge -> darts map and each
        crossing's over-in slot."""
        n = self.n
        if n < 1:
            raise DiagramError("a diagram needs at least one crossing")
        for c in self.crossings:
            if len(c) != 4:
                raise DiagramError("crossing %r does not have 4 edges" % (c,))
        m = 2 * n
        darts = {}
        for ci, cr in enumerate(self.crossings):
            for pos, x in enumerate(cr):
                darts[x] = darts.get(x, ()) + ((ci, pos),)
        labels = set(range(1, m + 1))
        if set(darts) != labels:
            raise DiagramError("edge labels must be exactly 1..%d" % m)
        bad = [x for x, ds in darts.items() if len(ds) != 2]
        if bad:
            raise DiagramError("edge labels %s do not appear exactly twice"
                               % sorted(bad))
        slots = []
        for ci, (a, b, c, d) in enumerate(self.crossings):
            if c != a % m + 1:
                raise DiagramError(
                    "crossing %d: under-edges %d -> %d are not consecutive"
                    % (ci + 1, a, c))
            fwd, bwd = b % m + 1 == d, d % m + 1 == b
            if not (fwd or bwd):
                raise DiagramError(
                    "crossing %d: over-edges %d, %d are not consecutive"
                    % (ci + 1, b, d))
            # fwd and bwd only at n = 1, where the over strand is entered
            # right after the under-strand exits at c
            slots.append(1 if fwd and (b == c or not bwd) else 3)
        # the edge rule: an over-in edge enters its own crossing, so it is
        # no crossing's under-in edge, and the over-edges b, d lie on one arc
        bad = labels.difference(cr[k] for cr, s in zip(self.crossings, slots)
                                for k in (0, s))
        if bad:
            raise DiagramError("edges %s enter no crossing; each edge must "
                               "enter exactly one" % sorted(bad))
        self._darts = darts
        self._over_slots = tuple(slots)

    # -- per-crossing structure --------------------------------------

    def over_in_slot(self, ci):
        """1 if the over-strand enters at position b, 3 if at position d."""
        return self._over_slots[ci]

    def over_in(self, ci):
        return self.crossings[ci][self._over_slots[ci]]

    def sign(self, ci):
        return 1 if self._over_slots[ci] == 3 else -1

    def is_head(self, ci, pos):
        """True iff the dart (crossing, position) is the incoming end of
        its edge."""
        return pos == 0 or pos == self._over_slots[ci]

    # -- arcs ---------------------------------------------------------

    def arcs(self):
        """List of arcs (tuples of edge labels) ordered by smallest label."""
        under_ins = {c[0] for c in self.crossings}
        runs = []
        # arcs start right after an under-in edge
        starts = sorted(self.succ(e) for e in under_ins)
        for s in starts:
            run = [s]
            e = s
            while e not in under_ins:
                e = self.succ(e)
                run.append(e)
            runs.append(tuple(run))
        runs.sort(key=min)
        return runs

    def arc_of(self):
        """Map edge label -> arc number (1-based)."""
        out = {}
        for k, run in enumerate(self.arcs(), start=1):
            for e in run:
                out[e] = k
        return out

    # -- faces (combinatorial embedding) ------------------------------

    def darts(self):
        return [(ci, pos) for ci in range(self.n) for pos in range(4)]

    def faces(self):
        """Orbits of the face-tracing map, as tuples of darts; each face
        keeps the region on the right of the walk direction.
        Deterministic order; traced once per diagram."""
        if self._faces is None:
            seen = set()
            out = []
            for t in self.darts():
                orbit = []
                while t not in seen:
                    seen.add(t)
                    orbit.append(t)
                    t1, t2 = self._darts[self.crossings[t[0]][t[1]]]
                    ci, pos = t2 if t == t1 else t1
                    t = (ci, (pos + 1) % 4)
                if orbit:
                    out.append(tuple(orbit))
            self._faces = tuple(out)
        return self._faces


@dataclass(frozen=True)
class CrossingData:
    """Per-crossing (o, l, r, eps) arrays plus the arc count."""

    n: int
    o: tuple
    l: tuple
    r: tuple
    eps: tuple
    degenerate: bool = False


def crossing_data(pd):
    """Derive over-arc, left/right under-arcs and the sign per crossing."""
    arc = pd.arc_of()
    rows = []  # (o, l, r, eps) per crossing
    for ci, (a, b, c, _) in enumerate(pd.crossings):
        s = pd.sign(ci)
        ll, rr = (arc[c], arc[a]) if s == 1 else (arc[a], arc[c])
        rows.append((arc[b], ll, rr, s))
    o, l, r, eps = zip(*rows)
    return CrossingData(n=pd.n, o=o, l=l, r=r, eps=eps, degenerate=any(
        len(set(row[:3])) < 3 for row in rows))


# -- parsing / serialization ------------------------------------------

_X = r"X\s*\[\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*\]"
_X_RE = re.compile(_X)
_PD_RE = re.compile(r"PD\s*\[\s*%s(?:\s*,\s*%s)*\s*\]" % (_X, _X))


def parse_pd(text):
    """Parse `PD[X[a,b,c,d],...]` or the JSON mirror {"crossings": [...]}."""
    s = text.strip()
    if not s:
        raise DiagramError("empty PD code")
    if s.startswith("{"):
        try:
            obj = json.loads(s)
        except ValueError as exc:  # also an int past Python's digit limit
            raise DiagramError("bad JSON PD code: %s" % exc) from None
        if not isinstance(obj, dict) or "crossings" not in obj:
            raise DiagramError('JSON PD code needs a "crossings" key')
        crossings = obj["crossings"]
        if not isinstance(crossings, list):
            raise DiagramError('JSON "crossings" must be a list')
        for c in crossings:
            # bool is an int subclass, but true is not an edge label
            if not (isinstance(c, list) and len(c) == 4
                    and all(type(x) is int for x in c)):
                raise DiagramError("JSON crossing %s is not a list of 4 "
                                   "integer edge labels" % json.dumps(c))
        return PDCode(crossings)
    if not _PD_RE.fullmatch(s):
        if not re.fullmatch(r"PD\s*\[.*\]", s, re.S):
            raise DiagramError("PD code must look like PD[X[a,b,c,d],...]")
        raise DiagramError("malformed PD code: %r" % text)
    try:
        crossings = [tuple(map(int, g)) for g in _X_RE.findall(s)]
    except ValueError:  # a label past Python's int-string digit limit
        raise DiagramError("edge label too long in PD code") from None
    return PDCode(crossings)


def to_text(pd):
    return "PD[%s]" % ",".join("X[%d,%d,%d,%d]" % c for c in pd.crossings)


def to_json_obj(pd):
    return {"crossings": [list(c) for c in pd.crossings]}


# -- diagram operations -----------------------------------------------

def mirror(pd):
    """Exchange over and under strands at every crossing."""
    out = []
    for ci, (a, b, c, d) in enumerate(pd.crossings):
        if pd.over_in_slot(ci) == 3:
            out.append((d, a, b, c))
        else:
            out.append((b, c, d, a))
    return PDCode(out)


def _relabel(rows):
    """PDCode of crossings whose edges carry sortable keys, one key per
    edge in order along the knot, with the keys ranked 1..2n."""
    rank = {k: i for i, k in enumerate(sorted(set().union(*rows)), start=1)}
    return PDCode([tuple(map(rank.get, row)) for row in rows])


def renumber(pd, crossing_perm, basepoint_edge=1):
    """Permute the crossing list and shift edge labels so numbering starts
    at basepoint_edge."""
    n = pd.n
    perm = list(crossing_perm)
    if sorted(perm) != list(range(n)):
        raise DiagramError("invalid crossing permutation %r" % (perm,))
    if not 1 <= basepoint_edge <= 2 * n:
        raise DiagramError("basepoint edge %r out of range" % (basepoint_edge,))
    return _relabel([tuple((x - basepoint_edge) % (2 * n)
                           for x in pd.crossings[k]) for k in perm])


def _remove_crossings(pd, indices):
    """Delete the given crossings.  Each one joins both its incoming edges
    (under and over) to their successors; a run of joined edges becomes one
    edge, keyed by its smallest label."""
    removed = set(indices)
    if len(removed) >= pd.n:
        raise MoveError("removal would leave no crossings")
    joined = {x for ci in removed for x in (pd.crossings[ci][0],
                                            pd.over_in(ci))}  # x ~ succ(x)
    m = pd.num_edges
    key = {}
    for x in range(1, m + 1):
        key[x] = key[x - 1] if x - 1 in joined else x
    if m in joined:  # the run through m -> 1 is keyed by 1
        key = {x: 1 if k == key[m] else k for x, k in key.items()}
    try:
        return _relabel([tuple(map(key.get, cr))
                         for ci, cr in enumerate(pd.crossings)
                         if ci not in removed])
    except DiagramError as exc:
        raise MoveError("removal produced an invalid diagram: %s" % exc) \
            from None


def _split_edges(pd, edges):
    """Key the darts of pd as if each listed edge were cut into pieces
    (e, 0), (e, 1), (e, 2) along the knot: an uncut edge and a cut edge's
    tail dart get piece 0, a cut edge's head dart piece 2."""
    return [tuple((x, 2 if x in edges and pd.is_head(ci, pos) else 0)
                  for pos, x in enumerate(cr))
            for ci, cr in enumerate(pd.crossings)]


def r1_add(pd, edge, sign):
    """Add a kink on the given edge.  The strand passes under first."""
    if not 1 <= edge <= pd.num_edges:
        raise MoveError("edge %r out of range" % (edge,))
    if sign not in (1, -1):
        raise MoveError("kink sign must be +1 or -1")
    out = _split_edges(pd, [edge])
    E = [(edge, k) for k in range(3)]
    out.append((E[0], E[2], E[1], E[1]) if sign == 1
               else (E[0], E[1], E[1], E[2]))
    return _relabel(out)


def r1_remove(pd, crossing):
    """Remove a kink crossing (1-based index)."""
    ci = crossing - 1
    if not 0 <= ci < pd.n:
        raise MoveError("crossing %r out of range" % (crossing,))
    cr = pd.crossings[ci]
    if len(set(cr)) == 4:
        raise MoveError("crossing %d is not a kink" % crossing)
    return _remove_crossings(pd, [ci])


def _face_sides(pd, face):
    """Edge label -> +1 if the face lies on the left of its orientation,
    else -1 (an edge's first dart on the face wins)."""
    return {pd.crossings[ci][pos]: 1 if pd.is_head(ci, pos) else -1
            for ci, pos in reversed(face)}


def _r2_sides(pd, e, f):
    """(s_e, s_f) on the first face bordered by both edges."""
    if e == f:
        raise MoveError("R2 needs two distinct edges")
    for face in pd.faces():
        sides = _face_sides(pd, face)
        if e in sides and f in sides:
            return sides[e], sides[f]
    raise MoveError("edges %r and %r do not share a face" % (e, f))


def r2_add(pd, edge_over, edge_under):
    """Push edge_over across a shared face and over edge_under, in the one
    chirality that keeps the diagram planar: -s_e*s_f, read off the face."""
    e, f = edge_over, edge_under
    s_e, s_f = _r2_sides(pd, e, f)
    E = [(e, k) for k in range(3)]
    F = [(f, k) for k in range(3)]
    out = _split_edges(pd, [e, f])
    table = {
        (1, 1): ((F[1], E[1], F[2], E[0]), (F[0], E[1], F[1], E[2])),
        (1, -1): ((F[0], E[1], F[1], E[0]), (F[1], E[1], F[2], E[2])),
        (-1, 1): ((F[0], E[0], F[1], E[1]), (F[1], E[2], F[2], E[1])),
        (-1, -1): ((F[1], E[0], F[2], E[1]), (F[0], E[2], F[1], E[1])),
    }
    out.extend(table[(s_f, s_e)])
    return _relabel(out)


def _clasp(pd, face_index):
    """The two crossings of the removable clasp at a bigon face."""
    faces = pd.faces()
    if not 0 <= face_index < len(faces):
        raise MoveError("face index %r out of range" % (face_index,))
    face = faces[face_index]
    if len(face) != 2:
        raise MoveError("face %d is not a bigon" % face_index)
    t1, t2 = face
    c1, c2 = t1[0], t2[0]
    if c1 == c2:
        raise MoveError("degenerate bigon at a single crossing")
    x = pd.crossings[t1[0]][t1[1]]
    y = pd.crossings[t2[0]][t2[1]]
    if x == y:
        raise MoveError("degenerate bigon along a single edge")
    # a clasp: one edge is under (0) at both crossings, the other over (1)
    levels = [{pos % 2 for _, pos in pd._darts[z]} for z in (x, y)]
    if levels not in ([{0}, {1}], [{1}, {0}]):
        raise MoveError("bigon is not a removable clasp")
    return [c1, c2]


def r2_remove(pd, face_index):
    """Undo a clasp: the face must be a bigon with a coherent over-strand."""
    return _remove_crossings(pd, _clasp(pd, face_index))


def _removals(pd):
    """The kinks and clasps that can come off, kinks first, as (move spec,
    crossings to delete); the faces are traced only when no kink is left.
    A removal must leave a crossing."""
    if pd.n > 1:
        for ci, cr in enumerate(pd.crossings):
            if len(set(cr)) < 4:
                yield {"move": "r1_remove", "crossing": ci + 1}, [ci]
    if pd.n > 2:
        for fi, face in enumerate(pd.faces()):
            if len(face) == 2:
                try:
                    clasp = _clasp(pd, fi)
                except MoveError:
                    continue
                yield {"move": "r2_remove", "face": fi}, clasp


def reduced(pd):
    """Remove kinks (R1) and clasps (R2) while one applies: the same knot
    in at most as many crossings."""
    while (site := next(_removals(pd), None)) is not None:
        pd = _remove_crossings(pd, site[1])
    return pd


def _r3_rows(pd, face_index):
    """The crossing rows after sliding a strand across a triangle face.

    The strand of a triangle side x runs pred(x) -> x -> succ(x) and meets
    its two triangle crossings in the opposite order after the move."""
    faces = pd.faces()
    if not 0 <= face_index < len(faces):
        raise MoveError("face index %r out of range" % (face_index,))
    face = faces[face_index]
    if len(face) != 3:
        raise MoveError("face %d is not a triangle" % face_index)
    labels = [pd.crossings[ci][pos] for ci, pos in face]
    if len(set(labels)) != 3 or len({ci for ci, _ in face}) != 3:
        raise MoveError("degenerate triangle")
    ed = pd._darts
    pairs = {}  # crossing -> {0: under (in, out), 1: over (in, out)}
    for x in labels:
        pred, succ = (x - 2) % pd.num_edges + 1, pd.succ(x)
        for ci, pos in ed[x]:
            pair = (pred, x) if pd.is_head(ci, pos) else (x, succ)
            pairs.setdefault(ci, {})[pos % 2] = pair
    # level check: one strand over at both its crossings, one under at both
    if sorted(sum(pos % 2 for _, pos in ed[x]) for x in labels) != [0, 1, 2]:
        raise MoveError("triangle strands are not level-ordered")
    out = list(pd.crossings)
    for ci, p in pairs.items():
        (uin, uout), (oin, oout) = p[0], p[1]
        out[ci] = ((uin, oout, uout, oin) if pd.sign(ci) == 1
                   else (uin, oin, uout, oout))
    return out


def r3(pd, face_index):
    """Slide a strand across a crossing (triangle move)."""
    rows = _r3_rows(pd, face_index)
    try:
        return PDCode(rows)
    except DiagramError as exc:
        raise MoveError("R3 produced an invalid diagram: %s" % exc) from None


def apply_move(pd, move):
    """Apply a ReidemeisterSpec dict; see the individual move functions."""
    if not isinstance(move, dict):
        raise MoveError("move spec %r lacks the key 'move'" % (move,))
    kind = move.get("move")

    def arg(key):
        if key not in move:
            raise MoveError("%s move needs the key %r" % (kind, key))
        return move[key]

    if kind == "r1_add":
        return r1_add(pd, arg("edge"), move.get("sign", 1))
    if kind == "r1_remove":
        return r1_remove(pd, arg("crossing"))
    if kind == "r2_add":
        s_e, s_f = _r2_sides(pd, arg("over"), arg("under"))
        if move.get("chirality", -s_e * s_f) != -s_e * s_f:
            raise MoveError("this R2 is planar only with chirality %d"
                            % (-s_e * s_f))
        return r2_add(pd, move["over"], move["under"])
    if kind == "r2_remove":
        return r2_remove(pd, arg("face"))
    if kind == "r3":
        return r3(pd, arg("face"))
    raise MoveError("unknown move %r" % (kind,))


def available_moves(pd):
    """Enumerate applicable move specs (deterministic order); the sites are
    found by their checks alone, and nothing is built."""
    out = [{"move": "r1_add", "edge": e, "sign": s}
           for e in range(1, pd.num_edges + 1) for s in (1, -1)]
    out.extend(spec for spec, _ in _removals(pd))
    chirality = {}  # r2_add reads the first face the two edges share
    for face in pd.faces():
        sides = _face_sides(pd, face)
        for e in sorted(sides):
            for f in sorted(sides):
                if e != f:
                    chirality.setdefault((e, f), -sides[e] * sides[f])
    out.extend({"move": "r2_add", "over": e, "under": f, "chirality": chi}
               for (e, f), chi in chirality.items())
    for fi, face in enumerate(pd.faces()):
        if len(face) == 3:
            try:
                _r3_rows(pd, fi)
            except MoveError:
                continue
            out.append({"move": "r3", "face": fi})
    return out
