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

Diagram components ("arcs") are maximal runs of edges uninterrupted by
undercrossings; there are n of them, numbered by smallest edge label.
Every move ``available_moves`` lists yields a planar diagram (``len(faces())
== n + 2``); R2 takes the one planar chirality from the face it crosses.
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

    __slots__ = ("crossings",)

    def __init__(self, crossings):
        self.crossings = [tuple(int(x) for x in c) for c in crossings]
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
        n = self.n
        if n < 1:
            raise DiagramError("a diagram needs at least one crossing")
        for c in self.crossings:
            if len(c) != 4:
                raise DiagramError("crossing %r does not have 4 edges" % (c,))
        counts = {}
        for c in self.crossings:
            for x in c:
                counts[x] = counts.get(x, 0) + 1
        if set(counts) != set(range(1, 2 * n + 1)):
            raise DiagramError("edge labels must be exactly 1..%d" % (2 * n))
        bad = [x for x, k in counts.items() if k != 2]
        if bad:
            raise DiagramError("edge labels %s do not appear exactly twice"
                               % sorted(bad))
        for ci, (a, b, c, d) in enumerate(self.crossings):
            if c != self.succ(a):
                raise DiagramError(
                    "crossing %d: under-edges %d -> %d are not consecutive"
                    % (ci + 1, a, c))
            if self.succ(b) != d and self.succ(d) != b:
                raise DiagramError(
                    "crossing %d: over-edges %d, %d are not consecutive"
                    % (ci + 1, b, d))

    # -- per-crossing structure --------------------------------------

    def over_in_slot(self, ci):
        """1 if the over-strand enters at position b, 3 if at position d."""
        a, b, c, d = self.crossings[ci]
        fwd = self.succ(b) == d
        bwd = self.succ(d) == b
        if fwd and bwd:
            # only possible for a 1-crossing diagram; the over strand is
            # entered right after the under-strand exits at c
            return 1 if b == c else 3
        return 1 if fwd else 3

    def over_in(self, ci):
        return self.crossings[ci][self.over_in_slot(ci)]

    def sign(self, ci):
        return 1 if self.over_in_slot(ci) == 3 else -1

    def is_head(self, ci, pos):
        """True iff the dart (crossing, position) is the incoming end of
        its edge."""
        if pos == 0:
            return True
        if pos == 2:
            return False
        return pos == self.over_in_slot(ci)

    # -- arcs ---------------------------------------------------------

    def arcs(self):
        """List of arcs (tuples of edge labels) ordered by smallest label."""
        m = self.num_edges
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
                if len(run) > m:
                    raise DiagramError("inconsistent edge structure")
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

    def edge_darts(self):
        m = {}
        for ci, cr in enumerate(self.crossings):
            for pos, x in enumerate(cr):
                m.setdefault(x, []).append((ci, pos))
        return m

    def faces(self):
        """Orbits of the face-tracing map; each face keeps the region on
        the right of the walk direction.  Deterministic order."""
        ed = self.edge_darts()

        def alpha(t):
            d1, d2 = ed[self.crossings[t[0]][t[1]]]
            return d2 if t == d1 else d1

        def step(t):
            ci, pos = alpha(t)
            return (ci, (pos + 1) % 4)

        seen = set()
        out = []
        for t0 in self.darts():
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
    o, l, r, eps = [], [], [], []
    degenerate = False
    for ci, (a, b, c, d) in enumerate(pd.crossings):
        s = pd.sign(ci)
        over = arc[b]
        if arc[b] != arc[d]:
            raise DiagramError("crossing %d: over-edges on different arcs"
                               % (ci + 1))
        if s == 1:
            rr, ll = arc[a], arc[c]
        else:
            ll, rr = arc[a], arc[c]
        if len({over, ll, rr}) < 3:
            degenerate = True
        o.append(over)
        l.append(ll)
        r.append(rr)
        eps.append(s)
    return CrossingData(n=pd.n, o=tuple(o), l=tuple(l), r=tuple(r),
                        eps=tuple(eps), degenerate=degenerate)


# -- parsing / serialization ------------------------------------------

_X_RE = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


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
    compact = re.sub(r"\s+", "", s)
    m = re.fullmatch(r"PD\[(.*)\]", compact)
    if not m:
        raise DiagramError("PD code must look like PD[X[a,b,c,d],...]")
    body = m.group(1)
    try:
        crossings = [tuple(int(g) for g in xm.groups())
                     for xm in _X_RE.finditer(body)]
    except ValueError:  # a label past Python's int-string digit limit
        raise DiagramError("edge label too long in PD code") from None
    leftover = _X_RE.sub("", body).replace(",", "")
    if leftover or not crossings:
        raise DiagramError("malformed PD code: %r" % text)
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


def renumber(pd, crossing_perm, basepoint_edge=1):
    """Permute the crossing list and shift edge labels so numbering starts
    at basepoint_edge."""
    n = pd.n
    perm = list(crossing_perm)
    if sorted(perm) != list(range(n)):
        raise DiagramError("invalid crossing permutation %r" % (perm,))
    if not 1 <= basepoint_edge <= 2 * n:
        raise DiagramError("basepoint edge %r out of range" % (basepoint_edge,))
    shift = basepoint_edge - 1

    def relabel(x):
        return (x - 1 - shift) % (2 * n) + 1

    out = [tuple(relabel(x) for x in pd.crossings[k]) for k in perm]
    return PDCode(out)


def _remove_crossings(pd, indices):
    """Delete the given crossings, merging the edges that ran through them."""
    removed = set(indices)
    if len(removed) >= pd.n:
        raise MoveError("removal would leave no crossings")
    parent = {x: x for x in range(1, pd.num_edges + 1)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for ci in removed:
        a, b, c, d = pd.crossings[ci]
        union(a, c)
        union(b, d)
    reps = sorted({find(x) for x in parent})
    rank = {rep: k + 1 for k, rep in enumerate(reps)}
    new = [tuple(rank[find(x)] for x in pd.crossings[ci])
           for ci in range(pd.n) if ci not in removed]
    try:
        return PDCode(new)
    except DiagramError as exc:
        raise MoveError("removal produced an invalid diagram: %s" % exc) \
            from None


def _split_edges(pd, edges):
    """Relabel darts after each listed edge is cut into three pieces.

    The piece at the edge's tail keeps the (shifted) old label and the
    piece at its head gets the old label plus 2, so the two darts of a
    split edge part ways."""
    es = sorted(set(edges))

    def shift(x):
        return x + 2 * sum(1 for e in es if e < x)

    out = []
    for ci, cr in enumerate(pd.crossings):
        row = []
        for pos, x in enumerate(cr):
            y = shift(x)
            if x in es and pd.is_head(ci, pos):
                y += 2
            row.append(y)
        out.append(tuple(row))
    return out


def r1_add(pd, edge, sign):
    """Add a kink on the given edge.  The strand passes under first."""
    if not 1 <= edge <= pd.num_edges:
        raise MoveError("edge %r out of range" % (edge,))
    if sign not in (1, -1):
        raise MoveError("kink sign must be +1 or -1")
    out = _split_edges(pd, [edge])
    e = edge
    if sign == 1:
        out.append((e, e + 2, e + 1, e + 1))
    else:
        out.append((e, e + 1, e + 1, e + 2))
    return PDCode(out)


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
    E = e + 2 * (f < e)
    F = f + 2 * (e < f)
    out = _split_edges(pd, [e, f])
    table = {
        (1, 1): ((F + 1, E + 1, F + 2, E), (F, E + 1, F + 1, E + 2)),
        (1, -1): ((F, E + 1, F + 1, E), (F + 1, E + 1, F + 2, E + 2)),
        (-1, 1): ((F, E, F + 1, E + 1), (F + 1, E + 2, F + 2, E + 1)),
        (-1, -1): ((F + 1, E, F + 2, E + 1), (F, E + 2, F + 1, E + 1)),
    }
    out.extend(table[(s_f, s_e)])
    return PDCode(out)


def r2_remove(pd, face_index):
    """Undo a clasp: the face must be a bigon with a coherent over-strand."""
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
    ed = pd.edge_darts()

    def slots(label):
        return [pos % 2 for ci, pos in ed[label]]  # 0 = under, 1 = over

    sx, sy = slots(x), slots(y)
    if not (sx[0] == sx[1] and sy[0] == sy[1] and sx[0] != sy[0]):
        raise MoveError("bigon is not a removable clasp")
    return _remove_crossings(pd, [c1, c2])


def r3(pd, face_index):
    """Slide a strand across a crossing (triangle move).

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
    ed = pd.edge_darts()
    pairs = {}  # crossing -> {0: under (in, out), 1: over (in, out)}
    for x in labels:
        pred, succ = (x - 2) % pd.num_edges + 1, pd.succ(x)
        for ci, pos in ed[x]:
            pair = (pred, x) if pd.is_head(ci, pos) else (x, succ)
            pairs.setdefault(ci, {})[pos % 2] = pair
    if any(len(p) != 2 for p in pairs.values()):
        raise MoveError("inconsistent over/under data at triangle")
    # level check: one strand over at both its crossings, one under at both
    if sorted(sum(pos % 2 for _, pos in ed[x]) for x in labels) != [0, 1, 2]:
        raise MoveError("triangle strands are not level-ordered")
    out = list(pd.crossings)
    for ci, p in pairs.items():
        (uin, uout), (oin, oout) = p[0], p[1]
        out[ci] = ((uin, oout, uout, oin) if pd.sign(ci) == 1
                   else (uin, oin, uout, oout))
    try:
        return PDCode(out)
    except DiagramError as exc:
        raise MoveError("R3 produced an invalid diagram: %s" % exc) from None


def apply_move(pd, move):
    """Apply a ReidemeisterSpec dict; see the individual move functions."""
    kind = move.get("move")
    if kind == "r1_add":
        return r1_add(pd, move["edge"], move.get("sign", 1))
    if kind == "r1_remove":
        return r1_remove(pd, move["crossing"])
    if kind == "r2_add":
        s_e, s_f = _r2_sides(pd, move["over"], move["under"])
        if move.get("chirality", -s_e * s_f) != -s_e * s_f:
            raise MoveError("this R2 is planar only with chirality %d"
                            % (-s_e * s_f))
        return r2_add(pd, move["over"], move["under"])
    if kind == "r2_remove":
        return r2_remove(pd, move["face"])
    if kind == "r3":
        return r3(pd, move["face"])
    raise MoveError("unknown move %r" % (kind,))


def available_moves(pd):
    """Enumerate applicable move specs (deterministic order)."""
    out = []
    for e in range(1, pd.num_edges + 1):
        for s in (1, -1):
            out.append({"move": "r1_add", "edge": e, "sign": s})
    if pd.n > 1:
        for ci in range(pd.n):
            if len(set(pd.crossings[ci])) < 4:
                out.append({"move": "r1_remove", "crossing": ci + 1})
    faces = pd.faces()
    chirality = {}  # r2_add reads the first face the two edges share
    for face in faces:
        sides = _face_sides(pd, face)
        for e in sorted(sides):
            for f in sorted(sides):
                if e != f:
                    chi = chirality.setdefault((e, f), -sides[e] * sides[f])
                    out.append({"move": "r2_add", "over": e, "under": f,
                                "chirality": chi})
    for fi, face in enumerate(faces):
        if len(face) == 2:
            try:
                r2_remove(pd, fi)
            except MoveError:
                continue
            out.append({"move": "r2_remove", "face": fi})
        elif len(face) == 3:
            try:
                r3(pd, fi)
            except MoveError:
                continue
            out.append({"move": "r3", "face": fi})
    return out
