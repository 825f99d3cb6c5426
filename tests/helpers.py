"""Shared test helpers: dense n x n references for the DGA's sparse
matrices, diagrams of any size, by name and as braid closures, the unit
normal form that oracles compare relations by, and Sylvester matrices."""

from kch.diagram import PDCode, parse_pd
from kch.knots import bundled_table
from kch.laurent import LaurentPoly
from kch.ncalg import Generator, NCPoly


def bundled_knot(name):
    """The bundled knot called name, parsed."""
    for nm, code in bundled_table():
        if nm == name:
            return parse_pd(code)
    raise KeyError("no bundled knot named %r" % (name,))


def braid_pd(word, strands):
    """The closure of a braid word on strands strands as a PDCode: k
    stands for sigma_k and -k for its inverse.  Strands run downward;
    sigma_i is X[TL,BL,BR,TR] with the top-left strand under, its inverse
    X[TR,TL,BL,BR]; the strand entering at TL leaves at BR, the one
    entering at TR at BL.  The bottom edge at each position is the top
    edge there, and edges are numbered along the knot from the first
    crossing's incoming under-edge.  Raises ValueError on a link."""
    cur = list(range(strands))  # the edge at each position; tops 0..s-1
    rows = []
    for x in word:
        i = abs(x) - 1
        if not 0 <= i < strands - 1:
            raise ValueError("strand index %d out of range" % x)
        bl = strands + 2 * len(rows)
        br = bl + 1
        rows.append((cur[i], cur[i + 1], bl, br, x > 0))
        cur[i], cur[i + 1] = bl, br
    top = {e: k for k, e in enumerate(cur)}  # each bottom edge's top edge
    rows = [tuple(top.get(e, e) for e in row[:4]) + row[4:] for row in rows]
    succ = {}
    for tl, tr, bl, br, _ in rows:
        succ[tl], succ[tr] = br, bl
    e = rows[0][0] if rows[0][4] else rows[0][1]
    label = {}
    while e not in label:
        label[e] = len(label) + 1
        e = succ[e]
    if len(label) != 2 * len(rows):
        raise ValueError("the closure of %r is a link" % (word,))
    return PDCode([tuple(label[e] for e in ((tl, bl, br, tr) if plus
                                            else (tr, tl, bl, br)))
                   for tl, tr, bl, br, plus in rows])


def to_json_obj(pd):
    return {"crossings": [list(c) for c in pd.crossings]}


def kink_chain(n):
    """The unknot drawn with n kinks."""
    return "PD[" + ",".join("X[%d,%d,%d,%d]" % (2 * k - 1, 2 * k + 1 if k < n
                                                else 1, 2 * k, 2 * k)
                            for k in range(1, n + 1)) + "]"


def sparse(rows):
    """Rows (or columns) of a dense n x n list as (k, entry) over its
    nonzero entries, the form of FramedKnotDGA's Psi matrices."""
    return [[(k, e) for k, e in enumerate(row) if e] for row in rows]


def dense(lines, n, columns=False):
    """n x n list of NCPoly, zeros included, from rows (or columns, if
    columns) of nonzero entries (k, NCPoly)."""
    out = [[NCPoly.zero() for _ in range(n)] for _ in range(n)]
    for x, line in enumerate(lines):
        for k, entry in line:
            if columns:
                out[k][x] = entry
            else:
                out[x][k] = entry
    return out


def matmul(a, b):
    """The n^3 product loop over every k, zero entries included."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = NCPoly.zero()
            for k in range(n):
                s = s + a[i][k] * b[k][j]
            row.append(s)
        out.append(row)
    return out


def generator_matrix(kind, n):
    """The n x n matrix of the one-letter words of kind's generators."""
    return [[NCPoly.gen(Generator(kind, i, j)) for j in range(1, n + 1)]
            for i in range(1, n + 1)]


def nc_unit_normalize(p):
    """Scale by a unit ±l^a*m^b so the joint min exponents are 0 and the
    leading coefficient of the smallest word (shortest, then letter by
    letter) is positive: p and q have one form iff p = u*q for a unit u."""
    if not p:
        raise ValueError("cannot normalize the zero polynomial")
    i0 = min(i for c in p.terms.values() for (i, _) in c.terms)
    j0 = min(j for c in p.terms.values() for (_, j) in c.terms)
    if i0 or j0:
        u = LaurentPoly.unit(1, -i0, -j0)
        q = NCPoly({w: c * u for w, c in p.terms.items()})
    else:
        q = p
    w0 = min(q.terms, key=lambda w: (len(w), w))
    lead = q.terms[w0]
    if lead.terms[min(lead.terms)] < 0:
        q = -q
    return q


def sylvester_matrix(p, q):
    """Sylvester matrix of two UniPoly in x, entries LaurentPoly."""
    n, m = p.degree, q.degree
    size = n + m
    zero = LaurentPoly.zero()
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for r in range(m):
        rows.append([zero] * r + pc + [zero] * (size - r - n - 1))
    for r in range(n):
        rows.append([zero] * r + qc + [zero] * (size - r - m - 1))
    return rows
