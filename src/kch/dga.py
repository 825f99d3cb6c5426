"""The framed knot DGA of a diagram: the four auxiliary matrices and A,
the differential, and its self-checks.

The matrix entries follow the case tables keyed on (crossing, arc); when
several case conditions hold at one entry (degenerate diagrams where a
crossing's three arcs are not distinct) the contributions are summed, with
the diagonal convention a_ii = 1 + m.  The differential is

    dA = 0,  dB = PsiL.A,  dC = A.PsiR,  dD = B.PsiR - PsiL.C,
    d e_a = (B.PsiR1 - PsiL2.C)_aa,

extended to products by the graded Leibniz rule.  B, C and D, the
matrices of the b_ij, c_ij and d_ij, are never formed: each d_ij and e_a
image is summed over the nonzero entries (at most three) of a row of
PsiL or PsiL2 and a column of PsiR or PsiR1.
"""

from __future__ import annotations

from .laurent import LaurentPoly
from .ncalg import Derivation, Generator, NCMatrix, NCPoly, _nonzero, _poly

# build_matrices refuses a diagram with more crossings than this, before
# it allocates anything.  The DGA has 4n^2 generators, and building and
# checking it costs time and memory in proportion: `kch dga --check` on
# figure8 grown by R1 kinks took 1.9 s and 66 MB at n = 128, 6.4 s and
# 215 MB at n = 256 (2-core VM, Python 3.11.7).
MAX_DGA_CROSSINGS = 256


class IntractableError(RuntimeError):
    """A stage exceeded its size bound."""


def _a_entry(i, j, sign=1):
    """sign * A_ij as an NCPoly (diagonal entries are 1 + m)."""
    if i == j:
        return NCPoly.scalar(LaurentPoly.const(sign)
                             + LaurentPoly.unit(sign, 0, 1))
    return NCPoly.gen(Generator("a", i, j), LaurentPoly.const(sign))


def build_matrices(cd):
    """The matrices PsiL, PsiR, PsiL2, PsiR1 and A for given crossing data.

    Entries are indexed from 0 internally; crossing/arc numbers in the
    crossing data are 1-based.
    """
    n = cd.n
    if n > MAX_DGA_CROSSINGS:
        raise IntractableError("dga: %d crossings exceed the bound %d"
                               % (n, MAX_DGA_CROSSINGS))
    eps1 = cd.eps[0]
    mats = {key: [[NCPoly.zero() for _ in range(n)] for _ in range(n)]
            for key in ("psi_l", "psi_r", "psi_l2", "psi_r1")}

    def add(key, i, j, x):
        """Entry (i, j), 1-based, of the named matrix += x."""
        row = mats[key][i - 1]
        row[j - 1] = row[j - 1] + x

    for al in range(1, n + 1):
        o, l, r = cd.o[al - 1], cd.l[al - 1], cd.r[al - 1]
        col_unit = LaurentPoly.lam(-eps1) if al == 1 else LaurentPoly.const(1)
        add("psi_l", al, r, NCPoly.scalar(col_unit))
        add("psi_l", al, l, NCPoly.scalar(LaurentPoly.mu()))
        add("psi_l", al, o, _a_entry(l, o, sign=-1))
        r_unit = LaurentPoly.unit(1, eps1, 1) if al == 1 else LaurentPoly.mu()
        add("psi_r", r, al, NCPoly.scalar(r_unit))
        add("psi_r", l, al, NCPoly.scalar(1))
        add("psi_r", o, al, _a_entry(o, l, sign=-1))
        add("psi_l2", al, l, NCPoly.scalar(LaurentPoly.mu()))
        add("psi_l2", al, o, _a_entry(l, o, sign=-1))
        add("psi_r1", r, al, NCPoly.scalar(r_unit))
    mats = {key: NCMatrix(m) for key, m in mats.items()}
    mats["A"] = NCMatrix([[_a_entry(i, j) for j in range(1, n + 1)]
                          for i in range(1, n + 1)])
    return mats


class FramedKnotDGA:
    """Generators with degrees, the matrices, and the differential table.

    ``matrices`` holds PsiL, PsiR, PsiL2, PsiR1 and A (as build_matrices
    gives them) and the images dB = PsiL.A and dC = A.PsiR, whose entries
    are the relations of the degree-0 presentation."""

    def __init__(self, cd, matrices, differential):
        self.cd = cd
        self.n = cd.n
        self.matrices = matrices
        self.differential = differential

    @property
    def generators(self):
        return sorted(self.differential.images)

    def generator_counts(self):
        by_degree = {0: 0, 1: 0, 2: 0}
        for g in self.differential.images:
            by_degree[g.degree] += 1
        return by_degree


def _d_image(b_row, right, left, c_col):
    """(B.R - L.C) at one entry: b_row[k]*R_k over the nonzero entries
    (k, terms) of R's column, then -L_k*c_col[k] over those of L's row, in
    ascending k; b_row and c_col hold one-letter words."""
    t = {}
    for k, terms in right:
        b = b_row[k]
        for w, c in terms.items():
            t[b + w] = c
    for k, terms in left:
        c_k = c_col[k]
        for w, c in terms.items():
            t[w + c_k] = -c
    return _poly(t)


def build_dga(cd):
    """Assemble the framed knot DGA for the given crossing data."""
    n = cd.n
    mats = build_matrices(cd)
    a = mats["A"]
    mats["dB"], mats["dC"] = db, dc = mats["psi_l"] * a, a * mats["psi_r"]
    # one-letter words of b_ij and c_ij, indexed from 0; the nonzero
    # entries of each row of PsiL and PsiL2 and each column of PsiR, PsiR1
    b, c = ([[(Generator(kind, i, j),) for j in range(1, n + 1)]
             for i in range(1, n + 1)] for kind in "bc")
    c_cols = list(zip(*c))
    l_rows, l2_rows = ([_nonzero(row) for row in mats[key].entries]
                       for key in ("psi_l", "psi_l2"))
    r_cols, r1_cols = ([_nonzero(col) for col in zip(*mats[key].entries)]
                       for key in ("psi_r", "psi_r1"))

    images = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                images[Generator("a", i, j)] = NCPoly.zero()
    for i in range(n):
        for j in range(n):
            images[b[i][j][0]] = db[i, j]
            images[c[i][j][0]] = dc[i, j]
            images[Generator("d", i + 1, j + 1)] = _d_image(
                b[i], r_cols[j], l_rows[i], c_cols[j])
        images[Generator("e", i + 1)] = _d_image(
            b[i], r1_cols[i], l2_rows[i], c_cols[i])
    return FramedKnotDGA(cd, mats, Derivation(images))


def check_d_squared(dga):
    """Apply the differential twice to every generator; report residues."""
    d = dga.differential
    failures = []
    for g in dga.generators:
        res = d.apply(d.images[g])
        if res:
            failures.append({"generator": g.name(), "residue": str(res)})
    return {"check": "d_squared", "pass": not failures, "failures": failures}


def check_grading(dga):
    """Every differential image must be homogeneous of degree one less."""
    d = dga.differential
    failures = []
    for g in dga.generators:
        img = d.images[g]
        deg = img.homogeneous_degree()
        if deg == "zero":
            continue
        if deg == "inhomogeneous" or deg != g.degree - 1:
            failures.append({"generator": g.name(), "image_degree": str(deg),
                             "expected": g.degree - 1})
    return {"check": "grading", "pass": not failures, "failures": failures}
