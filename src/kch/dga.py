"""The framed knot DGA of a diagram: the four auxiliary matrices, A, the
images dB and dC, the differential, built on first read, and its checks.

The matrix entries follow the case tables keyed on (crossing, arc); when
several case conditions hold at one entry (degenerate diagrams where a
crossing's three arcs are not distinct) the contributions are summed, with
the diagonal convention a_ii = 1 + m.  The differential is

    dA = 0,  dB = PsiL.A,  dC = A.PsiR,  dD = B.PsiR - PsiL.C,
    d e_a = (B.PsiR1 - PsiL2.C)_aa,

extended to products by the graded Leibniz rule.  Row a of PsiL and PsiL2
and column a of PsiR and PsiR1 come from crossing a alone and hold at most
three nonzero entries, so only those are kept, PsiL and PsiL2 as rows and
PsiR and PsiR1 as columns.  B, C and D, the matrices of the b_ij, c_ij
and d_ij, are never formed: each entry of a product is summed over the
nonzero entries of one such row or column.
"""

from __future__ import annotations

from functools import cached_property

from .laurent import LaurentPoly
from .ncalg import Derivation, Generator, NCPoly, _mul_into, _poly

# The DGA of a diagram with more crossings than this is refused before
# anything is allocated.  It has 4n^2 generators, and building and
# checking it costs time and memory in proportion: `kch dga --check` on
# the unknot drawn with n R1 kinks took 0.4-0.6 s and 45 MB at n = 128,
# 1.9-2.2 s and 133 MB at n = 256 (2-core VM, Python 3.11.7).
MAX_DGA_CROSSINGS = 256


class IntractableError(RuntimeError):
    """A stage exceeded its size bound."""


def _check_size(n):
    if n > MAX_DGA_CROSSINGS:
        raise IntractableError("dga: %d crossings exceed the bound %d"
                               % (n, MAX_DGA_CROSSINGS))


def generator_counts(n):
    """Generators by degree of the DGA of an n-crossing diagram: the a_ij
    (i != j), the b_ij and c_ij, and the d_ij and e_i.  Raises
    IntractableError past MAX_DGA_CROSSINGS, as build_matrices does."""
    _check_size(n)
    return {0: n * (n - 1), 1: 2 * n * n, 2: n * n + n}


def _a_entry(i, j, sign=1):
    """sign * A_ij as an NCPoly (diagonal entries are 1 + m)."""
    if i == j:
        return NCPoly.scalar(LaurentPoly.const(sign)
                             + LaurentPoly.unit(sign, 0, 1))
    return NCPoly.gen(Generator("a", i, j), LaurentPoly.const(sign))


def _sparse(*entries):
    """The (k, NCPoly) list of a row or column from its case-table entries
    (k, x), k 1-based: entries at one k summed in the given order, zero
    sums dropped, k made 0-based and ascending."""
    acc = {}
    for k, x in entries:
        acc[k] = acc[k] + x if k in acc else x
    return [(k - 1, acc[k]) for k in sorted(acc) if acc[k]]


def build_matrices(cd):
    """PsiL and PsiL2 as rows, PsiR and PsiR1 as columns, of nonzero
    entries (k, NCPoly) in ascending k, and A as rows of NCPoly, for the
    given crossing data.

    Entries are indexed from 0 internally; crossing/arc numbers in the
    crossing data are 1-based.
    """
    n = cd.n
    _check_size(n)
    eps1 = cd.eps[0]
    mu = NCPoly.scalar(LaurentPoly.mu())
    mats = {"psi_l": [], "psi_r": [], "psi_l2": [], "psi_r1": []}
    for al in range(1, n + 1):
        o, l, r = cd.o[al - 1], cd.l[al - 1], cd.r[al - 1]
        col_unit = LaurentPoly.lam(-eps1) if al == 1 else LaurentPoly.const(1)
        r_unit = NCPoly.scalar(LaurentPoly.unit(1, eps1, 1) if al == 1
                               else LaurentPoly.mu())
        mats["psi_l"].append(_sparse((r, NCPoly.scalar(col_unit)), (l, mu),
                                     (o, _a_entry(l, o, sign=-1))))
        mats["psi_r"].append(_sparse((r, r_unit), (l, NCPoly.scalar(1)),
                                     (o, _a_entry(o, l, sign=-1))))
        mats["psi_l2"].append(_sparse((l, mu), (o, _a_entry(l, o, sign=-1))))
        mats["psi_r1"].append(_sparse((r, r_unit)))
    mats["A"] = [[_a_entry(i, j) for j in range(1, n + 1)]
                 for i in range(1, n + 1)]
    return mats


def _sum_of_products(pairs):
    """Sum of the products x*y over the (x, y) pairs, in order."""
    t = {}
    for x, y in pairs:
        _mul_into(t, x.terms, y.terms)
    return _poly(t)


def relation_products(mats):
    """dB = PsiL.A and dC = A.PsiR as lists of rows.  Each entry is summed
    over the nonzero entries of a PsiL row or PsiR column in ascending k;
    every entry of A is a single term, so the words of one product never
    coincide and each product adds straight into the sum."""
    a = mats["A"]
    cols = range(len(a))
    return ([[_sum_of_products((x, a[k][j]) for k, x in row) for j in cols]
             for row in mats["psi_l"]],
            [[_sum_of_products((a_row[k], x) for k, x in col)
              for col in mats["psi_r"]] for a_row in a])


def _d_image(b_row, right, left, c_col):
    """(B.R - L.C) at one entry: b_row[k]*R_k over the nonzero entries
    (k, NCPoly) of R's column, then -L_k*c_col[k] over those of L's row,
    in ascending k; b_row and c_col hold one-letter words."""
    t = {}
    for k, x in right:
        b = b_row[k]
        for w, c in x.terms.items():
            t[b + w] = c
    for k, x in left:
        c_k = c_col[k]
        for w, c in x.terms.items():
            t[w + c_k] = -c
    return _poly(t)


class FramedKnotDGA:
    """The matrices, formed with the DGA, and the differential, built on
    first read.  ``matrices`` holds PsiL and PsiL2 as rows and PsiR and
    PsiR1 as columns of nonzero entries, A as rows (as build_matrices gives
    them), and the images dB = PsiL.A and dC = A.PsiR as rows, whose
    entries are the relations of the degree-0 presentation."""

    def __init__(self, cd):
        self.cd = cd
        self.n = cd.n
        self.matrices = mats = build_matrices(cd)
        mats["dB"], mats["dC"] = relation_products(mats)

    @cached_property
    def differential(self):
        n, mats = self.n, self.matrices
        # one-letter words of b_ij and c_ij, indexed from 0
        b, c = ([[(Generator(kind, i, j),) for j in range(1, n + 1)]
                 for i in range(1, n + 1)] for kind in "bc")
        c_cols = list(zip(*c))
        l_rows, r_cols = mats["psi_l"], mats["psi_r"]
        l2_rows, r1_cols = mats["psi_l2"], mats["psi_r1"]
        zero = NCPoly.zero()
        images = {Generator("a", i, j): zero for i in range(1, n + 1)
                  for j in range(1, n + 1) if i != j}
        for i in range(n):
            for j in range(n):
                images[b[i][j][0]] = mats["dB"][i][j]
                images[c[i][j][0]] = mats["dC"][i][j]
                images[Generator("d", i + 1, j + 1)] = _d_image(
                    b[i], r_cols[j], l_rows[i], c_cols[j])
            images[Generator("e", i + 1)] = _d_image(
                b[i], r1_cols[i], l2_rows[i], c_cols[i])
        return Derivation(images)

    @property
    def generators(self):
        return sorted(self.differential.images)


def build_dga(cd):
    """The framed knot DGA for the given crossing data."""
    return FramedKnotDGA(cd)


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
