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
    IntractableError past MAX_DGA_CROSSINGS, as FramedKnotDGA does."""
    _check_size(n)
    return {0: n * (n - 1), 1: 2 * n * n, 2: n * n + n}


def _a_entry(i, j):
    """A_ij as an NCPoly (diagonal entries are 1 + m)."""
    if i == j:
        return NCPoly.scalar(LaurentPoly.const(1) + LaurentPoly.mu())
    return NCPoly.gen(Generator("a", i, j))


def _sparse(*entries):
    """The (k, NCPoly) list of a row or column from its case-table entries
    (k, x), k 1-based: entries at one k summed in the given order, zero
    sums dropped, k made 0-based and ascending."""
    acc = {}
    for k, x in entries:
        acc[k] = acc[k] + x if k in acc else x
    return [(k - 1, acc[k]) for k in sorted(acc) if acc[k]]


def _sum_of_products(pairs):
    """Sum of the products x*y over the (x, y) pairs, in order."""
    t = {}
    for x, y in pairs:
        _mul_into(t, x.terms, y.terms)
    return _poly(t)


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
    """The framed knot DGA of the given crossing data: its matrices,
    formed here, and its differential, built on first read.

    ``psi_l`` and ``psi_l2`` are rows and ``psi_r`` and ``psi_r1`` columns
    of nonzero entries (k, NCPoly) in ascending 0-based k; the Psi entries
    negate A's a_ij.  ``a`` is A as rows of NCPoly, and ``db`` = PsiL.A and
    ``dc`` = A.PsiR are rows whose entries are the relations of the
    degree-0 presentation.  Each entry of a product is summed over the
    nonzero entries of a PsiL row or PsiR column in ascending k; every
    entry of A is a single term, so the words of one product never
    coincide and each product adds straight into the sum.  Crossing and
    arc numbers in the crossing data are 1-based."""

    def __init__(self, cd):
        self.n = n = cd.n
        _check_size(n)
        self.a = a = [[_a_entry(i, j) for j in range(1, n + 1)]
                      for i in range(1, n + 1)]
        eps1 = cd.eps[0]
        mu = NCPoly.scalar(LaurentPoly.mu())
        self.psi_l, self.psi_r, self.psi_l2, self.psi_r1 = [], [], [], []
        for al in range(1, n + 1):
            o, l, r = cd.o[al - 1], cd.l[al - 1], cd.r[al - 1]
            col_unit = (LaurentPoly.lam(-eps1) if al == 1
                        else LaurentPoly.const(1))
            r_unit = NCPoly.scalar(LaurentPoly.unit(1, eps1, 1) if al == 1
                                   else LaurentPoly.mu())
            self.psi_l.append(_sparse((r, NCPoly.scalar(col_unit)), (l, mu),
                                      (o, -a[l - 1][o - 1])))
            self.psi_r.append(_sparse((r, r_unit), (l, NCPoly.scalar(1)),
                                      (o, -a[o - 1][l - 1])))
            self.psi_l2.append(_sparse((l, mu), (o, -a[l - 1][o - 1])))
            self.psi_r1.append(_sparse((r, r_unit)))
        cols = range(n)
        self.db = [[_sum_of_products((x, a[k][j]) for k, x in row)
                    for j in cols] for row in self.psi_l]
        self.dc = [[_sum_of_products((a_row[k], x) for k, x in col)
                    for col in self.psi_r] for a_row in a]

    @cached_property
    def differential(self):
        n = self.n
        # one-letter words of b_ij and c_ij, indexed from 0
        b, c = ([[(Generator(kind, i, j),) for j in range(1, n + 1)]
                 for i in range(1, n + 1)] for kind in "bc")
        c_cols = list(zip(*c))
        zero = NCPoly.zero()
        # the a_ij of A, off its diagonal, have zero images
        images = {w[0]: zero for row in self.a for entry in row
                  for w in entry.terms if w}
        for i in range(n):
            for j in range(n):
                images[b[i][j][0]] = self.db[i][j]
                images[c[i][j][0]] = self.dc[i][j]
                images[Generator("d", i + 1, j + 1)] = _d_image(
                    b[i], self.psi_r[j], self.psi_l[i], c_cols[j])
            images[Generator("e", i + 1)] = _d_image(
                b[i], self.psi_r1[i], self.psi_l2[i], c_cols[i])
        return Derivation(images)

    @property
    def generators(self):
        return sorted(self.differential.images)


def build_dga(cd):
    """The framed knot DGA for the given crossing data."""
    return FramedKnotDGA(cd)


def check_d_squared(dga):
    """Apply the differential twice to every generator; the failures, one
    per generator whose d^2 is nonzero, with the residue."""
    d = dga.differential
    failures = []
    for g in dga.generators:
        res = d.apply(d.images[g])
        if res:
            failures.append({"generator": g.name(), "residue": str(res)})
    return failures


def check_grading(dga):
    """Every differential image must be homogeneous of degree one less;
    the failures, one per generator whose image is not."""
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
    return failures
