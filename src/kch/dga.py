"""The framed knot DGA of a diagram: generator matrices, the four
auxiliary matrices, the differential, and its self-checks.

The matrix entries follow the case tables keyed on (crossing, arc); when
several case conditions hold at one entry (degenerate diagrams where a
crossing's three arcs are not distinct) the contributions are summed, with
the diagonal convention a_ii = 1 + m.  The differential is

    dA = 0,  dB = PsiL.A,  dC = A.PsiR,  dD = B.PsiR - PsiL.C,
    d e_a = (B.PsiR1 - PsiL2.C)_aa,

extended to products by the graded Leibniz rule.
"""

from __future__ import annotations

from .laurent import LaurentPoly
from .ncalg import Derivation, Generator, NCMatrix, NCPoly


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
    eps1 = cd.eps[0]

    def zero_matrix():
        return [[NCPoly.zero() for _ in range(n)] for _ in range(n)]

    psi_l = zero_matrix()
    psi_r = zero_matrix()
    psi_l2 = zero_matrix()
    psi_r1 = zero_matrix()
    for al in range(1, n + 1):
        o, l, r = cd.o[al - 1], cd.l[al - 1], cd.r[al - 1]
        row = psi_l[al - 1]
        col_unit = LaurentPoly.lam(-eps1) if al == 1 else LaurentPoly.const(1)
        row[r - 1] = row[r - 1] + NCPoly.scalar(col_unit)
        row[l - 1] = row[l - 1] + NCPoly.scalar(LaurentPoly.mu())
        row[o - 1] = row[o - 1] + _a_entry(l, o, sign=-1)

        r_unit = (LaurentPoly.unit(1, eps1, 1) if al == 1
                  else LaurentPoly.mu())
        psi_r[r - 1][al - 1] = psi_r[r - 1][al - 1] + NCPoly.scalar(r_unit)
        psi_r[l - 1][al - 1] = psi_r[l - 1][al - 1] + NCPoly.scalar(1)
        psi_r[o - 1][al - 1] = psi_r[o - 1][al - 1] + _a_entry(o, l, sign=-1)

        psi_l2[al - 1][l - 1] = psi_l2[al - 1][l - 1] \
            + NCPoly.scalar(LaurentPoly.mu())
        psi_l2[al - 1][o - 1] = psi_l2[al - 1][o - 1] + _a_entry(l, o, sign=-1)

        psi_r1[r - 1][al - 1] = psi_r1[r - 1][al - 1] + NCPoly.scalar(r_unit)

    a_mat = NCMatrix([[_a_entry(i, j) for j in range(1, n + 1)]
                      for i in range(1, n + 1)])
    return {
        "psi_l": NCMatrix(psi_l),
        "psi_r": NCMatrix(psi_r),
        "psi_l2": NCMatrix(psi_l2),
        "psi_r1": NCMatrix(psi_r1),
        "A": a_mat,
    }


class FramedKnotDGA:
    """Generators with degrees, the matrices, and the differential table.

    ``matrices`` also holds the images dB = PsiL.A and dC = A.PsiR, whose
    entries are the relations of the degree-0 presentation."""

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


def build_dga(cd):
    """Assemble the framed knot DGA for the given crossing data."""
    n = cd.n
    mats = build_matrices(cd)
    a, psi_l, psi_r = mats["A"], mats["psi_l"], mats["psi_r"]
    b, c, d = (NCMatrix([[NCPoly.gen(Generator(kind, i, j))
                          for j in range(1, n + 1)] for i in range(1, n + 1)])
               for kind in "bcd")
    mats = dict(mats, B=b, C=c, D=d)

    images = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                images[Generator("a", i, j)] = NCPoly.zero()
    db = psi_l * a
    dc = a * psi_r
    mats["dB"], mats["dC"] = db, dc
    dd = b * psi_r - psi_l * c
    # d e_a needs only the diagonal of B.PsiR1 - PsiL2.C
    de = [x - y for x, y in zip(b.product_diagonal(mats["psi_r1"]),
                                mats["psi_l2"].product_diagonal(c))]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            images[Generator("b", i, j)] = db[i - 1, j - 1]
            images[Generator("c", i, j)] = dc[i - 1, j - 1]
            images[Generator("d", i, j)] = dd[i - 1, j - 1]
        images[Generator("e", i)] = de[i - 1]
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
