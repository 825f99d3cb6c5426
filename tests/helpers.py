"""Shared test helpers: dense n x n references for the DGA's sparse
matrices, and diagrams of any size."""

from kch.ncalg import Generator, NCPoly


def kink_chain(n):
    """The unknot drawn with n kinks."""
    return "PD[" + ",".join("X[%d,%d,%d,%d]" % (2 * k - 1, 2 * k + 1 if k < n
                                                else 1, 2 * k, 2 * k)
                            for k in range(1, n + 1)) + "]"


def sparse(rows):
    """Rows (or columns) of a dense n x n list as (k, entry) over its
    nonzero entries, the form of build_matrices' Psi matrices."""
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
