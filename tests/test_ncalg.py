"""Tests for the noncommutative graded algebra layer."""

import pytest

from kch.laurent import LaurentPoly
from kch.ncalg import (Derivation, Generator, NCMatrix, NCPoly,
                       nc_unit_normalize)

A12 = Generator("a", 1, 2)
A21 = Generator("a", 2, 1)
B11 = Generator("b", 1, 1)
C11 = Generator("c", 1, 1)
D11 = Generator("d", 1, 1)
E1 = Generator("e", 1)


def test_degrees_and_names():
    assert A12.degree == 0
    assert B11.degree == 1 and C11.degree == 1
    assert D11.degree == 2 and E1.degree == 2
    assert A12.name() == "a12"
    assert E1.name() == "e1"
    assert Generator("a", 10, 2).name() == "a(10,2)"


def test_noncommutative_product():
    x = NCPoly.gen(A12)
    y = NCPoly.gen(A21)
    assert x * y != y * x
    assert (x * y).terms == {(A12, A21): LaurentPoly.const(1)}


def test_scalar_coercion_and_centrality():
    x = NCPoly.gen(A12)
    m = LaurentPoly.mu()
    assert m * x == x * m
    assert 3 * x == x * 3
    assert (m * x).terms == {(A12,): m}


def test_addition_cancels():
    x = NCPoly.gen(A12)
    assert x - x == NCPoly.zero()
    assert not (x + (-x))


def test_substitute():
    x, y = NCPoly.gen(A12), NCPoly.gen(A21)
    p = x * x + y
    q = p.substitute(A12, y + NCPoly.scalar(1))
    expected = (y + NCPoly.scalar(1)) * (y + NCPoly.scalar(1)) + y
    assert q == expected
    # substituting an absent generator is the identity
    assert p.substitute(B11, NCPoly.zero()) == p

    lam, mu = LaurentPoly.lam(), LaurentPoly.mu()
    b = NCPoly.gen(B11)
    several = NCPoly.gen(A12, mu) * b * x * y * x + x * x \
        + NCPoly.scalar(lam) + y * b
    repl = y * b + NCPoly.gen(A21, -lam) + NCPoly.scalar(mu + 2)
    cases = [
        # g first, in the middle and last; several terms and the empty word
        (several, repl),
        (several, NCPoly.scalar(lam)),
        # a zero replacement kills every word containing g
        (several, NCPoly.zero()),
        # x*y - y*x vanishes when x becomes a polynomial in y alone
        (x * y - y * x + b, y * y - NCPoly.gen(A21, mu)),
        # cancellation against a word that does not contain g
        (x * b - y * b * b, y * b),
    ]
    for poly, r in cases:
        assert poly.substitute(A12, r) == _substitute_by_letters(poly, A12, r)
    assert (x * y - y * x + b).substitute(A12, y * y) == b
    assert (x * b - y * b * b).substitute(A12, y * b) == NCPoly.zero()


def _substitute_by_letters(p, g, replacement):
    """Reference: rebuild each word as a product, one letter at a time."""
    out = NCPoly.zero()
    for w, c in p.terms.items():
        prod = NCPoly.scalar(c)
        for letter in w:
            prod = prod * (replacement if letter == g else NCPoly.gen(letter))
        out = out + prod
    return out


def test_homogeneous_degree():
    assert NCPoly.zero().homogeneous_degree() == "zero"
    assert NCPoly.gen(B11).homogeneous_degree() == 1
    assert (NCPoly.gen(B11) * NCPoly.gen(C11)).homogeneous_degree() == 2
    mixed = NCPoly.gen(B11) + NCPoly.gen(A12)
    assert mixed.homogeneous_degree() == "inhomogeneous"


def test_str_ordering():
    p = NCPoly.gen(A12) * NCPoly.gen(A21) - NCPoly.gen(A12) \
        + NCPoly.scalar(LaurentPoly.mu())
    assert str(p) == "(m) - a12 + a12*a21"


def test_nc_unit_normalize():
    lam = LaurentPoly.lam()
    p = NCPoly.gen(A12, -lam) + NCPoly.scalar(lam * lam)
    q = nc_unit_normalize(p)
    # scaled by -l^-1 so min exponents are 0 and the smallest word (the
    # constant) gets a positive coefficient
    assert q == NCPoly.scalar(lam) - NCPoly.gen(A12)
    assert nc_unit_normalize(q) == q
    with pytest.raises(ValueError):
        nc_unit_normalize(NCPoly.zero())


def test_matrix_identity_and_product():
    x = NCPoly.gen(A12)
    mat = NCMatrix([[x, NCPoly.scalar(1)], [NCPoly.zero(), x]])
    ident = NCMatrix.identity(2)
    assert mat * ident == mat
    sq = mat * mat
    assert sq[0, 1] == x + x
    with pytest.raises(ValueError):
        NCMatrix([[x, x]])


def test_derivation_leibniz_sign():
    # d(b) = a12, d(a12) = 0: then d(b*b) = a12*b - b*a12
    d = Derivation({B11: NCPoly.gen(A12), A12: NCPoly.zero()})
    bb = NCPoly.gen(B11) * NCPoly.gen(B11)
    got = d(bb)
    expected = NCPoly.gen(A12) * NCPoly.gen(B11) \
        - NCPoly.gen(B11) * NCPoly.gen(A12)
    assert got == expected


def test_derivation_even_degree_no_sign():
    # a12 has degree 0, so no sign flip across it
    d = Derivation({B11: NCPoly.gen(A12), A12: NCPoly.zero()})
    p = NCPoly.gen(A12) * NCPoly.gen(B11)
    assert d(p) == NCPoly.gen(A12) * NCPoly.gen(A12)


def test_derivation_squared_zero_on_sample():
    # d(d11) = b11*a12, d(b11) = a12, d(a12) = 0 is not square-zero;
    # d(d11) = b11*a12 - a12*b11 with d(b11) = a12 is:
    # d^2(d11) = a12*a12 - a12*a12 = 0
    d = Derivation({D11: NCPoly.gen(B11) * NCPoly.gen(A12)
                    - NCPoly.gen(A12) * NCPoly.gen(B11),
                    B11: NCPoly.gen(A12),
                    A12: NCPoly.zero()})
    assert d(d(NCPoly.gen(D11))) == NCPoly.zero()


def test_derivation_missing_image():
    d = Derivation({A12: NCPoly.zero()})
    with pytest.raises(KeyError):
        d(NCPoly.gen(B11))
