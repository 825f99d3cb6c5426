"""Tests for the noncommutative graded algebra layer."""

import copy
import pickle
import random

import pytest
from helpers import dense, matmul
from hypothesis import given, settings
from hypothesis import strategies as st

from kch.dga import build_dga, build_matrices, relation_products
from kch.diagram import apply_move, available_moves, crossing_data
from kch.knots import bundled_knot, bundled_table
from kch.laurent import MINUS_ONE, ONE, LaurentPoly
from kch.ncalg import (Derivation, Generator, NCPoly, _accumulate,
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
    assert str(B11) == "b11" and "%s" % (B11,) == "b11"


def test_generator_is_an_int():
    assert isinstance(B11, int)
    b11 = Generator("b", 1, 1)
    assert B11 == b11 and hash(B11) == hash(b11)
    assert E1 == Generator("e", 1, 0) and B11 != C11
    gens = [E1, D11, Generator("a", 2, 1), C11, A12, B11,
            Generator("a", 10, 2)]
    assert sorted(gens) == [A12, Generator("a", 2, 1),
                            Generator("a", 10, 2), B11, C11, D11, E1]
    assert (Generator("a", 1, 10**4) < Generator("a", 2, 0)
            < Generator("b", 0, 0) < Generator("e", 1))
    for kind in "abcde":
        for i, j in [(0, 0), (1, 10**4), (10**4, 1), (10**4, 10**4)]:
            g = Generator(kind, i, j)
            assert (g.kind, g.i, g.j) == (kind, i, j)
    assert repr(A12) == "Generator('a', 1, 2)"
    for g in [A12, E1, Generator("d", 10**4, 7)]:
        for copied in [copy.deepcopy(g), pickle.loads(pickle.dumps(g))]:
            assert type(copied) is Generator and copied == g
            assert (copied.kind, copied.i, copied.j) == (g.kind, g.i, g.j)
    with pytest.raises(ValueError):
        Generator("a", -1, 2)
    with pytest.raises(ValueError):
        Generator("f", 1, 2)


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


def _degree_by_letters(p):
    """homogeneous_degree from each letter's own degree."""
    degs = {sum(g.degree for g in w) for w in p.terms}
    if not degs:
        return "zero"
    return degs.pop() if len(degs) == 1 else "inhomogeneous"


@pytest.mark.parametrize("seed", range(20))
def test_homogeneous_degree_matches_letter_degrees(seed):
    rng = random.Random(seed)
    # indices at both ends of each kind's range, where it meets the next
    letters = [Generator(kind, i, j) for kind in "abcde"
               for i, j in ((0, 0), (1, 2), (14_653, 14_653))]
    words = [tuple(rng.choice(letters) for _ in range(rng.randrange(6)))
             for _ in range(8)]
    polys = [NCPoly(), NCPoly({(): ONE})]
    polys += [NCPoly({w: ONE for w in rng.sample(words, k)})
              for k in (1, 1, 2, 3, 8)]
    # words of degree 3 from different mixes of kinds
    polys.append(NCPoly({(letters[3], letters[11]): ONE,
                         (letters[12], letters[0], letters[8]): ONE,
                         (letters[5], letters[7], letters[4]): ONE}))
    assert polys[-1].homogeneous_degree() == 3
    for p in polys:
        assert p.homogeneous_degree() == _degree_by_letters(p), p


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


# polynomials over plain int letters, with small Laurent coefficients
_small_coeffs = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-3, 3).filter(bool), min_size=1, max_size=3).map(LaurentPoly)
_small_polys = st.dictionaries(
    st.lists(st.integers(0, 3), max_size=3).map(tuple), _small_coeffs,
    min_size=1, max_size=4).map(NCPoly)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(p=_small_polys, sign=st.sampled_from([1, -1]), a=st.integers(-3, 3),
       b=st.integers(-3, 3))
def test_nc_unit_normalize_identifies_unit_multiples(p, sign, a, b):
    # simplify drops a relation whose form equals an earlier one's
    unit = LaurentPoly.unit(sign, a, b)
    form = nc_unit_normalize(p)
    assert nc_unit_normalize(form) == form
    assert nc_unit_normalize(p * unit) == form
    assert nc_unit_normalize(p * (2 * unit)) != form


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
    with pytest.raises(KeyError, match="no differential image for b11"):
        d(NCPoly.gen(A12) * NCPoly.gen(B11))


def _items(p):
    """Terms with their key order, which fixes the order of later sums."""
    return list(p.terms.items())


def _leibniz_by_products(d, p):
    """Reference: sum of prefix * d(letter) * suffix over every letter; the
    signs and the suffix's coefficient are unshared constants, and the
    term's coefficient rides on the prefix, as ncalg multiplies it first."""
    out = NCPoly.zero()
    for w, c in p.terms.items():
        sign = 1
        for k, g in enumerate(w):
            img = d.images[g]
            if img:
                out = out + NCPoly({w[:k]: LaurentPoly({(0, 0): sign}) * c}) \
                    * img * NCPoly({w[k + 1:]: LaurentPoly({(0, 0): 1})})
            if g.degree % 2:
                sign = -sign
    return out


@pytest.mark.parametrize("seed", range(40))
def test_matrix_product_matches_dense_loop(seed):
    # dB = PsiL.A and dC = A.PsiR, summed over the nonzero Psi entries
    # alone, hold the terms, in the same key order, of the n^3 loop over
    # every k on unshared coefficients; each diagram ends with an R1 kink,
    # a degenerate crossing whose case-table entries coincide
    rng = random.Random(seed)
    pd = bundled_knot(rng.choice([name for name, _ in bundled_table()]))
    steps = rng.randrange(1, 6)
    for step in range(steps):
        kinds = ("r1_add",) if step == steps - 1 else ("r1_add", "r2_add")
        pd = apply_move(pd, rng.choice([m for m in available_moves(pd)
                                        if m["move"] in kinds]))
    cd = crossing_data(pd)
    assert cd.degenerate
    mats = build_matrices(cd)
    db, dc = relation_products(mats)
    a = [[_unshared(x) for x in row] for row in mats["A"]]
    psi_l, psi_r = ([[_unshared(x) for x in row] for row in m] for m in (
        dense(mats["psi_l"], pd.n), dense(mats["psi_r"], pd.n, columns=True)))
    for got, want in ((db, matmul(psi_l, a)), (dc, matmul(a, psi_r))):
        for i in range(pd.n):
            for j in range(pd.n):
                assert _exact(got[i][j]) == _exact(want[i][j]), (i, j)


@pytest.mark.parametrize("name", [name for name, _ in bundled_table()])
def test_differential_of_images_matches_products(name):
    d = build_dga(crossing_data(bundled_knot(name))).differential
    for g, img in d.images.items():
        assert _items(d.apply(img)) == _items(_leibniz_by_products(d, img)), g
    # a longer word whose odd letters flip the sign of later terms
    b, c = (NCPoly.gen(min(g for g in d.images if g.kind == kind))
            for kind in "bc")
    word = b * c * b + NCPoly.gen(max(d.images)) * c
    assert _items(d.apply(word)) == _items(_leibniz_by_products(d, word))


# coefficients for the shared-unit shortcuts of ncalg: the shared constants,
# shared units l^a*m^b with their negations (so that they cancel), unshared
# copies of units, a non-unit monomial and two-term polynomials
_MIXED_COEFFS = [ONE, MINUS_ONE, LaurentPoly({(0, 0): 1}),
                 LaurentPoly({(0, 0): -1}), LaurentPoly.mu(),
                 -LaurentPoly.mu(), -LaurentPoly.lam(), LaurentPoly.lam(),
                 LaurentPoly.unit(1, 2, -1), LaurentPoly.unit(-1, 2, -1),
                 LaurentPoly.lam(-1) * LaurentPoly.mu(),
                 LaurentPoly({(-1, 1): -1}), LaurentPoly.unit(3, 0, 1),
                 LaurentPoly.lam() + 2, 1 - LaurentPoly.mu()]
_LETTERS = [A12, A21, B11, C11, D11]


def _mixed_poly(rng, max_terms=4, max_len=2):
    """Random NCPoly over _LETTERS whose coefficients favour ONE and
    MINUS_ONE, so that sums of shared constants meet."""
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        w = tuple(rng.choice(_LETTERS)
                  for _ in range(rng.randrange(max_len + 1)))
        terms[w] = rng.choice(_MIXED_COEFFS + [ONE, MINUS_ONE] * 3)
    return NCPoly(terms)


def _unshared(x):
    """Copy of an NCPoly or Derivation whose every coefficient is a new
    LaurentPoly, so no shortcut of ncalg can fire on it."""
    if isinstance(x, Derivation):
        return Derivation({g: _unshared(img) for g, img in x.images.items()})
    return NCPoly({w: LaurentPoly(dict(c.terms)) for w, c in x.terms.items()})


def _exact(p):
    """Words, coefficients and both key orders of an NCPoly, which must
    store no zero coefficient."""
    assert all(p.terms.values())
    return [(w, list(c.terms.items())) for w, c in p.terms.items()]


def _snapshot(*polys):
    """Every term of the given NCPolys, in key order."""
    return [_exact(p) for p in polys]


@pytest.mark.parametrize("seed", range(60))
def test_unit_shortcuts_match_generic_arithmetic(seed):
    rng = random.Random(seed)
    p, q = _mixed_poly(rng, 6), _mixed_poly(rng, 6)
    d = Derivation({g: _mixed_poly(rng, 3) for g in _LETTERS})
    before = _snapshot(p, q, *d.images.values())
    up, uq, ud = (_unshared(x) for x in (p, q, d))

    assert _exact(p * q) == _exact(up * uq)
    assert _exact(p - q) == _exact(up - uq)
    assert _exact(-p) == _exact(-up)
    for s, us in ((ONE, LaurentPoly({(0, 0): 1})),
                  (-1, LaurentPoly({(0, 0): -1})),
                  (LaurentPoly.mu(), LaurentPoly.mu())):
        assert _exact(p * s) == _exact(up * us)
    for x in (p, q, p * q):
        assert _exact(d.apply(x)) \
            == _exact(_leibniz_by_products(ud, _unshared(x)))
    assert _snapshot(p, q, *d.images.values()) == before
    assert ONE.terms == {(0, 0): 1} and MINUS_ONE.terms == {(0, 0): -1}


def test_shared_unit_meets_its_negation_without_a_laurent_sum(monkeypatch):
    sums = []
    add = LaurentPoly.__add__

    def counting(self, other):
        sums.append((self, other))
        return add(self, other)

    monkeypatch.setattr(LaurentPoly, "__add__", counting)
    u = LaurentPoly.unit(-1, 2, -1)
    for s, c in ((u, u.neg), (u.neg, u), (ONE, MINUS_ONE)):
        terms = {(A12,): s, (B11,): ONE}
        _accumulate(terms, (A12,), c)
        assert terms == {(B11,): ONE} and not sums
    # an unshared negation is cancelled by the Laurent sum, to the same terms
    terms = {(A12,): u, (B11,): ONE}
    _accumulate(terms, (A12,), LaurentPoly(dict(u.neg.terms)))
    assert terms == {(B11,): ONE} and len(sums) == 1


_mixed_polys = st.dictionaries(
    st.lists(st.sampled_from(_LETTERS), max_size=3).map(tuple),
    st.sampled_from(_MIXED_COEFFS + [ONE, MINUS_ONE] * 3),
    max_size=5).map(NCPoly)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_mixed_polys, _mixed_polys, st.sampled_from(_LETTERS))
def test_substitute_shortcuts_match_unshared_coefficients(p, r, g):
    # shared ONE and MINUS_ONE take substitute's shortcuts; unshared
    # copies of them take the Laurent products, to the same terms; both
    # equal the letter-by-letter products, on words where g repeats
    assert _exact(p.substitute(g, r)) \
        == _exact(_unshared(p).substitute(g, _unshared(r)))
    assert p.substitute(g, r) == _substitute_by_letters(p, g, r)
