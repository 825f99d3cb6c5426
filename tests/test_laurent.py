"""Tests for the commutative Laurent ring layer."""

import itertools
import random

import pytest
from helpers import sylvester_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from kch.laurent import (MINUS_ONE, ONE, LaurentPoly, UniPoly, _mul_into,
                         _quotient, divides, pairwise_resultants, parse_poly,
                         render, resultant, unit_normalize)

L = LaurentPoly.lam
M = LaurentPoly.mu
C = LaurentPoly.const


def test_canonical_form_drops_zeros():
    p = LaurentPoly({(0, 0): 1, (1, 2): 0})
    assert p.terms == {(0, 0): 1}
    assert LaurentPoly({(3, 1): 0}) == LaurentPoly.zero()
    assert not LaurentPoly.zero()


def test_ring_axioms_random():
    rng = random.Random(0)

    def rand_poly():
        return LaurentPoly({(rng.randint(-2, 2), rng.randint(-2, 2)):
                            rng.randint(-4, 4) for _ in range(rng.randint(0, 4))})

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a - a == LaurentPoly.zero()


def test_int_coercion():
    assert C(3) + 2 == C(5)
    assert 2 + C(3) == C(5)
    assert C(3) * 2 == C(6)
    assert 1 - M() == C(1) - M()
    assert C(7) == 7


def test_pow_and_units():
    assert L() ** 3 == LaurentPoly({(3, 0): 1})
    assert (L() * M()) ** -2 == LaurentPoly({(-2, -2): 1})
    assert (-M(2)).is_ring_unit()
    assert not (1 + M()).is_ring_unit()
    assert (C(2) * M()).as_unit() == (2, 0, 1)
    assert not (C(2) * M()).is_ring_unit()
    u = LaurentPoly.unit(-1, 2, -3)
    assert u * u.inverse_unit() == C(1)
    with pytest.raises(ValueError):
        (1 + M()) ** -1
    for non_unit in (1 + L(), C(2) * M(), LaurentPoly.zero()):
        with pytest.raises(ValueError):
            non_unit.inverse_unit()


def test_evaluate_mod():
    p = 1 + L() - M(3) + L() * M(-1)
    # l=2, m=3 mod 5: 1 + 2 - 27 + 2*3^-1 = 1 + 2 - 2 + 2*2 = 5 = 0
    assert p.evaluate_mod(2, 3, 5) == 0
    assert C(7).evaluate_mod(1, 1, 7) == 0
    assert (L(-1)).evaluate_mod(3, 1, 7) == 5  # 3^-1 mod 7


def test_substitute_mu_neg_musq():
    p = 1 + M() - L() * M(3)
    q = p.substitute_mu_neg_musq()
    assert q == 1 - M(2) + L() * M(6)
    # cancellation: m + m^2 -> -m^2 + m^4
    assert (M() + M(2)).substitute_mu_neg_musq() == M(4) - M(2)


def test_render_examples():
    # terms sorted ascending by (l-exponent, m-exponent)
    assert render(C(-1) + L() - M(3) + L() * M(-1)) == "-1 - m^3 + l*m^-1 + l"
    assert render(LaurentPoly.zero()) == "0"
    assert render(C(2) * L(2) * M()) == "2*l^2*m"
    assert render(-L()) == "-l"


_polys = st.dictionaries(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.integers(-10 ** 6, 10 ** 6), max_size=6).map(LaurentPoly)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_polys)
def test_parse_render_round_trip_random(p):
    assert parse_poly(render(p)) == p


_units = st.builds(LaurentPoly.unit, st.sampled_from([1, -1]),
                   st.integers(-3, 3), st.integers(-3, 3))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_units, _units)
def test_units_are_shared_with_their_negations_and_products(u, v):
    (c, i, j), (c2, i2, j2) = u.as_unit(), v.as_unit()
    assert LaurentPoly.unit(c, i, j) is u
    assert u.neg.neg is u and -u is u.neg and -u.neg is u
    assert u.neg is LaurentPoly.unit(-c, i, j)
    assert L(i) is LaurentPoly.unit(1, i, 0)
    assert M(j) is LaurentPoly.unit(1, 0, j)
    assert u.neg == LaurentPoly({(i, j): -c})
    assert u * v is LaurentPoly.unit(c * c2, i + i2, j + j2)
    assert (u * v).neg is not None
    # an unshared copy takes the generic paths to the same values
    uu = LaurentPoly(dict(u.terms))
    assert uu.neg is None and (-uu).neg is None and (uu * v).neg is None
    assert -uu == u.neg and uu * v == u * v and u + u.neg == 0
    assert (u + u).neg is None and (2 * u).neg is None
    # a sum that comes to a unit is the shared one
    assert (u + 2) - 2 is u and (uu + uu) + u.neg is u


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_units, st.booleans())
def test_inverse_unit_keeps_the_shared_constants(u, shared):
    c, i, j = u.as_unit()
    if not shared:
        u = LaurentPoly(dict(u.terms))
    inv = u.inverse_unit()
    assert inv == LaurentPoly.unit(c, -i, -j)
    assert u * inv == C(1)
    if not i and not j:
        assert inv is (ONE if c == 1 else MINUS_ONE)


def _generic_product(a, b):
    acc = {}
    _mul_into(acc, a.terms, b.terms, 1)
    return list(acc.items())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_polys, st.builds(LaurentPoly.unit,
                         st.integers(-10 ** 6, 10 ** 6).filter(bool),
                         st.integers(-5, 5), st.integers(-5, 5)))
def test_one_term_product_matches_generic(p, mono):
    # the one-term path gives the generic product's terms in its key order
    assert list((p * mono).terms.items()) == _generic_product(p, mono)
    assert list((mono * p).terms.items()) == _generic_product(mono, p)


def test_parse_rejects_garbage():
    for bad in ["", "l +", "x^2", "l^", "(l-1)", "1 ++ 2", "-", "1 +",
                "* l", "l *", " ", "2l", "l2", "1 2", "lm", "L",
                # one sign per term
                "--1", "- -1", "1 - -l", "1 + +l", "+1", "3 * -l",
                # ASCII digits only, and an exponent is -?digits
                "1_0", "\u0661", "l^\u0661", "l^+1", "l^ 2", "l ^ 2",
                "l^--1", "l^1.5", "m^-"]:
        with pytest.raises(ValueError):
            parse_poly(bad)


@pytest.mark.parametrize("text, expected", [
    ("0", LaurentPoly.zero()),
    ("-0", LaurentPoly.zero()),
    ("l - l", LaurentPoly.zero()),
    ("-1 + l - m^3 + l*m^-1", -1 + L() - M(3) + L() * M(-1)),
    ("-1-m", -1 - M()),
    ("  2 * l\t+\nm  ", C(2) * L() + M()),
    ("l*l*3*2", C(6) * L(2)),
    ("m^-0", C(1)),
    ("007*l^-02", C(7) * L(-2)),
])
def test_parse_accepts(text, expected):
    assert parse_poly(text) == expected


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.text(alphabet="0123456789lmL^*+- \t\n_x().\u00b2\u0661",
               max_size=20))
def test_parse_only_raises_value_error(text):
    try:
        assert isinstance(parse_poly(text), LaurentPoly)
    except ValueError:
        pass


def test_unit_normalize():
    p = -L(-1) * M(2) * (1 - L())
    q = unit_normalize(p)
    assert q.min_exponents() == (0, 0)
    assert q == 1 - L()
    # idempotent and unit-invariant
    assert unit_normalize(q) == q
    assert unit_normalize(p * LaurentPoly.unit(-1, 5, -2)) == q
    with pytest.raises(ValueError):
        unit_normalize(LaurentPoly.zero())


def test_divides_basic():
    a = 1 - L()
    b = (1 - L()) * (1 + M() + L() * M(2))
    assert divides(a, b)
    assert not divides(b, a)
    assert divides(a * LaurentPoly.unit(-1, -3, 2), b)  # unit factors ignored
    assert divides(a, LaurentPoly.zero())
    assert not divides(C(2), 1 + L())
    with pytest.raises(ValueError):
        divides(LaurentPoly.zero(), a)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_polys.filter(bool), _polys)
def test_divides_random_products(d, q):
    assert divides(d, d * q)
    assert _quotient(d * q, d) == q


def test_exact_quotient_raises_on_non_divisor():
    # long division of 1 by 1 + l in Laurent exponents never ends; the
    # stripped division in Z[l, m] stops at once
    assert _quotient(C(1), 1 + L()) is None
    assert _quotient(1 + L(), C(2) * L(-1)) is None
    assert not divides(1 + L(), C(1))


def test_unipoly_normalizes_leading_zeros():
    u = UniPoly([C(1), C(0), LaurentPoly.zero()])
    assert u.degree == 0
    assert not UniPoly([])
    assert UniPoly([LaurentPoly.zero()]) == UniPoly([])


def _det_naive(matrix):
    """Permutation-expansion determinant; independent of the resultant
    kernel."""
    n = len(matrix)
    total = LaurentPoly.zero()
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if perm[i] > perm[j])
        prod = LaurentPoly.const(-1 if inv % 2 else 1)
        for i in range(n):
            prod = prod * matrix[i][perm[i]]
        total = total + prod
    return total


def test_resultant_against_naive_determinant():
    rng = random.Random(3)

    def rand_coeff():
        return LaurentPoly({(rng.randint(-1, 1), rng.randint(-1, 1)):
                            rng.randint(-2, 2)
                            for _ in range(rng.randint(0, 2))})

    checked = 0
    while checked < 100:
        p = UniPoly([rand_coeff() for _ in range(rng.randint(2, 4))])
        q = UniPoly([rand_coeff() for _ in range(rng.randint(2, 4))])
        if not p or not q or p.degree + q.degree == 0:
            continue
        expected = _det_naive(sylvester_matrix(p, q))
        assert resultant(p, q) == expected
        checked += 1


def test_resultant_of_common_root():
    # both vanish at x = 1 + m, so the resultant must be zero
    x_minus = UniPoly([-(1 + M()), C(1)])
    p = UniPoly([-(1 + M()) * L(), (L() - 1), C(1)])  # (x - (1+m))(x + l... )
    # build p as (x - (1+m)) * (x + l)
    p = UniPoly([-(1 + M()) * L(), L() - (1 + M()), C(1)])
    assert resultant(x_minus, p) == LaurentPoly.zero()


def test_resultant_rejects_zero():
    with pytest.raises(ValueError):
        resultant(UniPoly([]), UniPoly([C(1), C(1)]))


# a coefficient has 0-3 terms, so middle coefficients may be zero; the
# leading one is nonzero and need not be a unit (2, 1 + l, ...)
_coeffs = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    st.integers(-3, 3), max_size=3).map(LaurentPoly)


@st.composite
def _unipolys(draw):
    """A nonzero UniPoly of degree 0-4."""
    degree = draw(st.integers(0, 4))
    lead = draw(_coeffs.filter(bool))
    return UniPoly([draw(_coeffs) for _ in range(degree)] + [lead])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(_unipolys(), min_size=2, max_size=5))
def test_pairwise_resultants_against_naive_determinant(polys):
    # five degrees drawn for up to five polynomials repeat often, so one
    # polynomial's block minors serve several partners of equal degree
    got = pairwise_resultants(polys)
    pairs = list(itertools.combinations(polys, 2))
    assert len(got) == len(pairs)
    for r, (a, b) in zip(got, pairs):
        assert r == _det_naive(sylvester_matrix(a, b))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(_unipolys(), max_size=4), st.data())
def test_pairwise_resultants_reject_zero(polys, data):
    k = data.draw(st.integers(0, len(polys)))
    with pytest.raises(ValueError):
        pairwise_resultants(polys[:k] + [UniPoly([])] + polys[k:])


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_unipolys())
def test_pairwise_resultants_of_fewer_than_two(p):
    assert pairwise_resultants([]) == []
    assert pairwise_resultants([p]) == []
