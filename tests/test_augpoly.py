"""Tests for augmentation polynomials and the divisibility check."""

from itertools import combinations

import pytest
import sympy
from helpers import bundled_knot

from kch.augpoly import (augmentation_polynomial, check_apoly_divisibility,
                         laurent_gcd)
from kch.diagram import PDCode, crossing_data, parse_pd
from kch.hc0 import (IntractableError, Presentation, extract_presentation,
                     simplify)
from kch.laurent import (LaurentPoly, UniPoly, parse_poly, resultant,
                         unit_normalize)

ONE = LaurentPoly.const(1)
L = LaurentPoly.lam
M = LaurentPoly.mu


def _augpoly(name):
    pres = simplify(extract_presentation(crossing_data(bundled_knot(name))))
    return augmentation_polynomial(pres)


def test_unknot_polynomial():
    res = _augpoly("unknot")
    assert res.supported and res.method == "direct"
    assert res.polynomial == unit_normalize((L() - 1) * (M() + 1))


def test_trefoil_polynomials():
    lh = _augpoly("trefoil_lh")
    assert lh.supported
    assert lh.polynomial == unit_normalize(
        (L() - 1) * (M() + 1) * (L() - M(3)))
    rh = _augpoly("trefoil_rh")
    assert rh.supported
    assert rh.polynomial == unit_normalize(
        (L() - 1) * (M() + 1) * (ONE - L() * M(3)))


def test_torus_knot_5_1_polynomial():
    res = _augpoly("5_1")
    assert res.supported
    # resultant route may carry extraneous square factors; here it does
    assert res.polynomial == unit_normalize(
        (L() - 1) * (M() + 1) * (ONE - L() * M(5)) * (ONE - L() * M(5)))


def _torus_2(k):
    """T(2, k) as X[a, a+k, a+1, a+k+1], a = 1, 3, ..., 2k-1, labels mod
    2k; k = 3 is the bundled trefoil_lh up to the order of crossings."""
    return PDCode([[(a + d - 1) % (2 * k) + 1 for d in (0, k, 1, k + 1)]
                   for a in range(1, 2 * k, 2)])


def test_resultant_bound():
    assert sorted(_torus_2(3).crossings) \
        == sorted(bundled_knot("trefoil_lh").crossings)
    # T(2,7): 33,550 column sets, within the bound
    res = augmentation_polynomial(simplify(extract_presentation(
        crossing_data(_torus_2(7)))))
    assert res.supported
    assert check_apoly_divisibility(res.polynomial, parse_poly("l + m^14"))
    # T(2,11): 1,191,542 column sets, refused before any is expanded
    pres = simplify(extract_presentation(crossing_data(_torus_2(11))))
    with pytest.raises(IntractableError,
                       match="^augpoly: 1191542 column sets .* bound 200000$"):
        augmentation_polynomial(pres)


def test_unsupported_shapes_reported():
    res = _augpoly("figure8")
    assert not res.supported
    assert res.method == "unsupported"
    assert res.polynomial is None
    assert res.warnings
    obj = res.as_json_obj()
    assert obj["polynomial"] is None and obj["supported"] is False


def test_no_constant_relations_unsupported():
    pres = Presentation(generators=[], relations=[])
    res = augmentation_polynomial(pres)
    assert not res.supported


def test_laurent_gcd():
    a = (ONE - L()) * (ONE + M())
    b = (ONE - L()) * (ONE + L() * M(2))
    g = laurent_gcd([a, b])
    assert unit_normalize(g) == unit_normalize(ONE - L())
    # gcd defined up to units; content is made primitive over Z
    assert laurent_gcd([a * 6, b * 4]).integer_content() in (1, 2)
    assert laurent_gcd([]) == LaurentPoly.zero()


def _sympy_only_gcd(polys):
    """Reference for laurent_gcd: one sympy gcd per input."""
    ps = [p for p in polys if p]
    if not ps:
        return LaurentPoly.zero()
    lm = sympy.symbols("l m")

    def to_sympy(p):
        return sympy.Poly.from_dict(dict(unit_normalize(p).terms), *lm,
                                    domain="ZZ")

    g = to_sympy(ps[0])
    for p in ps[1:]:
        g = sympy.gcd(g, to_sympy(p))
        g = sympy.Poly(g, *lm, domain="QQ")
    g = sympy.Poly(g, *lm, domain="QQ")
    _, prim = g.clear_denoms()
    prim = sympy.Poly(prim, *lm, domain="ZZ").primitive()[1]
    return LaurentPoly({tuple(int(x) for x in mono): int(c)
                        for mono, c in prim.as_dict().items()})


def _assert_gcd_matches_reference(polys):
    got, want = laurent_gcd(polys), _sympy_only_gcd(polys)
    if not want:
        assert not got
        return
    assert got.integer_content() == 1
    assert unit_normalize(got) == unit_normalize(want)


_F = (ONE - L()) * (ONE + M())
_G = ONE + L() * M(2)
_H = L(2) - M(3) + 3


@pytest.mark.parametrize("polys", [
    pytest.param([_F * 2, _F * 4], id="content"),
    pytest.param([_F * 6], id="one-input-with-content"),
    pytest.param([_F * 2, _F * _G * 4, _F * _H * 6],
                 id="first-with-content-divides-the-others"),
    pytest.param([_F, _F * _G, _F * _H * L(-3)],
                 id="first-divides-the-others"),
    pytest.param([_F * _G, _F * _H, _G * _H], id="gcd-shrinks-twice"),
    pytest.param([-_F * _G * M(2), _F * _H],
                 id="negative-leading-coefficient"),
    pytest.param([_F, -L(2) * M(), _G], id="unit-in-the-list"),
    pytest.param([L() * M(-1), _F], id="unit-first"),
    pytest.param([_F, LaurentPoly.zero(), _F * _G], id="zero-skipped"),
    pytest.param([], id="empty"),
    pytest.param([LaurentPoly.zero()], id="only-zero"),
])
def test_laurent_gcd_matches_sympy_only_loop(polys):
    _assert_gcd_matches_reference(polys)


def _gcd_inputs(pres):
    """The polynomials augmentation_polynomial takes the gcd of: the
    constant relations, or the nonzero pairwise resultants."""
    variables, rels = pres.commutative
    if not variables:
        return [c for ((_, c),) in rels]
    unis = [UniPoly([dict(rel).get((0,) * k, LaurentPoly.zero())
                     for k in range(len(rel[-1][0]) + 1)]) for rel in rels]
    return [r for a, b in combinations(unis, 2) if (r := resultant(a, b))]


# the one-generator knots (and the unknot) of the bundled table and of the
# R2-inflated benchmark family, with their augmentation polynomials
_TREFOIL_LH = "m^3 + m^4 - l - l*m - l*m^3 - l*m^4 + l^2 + l^2*m"
_TREFOIL_LH_N9 = ("PD[X[11,18,12,1],X[13,6,14,7],X[3,12,4,13],X[17,8,18,7],"
                  "X[16,8,17,9],X[10,2,11,1],X[9,2,10,3],X[14,4,15,5],"
                  "X[15,6,16,5]]")


_GCD_KNOTS = [
    ("unknot", "1 + m - l - l*m"),
    ("trefoil_lh", _TREFOIL_LH),
    ("trefoil_rh", "1 + m - l - l*m - l*m^3 - l*m^4 + l^2*m^3 + l^2*m^4"),
    ("5_1", "1 + m - l - l*m - 2*l*m^5 - 2*l*m^6 + 2*l^2*m^5 + 2*l^2*m^6"
            " + l^2*m^10 + l^2*m^11 - l^3*m^10 - l^3*m^11"),
    ("trefoil_lh.n9", _TREFOIL_LH),
]


@pytest.mark.parametrize("name, poly", _GCD_KNOTS,
                         ids=[name for name, _ in _GCD_KNOTS])
def test_laurent_gcd_on_knot_resultants(name, poly):
    pd = parse_pd(_TREFOIL_LH_N9) if name == "trefoil_lh.n9" \
        else bundled_knot(name)
    pres = simplify(extract_presentation(crossing_data(pd)))
    _assert_gcd_matches_reference(_gcd_inputs(pres))
    res = augmentation_polynomial(pres)
    assert res.supported
    assert res.as_json_obj()["polynomial"] == poly


def test_divisibility_rh_trefoil():
    aug = (L() - 1) * (M() + 1) * (ONE - L() * M(3))
    assert check_apoly_divisibility(aug, parse_poly("1 + l*m^6"))
    assert not check_apoly_divisibility(aug, parse_poly("1 + l*m^4"))


def test_divisibility_torus_3_4():
    # factorized form supplied externally, never computed from a diagram
    aug = (ONE - L() * M(4)) * (ONE + M()) * (ONE + L() * M(6))
    assert check_apoly_divisibility(aug, parse_poly("1 + l*m^12"))
    assert not check_apoly_divisibility(aug, parse_poly("1 + l*m^10"))


def test_divisibility_rejects_zero_apoly():
    with pytest.raises(ValueError):
        check_apoly_divisibility(ONE, LaurentPoly.zero())
