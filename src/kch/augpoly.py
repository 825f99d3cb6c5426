"""Augmentation polynomials and the A-polynomial divisibility check.

Supported presentation shapes: no surviving generators (the polynomial is
the gcd of the constant relations, cutting out their common zero set), or
one surviving generator with at least two relations (the pairwise
resultants, all from one division-free Laplace-expansion kernel, then a
content-corrected gcd).  Anything else is reported as unsupported
rather than guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .dga import IntractableError
from .laurent import (LaurentPoly, UniPoly, divides, pairwise_resultants,
                      render, unit_normalize)

# The pairwise resultants give up past this many column sets in their
# Laplace expansions, summed over the pairs.  The benchmark needs at most
# 1,326 (trefoil_lh.n9), T(2,9) 149,016 and T(2,11) 865,788.
MAX_RESULTANT_COLUMN_SETS = 200_000


@dataclass
class AugPolyResult:
    polynomial: object  # LaurentPoly or None
    method: str
    supported: bool
    warnings: list = field(default_factory=list)

    def as_json_obj(self):
        return {
            "polynomial": render(self.polynomial) if self.polynomial else None,
            "method": self.method,
            "supported": self.supported,
            "warnings": self.warnings,
        }


def _sympy_gcd(a, b):
    """Gcd in Z[l, m] of two polynomials of least exponents 0, a
    primitive, so the gcd is primitive too."""
    import sympy  # the only use of sympy; kept out of the import of kch

    lm = sympy.symbols("l m")
    g = sympy.gcd(sympy.Poly.from_dict(dict(a.terms), *lm, domain="ZZ"),
                  sympy.Poly.from_dict(dict(b.terms), *lm, domain="ZZ"))
    return LaurentPoly({tuple(int(x) for x in mono): int(c)
                        for mono, c in g.as_dict().items()})


def laurent_gcd(polys):
    """Gcd in Z[l, m] of nonzero Laurent polynomials, up to units; it is
    primitive (integer content 1), and zero for no nonzero input.

    The running gcd g starts as the primitive part of the first input and
    stays primitive.  For each next input p it calls sympy only when g
    does not divide p: a primitive g that divides p over Q divides it
    over Z too (Gauss's lemma), so the gcd is still g.  sympy is imported
    only when such a step is needed."""
    ps = [p for p in polys if p]
    if not ps:
        return LaurentPoly.zero()
    first = unit_normalize(ps[0])
    k = first.integer_content()
    g = LaurentPoly({e: c // k for e, c in first.terms.items()})
    for p in ps[1:]:
        if not divides(g, p):
            g = _sympy_gcd(g, unit_normalize(p))
    return g


def augmentation_polynomial(pres):
    """Augmentation polynomial of a simplified presentation, unit-normalized."""
    gens = list(pres.generators)
    relations = [r for r in pres.relations if r]
    rels = pres.commutative[1]
    warnings = []
    if len(gens) == 0:
        consts = [c for ((_, c),) in rels]
        if not consts:
            return AugPolyResult(None, "direct", False,
                                 ["no nonzero constant relations; the "
                                  "augmentation variety is all of (C*)^2"])
        g = laurent_gcd(consts)
        if not g or g.is_ring_unit():
            return AugPolyResult(None, "direct", False,
                                 ["constant relations have no common "
                                  "codimension-1 zero locus"])
        return AugPolyResult(unit_normalize(g), "direct", True, warnings)

    if len(gens) == 1 and len(relations) >= 2:
        # each monomial is (0,) * k, and the longest comes last
        unis = [UniPoly([dict(rel).get((0,) * k, LaurentPoly.zero())
                         for k in range(len(rel[-1][0]) + 1)])
                for rel in rels]
        if any(u.degree < 1 for u in unis):
            warnings.append("a relation is constant in the generator")
        sets = sum(comb(a.degree + b.degree, b.degree)
                   for a, b in combinations(unis, 2))
        if sets > MAX_RESULTANT_COLUMN_SETS:
            raise IntractableError(
                "augpoly: %d column sets of pairwise resultants exceed the "
                "bound %d" % (sets, MAX_RESULTANT_COLUMN_SETS))
        ress = pairwise_resultants(unis)
        nonzero = [r for r in ress if r]
        if not nonzero:
            return AugPolyResult(None, "resultant", False,
                                 ["all pairwise resultants vanish; the "
                                  "augmentation variety is not 1-dimensional"])
        if len(nonzero) < len(ress):
            warnings.append("some pairwise resultants vanish identically")
        g = laurent_gcd(nonzero)
        method = "resultant" if len(nonzero) == 1 else "gcd-of-resultants"
        warnings.append("up to extraneous resultant factors and units")
        return AugPolyResult(unit_normalize(g), method, True, warnings)

    return AugPolyResult(
        None, "unsupported", False,
        ["presentation shape not supported: %d generators, %d relations"
         % (len(gens), len(relations))])


def check_apoly_divisibility(augpoly, apoly):
    """Does (1 - m^2) * apoly divide augpoly evaluated at m -> -m^2?"""
    if not apoly:
        raise ValueError("zero A-polynomial")
    one_minus_musq = LaurentPoly.const(1) - LaurentPoly.mu(2)
    return divides(one_minus_musq * apoly, augpoly.substitute_mu_neg_musq())
