"""Augmentation polynomials and the A-polynomial divisibility check.

Supported presentation shapes: no surviving generators (the polynomial is
the gcd of the constant relations, cutting out their common zero set), or
one surviving generator with at least two relations (pairwise resultants,
then a content-corrected gcd).  Anything else is reported as unsupported
rather than guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .laurent import (LaurentPoly, UniPoly, divides, render, resultant,
                      unit_normalize)


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


def laurent_gcd(polys):
    """Gcd in Z[l, m] of nonzero Laurent polynomials, up to units."""
    import sympy  # the only use of sympy; kept out of the import of kch

    ps = [p for p in polys if p]
    if not ps:
        return LaurentPoly.zero()
    lm = sympy.symbols("l m")

    def to_sympy(p):
        i0, j0 = p.min_exponents()
        q = p * LaurentPoly.unit(1, -i0, -j0)
        return sympy.Poly.from_dict(dict(q.terms), *lm, domain="ZZ")

    g = to_sympy(ps[0])
    for p in ps[1:]:
        g = sympy.gcd(g, to_sympy(p))
        g = sympy.Poly(g, *lm, domain="QQ")
    g = sympy.Poly(g, *lm, domain="QQ")
    _, prim = g.clear_denoms()
    prim = sympy.Poly(prim, *lm, domain="ZZ").primitive()[1]
    return LaurentPoly({tuple(int(x) for x in mono): int(c)
                        for mono, c in prim.as_dict().items()})


def _single_generator_unipoly(rel, gen):
    """Commutativized relation as a polynomial in the single generator."""
    coeffs = {}
    for word, c in rel.terms.items():
        if any(g != gen for g in word):
            raise ValueError("relation involves another generator")
        k = len(word)
        coeffs[k] = coeffs[k] + c if k in coeffs else c
    top = max(coeffs, default=-1)
    return UniPoly([coeffs.get(k, LaurentPoly.zero()) for k in range(top + 1)])


def augmentation_polynomial(pres):
    """Augmentation polynomial of a simplified presentation, unit-normalized."""
    gens = list(pres.generators)
    relations = [r for r in pres.relations if r]
    warnings = []
    if len(gens) == 0:
        consts = []
        for rel in relations:
            c = rel.terms.get((), LaurentPoly.zero())
            if len(rel.terms) != 1 or not c:
                continue
            consts.append(c)
        if not consts:
            return AugPolyResult(None, "direct", False,
                                 ["no nonzero constant relations; the "
                                  "augmentation variety is all of (C*)^2"])
        g = laurent_gcd(consts)
        if not g or g.as_unit() is not None and g.as_unit()[0] in (1, -1):
            return AugPolyResult(None, "direct", False,
                                 ["constant relations have no common "
                                  "codimension-1 zero locus"])
        return AugPolyResult(unit_normalize(g), "direct", True, warnings)

    if len(gens) == 1 and len(relations) >= 2:
        gen = gens[0]
        unis = [_single_generator_unipoly(rel, gen) for rel in relations]
        if any(u.degree < 1 for u in unis):
            warnings.append("a relation is constant in the generator")
        ress = []
        for i in range(len(unis)):
            for j in range(i + 1, len(unis)):
                if unis[i] and unis[j]:
                    ress.append(resultant(unis[i], unis[j]))
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
