"""Exact arithmetic in the commutative Laurent ring Z[l^±1, m^±1].

The two central variables are called ``l`` and ``m`` throughout (longitude
and meridian).  A Laurent polynomial is stored as a dict mapping exponent
pairs (i, j) to nonzero integer coefficients; the dict is kept in canonical
form, so structural equality is equality of values.  Coefficients are
Python ints, hence arbitrary precision.

Values are immutable: no code writes to ``.terms`` after construction,
so one value may be shared by many containers.  Every unit ±l^i*m^j made
by ``const``, ``unit``, ``lam``, ``mu``, ``inverse_unit``, a sum or a
product of two shared units is the one shared value for (±1, i, j), kept
for the life of the process; ``ONE`` and ``MINUS_ONE`` are the shared ±1.
A shared unit holds its shared negation in ``neg``, which negation returns.
``ncalg`` skips the Laurent product and negation when a coefficient
``is`` ONE or MINUS_ONE, and cancels a unit that meets its ``neg``.  The
shortcuts test identity, so an unshared unit (``LaurentPoly({(0, 0): 1})``)
is just as correct, only slower.  A product with a one-term factor (a
monomial) shifts and scales the other factor.

Exact division has one kernel, ``_quotient``: it strips both sides to least
exponents 0, so that l and m divide neither, and divides in Z[l, m] by
leading terms in (m-degree, l-degree) lex order, which terminates.
``divides`` is a thin wrapper around it.

Resultants have one kernel, ``pairwise_resultants``, which expands every
Sylvester determinant of a list of polynomials by the Laplace rule along
block minors shared between pairs; it multiplies and adds, never divides.
"""

from __future__ import annotations

import re
from itertools import combinations


def _mul_into(acc, a, b, sign):
    """acc += sign * a * b on terms dicts; acc keeps no zero coefficient."""
    for (i1, j1), c1 in a.items():
        c1 *= sign
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]


class LaurentPoly:
    """Element of Z[l^±1, m^±1], canonical sparse form.

    Immutable: never write to ``.terms``, which may be shared.  A shared
    unit ±l^i*m^j holds its shared negation in ``neg``; every other value
    has ``neg = None``."""

    __slots__ = ("terms", "neg")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for (i, j), c in terms.items():
                if c:
                    t[(i, j)] = c
        self.terms = t
        self.neg = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        """The constant c; the shared ONE or MINUS_ONE for c = 1 or -1."""
        return cls.unit(c)

    @classmethod
    def unit(cls, c=1, i=0, j=0):
        """The monomial c * l^i * m^j, the shared one when c is 1 or -1."""
        if c == 1 or c == -1:
            return _shared_unit(c, i, j)
        return cls({(i, j): c})

    @classmethod
    def lam(cls, e=1):
        return cls.unit(1, e, 0)

    @classmethod
    def mu(cls, e=1):
        return cls.unit(1, 0, e)

    # -- ring structure -----------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        if self.neg is not None:
            return self.neg
        return _laurent({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            elif e in t:
                del t[e]
        if len(t) == 1:
            ((i, j), c), = t.items()
            if c == 1 or c == -1:
                return _shared_unit(c, i, j)
        return _laurent(t)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if self.neg is not None and other.neg is not None:
            ((i1, j1), c1), = a.items()
            ((i2, j2), c2), = b.items()
            return _shared_unit(c1 * c2, i1 + i2, j1 + j2)
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            ((i, j), c), = b.items()
            return _laurent({(ai + i, aj + j): ac * c
                             for (ai, aj), ac in a.items()})
        t = {}
        _mul_into(t, a, b, 1)
        return _laurent(t)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse_unit() ** (-k)
        out = LaurentPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    # -- queries ------------------------------------------------------

    def as_unit(self):
        """Return (c, i, j) if this is a single monomial c*l^i*m^j, else None."""
        if len(self.terms) != 1:
            return None
        ((i, j), c), = self.terms.items()
        return (c, i, j)

    def is_ring_unit(self):
        """True iff invertible in the Laurent ring, i.e. ±l^i m^j."""
        u = self.as_unit()
        return u is not None and u[0] in (1, -1)

    def inverse_unit(self):
        if not self.is_ring_unit():
            raise ValueError("not a unit of the Laurent ring: %s"
                             % render(self))
        c, i, j = self.as_unit()
        return LaurentPoly.unit(c, -i, -j)

    def min_exponents(self):
        if not self.terms:
            raise ValueError("zero polynomial")
        return (min(i for i, _ in self.terms), min(j for _, j in self.terms))

    def evaluate_mod(self, lam0, mu0, p):
        """Value in Z_p with l -> lam0, m -> mu0 (both units mod p)."""
        linv = pow(lam0, -1, p)
        minv = pow(mu0, -1, p)
        total = 0
        for (i, j), c in self.terms.items():
            v = c % p
            v = v * pow(lam0 if i >= 0 else linv, abs(i), p) % p
            v = v * pow(mu0 if j >= 0 else minv, abs(j), p) % p
            total = (total + v) % p
        return total

    def substitute_mu_neg_musq(self):
        """Image under the ring map l -> l, m -> -m^2."""
        return LaurentPoly({(i, 2 * j): -c if j & 1 else c
                            for (i, j), c in self.terms.items()})

    def integer_content(self):
        from math import gcd
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    # -- printing -----------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self):
        return render(self)

    def __repr__(self):
        return "LaurentPoly(%s)" % render(self)


def _laurent(terms):
    """LaurentPoly owning terms, which must hold no zero coefficient."""
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms, out.neg = terms, None
    return out


_UNITS = {}  # (c, i, j) -> the shared unit c*l^i*m^j, c = 1 or -1


def _shared_unit(c, i, j):
    u = _UNITS.get((c, i, j))
    if u is None:
        u, n = _laurent({(i, j): c}), _laurent({(i, j): -c})
        u.neg, n.neg = n, u
        _UNITS[(c, i, j)], _UNITS[(-c, i, j)] = u, n
    return u


ONE = LaurentPoly.unit(1)
MINUS_ONE = ONE.neg


def _render_monomial(i, j):
    parts = []
    if i:
        parts.append("l" if i == 1 else "l^%d" % i)
    if j:
        parts.append("m" if j == 1 else "m^%d" % j)
    return "*".join(parts)


def render(p):
    """Text form, terms sorted by (l-exponent, m-exponent) ascending.

    Example: ``-1 + l - m^3 + l*m^-1``.
    """
    if not p.terms:
        return "0"
    out = []
    for k, ((i, j), c) in enumerate(p.sorted_terms()):
        mono = _render_monomial(i, j)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = "%d*%s" % (mag, mono)
        else:
            body = str(mag)
        if k == 0:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append((" + " if c > 0 else " - ") + body)
    return "".join(out)


# render()'s language: terms joined by + or -, the first optionally negated;
# a term is a *-product of factors: ASCII digits, l, l^e, m or m^e
_FACTOR = r"[0-9]+|[lm](?:\^-?[0-9]+)?"
_TERM = r"(?:%s)(?:\s*\*\s*(?:%s))*" % (_FACTOR, _FACTOR)
_POLY_RE = re.compile(r"\s*-?\s*%s(?:\s*[-+]\s*%s)*\s*" % (_TERM, _TERM),
                      re.ASCII)
_TERM_RE = re.compile(r"([-+]?)\s*(%s)" % _TERM, re.ASCII)
_FACTOR_RE = re.compile(r"([0-9]+)|([lm])(?:\^(-?[0-9]+))?", re.ASCII)


def parse_poly(text):
    """Parse render()'s language back into a LaurentPoly.

    E.g. ``-1 + l - m^3 + 2*l*m^-1``; the grammar is flat, so ``(l-1)`` is
    rejected.  Raises ValueError on anything outside the language.
    """
    if not _POLY_RE.fullmatch(text):
        raise ValueError("malformed polynomial: %r" % text)
    t = {}
    for sign, term in _TERM_RE.findall(text):
        c, i, j = -1 if sign == "-" else 1, 0, 0
        for digits, var, exp in _FACTOR_RE.findall(term):
            if digits:
                c *= int(digits)
            elif var == "l":
                i += int(exp or 1)
            else:
                j += int(exp or 1)
        t[(i, j)] = t.get((i, j), 0) + c
    return LaurentPoly(t)


def _strip(p):
    """(i0, j0, q) with p = l^i0 * m^j0 * q and q of least exponents 0."""
    i0, j0 = p.min_exponents()
    return i0, j0, LaurentPoly({(i - i0, j - j0): c
                                for (i, j), c in p.terms.items()})


def unit_normalize(p):
    """Scale p by the unique unit ±l^a*m^b giving min exponents 0 and a
    positive coefficient on the lexicographically smallest monomial."""
    if not p:
        raise ValueError("cannot normalize the zero polynomial")
    q = _strip(p)[2]
    if q.terms[min(q.terms)] < 0:
        q = -q
    return q


def _m_first(e):
    """Key of the (m-degree, l-degree) lex order."""
    return e[1], e[0]


def _quotient(p, d):
    """q with p = d*q in the Laurent ring, or None if d does not divide p."""
    if not d:
        raise ValueError("zero divisor")
    if not p:
        return LaurentPoly.zero()
    # p = l^pi0 m^pj0 p', d = l^di0 m^dj0 d'; l and m divide neither p' nor
    # d', so d | p iff d' | p' in Z[l, m], and then q = l^si m^sj (p' / d')
    pi0, pj0, p = _strip(p)
    di0, dj0, d = _strip(d)
    si, sj = pi0 - di0, pj0 - dj0
    di, dj = e = max(d.terms, key=_m_first)
    dc = d.terms[e]
    r = dict(p.terms)
    q = {}
    while r:
        pi, pj = e = max(r, key=_m_first)
        c, rem = divmod(r[e], dc)
        if pi < di or pj < dj or rem:
            return None
        a, b = pi - di, pj - dj
        q[(a + si, b + sj)] = c
        for (i, j), k in d.terms.items():
            f = (i + a, j + b)
            s = r.get(f, 0) - c * k
            if s:
                r[f] = s
            else:
                del r[f]
    return LaurentPoly(q)


def divides(d, p):
    """True iff p = d*q for some q in the Laurent ring."""
    return _quotient(p, d) is not None


class UniPoly:
    """Dense univariate polynomial over LaurentPoly; zero is the empty list."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs



def _block_minors(p, d):
    """The nonzero d x d minors of the d x (deg p + d) block of Sylvester
    rows of p (row r holds p's coefficients, leading first, from column
    r), as a dict from column bitmask to terms dict.

    The minors of the first r + 1 rows come from those of the first r by
    expanding along row r: the entry in column c, not in the r-column set
    S, adds (-1)^(number of columns of S after c) * entry * minor(S) to
    minor(S + {c}).  Zero entries are skipped and nothing is divided."""
    row = [(k, c.terms) for k, c in enumerate(reversed(p.coeffs)) if c]
    minors = {0: {(0, 0): 1}}
    for r in range(d):
        nxt = {}
        for mask, minor in minors.items():
            for k, entry in row:
                col = r + k
                bit = 1 << col
                if mask & bit:
                    continue
                sign = -1 if (mask >> col).bit_count() & 1 else 1
                _mul_into(nxt.setdefault(mask | bit, {}), minor, entry, sign)
        minors = {mask: minor for mask, minor in nxt.items() if minor}
    return minors


def _column_sum(mask):
    """The sum of the column indices in a bitmask."""
    return sum(c for c in range(mask.bit_length()) if mask >> c & 1)


def pairwise_resultants(polys):
    """[resultant(a, b) for a, b in combinations(polys, 2)], in that order.

    Each Sylvester determinant is expanded by the generalized Laplace rule
    along the m = deg b rows of a: the sum over m-column sets S of
    (-1)^(sum S - m(m-1)/2) * minor_a(S) * minor_b(complement of S),
    columns counted from 0.  A polynomial's block minors depend only on
    it and its partner's degree, so each (polynomial, partner degree) is
    expanded once.  Raises ValueError if any polynomial is zero."""
    polys = list(polys)
    if not all(polys):
        raise ValueError("resultant of a zero polynomial")
    cache = {}

    def minors(k, d):
        got = cache.get((k, d))
        if got is None:
            got = cache[(k, d)] = _block_minors(polys[k], d)
        return got

    out = []
    for i, j in combinations(range(len(polys)), 2):
        n, m = polys[i].degree, polys[j].degree
        full = (1 << (n + m)) - 1
        base = m * (m - 1) // 2
        bottom = minors(j, n)
        acc = {}
        for mask, top in minors(i, m).items():
            other = bottom.get(full ^ mask)
            if other is not None:
                sign = -1 if (_column_sum(mask) - base) & 1 else 1
                _mul_into(acc, top, other, sign)
        out.append(_laurent(acc))
    return out


def resultant(p, q):
    """Resultant of p and q in x, an element of the Laurent ring."""
    return pairwise_resultants([p, q])[0]
