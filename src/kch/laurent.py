"""Exact arithmetic in the commutative Laurent ring Z[l^±1, m^±1].

The two central variables are called ``l`` and ``m`` throughout (longitude
and meridian).  A Laurent polynomial is stored as a dict mapping exponent
pairs (i, j) to nonzero integer coefficients; the dict is kept in canonical
form, so structural equality is equality of values.  Coefficients are
Python ints, hence arbitrary precision.
"""

from __future__ import annotations


class LaurentPoly:
    """Element of Z[l^±1, m^±1], canonical sparse form."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for (i, j), c in terms.items():
                if c:
                    t[(i, j)] = c
        self.terms = t

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def unit(cls, c=1, i=0, j=0):
        """The monomial c * l^i * m^j."""
        return cls({(i, j): c})

    @classmethod
    def lam(cls, e=1):
        return cls({(e, 0): 1})

    @classmethod
    def mu(cls, e=1):
        return cls({(0, e): 1})

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
        return LaurentPoly({e: -c for e, c in self.terms.items()})

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
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = t
        return out

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
        t = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                s = t.get(e, 0) + c1 * c2
                if s:
                    t[e] = s
                elif e in t:
                    del t[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = t
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            u = self.as_unit()
            if u is None:
                raise ValueError("negative power of a non-unit")
            c, i, j = u
            if c not in (1, -1):
                raise ValueError("negative power of a non-unit")
            return LaurentPoly.unit(c, -i, -j) ** (-k)
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
        c, i, j = self.as_unit()
        if c not in (1, -1):
            raise ValueError("not a unit of the Laurent ring")
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
        t = {}
        for (i, j), c in self.terms.items():
            e = (i, 2 * j)
            s = t.get(e, 0) + c * (-1) ** (j & 1)
            if s:
                t[e] = s
            elif e in t:
                del t[e]
        return LaurentPoly(t)

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


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.const(1)
LAM = LaurentPoly.lam()
MU = LaurentPoly.mu()


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


def parse_poly(text):
    """Parse the rendering grammar back into a LaurentPoly.

    Accepts sums of terms ``c*l^i*m^j`` with optional pieces, e.g.
    ``-1 + l - m^3 + l*m^-1`` or ``(l-1)`` style input is *not* supported:
    the grammar is flat, matching render() output.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial")
    if s == "0":
        return LaurentPoly.zero()
    # split into signed terms
    terms = []
    buf = ""
    sign = 1
    first = True
    k = 0
    while k < len(s):
        ch = s[k]
        if ch in "+-" and (first or buf.strip()):
            # '-' inside an exponent like m^-1 is preceded by '^'
            prev = buf.rstrip()[-1:] if buf.strip() else ""
            if prev == "^" or (first and not buf.strip() and ch == "-"):
                if first and not buf.strip():
                    sign = -1
                    first = False
                    k += 1
                    continue
                buf += ch
                k += 1
                continue
            terms.append((sign, buf))
            buf = ""
            sign = 1 if ch == "+" else -1
            k += 1
            continue
        first = False
        buf += ch
        k += 1
    terms.append((sign, buf))
    result = LaurentPoly.zero()
    for sgn, t in terms:
        t = t.strip()
        if not t:
            raise ValueError("malformed polynomial: %r" % text)
        coeff = sgn
        li = mj = 0
        for factor in t.split("*"):
            f = factor.strip()
            if not f:
                raise ValueError("malformed term: %r" % t)
            if f[0] in "lm":
                var = f[0]
                rest = f[1:]
                if rest == "":
                    e = 1
                elif rest.startswith("^"):
                    e = int(rest[1:])
                else:
                    raise ValueError("malformed factor: %r" % f)
                if var == "l":
                    li += e
                else:
                    mj += e
            else:
                coeff *= int(f)
        result = result + LaurentPoly.unit(coeff, li, mj)
    return result


def unit_normalize(p):
    """Scale p by the unique unit ±l^a*m^b giving min exponents 0 and a
    positive coefficient on the lexicographically smallest monomial."""
    if not p:
        raise ValueError("cannot normalize the zero polynomial")
    i0, j0 = p.min_exponents()
    q = p * LaurentPoly.unit(1, -i0, -j0)
    lead = min(q.terms)
    if q.terms[lead] < 0:
        q = -q
    return q


def divides(d, p):
    """True iff p = d*q for some q in the Laurent ring.

    Both sides are stripped to honest polynomials with min exponents 0;
    since l and m do not divide the stripped divisor, Laurent divisibility
    reduces to exact division in Z[l, m], decided by leading-term division
    in (m-degree, l-degree) lex order.
    """
    if not d:
        raise ValueError("zero divisor")
    if not p:
        return True
    i0, j0 = d.min_exponents()
    d = d * LaurentPoly.unit(1, -i0, -j0)
    i0, j0 = p.min_exponents()
    p = p * LaurentPoly.unit(1, -i0, -j0)

    def lead(poly):
        e = max(poly.terms, key=lambda ij: (ij[1], ij[0]))
        return e, poly.terms[e]

    (di, dj), dc = lead(d)
    while p:
        (pi, pj), pc = lead(p)
        if pi < di or pj < dj or pc % dc:
            return False
        q = LaurentPoly.unit(pc // dc, pi - di, pj - dj)
        p = p - d * q
    return True


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

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            xs = "" if k == 0 else ("x" if k == 1 else "x^%d" % k)
            parts.append("(%s)%s" % (render(c), xs))
        return " + ".join(reversed(parts))


def sylvester_matrix(p, q):
    """Sylvester matrix of two UniPoly in x, entries LaurentPoly."""
    n, m = p.degree, q.degree
    size = n + m
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for r in range(m):
        rows.append([ZERO] * r + pc + [ZERO] * (size - r - n - 1))
    for r in range(n):
        rows.append([ZERO] * r + qc + [ZERO] * (size - r - m - 1))
    return rows


def det_bareiss(matrix):
    """Fraction-free determinant over the Laurent ring (Bareiss, with row
    pivoting; the interior divisions are exact)."""
    a = [row[:] for row in matrix]
    n = len(a)
    if n == 0:
        return LaurentPoly.const(1)
    sign = 1
    prev = LaurentPoly.const(1)
    for k in range(n - 1):
        piv = None
        for r in range(k, n):
            if a[r][k]:
                piv = r
                break
        if piv is None:
            return LaurentPoly.zero()
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = _exact_quotient(num, prev)
            a[i][k] = LaurentPoly.zero()
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign > 0 else -d


def _exact_quotient(p, d):
    """p / d, valid only when d divides p (Bareiss guarantees this)."""
    if not p:
        return LaurentPoly.zero()
    u = d.as_unit()
    if u is not None:
        c, i, j = u
        t = {}
        for (pi, pj), pc in p.terms.items():
            if pc % c:
                raise ArithmeticError("inexact division")
            t[(pi - i, pj - j)] = pc // c
        return LaurentPoly(t)
    # long division in (m-degree, l-degree) lex order
    def lead(poly):
        e = max(poly.terms, key=lambda ij: (ij[1], ij[0]))
        return e, poly.terms[e]

    (di, dj), dc = lead(d)
    q = LaurentPoly.zero()
    while p:
        (pi, pj), pc = lead(p)
        if pc % dc:
            raise ArithmeticError("inexact division")
        t = LaurentPoly.unit(pc // dc, pi - di, pj - dj)
        q = q + t
        p = p - d * t
    return q


def resultant(p, q):
    """Resultant of p and q in x, an element of the Laurent ring."""
    if not p or not q:
        raise ValueError("resultant of a zero polynomial")
    if p.degree == 0 and q.degree == 0:
        return LaurentPoly.const(1)
    return det_bareiss(sylvester_matrix(p, q))
