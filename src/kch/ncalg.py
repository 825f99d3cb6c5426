"""Noncommutative graded tensor algebra over the Laurent ring.

Elements are Z[l^±1,m^±1]-linear combinations of words in graded
generators.  Coefficients are central; words multiply by concatenation.
Derivations are stored on generators only and extended to words by the
graded Leibniz rule  d(uv) = d(u)v + (-1)^{deg u} u d(v).

Most coefficients of the framed DGA are shared units ±l^a*m^b of
``laurent``, whose negations and products are shared too.  Every word
product is one kernel, ``_splice_into``, which puts the words of a term
dict between a prefix and a suffix: ``_mul_into`` (every NCPoly product
and each entry of the DGA's matrix products) calls it per left term,
``NCPoly.substitute`` per occurrence of the letter and ``Derivation.apply``
per letter of the Leibniz rule.  It skips the Laurent call when a factor
``is`` ONE or MINUS_ONE, taking the other factor or its negation, and
``_accumulate`` deletes a term where a shared unit meets its ``neg``.  The
tests are by identity, so an unshared unit takes the generic path and
gives the same result.

``Derivation.apply`` reads ``images`` at each call, splices only letters
with a nonzero image (no a_ij has one), and carries the Leibniz sign as
a flag, negating a word's coefficient only when a splice needs it.

``is_unit_multiple`` is the one test for p = ±l^a*m^b*q: it reads the
unit off one word and stops at the first term that disagrees.
"""

from __future__ import annotations

from .laurent import MINUS_ONE, ONE, LaurentPoly, render

_KINDS = ("a", "b", "c", "d", "e")
_DEGREES = (0, 1, 1, 2, 2)
# indices run 0 .. _SPAN - 1, the most that keeps every Generator below
# 2^30: one digit of a Python int, the fastest kind to hash and compare
_SPAN = 14_654
_SPAN2 = _SPAN * _SPAN
_KIND_BASE = {kind: k * _SPAN2 for k, kind in enumerate(_KINDS)}


class Generator(int):
    """Graded generator a_ij / b_ai / c_ia / d_ab / e_a of the framed DGA;
    an int that orders as (kind, i, j) does, so a word of them hashes and
    compares as a tuple of small ints."""

    __slots__ = ()

    def __new__(cls, kind, i, j=0):
        if not (0 <= i < _SPAN and 0 <= j < _SPAN):
            raise ValueError("generator index out of range: %d, %d" % (i, j))
        if kind not in _KIND_BASE:
            raise ValueError("unknown generator kind: %r" % (kind,))
        return int.__new__(cls, _KIND_BASE[kind] + i * _SPAN + j)

    kind = property(lambda g: _KINDS[g // _SPAN2])
    i = property(lambda g: g // _SPAN % _SPAN)
    j = property(lambda g: g % _SPAN)
    degree = property(lambda g: _DEGREES[g // _SPAN2])

    def __getnewargs__(self):
        return self.kind, self.i, self.j

    def name(self):
        if self.kind == "e":
            return "e%d" % self.i
        if self.i < 10 and self.j < 10:
            return "%s%d%d" % (self.kind, self.i, self.j)
        return "%s(%d,%d)" % (self.kind, self.i, self.j)

    __str__ = name

    def __repr__(self):
        return "Generator(%r, %d, %d)" % (self.kind, self.i, self.j)


# the kinds are stored in contiguous ranges: a below _B, b and c (degree
# 1) below _D, d and e (degree 2) from _D on
_B = _SPAN2
_D = 3 * _SPAN2


def _word_key(word):
    """Shorter words first, then letter by letter."""
    return (len(word), word)


def _accumulate(terms, word, c):
    """Add c * word to terms.  c must be nonzero: every caller passes a
    coefficient of a term dict, its negation or a product of two, and
    Z[l^±1,m^±1] has no zero divisors."""
    s = terms.get(word)
    if s is None:
        terms[word] = c
    elif c is s.neg:
        del terms[word]
    else:
        s = s + c
        if s:
            terms[word] = s
        else:
            del terms[word]


def _splice_into(terms, s, right, pre=(), post=()):
    """Accumulate s*c at pre + w + post into terms for each word w and
    coefficient c of the term dict right; a factor ONE or MINUS_ONE
    makes no Laurent product."""
    if s is ONE:
        for w, c in right.items():
            _accumulate(terms, pre + w + post, c)
    elif s is MINUS_ONE:
        for w, c in right.items():
            _accumulate(terms, pre + w + post, -c)
    else:
        for w, c in right.items():
            _accumulate(terms, pre + w + post, s if c is ONE else
                        -s if c is MINUS_ONE else s * c)


def _mul_into(terms, left, right):
    """Accumulate the products of the words and coefficients of two term
    dicts into terms."""
    for w, c in left.items():
        _splice_into(terms, c, right, w)


def _poly(terms):
    """NCPoly owning terms, which must hold no zero coefficient."""
    out = NCPoly.__new__(NCPoly)
    out.terms = terms
    return out


class NCPoly:
    """Finite map from words (tuples of Generator) to nonzero LaurentPoly."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for w, c in terms.items():
                if c:
                    t[tuple(w)] = c
        self.terms = t

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def scalar(cls, c):
        if isinstance(c, int):
            c = LaurentPoly.const(c)
        return cls({(): c})

    @classmethod
    def gen(cls, g, coeff=None):
        return cls({(g,): coeff if coeff is not None else ONE})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return _poly({w: -c for w, c in self.terms.items()})

    def __add__(self, other):
        t = dict(self.terms)
        for w, c in other.terms.items():
            _accumulate(t, w, c)
        return _poly(t)

    def __sub__(self, other):
        t = dict(self.terms)
        for w, c in other.terms.items():
            _accumulate(t, w, -c)
        return _poly(t)

    def __mul__(self, other):
        """Word-concatenation product; Laurent scalars multiply in."""
        if isinstance(other, (int, LaurentPoly)):
            other = NCPoly.scalar(other)
        t = {}
        _mul_into(t, self.terms, other.terms)
        return _poly(t)

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return NCPoly.scalar(other) * self
        return NotImplemented

    def generators(self):
        out = set()
        for w in self.terms:
            out.update(w)
        return out

    def homogeneous_degree(self):
        """Common degree of all words, the string "inhomogeneous", or
        "zero" for the zero polynomial."""
        if not self.terms:
            return "zero"
        degs = set()
        for w in self.terms:
            d = 0
            for g in w:
                if g >= _B:
                    d += 1 if g < _D else 2
            degs.add(d)
        if len(degs) == 1:
            return degs.pop()
        return "inhomogeneous"

    def substitute(self, g, replacement):
        """Replace every occurrence of generator g by the given NCPoly,
        splicing the replacement's words into each word that contains g."""
        rterms = replacement.terms
        t = {}
        for w, c in self.terms.items():
            if g not in w:
                _accumulate(t, w, c)
                continue
            cuts = [k for k, x in enumerate(w) if x == g]
            parts = {w[:cuts[0]]: c}
            for k, end in zip(cuts, cuts[1:] + [len(w)]):
                # the last splice writes straight into the result
                spliced = t if end == len(w) else {}
                for pw, pc in parts.items():
                    _splice_into(spliced, pc, rterms, pw, w[k + 1:end])
                parts = spliced
        return _poly(t)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda wc: _word_key(wc[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k, (w, c) in enumerate(self.sorted_terms()):
            wtxt = "*".join(g.name() for g in w)
            u = c.as_unit()
            if u is not None and u[0] in (1, -1) and u[1] == 0 and u[2] == 0 and w:
                body = wtxt
                neg = u[0] < 0
            elif u is not None and w:
                neg = u[0] < 0
                cpos = c if not neg else -c
                body = "%s*%s" % (render(cpos), wtxt)
            elif w:
                body = "(%s)*%s" % (render(c), wtxt)
                neg = False
            else:
                neg = False
                body = "(%s)" % render(c)
            if k == 0:
                parts.append(body if not neg else "-" + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return "NCPoly(%s)" % self


def is_unit_multiple(p, q):
    """True iff p = u*q for a unit u = ±l^a*m^b, so False when the words
    differ.  u is read off the least-exponent terms of the coefficients on
    one word; every coefficient is then checked term by term, that one
    too, and the test stops at the first mismatch."""
    if len(p.terms) != len(q.terms):
        return False
    sign = None
    for w, c in p.terms.items():
        d = q.terms.get(w)
        if d is None or len(d.terms) != len(c.terms):
            return False
        if sign is None:
            (ci, cj), (qi, qj) = min(c.terms), min(d.terms)
            sign = 1 if c.terms[ci, cj] == d.terms[qi, qj] else -1
            di, dj = ci - qi, cj - qj
        for (i, j), a in c.terms.items():
            if d.terms.get((i - di, j - dj)) != sign * a:
                return False
    return True


class Derivation:
    """Degree -1 derivation given by its values on generators."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = dict(images)

    def __call__(self, p):
        return self.apply(p)

    def apply(self, p):
        """Graded Leibniz extension to an arbitrary NCPoly."""
        images = self.images
        t = {}
        for w, c in p.terms.items():
            odd = False  # the sign (-1)^deg of the prefix
            neg = None   # -c, made on first use
            for k, g in enumerate(w):
                img = images.get(g)
                if img is None:
                    raise KeyError("no differential image for %s" % g.name())
                if img.terms:
                    if odd and neg is None:
                        neg = -c
                    _splice_into(t, neg if odd else c, img.terms, w[:k],
                                 w[k + 1:])
                if _B <= g < _D:
                    odd = not odd
        return _poly(t)
