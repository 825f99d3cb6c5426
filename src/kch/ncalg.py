"""Noncommutative graded tensor algebra over the Laurent ring.

Elements are Z[l^±1,m^±1]-linear combinations of words in graded
generators.  Coefficients are central; words multiply by concatenation.
Derivations are stored on generators only and extended to words by the
graded Leibniz rule  d(uv) = d(u)v + (-1)^{deg u} u d(v).
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import LaurentPoly, render

_DEGREE = {"a": 0, "b": 1, "c": 1, "d": 2, "e": 2}


@dataclass(frozen=True, order=True)
class Generator:
    """Graded generator a_ij / b_ai / c_ia / d_ab / e_a of the framed DGA."""

    kind: str
    i: int
    j: int = 0

    @property
    def degree(self):
        return _DEGREE[self.kind]

    def name(self):
        if self.kind == "e":
            return "e%d" % self.i
        if self.i < 10 and self.j < 10:
            return "%s%d%d" % (self.kind, self.i, self.j)
        return "%s(%d,%d)" % (self.kind, self.i, self.j)

    def __str__(self):
        return self.name()


def word_degree(word):
    return sum(g.degree for g in word)


def _word_key(word):
    """Shorter words first, then letter by letter; letters are Generators
    or the ints that stand for them in Generator order."""
    return (len(word), word)


def _accumulate(terms, word, c):
    s = terms.get(word)
    s = c if s is None else s + c
    if s:
        terms[word] = s
    elif word in terms:
        del terms[word]


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
        return cls({(g,): coeff if coeff is not None else LaurentPoly.const(1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return NCPoly({w: -c for w, c in self.terms.items()})

    def __add__(self, other):
        t = dict(self.terms)
        for w, c in other.terms.items():
            s = t.get(w, LaurentPoly.zero()) + c
            if s:
                t[w] = s
            elif w in t:
                del t[w]
        out = NCPoly.__new__(NCPoly)
        out.terms = t
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Word-concatenation product; Laurent scalars multiply in."""
        if isinstance(other, (int, LaurentPoly)):
            other = NCPoly.scalar(other)
        t = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = t.get(w, LaurentPoly.zero()) + c1 * c2
                if s:
                    t[w] = s
                elif w in t:
                    del t[w]
        out = NCPoly.__new__(NCPoly)
        out.terms = t
        return out

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
        degs = {word_degree(w) for w in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return "inhomogeneous"

    def substitute(self, g, replacement):
        """Replace every occurrence of generator g by the given NCPoly,
        splicing the replacement's words into each word that contains g."""
        rterms = list(replacement.terms.items())
        t = {}
        for w, c in self.terms.items():
            if g not in w:
                _accumulate(t, w, c)
                continue
            cuts = [k for k, x in enumerate(w) if x == g]
            parts = {w[:cuts[0]]: c}
            for k, end in zip(cuts, cuts[1:] + [len(w)]):
                tail = w[k + 1:end]
                spliced = {}
                for pw, pc in parts.items():
                    for rw, rc in rterms:
                        _accumulate(spliced, pw + rw + tail, pc * rc)
                parts = spliced
            for pw, pc in parts.items():
                _accumulate(t, pw, pc)
        out = NCPoly.__new__(NCPoly)
        out.terms = t
        return out

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


def nc_unit_normalize(p):
    """Scale by a unit ±l^a*m^b so the joint min exponents are 0 and the
    leading coefficient of the smallest word is positive."""
    if not p:
        raise ValueError("cannot normalize the zero polynomial")
    i0 = min(i for c in p.terms.values() for (i, _) in c.terms)
    j0 = min(j for c in p.terms.values() for (_, j) in c.terms)
    q = p * LaurentPoly.unit(1, -i0, -j0) if i0 or j0 else p
    w0 = min(q.terms, key=_word_key)
    lead = q.terms[w0]
    if lead.terms[min(lead.terms)] < 0:
        q = -q
    return q


class NCMatrix:
    """Square matrix with NCPoly entries; order of factors is preserved."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.n = len(self.entries)
        for row in self.entries:
            if len(row) != self.n:
                raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, n):
        return cls([[NCPoly.scalar(1 if i == j else 0) for j in range(n)]
                    for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, NCMatrix) and self.entries == other.entries

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                s = NCPoly.zero()
                for k in range(n):
                    s = s + self.entries[i][k] * other.entries[k][j]
                row.append(s)
            out.append(row)
        return NCMatrix(out)

    def __sub__(self, other):
        return NCMatrix([[a - b for a, b in zip(r1, r2)]
                         for r1, r2 in zip(self.entries, other.entries)])

    def __str__(self):
        return "[" + ",\n ".join("[" + ", ".join(str(e) for e in row) + "]"
                                 for row in self.entries) + "]"


class Derivation:
    """Degree -1 derivation given by its values on generators."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = dict(images)

    def __call__(self, p):
        return self.apply(p)

    def apply(self, p):
        """Graded Leibniz extension to an arbitrary NCPoly."""
        out = NCPoly.zero()
        for w, c in p.terms.items():
            sign = 1
            for k, g in enumerate(w):
                if g not in self.images:
                    raise KeyError("no differential image for %s" % g)
                img = self.images[g]
                if img:
                    term = NCPoly({w[:k]: LaurentPoly.const(sign)}) * img \
                        * NCPoly({w[k + 1:]: c})
                    out = out + term
                if g.degree % 2:
                    sign = -sign
        return out
