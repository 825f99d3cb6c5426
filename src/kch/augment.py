"""Counting augmentations of a cord-algebra presentation over prime fields.

An augmentation is a ring map to Z_p sending l, m to prescribed units; it
factors through the abelianization, so noncommutative words collapse to
commutative monomials before solving.

Counting compiles the relations once per prime and then runs an exact
backtracking search at each of the (p-1)^2 points (l0, m0):

- Every distinct coefficient is evaluated once at all points.  Since l0
  and m0 are units of F_p, x^(p-1) = 1, so exponents reduce mod p-1 and
  negative powers need no inverse; a table of powers does the rest.
- The variable order (most shared first) and the depth at which each
  relation is checked come from the symbolic relations, so they are the
  same at every point.  A relation is checked as soon as its last variable
  is assigned; one with no variable decides "count 0" at its point, and a
  variable in no relation contributes a factor p.
- At a search node each checkable relation becomes a polynomial in the
  node's variable, which filters the candidate values; the search stops at
  the first empty set, and at the last variable the count is the number of
  values left.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from .diagram import crossing_data
from .hc0 import IntractableError, extract_presentation, simplify

DEFAULT_MAX_PRIME = 13
DEFAULT_MAX_GENERATORS = 16


@dataclass(frozen=True)
class AugTable:
    p: int
    counts: tuple  # tuple of ((lam0, mu0), count), sorted

    def as_dict(self):
        return dict(self.counts)

    def total(self):
        return sum(c for _, c in self.counts)


@dataclass(frozen=True)
class Signature:
    primes: tuple
    tables: tuple  # AugTable per prime, same order as primes

    def as_json_obj(self):
        return {
            "primes": list(self.primes),
            "tables": [
                {"p": t.p,
                 "table": [{"lambda": l0, "mu": m0, "count": c}
                           for (l0, m0), c in t.counts]}
                for t in self.tables
            ],
        }


def _is_prime(p):
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


def commutative_relations(pres):
    """Collapse each relation's words to sorted generator tuples.

    Returns (variables, relations) where relations are lists of
    (monomial, LaurentPoly) with monomial a tuple of variable indices.
    """
    variables = sorted(set(pres.generators))
    index = {g: k for k, g in enumerate(variables)}
    rels = []
    for rel in pres.relations:
        acc = {}
        for word, coeff in rel.terms.items():
            mono = tuple(sorted(index[g] for g in word))
            acc[mono] = acc[mono] + coeff if mono in acc else coeff
        rels.append([(m, c) for m, c in sorted(acc.items()) if c])
    return variables, [r for r in rels if r]


def _compile(relations, nvars, p):
    """The search plan of the relations over Z_p, built once per prime.

    Returns (order, powers, levels).  order lists the variables that occur
    in some relation, most shared first; the count does not depend on the
    order.  powers[x][e] is x^e mod p.  levels[d] holds the relations whose
    last variable in the order is order[d - 1] (levels[0]: no variable),
    each as (1 + its degree in that variable, terms), a term being (power
    of order[d - 1], [(earlier variable, power)], the coefficient's values
    at the points (l0, m0) in (F_p*)^2, l0-major)."""
    freq = [0] * nvars
    for rel in relations:
        for v in {v for mono, _ in rel for v in mono}:
            freq[v] += 1
    order = sorted((v for v in range(nvars) if freq[v]),
                   key=lambda v: (-freq[v], v))
    rank = {v: k + 1 for k, v in enumerate(order)}
    by_depth = [[] for _ in range(len(order) + 1)]
    for rel in relations:
        by_depth[max((rank[v] for mono, _ in rel for v in mono),
                     default=0)].append(rel)

    top = max([p - 2] + [mono.count(v) for rel in relations
                         for mono, _ in rel for v in mono])
    powers = [[pow(x, e, p) for e in range(top + 1)] for x in range(p)]
    columns = list(zip(*powers))
    tables = {}

    def table(coeff):
        if coeff not in tables:
            # l0, m0 are units, so x^(p-1) = 1: exponents reduce mod p - 1
            values = [0] * (p - 1) ** 2
            for (i, j), c in coeff.terms.items():
                values = [v + c * a * b for v, (a, b) in zip(values, product(
                    columns[i % (p - 1)][1:], columns[j % (p - 1)][1:]))]
            tables[coeff] = [v % p for v in values]
        return tables[coeff]

    levels = []
    for depth, rels in enumerate(by_depth):
        var = order[depth - 1] if depth else None
        levels.append([(1 + max(mono.count(var) for mono, _ in rel),
                        [(mono.count(var),
                          [(u, mono.count(u)) for u in sorted(set(mono))
                           if u != var],
                          table(coeff)) for mono, coeff in rel])
                       for rel in rels])
    return order, powers, levels


def _count_at(order, powers, levels, point, p):
    """Assignments of the ordered variables killing every relation at the
    point with the given index."""
    if any(tab[point] for _, rel in levels[0] for _, _, tab in rel):
        return 0  # a nonzero constant relation
    last = len(order)
    assignment = {}

    def recurse(depth):
        allowed = range(p)
        for size, rel in levels[depth]:
            # the relation as a polynomial in order[depth - 1]; a term whose
            # coefficient vanishes at the point contributes 0
            poly = [0] * size
            for k, others, tab in rel:
                c = tab[point]
                if c:
                    for u, e in others:
                        c *= powers[assignment[u]][e]
                    poly[k] += c
            allowed = [x for x in allowed
                       if not sum(map(mul, poly, powers[x])) % p]
            if not allowed:
                return 0
        if depth == last:
            return len(allowed)
        var, count = order[depth - 1], 0
        for x in allowed:
            assignment[var] = x
            count += recurse(depth + 1)
        return count

    return recurse(1) if last else 1


def count_augmentations(pres, p, max_prime=DEFAULT_MAX_PRIME,
                        max_generators=DEFAULT_MAX_GENERATORS):
    """AugTable of the presentation over Z_p, all (lam0, mu0) in (F_p*)^2."""
    if not _is_prime(p):
        raise ValueError("%r is not prime" % (p,))
    if p > max_prime:
        raise IntractableError("prime %d exceeds the bound %d" % (p, max_prime))
    variables, relations = commutative_relations(pres)
    if len(variables) > max_generators:
        raise IntractableError(
            "%d surviving generators exceed the search bound %d"
            % (len(variables), max_generators))
    order, powers, levels = _compile(relations, len(variables), p)
    free = p ** (len(variables) - len(order))
    points = [(l0, m0) for l0 in range(1, p) for m0 in range(1, p)]
    counts = [free * _count_at(order, powers, levels, k, p)
              for k in range(len(points))]
    return AugTable(p=p, counts=tuple(zip(points, counts)))


def presentation_signature(pres, primes, max_prime=DEFAULT_MAX_PRIME,
                           max_generators=DEFAULT_MAX_GENERATORS):
    """Per-prime tables of an already simplified presentation."""
    tables = tuple(
        count_augmentations(pres, p, max_prime=max_prime,
                            max_generators=max_generators)
        for p in primes)
    return Signature(primes=tuple(primes), tables=tables)


def aug_signature(pd, primes, max_prime=DEFAULT_MAX_PRIME,
                  max_generators=DEFAULT_MAX_GENERATORS):
    """crossing_data -> presentation -> simplify -> per-prime tables."""
    pres = simplify(extract_presentation(crossing_data(pd)))
    return presentation_signature(pres, primes, max_prime=max_prime,
                                  max_generators=max_generators)


def distinguish(s1, s2):
    """True iff the signatures differ in any entry (same prime lists)."""
    if s1.primes != s2.primes:
        raise ValueError("signatures computed over different prime lists")
    return s1.tables != s2.tables


def first_difference(s1, s2):
    for t1, t2 in zip(s1.tables, s2.tables):
        for ((pt1, c1), (pt2, c2)) in zip(t1.counts, t2.counts):
            if c1 != c2:
                return {"p": t1.p, "lambda": pt1[0], "mu": pt1[1],
                        "counts": [c1, c2]}
    return None
