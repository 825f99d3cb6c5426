"""Counting augmentations of a cord-algebra presentation over prime fields.

An augmentation is a ring map to Z_p sending l, m to prescribed units; it
factors through the abelianization, so noncommutative words collapse to
commutative monomials before solving.  Counting is exact backtracking with
early relation pruning; a relation is tested as soon as all its variables
are assigned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import crossing_data
from .hc0 import extract_presentation, simplify

DEFAULT_MAX_PRIME = 13
DEFAULT_MAX_GENERATORS = 16


class IntractableError(RuntimeError):
    """Search-size bound exceeded."""


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


def _count_point(relations, nvars, lam0, mu0, p):
    """Number of assignments in F_p^nvars killing every relation."""
    # evaluate coefficients at (lam0, mu0)
    evaled = []
    for rel in relations:
        terms = []
        for mono, coeff in rel:
            c = coeff.evaluate_mod(lam0, mu0, p)
            if c:
                terms.append((mono, c))
        if not terms:
            continue  # relation vanishes identically at this point
        evaled.append(terms)

    if not evaled:
        return p ** nvars

    # order variables by frequency across relations (ties by index)
    freq = [0] * nvars
    for terms in evaled:
        seen = set()
        for mono, _ in terms:
            seen.update(mono)
        for v in seen:
            freq[v] += 1
    order = sorted(range(nvars), key=lambda v: (-freq[v], v))
    rank = {v: k for k, v in enumerate(order)}

    # relation becomes checkable once its deepest variable is assigned
    by_depth = [[] for _ in range(nvars + 1)]
    for terms in evaled:
        vs = {v for mono, _ in terms for v in mono}
        depth = max((rank[v] + 1 for v in vs), default=0)
        by_depth[depth].append(terms)

    if any(sum(c for _, c in terms) % p for terms in by_depth[0]):
        return 0

    assignment = [0] * nvars

    def value(terms):
        total = 0
        for mono, c in terms:
            v = c
            for var in mono:
                v = v * assignment[var] % p
            total = (total + v) % p
        return total

    def recurse(depth):
        if depth == nvars:
            return 1
        var = order[depth]
        count = 0
        for x in range(p):
            assignment[var] = x
            if all(value(t) == 0 for t in by_depth[depth + 1]):
                count += recurse(depth + 1)
        return count

    return recurse(0)


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
    points = [(l0, m0) for l0 in range(1, p) for m0 in range(1, p)]
    counts = [_count_point(relations, len(variables), l0, m0, p)
              for l0, m0 in points]
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
