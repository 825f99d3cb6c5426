"""Degree-0 homology (cord algebra) presentations and tame simplification.

The presentation has generators a_ij (i != j) and the 2n^2 relations given
by the entries of PsiL.A and A.PsiR.  Simplification repeatedly eliminates
a generator that occurs linearly with a unit coefficient and nowhere else
in the same relation; this never changes the quotient algebra.  Among the
offers of shortest replacement words it takes the letter in the fewest
live relations, each of which it rewrites (Markowitz's fill-in rule).  It
finds each relation's offer and letters in one pass, indexes the relations
by letter, and tests two relations for being unit multiples
(ncalg.is_unit_multiple) only when they share a word set.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from .dga import IntractableError, build_dga
from .ncalg import NCPoly, is_unit_multiple


@dataclass
class Presentation:
    generators: list
    relations: list
    substitution_log: list = field(default_factory=list)

    @cached_property
    def commutative(self):
        """The relations abelianized, computed once per presentation:
        (variables, relations), the sorted generators and each nonzero
        relation as a list of (monomial, LaurentPoly) sorted by monomial, a
        monomial being a sorted tuple of variable indices.  Raises
        ValueError on a letter that is not a generator."""
        variables = sorted(set(self.generators))
        index = {g: k for k, g in enumerate(variables)}
        rels = []
        try:
            for rel in self.relations:
                acc = {}
                for word, coeff in rel.terms.items():
                    mono = tuple(sorted(index[g] for g in word))
                    acc[mono] = acc[mono] + coeff if mono in acc else coeff
                rels.append([(m, c) for m, c in sorted(acc.items()) if c])
        except KeyError as exc:
            raise ValueError("relation letter %s is not a listed generator"
                             % (exc.args[0],)) from None
        return variables, [r for r in rels if r]


def relation_presentation(dga):
    """All a_ij with the entries of the DGA's dB = PsiL.A and then of its
    dC = A.PsiR, each read row by row, as relations."""
    relations = [e for m in (dga.db, dga.dc) for row in m for e in row]
    gens = sorted({g for rel in relations for g in rel.generators()})
    return Presentation(generators=gens, relations=relations)


def extract_presentation(cd):
    """All a_ij with the 2n^2 entries of PsiL.A and A.PsiR as relations.
    kch.pipeline.Run does not call this: it reads them off the DGA."""
    return relation_presentation(build_dga(cd))


def _offer(rel, alive):
    """(offer, letters) from one pass over rel's words: letters counts
    each letter's occurrences, and offer is (cost, g, u) for the smallest
    alive g with rel = u*g + w, u a unit and g in no word of w, cost being
    (longest word, terms) of w, or None if no generator qualifies."""
    terms = rel.terms
    letters = {}
    for w in terms:
        for x in w:
            letters[x] = letters.get(x, 0) + 1
    g = None
    for x, n in letters.items():
        if n == 1 and (g is None or x < g) and x in alive:
            u = terms.get((x,))
            if u is not None and u.is_ring_unit():
                g = x
    if g is None:
        return None, letters
    longest = max((len(w) for w in terms if w != (g,)), default=0)
    return ((longest, len(terms) - 1), g, terms[(g,)]), letters


def _settle(cache, holder, index, rels, alive):
    """Cache (relation, word set, offer, letters) for each (position,
    relation) of rels in ascending position, file the position under its
    word set in holder and under each of its letters in index, and keep
    one relation per class of unit multiples, the one at the smallest
    position; a unit keeps the words, so only peers in holder are tested.
    No position of rels may be cached yet.  Zero relations are dropped.
    Returns the number of terms in the relations dropped as duplicates."""
    dropped = 0
    for p, rel in rels:
        if not rel:
            continue
        words = frozenset(rel.terms)
        q = next((q for q in holder.get(words, ())
                  if is_unit_multiple(rel, cache[q][0])), None)
        if q is not None:
            if q < p:
                dropped += len(rel.terms)
                continue
            dropped += len(_release(cache, holder, index, q).terms)
        holder.setdefault(words, []).append(p)
        offer, letters = _offer(rel, alive)
        cache[p] = (rel, words, offer, letters)
        for x in letters:
            index[x].add(p)
    return dropped


def _release(cache, holder, index, p):
    """Uncache the relation at position p, unfile it, and return it."""
    rel, words, _, letters = cache.pop(p)
    peers = holder[words]
    peers.remove(p)
    if not peers:
        del holder[words]
    for x in letters:
        index[x].discard(p)
        if not index[x]:
            del index[x]
    return rel


# simplify gives up once its relations hold more terms than this in all.
# The most held at any step is 580 on the benchmark inputs, 864 on the
# other tests and 2,917 on the tests' T(3,7), T(3,8) and T(4,5) diagrams;
# 10_123, closing (sigma_1 sigma_2^-1)^5, stops here within 0.6 s.
MAX_RELATION_TERMS = 100_000


def simplify(pres):
    """Eliminate unit-coefficient linear generators until a fixpoint.

    A relation u*g + w, with u = ±l^a*m^b and g a generator of pres that
    occurs in no word of w, offers the elimination g -> -u^-1*w; if
    several generators qualify, the relation offers the smallest.  Each
    step takes the offer with the smallest key (longest replacement word,
    live relations holding g, replacement terms, relation position),
    drops that relation, substitutes the replacement into every relation
    containing g, and then drops zero relations and unit multiples of an
    earlier relation.  The key puts short replacement words first:
    substituting long words turns linear relations nonlinear and blocks
    later steps.  Next it puts the fewest rewritten relations, the fill-in
    of Markowitz's rule, so fewer relations grow per step.

    The loop runs on the relations' own Generator letters.  _settle
    caches each relation's offer and letter counts, found in one pass over
    its words, files it by letter, and tests it for a unit multiple only
    against relations with its word set.  Each step scans the cached
    offers for the smallest key, counting g's relations off the letter
    index; a step moves the counts of every letter it rewrites, so no key
    outlives its step.  Only the relations that contained g are settled
    again: no other offer changes.  Raises IntractableError once the
    relations hold more than MAX_RELATION_TERMS terms."""
    alive = set(pres.generators)
    cache = {}   # position -> (relation, word set, offer, letter counts)
    holder = {}  # word set -> positions of the relations with it
    index = defaultdict(set)  # letter -> positions of relations with it
    size = sum(len(r.terms) for r in pres.relations)  # terms held
    size -= _settle(cache, holder, index, list(enumerate(pres.relations)),
                    alive)
    log = list(pres.substitution_log)
    while best := min(((o[0][0], len(index[o[1]]), o[0][1], p)
                       for p, (_, _, o, _) in cache.items() if o),
                      default=None):
        p = best[3]
        _, g, u = cache[p][2]
        rel = _release(cache, holder, index, p)
        size -= len(rel.terms)
        replacement = NCPoly({w: c for w, c in rel.terms.items()
                              if w != (g,)}) * -u.inverse_unit()
        changed = []
        for q in sorted(index.get(g, ())):
            rel = _release(cache, holder, index, q)
            new = rel.substitute(g, replacement)
            size += len(new.terms) - len(rel.terms)
            if size > MAX_RELATION_TERMS:
                raise IntractableError(
                    "simplify: %d relation terms exceed the bound %d"
                    % (size, MAX_RELATION_TERMS))
            changed.append((q, new))
        alive.discard(g)
        log.append((g, replacement))
        size -= _settle(cache, holder, index, changed, alive)
    return Presentation(generators=sorted(alive),
                        relations=[cache[p][0] for p in sorted(cache)],
                        substitution_log=log)


def replay_log(pres, target):
    """Express an original generator in terms of the surviving ones."""
    expr = NCPoly.gen(target)
    for g, replacement in pres.substitution_log:
        expr = expr.substitute(g, replacement)
    return expr
