"""Degree-0 homology (cord algebra) presentations and tame simplification.

The presentation has generators a_ij (i != j) and the 2n^2 relations given
by the entries of PsiL.A and A.PsiR.  Simplification repeatedly eliminates
a generator that occurs linearly with a unit coefficient and nowhere else
in the same relation; this never changes the quotient algebra.  It keeps
its offers in a heap, finds each relation's offer and letters in one pass,
and compares the nc_unit_normalize forms of relations only when they
share a word set, so most relations are never unit-normalized.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain

from .dga import IntractableError, build_matrices, relation_products
from .ncalg import NCPoly, nc_unit_normalize


@dataclass
class Presentation:
    generators: list
    relations: list
    substitution_log: list = field(default_factory=list)

    def __str__(self):
        lines = ["generators: " + ", ".join(g.name() for g in self.generators)]
        for rel in self.relations:
            lines.append("  0 = %s" % rel)
        return "\n".join(lines)

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


def relation_presentation(rel_l, rel_r):
    """All a_ij with the entries of rel_l = PsiL.A and then of
    rel_r = A.PsiR, each a list of rows read row by row, as relations."""
    relations = [e for m in (rel_l, rel_r) for row in m for e in row]
    gens = sorted({g for rel in relations for g in rel.generators()})
    return Presentation(generators=gens, relations=relations)


def extract_presentation(cd):
    """All a_ij with the 2n^2 entries of PsiL.A and A.PsiR as relations.
    kch.pipeline.Run does not call this: it reads them off the DGA."""
    return relation_presentation(*relation_products(build_matrices(cd)))


def _offer(rel, alive):
    """(offer, letters) from one pass over rel's words: letters counts
    each letter's occurrences, and offer is (cost, g, u) for the smallest
    alive g with rel = u*g + w, u a unit and g in no word of w, cost being
    (longest word, terms) of w, or None if no generator qualifies."""
    terms = rel.terms
    letters = Counter(chain.from_iterable(terms))
    for g in sorted(g for g, n in letters.items()
                    if n == 1 and g in alive and (g,) in terms):
        if terms[(g,)].is_ring_unit():
            longest = max((len(w) for w in terms if w != (g,)), default=0)
            return ((longest, len(terms) - 1), g, terms[(g,)]), letters
    return None, letters


def _settle(cache, holder, heap, rels, alive):
    """Cache (relation, word set, offer, letters) for each (position,
    relation) of rels in ascending position, push (cost, position) of its
    offer onto heap, and keep one relation per nc_unit_normalize form, the
    one at the smallest position.  A unit keeps the words, so holder maps
    each word set to the positions that hold it, and a relation is
    normalized only when it meets a peer there.  No position of rels may
    be cached yet.  Zero relations are dropped.  Returns the number of
    terms in the relations dropped as duplicates."""
    dropped = 0
    for p, rel in rels:
        if not rel:
            continue
        words = frozenset(rel.terms)
        peers = holder.setdefault(words, [])
        if peers:
            form = nc_unit_normalize(rel)
            q = next((q for q in peers
                      if nc_unit_normalize(cache[q][0]) == form), None)
            if q is not None:
                if q < p:
                    dropped += len(rel.terms)
                    continue
                dropped += len(cache.pop(q)[0].terms)
                peers.remove(q)
        peers.append(p)
        offer, letters = _offer(rel, alive)
        cache[p] = (rel, words, offer, letters)
        if offer:
            heappush(heap, (offer[0], p))
    return dropped


def _release(cache, holder, p):
    """Uncache the relation at position p and return it."""
    rel, words, _, _ = cache.pop(p)
    peers = holder[words]
    peers.remove(p)
    if not peers:
        del holder[words]
    return rel


# simplify gives up once its relations hold more terms than this in all.
# The largest total seen on the tests and benchmark inputs is 782; R2
# inflations that used to exhaust memory stop here within ~5 s, ~110 MB.
MAX_RELATION_TERMS = 100_000


def simplify(pres):
    """Eliminate unit-coefficient linear generators until a fixpoint.

    A relation u*g + w, with u = ±l^a*m^b and g a generator of pres that
    occurs in no word of w, offers the elimination g -> -u^-1*w; if
    several generators qualify, the relation offers the smallest.  Each
    step takes the offer with the smallest key (longest replacement word,
    replacement terms, relation position), drops that relation,
    substitutes the replacement into every relation containing g, and
    then drops zero relations and unit multiples of an earlier relation.
    The key puts short replacement words first: substituting long words
    turns linear relations nonlinear and blocks later steps.

    The loop runs on the relations' own Generator letters.  _settle
    caches each relation's offer and letter counts, found in one pass over
    its words, and compares nc_unit_normalize forms only where two
    relations share a word set.  A heap holds (cost, position) of every
    offer; an entry whose relation has since been dropped or changed its
    offer is skipped.
    After a step only the relations that contained g are settled again:
    no other offer changes.  Raises IntractableError once the relations
    hold more than MAX_RELATION_TERMS terms."""
    alive = set(pres.generators)
    cache = {}   # position -> (relation, word set, offer, letter counts)
    holder = {}  # word set -> positions of the relations with it
    heap = []    # (cost, position) of every offer made, some since stale
    size = sum(len(r.terms) for r in pres.relations)  # terms held
    size -= _settle(cache, holder, heap, list(enumerate(pres.relations)),
                    alive)
    log = list(pres.substitution_log)
    while heap:
        cost, p = heappop(heap)
        offer = cache[p][2] if p in cache else None
        if offer is None or offer[0] != cost:
            continue
        _, g, u = offer
        rel = _release(cache, holder, p)
        size -= len(rel.terms)
        replacement = NCPoly({w: c for w, c in rel.terms.items()
                              if w != (g,)}) * -u.inverse_unit()
        touched = sorted(q for q, entry in cache.items() if g in entry[3])
        changed = []
        for q in touched:
            rel = _release(cache, holder, q)
            new = rel.substitute(g, replacement)
            size += len(new.terms) - len(rel.terms)
            if size > MAX_RELATION_TERMS:
                raise IntractableError(
                    "simplify: %d relation terms exceed the bound %d"
                    % (size, MAX_RELATION_TERMS))
            changed.append((q, new))
        alive.discard(g)
        log.append((g, replacement))
        size -= _settle(cache, holder, heap, changed, alive)
    return Presentation(generators=sorted(alive),
                        relations=[cache[p][0] for p in sorted(cache)],
                        substitution_log=log)


def replay_log(pres, target):
    """Express an original generator in terms of the surviving ones."""
    expr = NCPoly.gen(target)
    for g, replacement in pres.substitution_log:
        expr = expr.substitute(g, replacement)
    return expr
