"""Degree-0 homology (cord algebra) presentations and tame simplification.

The presentation has generators a_ij (i != j) and the 2n^2 relations given
by the entries of PsiL.A and A.PsiR.  Simplification repeatedly eliminates
a generator that occurs linearly with a unit coefficient and nowhere else
in the same relation; this never changes the quotient algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dga import build_matrices
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


def extract_presentation(cd):
    """All a_ij with the 2n^2 entries of PsiL.A and A.PsiR as relations."""
    n = cd.n
    mats = build_matrices(cd)
    rel_l = mats["psi_l"] * mats["A"]
    rel_r = mats["A"] * mats["psi_r"]
    relations = []
    for m in (rel_l, rel_r):
        for i in range(n):
            for j in range(n):
                relations.append(m[i, j])
    gens = sorted({g for rel in relations for g in rel.generators()})
    return Presentation(generators=gens, relations=relations)


def _recode(p, table):
    """p with every letter x replaced by table[x]."""
    return NCPoly({tuple(table[x] for x in w): c for w, c in p.terms.items()})


def _offer(rel, alive):
    """(cost, g, u) for the smallest alive g with rel = u*g + w, u a unit
    and g in no word of w; cost is (longest word, terms) of w.  None if
    no generator qualifies."""
    terms = rel.terms
    singles = sorted(w[0] for w, c in terms.items()
                     if len(w) == 1 and w[0] in alive and c.is_ring_unit())
    for g in singles:
        gw = (g,)
        if any(g in w for w in terms if w != gw):
            continue
        longest = max((len(w) for w in terms if w != gw), default=0)
        return (longest, len(terms) - 1), g, terms[gw]
    return None


def _settle(cache, holder, rels, alive):
    """Cache (relation, unit-normal key, offer, generators) for each
    (position, relation) of rels, taken in ascending position, and keep
    one relation per key, the one at the smallest position.  holder maps
    each key to the position of its cached relation; no relation of rels
    may hold a key yet.  Zero relations are dropped."""
    for p, rel in rels:
        if not rel:
            continue
        key = nc_unit_normalize(rel)
        q = holder.get(key)
        if q is not None:
            if q < p:
                continue
            del cache[q]
        holder[key] = p
        cache[p] = (rel, key, _offer(rel, alive), rel.generators())


# Substituting words longer than this for a generator tends to blow up
# the surviving relations without reducing the quotient any further.
MAX_REPLACEMENT_WORD = 2


def simplify(pres):
    """Eliminate unit-coefficient linear generators until a fixpoint.

    A relation u*g + w, with u = ±l^a*m^b and g a generator of pres that
    occurs in no word of w, offers the elimination g -> -u^-1*w; if
    several generators qualify, the relation offers the smallest.  Each
    step takes the offer with the smallest key (longest replacement word,
    replacement terms, relation position, generator), drops that
    relation, substitutes the replacement into every relation containing
    g, and then drops zero relations and unit multiples of an earlier
    relation.  The capped phase, which takes only replacements whose
    words have at most MAX_REPLACEMENT_WORD letters, runs to a fixpoint
    before the uncapped one: substituting long words turns linear
    relations nonlinear and blocks later steps.

    The loop codes letters as ints in Generator order and caches each
    relation's unit-normal key, offer and generator set; after a step it
    recomputes these only for the relations that contained g."""
    letters = sorted(set(pres.generators).union(
        *(r.generators() for r in pres.relations)))
    code = {g: k for k, g in enumerate(letters)}
    alive = {code[g] for g in pres.generators}
    cache = {}   # position -> (relation, key, offer, generators)
    holder = {}  # unit-normal key -> position of the relation kept for it
    _settle(cache, holder, [(p, _recode(r, code))
                            for p, r in enumerate(pres.relations)], alive)
    log = []
    for cap in (MAX_REPLACEMENT_WORD, None):
        while True:
            best = min(((offer[0], p) for p, (_, _, offer, _) in cache.items()
                        if offer is not None
                        and (cap is None or offer[0][0] <= cap)),
                       default=None)
            if best is None:
                break
            rel, key, (_, g, u), _ = cache.pop(best[1])
            del holder[key]
            k = -u.inverse_unit()
            replacement = NCPoly({w: c * k for w, c in rel.terms.items()
                                  if w != (g,)})
            touched = sorted(p for p, entry in cache.items() if g in entry[3])
            changed = []
            for p in touched:
                rel, key, _, _ = cache.pop(p)
                del holder[key]
                changed.append((p, rel.substitute(g, replacement)))
            alive.discard(g)
            log.append((letters[g], _recode(replacement, letters)))
            _settle(cache, holder, changed, alive)
    return Presentation(
        generators=[g for g in sorted(set(pres.generators))
                    if code[g] in alive],
        relations=[_recode(cache[p][0], letters) for p in sorted(cache)],
        substitution_log=list(pres.substitution_log) + log)


def replay_log(pres, target):
    """Express an original generator in terms of the surviving ones."""
    expr = NCPoly.gen(target)
    for g, replacement in pres.substitution_log:
        expr = expr.substitute(g, replacement)
    return expr
