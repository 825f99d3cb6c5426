"""Counting augmentations of a cord-algebra presentation over prime fields.

An augmentation is a ring map to Z_p sending l, m to prescribed units; it
factors through the abelianization (Presentation.commutative, computed once
per presentation), so words collapse to commutative monomials before solving.

One exact backtracking search over the variables serves all (p-1)^2 points
(l0, m0) at once.  A vector of residues, one per point, is packed into a
byte string: point (l0, m0) is byte (l0-1)(p-1) + (m0-1), so l0-major.

- l0 and m0 are units, so x^(p-1) = 1 and exponents reduce mod p-1.  Each
  reduced monomial l^i m^j gets one string of its values; a coefficient
  is a sum of these, scaled by bytes.translate through a table of c*v mod p.
- Strings are added as little-endian ints, which adds bytewise while no
  byte overflows.  After every floor(255/(p-1)) residues the sum is reduced
  mod p by another translate, so two residues must fit in a byte: p <= 127.
- A search node carries a mask, one byte 0 or 1 per point, of the points
  where every relation checked so far vanishes.  A relation is checked as
  soon as its last variable in the order (most shared first) is assigned:
  its values translate through a zero table into a mask that is ANDed in,
  and the node is pruned when the mask is 0.  A relation with no variable
  sets the root mask, and a variable in no relation is a factor p.
- Leaf masks are tallied by distinct mask and expanded into per-point
  counts once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dga import IntractableError

MAX_PACKED_PRIME = 127  # 2 * (p - 1) <= 255: two residues fit in a byte
# Counting gives up past this many byte operations, charged (p-1)^2 per
# coefficient term and p (p-1)^2 per search node expanded.  The tests
# charge at most 2.2e6, the benchmark 140,832; one unit costs 13-35 ns.
MAX_COUNT_WORK = 200_000_000


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


def _charge(work):
    """work, if it is within MAX_COUNT_WORK."""
    if work > MAX_COUNT_WORK:
        raise IntractableError("count: search work exceeds the bound %d"
                               % MAX_COUNT_WORK)
    return work


def _count(relations, nvars, p):
    """The list of augmentation counts at the points (l0, m0) of (F_p*)^2,
    l0-major."""
    freq = [0] * nvars
    for rel in relations:
        for v in {v for mono, _ in rel for v in mono}:
            freq[v] += 1
    order = sorted((v for v in range(nvars) if freq[v]),
                   key=lambda v: (-freq[v], v))
    rank = {v: k for k, v in enumerate(order)}
    by_depth = [[] for _ in range(len(order) + 1)]
    for rel in relations:
        by_depth[max((rank[v] + 1 for mono, _ in rel for v in mono),
                     default=0)].append(rel)

    q, npts = p - 1, (p - 1) ** 2
    work = _charge(npts * sum(len(coeff.terms) for rel in relations
                              for _, coeff in rel))
    cap = 255 // q  # residues below p that one byte can sum
    fill = 256 // p + 1
    scale = [(bytes(c * v % p for v in range(p)) * fill)[:256]
             for c in range(p)]  # scale[1] reduces mod p
    zero = ((b"\1" + bytes(q)) * fill)[:256]
    top = max([0] + [mono.count(v) for rel in relations
                     for mono, _ in rel for v in mono])
    powers = [[pow(x, e, p) for e in range(top + 1)] for x in range(p)]
    units = [[pow(x, e, p) for x in range(1, p)] for e in range(q)]
    monos = {(i, j): bytes(a * b % p for a in units[i] for b in units[j])
             for i, j in {(i % q, j % q) for rel in relations
                          for _, coeff in rel for i, j in coeff.terms}}

    def packed(rows):
        """The bytewise sum of residue strings, each byte at most cap * q."""
        acc = n = 0
        for row in rows:
            if n == cap:
                acc, n = int.from_bytes(acc.to_bytes(npts, "little")
                                        .translate(scale[1]), "little"), 1
            acc += int.from_bytes(row, "little")
            n += 1
        return acc.to_bytes(npts, "little")

    def table(coeff):
        """The coefficient's residues at every point."""
        return packed(monos[i % q, j % q].translate(scale[c % p])
                      for (i, j), c in coeff.terms.items()).translate(scale[1])

    def vanish(rows):
        """The mask of the points where the residue strings sum to 0."""
        return int.from_bytes(packed(rows).translate(zero), "little")

    # levels[d] holds the relations whose last variable is order[d - 1]
    # (levels[0]: no variable), each term as (power of that variable,
    # [(rank of an earlier variable, its power)], coefficient table)
    levels = [[[(mono.count(var), [(rank[u], mono.count(u))
                                   for u in sorted(set(mono)) if u != var],
                 table(coeff)) for mono, coeff in rel] for rel in rels]
              for var, rels in zip([None] + order, by_depth)]
    mask = int.from_bytes(b"\1" * npts, "little")
    for rel in levels[0]:
        mask &= vanish(tab for _, _, tab in rel)
    tally = {}  # leaf mask -> number of leaves
    stack = [((), mask)] if mask else []
    while stack:
        assigned, mask = stack.pop()
        if len(assigned) == len(order):
            tally[mask] = tally.get(mask, 0) + 1
            continue
        work = _charge(work + p * npts)
        rels = []
        for rel in levels[len(assigned) + 1]:
            terms = []
            for k, others, tab in rel:
                s = 1
                for r, e in others:
                    s = s * powers[assigned[r]][e] % p
                if s:
                    terms.append((k, s, tab))
            rels.append(terms)
        for x, xp in enumerate(powers):
            m = mask
            for terms in rels:
                m &= vanish(tab.translate(scale[c]) for k, s, tab in terms
                            if (c := s * xp[k] % p))
                if not m:
                    break
            else:
                stack.append((assigned + (x,), m))
    free = p ** (nvars - len(order))
    counts = [0] * npts
    for mask, n in tally.items():
        for k, b in enumerate(mask.to_bytes(npts, "little")):
            counts[k] += b * n * free
    return counts


def _check_prime(p):
    if not _is_prime(p):
        raise ValueError("%r is not prime" % (p,))
    if p > MAX_PACKED_PRIME:
        raise IntractableError(
            "count: prime %d exceeds the bound %d of the packed point search"
            % (p, MAX_PACKED_PRIME))


def count_augmentations(pres, p):
    """AugTable of the presentation over Z_p, all (lam0, mu0) in (F_p*)^2.
    Raises IntractableError past MAX_PACKED_PRIME or MAX_COUNT_WORK."""
    _check_prime(p)
    variables, relations = pres.commutative
    points = [(l0, m0) for l0 in range(1, p) for m0 in range(1, p)]
    counts = _count(relations, len(variables), p)
    return AugTable(p=p, counts=tuple(zip(points, counts)))


def aug_signature(pd, primes):
    """Per-prime tables of the diagram: Run(pd).signature(primes)."""
    from .pipeline import Run  # pipeline imports this module
    return Run(pd).signature(primes)


def distinguish(s1, s2):
    """True iff the signatures differ in any entry (same prime lists)."""
    if s1.primes != s2.primes:
        raise ValueError("signatures computed over different prime lists")
    return s1.tables != s2.tables


def first_difference(t1, t2):
    """The first point, in table order, where two AugTables of one prime
    differ, as {"p", "lambda", "mu", "counts": [c1, c2]}; None if equal."""
    for ((l0, m0), c1), (_, c2) in zip(t1.counts, t2.counts):
        if c1 != c2:
            return {"p": t1.p, "lambda": l0, "mu": m0, "counts": [c1, c2]}
    return None
