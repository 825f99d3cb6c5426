"""Tests for augmentation counting over prime fields."""

import itertools

import pytest

from kch.augment import (AugTable, IntractableError, aug_signature,
                         commutative_relations, count_augmentations,
                         distinguish, first_difference)
from kch.diagram import crossing_data
from kch.hc0 import extract_presentation, simplify
from kch.knots import bundled_knot, bundled_table


def _simplified(name):
    return simplify(extract_presentation(crossing_data(bundled_knot(name))))


def _count_exhaustive(pres, p):
    """Brute-force reference counter: no pruning, no variable ordering."""
    variables, relations = commutative_relations(pres)
    nvars = len(variables)
    counts = []
    for l0 in range(1, p):
        for m0 in range(1, p):
            evaled = [[(mono, coeff.evaluate_mod(l0, m0, p))
                       for mono, coeff in rel] for rel in relations]
            total = 0
            for assignment in itertools.product(range(p), repeat=nvars):
                ok = True
                for rel in evaled:
                    acc = 0
                    for mono, c in rel:
                        v = c
                        for var in mono:
                            v = v * assignment[var] % p
                        acc = (acc + v) % p
                    if acc:
                        ok = False
                        break
                if ok:
                    total += 1
            counts.append(((l0, m0), total))
    return AugTable(p=p, counts=tuple(counts))


def test_unknot_table_p3():
    table = count_augmentations(_simplified("unknot"), 3)
    assert table.as_dict() == {(1, 1): 1, (1, 2): 1, (2, 1): 0, (2, 2): 1}


def test_trefoil_table_p2():
    table = count_augmentations(_simplified("trefoil_lh"), 2)
    assert table.as_dict() == {(1, 1): 2}


def test_full_and_simplified_presentations_agree():
    for name in ["unknot", "trefoil_lh", "figure8"]:
        cd = crossing_data(bundled_knot(name))
        full = extract_presentation(cd)
        simp = simplify(full)
        for p in (2, 3):
            assert count_augmentations(full, p).counts \
                == count_augmentations(simp, p).counts, (name, p)


def test_pruned_vs_exhaustive_all_knots():
    for name, _ in bundled_table():
        pres = _simplified(name)
        for p in (2, 3):
            pruned = count_augmentations(pres, p)
            assert pruned.counts == _count_exhaustive(pres, p).counts, \
                (name, p)


def test_bounds_and_validation():
    pres = _simplified("trefoil_lh")
    with pytest.raises(ValueError):
        count_augmentations(pres, 4)
    with pytest.raises(IntractableError):
        count_augmentations(pres, 17)
    with pytest.raises(IntractableError):
        count_augmentations(pres, 17, max_prime=13)
    assert count_augmentations(pres, 17, max_prime=17).p == 17
    with pytest.raises(IntractableError):
        count_augmentations(pres, 2, max_generators=0)


def test_signature_and_distinguish():
    sig_lh = aug_signature(bundled_knot("trefoil_lh"), [2, 3, 5, 7])
    sig_rh = aug_signature(bundled_knot("trefoil_rh"), [2, 3, 5, 7])
    assert distinguish(sig_lh, sig_rh)
    diff = first_difference(sig_lh, sig_rh)
    assert diff is not None and diff["p"] in (2, 3, 5, 7)
    assert not distinguish(sig_lh, sig_lh)
    assert first_difference(sig_lh, sig_lh) is None
    with pytest.raises(ValueError):
        distinguish(sig_lh, aug_signature(bundled_knot("trefoil_rh"), [2, 3]))


def test_signature_json_shape():
    sig = aug_signature(bundled_knot("unknot"), [2])
    obj = sig.as_json_obj()
    assert obj["primes"] == [2]
    assert obj["tables"][0]["p"] == 2
    assert obj["tables"][0]["table"] == [{"lambda": 1, "mu": 1, "count": 1}]
