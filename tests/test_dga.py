"""Tests for the framed knot DGA construction and its self-checks."""

import random

import pytest
from helpers import (bundled_knot, dense, generator_matrix, kink_chain, matmul,
                     sparse)
from hypothesis import given, settings
from hypothesis import strategies as st

from kch.dga import (IntractableError, MAX_DGA_CROSSINGS, build_dga,
                     check_d_squared, check_grading, generator_counts)
from kch.diagram import apply_move, available_moves, crossing_data, parse_pd
from kch.hc0 import extract_presentation
from kch.knots import bundled_table
from kch.laurent import LaurentPoly
from kch.ncalg import Generator, NCPoly
from kch.pipeline import Run


def _a(i, j, coeff=1):
    return NCPoly.gen(Generator("a", i, j), LaurentPoly.const(coeff))


def _s(p):
    return NCPoly.scalar(p)


def _items(p):
    """Terms with their key order."""
    return list(p.terms.items())


ONE = LaurentPoly.const(1)
L = LaurentPoly.lam
M = LaurentPoly.mu


def test_trefoil_matrices_exact():
    cd = crossing_data(bundled_knot("trefoil_lh"))
    dga = build_dga(cd)
    psi_l = [
        [_a(2, 1, -1), _s(M()), _s(L())],
        [_s(ONE), _a(3, 2, -1), _s(M())],
        [_s(M()), _s(ONE), _a(1, 3, -1)],
    ]
    psi_r = [
        [_a(1, 2, -1), _s(M()), _s(ONE)],
        [_s(ONE), _a(2, 3, -1), _s(M())],
        [_s(L(-1) * M()), _s(ONE), _a(3, 1, -1)],
    ]
    a_mat = [
        [_s(1 + M()), _a(1, 2), _a(1, 3)],
        [_a(2, 1), _s(1 + M()), _a(2, 3)],
        [_a(3, 1), _a(3, 2), _s(1 + M())],
    ]
    assert dga.psi_l == sparse(psi_l)
    assert dga.psi_r == sparse(zip(*psi_r))  # columns
    assert dga.a == a_mat


def _by_degree(dga):
    """The DGA's generators counted by degree."""
    return {d: sum(g.degree == d for g in dga.differential.images)
            for d in (0, 1, 2)}


def test_generator_counts():
    dga = build_dga(crossing_data(bundled_knot("trefoil_lh")))
    assert _by_degree(dga) == generator_counts(3) == {0: 6, 1: 18, 2: 12}
    dga1 = build_dga(crossing_data(bundled_knot("unknot")))
    assert _by_degree(dga1) == generator_counts(1) == {0: 0, 1: 2, 2: 2}
    assert generator_counts(MAX_DGA_CROSSINGS)[1] == 2 * 256 ** 2
    with pytest.raises(IntractableError, match="257 crossings exceed"):
        generator_counts(MAX_DGA_CROSSINGS + 1)


def test_matrices_are_built_sparse(monkeypatch):
    # no dense n x n list of zeros: the Psi rows and columns hold their
    # nonzero entries alone, at most three, in ascending k
    def no_zero():
        raise AssertionError("the DGA's matrices made a zero NCPoly")
    monkeypatch.setattr(NCPoly, "zero", no_zero)
    pds = [parse_pd(kink_chain(64))]
    pds += [bundled_knot(name) for name, _ in bundled_table()]
    for pd in pds:
        dga = build_dga(crossing_data(pd))
        for key in ("psi_l", "psi_r", "psi_l2", "psi_r1"):
            assert len(getattr(dga, key)) == pd.n, key
            for line in getattr(dga, key):
                ks = [k for k, _ in line]
                assert len(line) <= 3 and ks == sorted(set(ks)), (key, line)
                assert all(0 <= k < pd.n and x for k, x in line), (key, line)
        assert all(len(row) == pd.n and all(row) for row in dga.a)


def test_differential_degree_zero_vanishes():
    dga = build_dga(crossing_data(bundled_knot("trefoil_lh")))
    for g, img in dga.differential.images.items():
        if g.degree == 0:
            assert img == NCPoly.zero()


def test_checks_pass_on_bundled_knots():
    for name, code in bundled_table():
        dga = build_dga(crossing_data(parse_pd(code)))
        assert not check_d_squared(dga), name
        assert not check_grading(dga), name


def test_corrupted_differential_fails_checks():
    dga = build_dga(crossing_data(bundled_knot("trefoil_lh")))
    b11 = Generator("b", 1, 1)
    # negative control: perturb one image and both checks must notice
    dga.differential.images[b11] = dga.differential.images[b11] \
        + NCPoly.gen(Generator("b", 2, 2))
    d2 = check_d_squared(dga)
    assert d2
    assert any(f["generator"] == "d11" for f in d2)
    gr = check_grading(dga)
    assert gr
    assert any(f["generator"] == "b11" for f in gr)


def test_degenerate_kink_still_consistent():
    cd = crossing_data(bundled_knot("unknot"))
    assert cd.degenerate
    dga = build_dga(cd)
    assert not check_d_squared(dga)
    assert not check_grading(dga)


def _inflated(name, n, seed, kinds=("r2_add",)):
    """A bundled knot grown to at least n crossings by seeded moves of the
    given kinds."""
    rng = random.Random(seed)
    pd = bundled_knot(name)
    while pd.n < n:
        pd = apply_move(pd, rng.choice(
            [m for m in available_moves(pd) if m["move"] in kinds]))
    return pd


def test_e_images_match_full_products():
    # the d_ij and e_a images are summed over the nonzero entries of the
    # Psi matrices alone; the full products B.PsiR - PsiL.C and the
    # diagonal of B.PsiR1 - PsiL2.C must give the same images, terms in
    # the same order
    pds = [bundled_knot(name) for name, _ in bundled_table()]  # unknot too
    pds += [_inflated("figure8", 8, 3, ("r1_add", "r2_add")),
            _inflated("5_2", 9, 1, ("r1_add", "r2_add"))]
    assert any(crossing_data(pd).degenerate for pd in pds)
    for pd in pds:
        dga = build_dga(crossing_data(pd))
        images, n = dga.differential.images, dga.n
        psi_l, psi_l2 = (dense(m, n) for m in (dga.psi_l, dga.psi_l2))
        psi_r, psi_r1 = (dense(m, n, columns=True)
                         for m in (dga.psi_r, dga.psi_r1))
        b, c = (generator_matrix(kind, n) for kind in "bc")
        b_r, l_c = matmul(b, psi_r), matmul(psi_l, c)
        b_r1, l2_c = matmul(b, psi_r1), matmul(psi_l2, c)
        for i in range(n):
            for j in range(n):
                want = b_r[i][j] - l_c[i][j]
                assert _items(images[Generator("d", i + 1, j + 1)]) \
                    == _items(want), (pd, i, j)
            image = images[Generator("e", i + 1)]
            assert _items(image) == _items(b_r1[i][i] - l2_c[i][i]), (pd, i)


def test_zero_image_skip_reads_live_images():
    # negative control: d(a_ij) = 0 lets Derivation.apply skip every a_ij,
    # but a nonzero d(a12) set after the build must reach d^2 of the b and
    # c generators whose image contains a12
    dga = build_dga(crossing_data(bundled_knot("trefoil_lh")))
    images = dga.differential.images
    a12 = Generator("a", 1, 2)
    users = {g.name() for g, img in images.items()
             if g.kind in "bc" and a12 in img.generators()}
    assert users and not check_d_squared(dga)
    images[a12] = NCPoly.gen(Generator("b", 1, 1))
    d2 = check_d_squared(dga)
    assert d2
    assert users <= {f["generator"] for f in d2}


@pytest.mark.parametrize("name", [name for name, _ in bundled_table()])
def test_presentation_is_read_off_the_dga_whatever_was_read_first(name):
    # the relations are the DGA's dB and dC entries themselves, and so the
    # b_ij and c_ij images, whether or not the differential was built
    # first; reading them alone never builds it
    plain, checked = Run(bundled_knot(name)), Run(bundled_knot(name))
    images = checked.dga.differential.images
    n = checked.dga.n
    for run in (plain, checked):
        entries = [e for m in (run.dga.db, run.dga.dc) for row in m
                   for e in row]
        assert all(rel is e for rel, e in zip(run.presentation.relations,
                                              entries, strict=True))
    letters = [Generator(kind, i, j) for kind in "bc"
               for i in range(1, n + 1) for j in range(1, n + 1)]
    assert all(rel is images[g] for rel, g in zip(
        checked.presentation.relations, letters, strict=True))
    assert "differential" not in vars(plain.dga)
    pres = extract_presentation(plain.cd)
    for run in (plain, checked):
        assert run.presentation.relations == pres.relations
        assert run.presentation.generators == pres.generators


_WALK_MOVES = ("r1_add", "r1_remove", "r2_add", "r2_remove")


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(name=st.sampled_from([name for name, _ in bundled_table()]),
       data=st.data())
def test_dga_checks_hold_along_reidemeister_walks(name, data):
    # a walk of up to 6 R1/R2 moves, additions and removals, from a bundled
    # knot; each diagram on it gets a DGA of the right size with d^2 = 0
    pd = bundled_knot(name)
    for _ in range(data.draw(st.integers(0, 6), label="length")):
        moves = available_moves(pd)
        # the kind first, so that the few removals are drawn as often
        kind = data.draw(st.sampled_from(
            [k for k in _WALK_MOVES if any(m["move"] == k for m in moves)]))
        pd = apply_move(pd, data.draw(st.sampled_from(
            [m for m in moves if m["move"] == kind]), label="move"))
        dga = build_dga(crossing_data(pd))
        n = pd.n
        assert _by_degree(dga) == generator_counts(n) \
            == {0: n * (n - 1), 1: 2 * n * n, 2: n * n + n}
        assert not check_d_squared(dga)
        assert not check_grading(dga)
