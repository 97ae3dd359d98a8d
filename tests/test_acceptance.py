"""Acceptance criteria: every theorem-level claim at its contract bounds.

Each criterion prints one pass/fail line (run pytest with -s to stream
them); all comparisons are exact.
"""

import time

import figures
import pytest

from queercrystals.bumping import bump, increments
from queercrystals.crystals import (
    crystals_isomorphic,
    factorization_crystal,
    is_quasi_isomorphism,
    shifted_tableau_crystal,
    shifted_tableau_crystal_all,
)
from queercrystals.insertion import (
    Factorization,
    eg_insert,
    hm_insert,
    oeg_insert,
    speg_insert,
)
from queercrystals.crystals import pair, word_e, word_eqbar, word_f, word_fqbar
from queercrystals.permwords import (
    FpfInvolution,
    Permutation,
    ck,
    ck0_o,
    ck0_sp,
)
from queercrystals.tableaux import ShiftedTableau, Tableau, dual_equiv, shword, tableau_descents
from queercrystals.verify import run_target

S = ShiftedTableau.from_strings
P = Permutation


def report(number, name, t0):
    print(f"\nACCEPTANCE {number} ({name}): PASS [{time.time() - t0:.1f}s]")


def test_criterion_1_golden_examples():
    t0 = time.time()
    # the four insertions
    res = eg_insert(Factorization([(4,), (2, 3), (2,)]))
    assert (res.P, res.Q) == (Tableau([[2, 3], [3], [4]]),
                              Tableau([[1, 2], [2], [3]]))
    res = oeg_insert(Factorization([(4,), (2, 3), (2,), (1,)]))
    assert (res.P, res.Q) == (S([["1", "2", "3", "4"], ["4"]]),
                              S([["1", "2'", "3'", "4'"], ["2"]]))
    res = speg_insert(Factorization([(4,), (2, 3), (1, 2)]))
    assert (res.P, res.Q) == (S([["2", "3", "4"], ["4", "5"]]),
                              S([["1", "2'", "3'"], ["2", "3'"]]))
    res = hm_insert((3, 3, 2, 3, 3, 2))
    assert (res.P, res.Q) == (S([["2", "2", "3'", "3"], ["3", "3"]]),
                              S([["1", "2", "4", "5"], ["3", "6"]]))
    # pairing
    assert pair((1, 3, 4, 5, 8, 10, 11), (2, 6, 9, 12, 13)) == frozenset(
        {(10, 9), (8, 6), (3, 2)})
    # word operators
    w = (1, 2, 2, 3, 3, 1, 3, 2, 1, 2)
    assert word_f(w, 2) == (1, 2, 3, 3, 3, 1, 3, 2, 1, 2)
    assert word_e(w, 2) == (1, 2, 2, 2, 3, 1, 3, 2, 1, 2)
    assert word_fqbar(w) == (2, 2, 2, 3, 3, 1, 3, 2, 1, 2)
    assert word_eqbar(w) is None
    # bumps
    assert bump((2, 1, 3, 4), P.from_cycles([(2, 5)]), "involution") == (3, 2, 4, 5)
    assert bump((2, 4, 3), FpfInvolution([(1, 2), (3, 6), (4, 5)]), "fpf") == (4, 6, 5)
    # shifted reading word and descents
    T = S([["1", "2'", "4'", "5", "9"], ["3", "6'", "8"], ["7"]])
    assert shword(T) == (4, 6, 7, 2, 3, 8, 1, 5, 9)
    assert tableau_descents(T) == frozenset({1, 3, 5})
    # the four recording-tableau identities of the closing example
    w = (2, 3, 4, 3)
    T = S([["1", "2", "3"], ["4"]])
    d0 = S([["1", "2'", "3"], ["4"]])
    d2 = S([["1", "2", "4"], ["3"]])
    assert oeg_insert(Factorization.from_word(w)).Q == T
    assert speg_insert(Factorization.from_word(w)).Q == T
    assert dual_equiv(T, 0) == d0 and dual_equiv(T, 2) == d2
    assert oeg_insert(Factorization.from_word(ck0_o(w))).Q == d0
    assert speg_insert(Factorization.from_word(ck0_sp(w))).Q == d0
    assert oeg_insert(Factorization.from_word(ck(w, 2))).Q == d2
    assert speg_insert(Factorization.from_word(ck(w, 2))).Q == d2
    report(1, "golden examples", t0)


def test_criterion_2_figures():
    t0 = time.time()
    tab = shifted_tableau_crystal(3, (3, 1))
    orth = factorization_crystal(P.from_cycles([(1, 3), (2, 5)]), "involution", 3)
    symp = factorization_crystal(FpfInvolution([(1, 4), (2, 6), (3, 5)]), "fpf", 3)
    for crys, fig in ((tab, figures.shtab_figure()),
                      (orth, figures.orth_figure()),
                      (symp, figures.symp_figure())):
        vs, es = fig
        assert len(crys.vertices) == 24
        assert set(crys.vertices) == vs
        assert {(x, str(i), y) for x, i, y in crys.edges()} == es
    assert crystals_isomorphic(tab, orth)
    assert crystals_isomorphic(tab, symp)
    assert is_quasi_isomorphism(
        lambda x: oeg_insert(x, check=False).Q, orth,
        shifted_tableau_crystal_all(3, 4))
    assert is_quasi_isomorphism(
        lambda x: speg_insert(x, check=False).Q, symp,
        shifted_tableau_crystal_all(3, 4))
    report(2, "figure reproduction", t0)


def test_criterion_3_fiber_theorems():
    t0 = time.time()
    for target, checks in (("oeg-fibers", 124), ("speg-fibers", 99),
                           ("eg-fibers", 157), ("q-morphism-O", 124),
                           ("q-morphism-Sp", 99)):
        res = run_target(target, max_len=5, n=3)
        assert res.ok, res.summary()
        assert res.checks == checks, target
    report(3, "fiber theorems", t0)


def test_criterion_4_bump_properties():
    t0 = time.time()
    res = run_target("bump-properties", max_len=5, n=3)
    assert res.ok, res.summary()
    assert res.checks == 68325
    report(4, "bump property suite", t0)


def test_criterion_5_reduction_suite():
    t0 = time.time()
    res = run_target("reduction-lemma", max_m=5, n=3)
    assert res.ok, res.summary()
    assert res.checks == 435
    report(5, "reduction suite", t0)


def test_criterion_6_axioms_and_characters():
    t0 = time.time()
    for target, checks in (("crystal-axioms", 758), ("supersymmetry", 73),
                           ("schurP-positivity", 81)):
        res = run_target(target)
        assert res.ok, res.summary()
        assert res.checks == checks, target
    report(6, "axiom and character suite", t0)


def test_criterion_7_dual_equivalence():
    t0 = time.time()
    res = run_target("dual-equivalence", max_len=6, max_boxes=7)
    assert res.ok, res.summary()
    assert res.checks == 3995
    report(7, "dual equivalence", t0)


def test_criterion_8_increment_bounds():
    t0 = time.time()
    # the proven bound for ordinary bumps is asserted
    from queercrystals.permwords import enumerate_words, reduced_words
    from queercrystals.verify import _bump_targets, corpus

    for sigma in corpus("reduced", 5):
        for w in reduced_words(sigma):
            for target in _bump_targets(w, "reduced"):
                v = bump(w, target, "reduced")
                assert set(increments(w, v)) <= {0, 1}, (w, target)
    # the conjectural bounds are checked and reported, never asserted
    for target, checks in (("conjecture-ib-bound", 23951),
                           ("conjecture-fb-bound", 16771)):
        res = run_target(target, max_len=5)
        print(f"\n{res.summary()}")
        # a counterexample stops the sweep early, so only a clean run has
        # the full count
        assert not res.ok or res.checks == checks, target
        if not res.ok:
            print(f"*** CONJECTURE COUNTEREXAMPLE ({target}): "
                  f"{res.counterexample} ***")
    report(8, "increment bounds", t0)
