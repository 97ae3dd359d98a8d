import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import (
    atoms,
    compose,
    ell_o,
    ell_sp,
    fpf_grassmannian_shape,
    inv_grassmannian_shape,
    kappa,
    length_invariants,
    shift_t,
    shift_word,
    simple,
    star,
    star_word,
)
from test_oracles import demazure_right

from queercrystals.permwords import (
    FLAVORS,
    FpfInvolution,
    Permutation,
    ck,
    ck0_o,
    ck0_sp,
    descent_set,
    enumerate_words,
    equivalence_class,
    fpf_involution_words,
    fpf_target,
    involution_target,
    involution_words,
    reduced_words,
    word_target,
    word_to_permutation,
)

P = Permutation

words = st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=7).map(tuple)


class TestPermutation:
    def test_simple_transposition(self):
        assert simple(1) == P({1: 2, 2: 1})
        assert simple(0) == P({0: 1, 1: 0})
        for i in (-2, 0, 3):
            s = simple(i)
            assert compose(s, s) == P()

    def test_bijection_validation(self):
        with pytest.raises(ValueError):
            P({1: 2, 2: 3})

    def test_length_and_descents(self):
        assert P().length() == 0
        assert P.from_cycles([(1, 5)]).length() == 7
        pi = P.from_cycles([(1, 3), (2, 5)])
        assert pi.length() == 6
        assert kappa(pi) == 2
        assert set(pi.descents()) == {i for i in range(-2, 8) if pi(i) > pi(i + 1)}

    def test_demazure(self):
        assert demazure_right(P(), 1) == simple(1)
        assert demazure_right(simple(1), 1) == simple(1)
        d = P()
        for i in (2, 3, 4):
            d = demazure_right(d, i)
        assert d == compose(simple(2), compose(simple(3), simple(4)))

    def test_rtimes(self):
        assert P().rtimes_step(2) == simple(2)
        assert P.from_cycles([(2, 3)]).rtimes_step(1) == P.from_cycles([(1, 3)])
        r = P()
        for i in (1, 3, 2):
            r = r.rtimes_step(i)
        assert involution_target((1, 3, 2)) == r
        assert word_target((1, 3, 2), "involution") is not None


class TestFpfInvolution:
    def test_base(self):
        one = FpfInvolution()
        assert one(1) == 2 and one(2) == 1 and one(0) == -1

    def test_partner_closure_checked_eagerly(self):
        with pytest.raises(ValueError):
            FpfInvolution([(2, 3)])
        with pytest.raises(ValueError):
            FpfInvolution([(1, 4)])
        FpfInvolution([(1, 4), (2, 3)])  # fine: support {1,2,3,4}

    def test_base_cycles_are_not_overrides(self):
        assert FpfInvolution([(1, 2), (3, 6), (4, 5)]).cycles() == ((3, 6), (4, 5))


class TestWordClasses:
    def test_reduced(self):
        assert word_target((1, 2, 1), "reduced") is not None
        assert word_to_permutation((1, 2, 1)) == P.from_cycles([(1, 3)])
        assert word_target((1, 1), "reduced") is None
        assert word_target((2, 1, 3, 4), "reduced") is not None

    def test_involution(self):
        assert word_target((2, 1, 3, 4), "involution") is not None
        assert word_target((2, 2), "involution") is None
        assert word_target((3, 2, 3, 4), "reduced") is not None
        assert word_target((3, 2, 3, 4), "involution") is None

    def test_fpf(self):
        assert word_target((2, 4, 3), "fpf") is not None
        assert word_target((1,), "fpf") is None
        assert word_target((4, 6, 5), "fpf") is not None
        assert fpf_target((2, 4, 3)) == FpfInvolution([(1, 4), (2, 5), (3, 6)])

    def test_enumerate_reduced(self):
        assert reduced_words(simple(1)) == ((1,),)

    def test_enumerate_involution_lengths(self):
        pi = P.from_cycles([(1, 3), (2, 5)])
        ws = involution_words(pi)
        assert {len(w) for w in ws} == {4}
        assert ell_o(pi) == (pi.length() + kappa(pi)) // 2 == 4

    def test_enumerate_fpf_two_ways(self):
        # descent recursion vs equivalence-class closure: independent paths
        pi = FpfInvolution([(1, 4), (2, 6), (3, 5)])
        ws = set(fpf_involution_words(pi))
        assert ws == equivalence_class(next(iter(ws)), "Sp")
        assert {len(w) for w in ws} == {ell_sp(pi)}

    def test_enumerate_flavor_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_words(simple(1), "fpf")
        with pytest.raises(ValueError):
            enumerate_words(word_to_permutation((1, 2)), "involution")
        # the one validity rule behind these errors and the CLI's
        assert FLAVORS["reduced"].invalid(FpfInvolution()) == "a Permutation"
        assert FLAVORS["fpf"].invalid(simple(1)) == "a FpfInvolution"
        assert FLAVORS["involution"].invalid(P.from_cycles([(1, 2, 3)])) == \
            "an involution"
        assert FLAVORS["reduced"].invalid(P.from_cycles([(1, 2, 3)])) is None
        assert all(flav.invalid(flav.identity) is None
                   for flav in FLAVORS.values())

    def test_enumeration_reads_the_walk_rule(self, monkeypatch):
        # a word ends in a letter that extends the target before it: a
        # step that fixes every target extends nothing, so the backward
        # recursion stops at once and finds no word
        flav = FLAVORS["fpf"]
        monkeypatch.setattr(flav, "step", lambda pi, i: pi)
        monkeypatch.setattr(flav, "cache", {})
        assert enumerate_words(FpfInvolution([(1, 4), (2, 3)]), "fpf") == ()

    def test_atoms(self):
        assert atoms(simple(1), "involution") == frozenset({simple(1)})
        pi = P.from_cycles([(2, 5)])
        at = atoms(pi, "involution")
        assert word_to_permutation((2, 3, 4)) in at
        assert word_to_permutation((3, 2, 4)) in at
        assert sum(len(reduced_words(a)) for a in at) == len(involution_words(pi))


class TestCoxeterKnuth:
    def test_descent_set(self):
        assert descent_set((2, 1, 3, 4)) == frozenset({1})
        assert descent_set(()) == frozenset()
        assert descent_set((4, 6, 7, 2, 3, 8, 1, 5, 9)) == frozenset({3, 6})

    def test_ck_displayed_values(self):
        assert ck((1, 5, 3, 4, 1), 2) == (1, 3, 5, 4, 1)
        assert ck((1, 3, 5, 4, 1), 1) == (1, 3, 5, 4, 1)
        assert ck((1, 3, 5, 4, 1), 4) == (1, 3, 5, 4, 1)
        assert ck((1, 2, 1), 1) == (2, 1, 2)

    @given(words, st.integers(min_value=-1, max_value=8))
    def test_ck_involutive(self, w, i):
        assert ck(ck(w, i), i) == w

    def test_ck0(self):
        assert ck0_o((2, 3, 4, 3)) == (3, 2, 4, 3)
        assert ck0_sp((2, 3, 4, 3)) == (2, 1, 4, 3)
        assert ck0_sp((3, 5, 1)) == (5, 3, 1)
        assert ck0_sp((2, 7, 1)) == (2, 7, 1)  # odd difference: fixed

    @given(words)
    def test_ck0_involutive(self, w):
        assert ck0_o(ck0_o(w)) == w
        assert ck0_sp(ck0_sp(w)) == w

    def test_equivalence_classes(self):
        assert equivalence_class((1, 2, 1), "K") == frozenset({(1, 2, 1), (2, 1, 2)})
        pi = P.from_cycles([(2, 5)])
        assert equivalence_class((2, 3, 4), "O") == frozenset(involution_words(pi))
        sigma = fpf_target((2, 4, 3))
        assert equivalence_class((2, 4, 3), "Sp") == frozenset(
            fpf_involution_words(sigma))

    def test_class_invariants(self):
        # no equal adjacent letters in O-classes; no odd start in Sp-classes
        for pi in (P.from_cycles([(1, 3), (2, 5)]), P.from_cycles([(2, 5)])):
            for w in involution_words(pi):
                assert all(w[i] != w[i + 1] for i in range(len(w) - 1))
        for pi in (FpfInvolution([(1, 4), (2, 6), (3, 5)]),):
            for w in fpf_involution_words(pi):
                assert w[0] % 2 == 0

    def test_reduced_class_product_constant(self):
        v = (1, 2, 1, 3)
        assert word_target(v, "reduced") is not None
        target = word_to_permutation(v)
        for w in equivalence_class(v, "K"):
            assert word_to_permutation(w) == target


class TestLengthsAndSymmetries:
    def test_length_invariants(self):
        assert length_invariants(P()) == (0, 0, 0)
        assert length_invariants(P.from_cycles([(1, 3), (2, 5)])) == (6, 4, 2)
        assert length_invariants(FpfInvolution([(1, 4), (2, 6), (3, 5)]))[1] == 4

    def test_star_and_shift_words(self):
        assert star_word((1, 3, 4)) == (-1, -3, -4)
        assert shift_word(2, (2, 1, 3, 4)) == (4, 3, 5, 6)

    def test_star_involutive(self):
        pi = P.from_cycles([(1, 3), (2, 5)])
        assert star(star(pi)) == pi
        fpi = FpfInvolution([(1, 4), (2, 3)])
        assert star(star(fpi)) == fpi
        assert star(star((2, 1, 3))) == (2, 1, 3)

    def test_shift_preserves_descents_and_class(self):
        pi = P.from_cycles([(1, 3), (2, 5)])
        for w in involution_words(pi):
            assert descent_set(shift_t(3, w)) == descent_set(w)
            assert involution_target(shift_t(3, w)) == shift_t(3, pi)

    def test_star_maps_classes(self):
        pi = P.from_cycles([(2, 5)])
        starred = {star_word(w) for w in involution_words(pi)}
        assert starred == set(involution_words(star(pi)))


class TestGrassmannian:
    def test_inv(self):
        assert inv_grassmannian_shape(P()) == ()
        assert inv_grassmannian_shape(P.from_cycles([(1, 4), (2, 5), (3, 6)])) == (3, 2, 1)
        # (1,3)(2,5) matches the pattern with m=0 and shape (3,1): its words
        # biject with the standard shifted tableaux of that shape
        assert inv_grassmannian_shape(P.from_cycles([(1, 3), (2, 5)])) == (3, 1)
        assert inv_grassmannian_shape(P.from_cycles([(1, 2), (3, 4)])) is None
        assert inv_grassmannian_shape(P.from_cycles([(1, 4), (2, 3)])) is None
        assert inv_grassmannian_shape(P.from_cycles([(3, 6)])) == (3,)
        with pytest.raises(ValueError):
            inv_grassmannian_shape(word_to_permutation((1, 2)))

    def test_inv_shape_counts_words(self):
        from queercrystals.tableaux import standard_shifted_tableaux

        pi = P.from_cycles([(1, 3), (2, 5)])
        mu = inv_grassmannian_shape(pi)
        assert len(involution_words(pi)) == len(standard_shifted_tableaux(mu))

    def test_fpf(self):
        assert fpf_grassmannian_shape(FpfInvolution()) == ()
        assert fpf_grassmannian_shape(FpfInvolution([(1, 4), (2, 6), (3, 5)])) == (3, 1)
        assert fpf_grassmannian_shape(FpfInvolution([(1, 2), (3, 6), (4, 5)])) == (2,)
        # shapes govern lengths: |shape| = common word length
        for pi in (FpfInvolution([(1, 4), (2, 6), (3, 5)]),
                   FpfInvolution([(1, 2), (3, 6), (4, 5)])):
            assert sum(fpf_grassmannian_shape(pi)) == ell_sp(pi)
