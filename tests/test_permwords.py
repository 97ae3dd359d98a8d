import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_oracles import demazure_right

from queercrystals.permwords import (
    FpfInvolution,
    Permutation,
    atoms,
    ck,
    ck0_o,
    ck0_sp,
    descent_set,
    ell_o,
    ell_sp,
    enumerate_words,
    equivalence_class,
    fpf_grassmannian_shape,
    fpf_involution_words,
    fpf_target,
    inv_grassmannian_shape,
    involution_target,
    involution_words,
    is_fpf_involution_word,
    is_involution_word,
    is_reduced_word,
    length_invariants,
    reduced_words,
    shift_t,
    shift_word,
    star,
    star_word,
    word_to_permutation,
)

P = Permutation

words = st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=7).map(tuple)


class TestPermutation:
    def test_simple_transposition(self):
        assert P.s(1) == P({1: 2, 2: 1})
        assert P.s(0) == P({0: 1, 1: 0})
        for i in (-2, 0, 3):
            s = P.s(i)
            assert s * s == P.identity()

    def test_bijection_validation(self):
        with pytest.raises(ValueError):
            P({1: 2, 2: 3})

    def test_length_and_descents(self):
        assert P.identity().length() == 0
        assert P.from_cycles([(1, 5)]).length() == 7
        pi = P.from_cycles([(1, 3), (2, 5)])
        assert pi.length() == 6
        assert pi.kappa() == 2
        assert set(pi.descents()) == {i for i in range(-2, 8) if pi(i) > pi(i + 1)}

    def test_demazure(self):
        assert demazure_right(P.identity(), 1) == P.s(1)
        assert demazure_right(P.s(1), 1) == P.s(1)
        d = P.identity()
        for i in (2, 3, 4):
            d = demazure_right(d, i)
        assert d == P.s(2) * P.s(3) * P.s(4)

    def test_rtimes(self):
        assert P.identity().rtimes_step(2) == P.s(2)
        assert P.from_cycles([(2, 3)]).rtimes_step(1) == P.from_cycles([(1, 3)])
        r = P.identity()
        for i in (1, 3, 2):
            r = r.rtimes_step(i)
        assert involution_target((1, 3, 2)) == r
        assert is_involution_word((1, 3, 2))


class TestFpfInvolution:
    def test_base(self):
        one = FpfInvolution.identity()
        assert one(1) == 2 and one(2) == 1 and one(0) == -1

    def test_partner_closure_checked_eagerly(self):
        with pytest.raises(ValueError):
            FpfInvolution([(2, 3)])
        with pytest.raises(ValueError):
            FpfInvolution([(1, 4)])
        FpfInvolution([(1, 4), (2, 3)])  # fine: support {1,2,3,4}

    def test_base_cycles_are_not_overrides(self):
        assert FpfInvolution([(1, 2), (3, 6), (4, 5)]).cycles == ((3, 6), (4, 5))

    def test_shift_parity(self):
        pi = FpfInvolution([(1, 4), (2, 3)])
        assert pi.shift(2)(3) == 6
        with pytest.raises(ValueError):
            pi.shift(1)


class TestWordClasses:
    def test_reduced(self):
        assert is_reduced_word((1, 2, 1))
        assert word_to_permutation((1, 2, 1)) == P.from_cycles([(1, 3)])
        assert not is_reduced_word((1, 1))
        assert is_reduced_word((2, 1, 3, 4))

    def test_involution(self):
        assert is_involution_word((2, 1, 3, 4))
        assert not is_involution_word((2, 2))
        assert is_reduced_word((3, 2, 3, 4)) and not is_involution_word((3, 2, 3, 4))

    def test_fpf(self):
        assert is_fpf_involution_word((2, 4, 3))
        assert not is_fpf_involution_word((1,))
        assert is_fpf_involution_word((4, 6, 5))
        assert fpf_target((2, 4, 3)) == FpfInvolution([(1, 4), (2, 5), (3, 6)])

    def test_enumerate_reduced(self):
        assert reduced_words(P.s(1)) == ((1,),)

    def test_enumerate_involution_lengths(self):
        pi = P.from_cycles([(1, 3), (2, 5)])
        ws = involution_words(pi)
        assert {len(w) for w in ws} == {4}
        assert ell_o(pi) == (pi.length() + pi.kappa()) // 2 == 4

    def test_enumerate_fpf_two_ways(self):
        # descent recursion vs equivalence-class closure: independent paths
        pi = FpfInvolution([(1, 4), (2, 6), (3, 5)])
        ws = set(fpf_involution_words(pi))
        assert ws == equivalence_class(next(iter(ws)), "Sp")
        assert {len(w) for w in ws} == {ell_sp(pi)}

    def test_enumerate_flavor_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_words(P.s(1), "fpf")
        with pytest.raises(ValueError):
            enumerate_words(word_to_permutation((1, 2)), "involution")

    def test_atoms(self):
        assert atoms(P.s(1), "involution") == frozenset({P.s(1)})
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
        assert is_reduced_word(v)
        target = word_to_permutation(v)
        for w in equivalence_class(v, "K"):
            assert word_to_permutation(w) == target


class TestLengthsAndSymmetries:
    def test_length_invariants(self):
        assert length_invariants(P.identity()) == (0, 0, 0)
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


class TestSerialization:
    def test_permutation_json(self):
        assert P.from_cycles([(1, 3), (2, 5)]).to_json() == [
            [1, 3], [2, 5], [3, 1], [5, 2]]

    def test_fpf_json(self):
        data = FpfInvolution([(1, 4), (2, 3)]).to_json()
        assert data == {"flavor": "fpf", "cycles": [[1, 4], [2, 3]]}


class TestGrassmannian:
    def test_inv(self):
        assert inv_grassmannian_shape(P.identity()) == ()
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
        assert fpf_grassmannian_shape(FpfInvolution.identity()) == ()
        assert fpf_grassmannian_shape(FpfInvolution([(1, 4), (2, 6), (3, 5)])) == (3, 1)
        assert fpf_grassmannian_shape(FpfInvolution([(1, 2), (3, 6), (4, 5)])) == (2,)
        # shapes govern lengths: |shape| = common word length
        for pi in (FpfInvolution([(1, 4), (2, 6), (3, 5)]),
                   FpfInvolution([(1, 2), (3, 6), (4, 5)])):
            assert sum(fpf_grassmannian_shape(pi)) == ell_sp(pi)
