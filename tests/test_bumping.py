import pytest

from queercrystals.bumping import (
    MarkedWord,
    bump,
    bump_chain,
    bump_factorization,
    companion_index,
    decompose_bump,
    delete_letter,
    increments,
    is_marked,
    is_semi_reduced,
    marked_indices,
    push_step,
    replay_decomposition,
)
from queercrystals.insertion import Factorization, oeg_insert, speg_insert, split_word
from queercrystals.permwords import (
    FpfInvolution,
    Permutation,
    ck,
    ck0_o,
    ck0_sp,
    descent_set,
    enumerate_words,
    word_to_permutation,
)

P = Permutation
PI25 = P.from_cycles([(2, 5)])
FPI = FpfInvolution([(1, 2), (3, 6), (4, 5)])


class TestMarkedWords:
    def test_delete(self):
        assert delete_letter((2, 1, 3, 4), 2) == (2, 3, 4)
        assert delete_letter((5,), 1) == ()
        with pytest.raises(IndexError):
            delete_letter((1, 2), 3)

    def test_markedness(self):
        assert is_marked((2, 1, 3, 4), 2, PI25, "involution")
        assert not is_marked((2, 1, 3, 4), 1, PI25, "involution")
        assert marked_indices((2, 1, 3, 4), PI25, "involution") == (2,)

    def test_semi_reduced(self):
        assert is_semi_reduced((3, 4, 3), FPI)
        assert is_semi_reduced((4, 5, 4), FPI)
        assert not is_semi_reduced((4, 5, 3), FPI)
        assert not is_semi_reduced((4, 4, 3), FPI)  # not even reduced

    def test_companion_unique_on_paper_chain(self):
        assert companion_index((2, 2, 3, 4), 2, PI25, "involution") == 1
        assert companion_index((3, 2, 3, 4), 1, PI25, "involution") == 3
        assert companion_index((3, 2, 4, 4), 3, PI25, "involution") == 4

    def test_push_in_place_on_stable_words(self):
        mw = MarkedWord((2, 1, 3, 4), 2, "involution")
        nxt = push_step(mw, PI25)
        assert nxt == MarkedWord((2, 2, 3, 4), 2, "involution")


class TestChains:
    def test_involution_chain(self):
        chain = bump_chain((2, 1, 3, 4), PI25, "involution")
        assert [(m.word, m.mark) for m in chain] == [
            ((2, 1, 3, 4), 2), ((2, 2, 3, 4), 2), ((3, 2, 3, 4), 1),
            ((3, 2, 4, 4), 3), ((3, 2, 4, 5), 4)]
        assert bump((2, 1, 3, 4), PI25, "involution") == (3, 2, 4, 5)

    def test_fpf_chain(self):
        chain = bump_chain((2, 4, 3), FPI, "fpf")
        assert [(m.word, m.mark) for m in chain] == [
            ((2, 4, 3), 1), ((3, 4, 3), 1), ((4, 4, 3), 1), ((4, 5, 3), 2),
            ((4, 5, 4), 3), ((4, 5, 5), 3), ((4, 6, 5), 2)]
        assert bump((2, 4, 3), FPI, "fpf") == (4, 6, 5)

    def test_fixed_point(self):
        assert bump((2, 1, 3, 4), P.from_cycles([(7, 9)]), "involution") == (2, 1, 3, 4)

    def test_plain_bump_increments_mark_when_reduced(self):
        alpha = word_to_permutation((4, 3))
        assert bump((2, 4, 3), alpha, "reduced") == (3, 4, 3)

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            bump((2, 2), PI25, "involution")


class TestDecomposition:
    def test_involution_atoms(self):
        atoms = decompose_bump((2, 1, 3, 4), PI25, "involution")
        assert atoms == (word_to_permutation((2, 3, 4)),
                         word_to_permutation((3, 2, 4)))
        assert replay_decomposition((2, 1, 3, 4), atoms) == (3, 2, 4, 5)

    def test_fpf_atoms(self):
        # two bumps along s4s3 and two along s4s5 reproduce the chain
        atoms = decompose_bump((2, 4, 3), FPI, "fpf")
        s43 = word_to_permutation((4, 3))
        s45 = word_to_permutation((4, 5))
        assert atoms == (s43, s43, s45, s45)
        assert replay_decomposition((2, 4, 3), atoms) == (4, 6, 5)

    def test_replay_on_corpus(self):
        from queercrystals.verify import _bump_targets, corpus

        for flavor in ("involution", "fpf"):
            count = 0
            for pi in corpus(flavor, 4):
                for w in enumerate_words(pi, flavor):
                    for target in _bump_targets(w, flavor):
                        v = bump(w, target, flavor)
                        if v == w:
                            continue
                        atoms = decompose_bump(w, target, flavor)
                        assert replay_decomposition(w, atoms) == v
                        count += 1
            assert count


class TestProperties:
    def test_descents_preserved(self):
        assert descent_set((3, 2, 4, 5)) == descent_set((2, 1, 3, 4))
        assert descent_set((4, 6, 5)) == descent_set((2, 4, 3))

    def test_recording_invariance_examples(self):
        assert oeg_insert(Factorization.from_word((2, 1, 3, 4))).Q == \
            oeg_insert(Factorization.from_word((3, 2, 4, 5))).Q
        assert speg_insert(Factorization.from_word((2, 4, 3))).Q == \
            speg_insert(Factorization.from_word((4, 6, 5))).Q

    def test_ck_commutation_examples(self):
        w = (2, 1, 3, 4)
        v = bump(w, PI25, "involution")
        for i in range(1, len(w) - 1):
            assert bump(ck(w, i), PI25, "involution") == ck(v, i)
        assert bump(ck0_o(w), PI25, "involution") == ck0_o(v)
        w = (2, 4, 3)
        v = bump(w, FPI, "fpf")
        assert bump(ck0_sp(w), FPI, "fpf") == ck0_sp(v)

    def test_factorization_bump(self):
        fac = Factorization([(2,), (1, 3, 4)])
        out = bump_factorization(fac, PI25, "involution")
        assert out.weight() == fac.weight()
        assert out.word() == bump(fac.word(), PI25, "involution")
        # re-split factors stay strictly increasing across a small corpus
        from queercrystals.verify import _bump_targets, corpus

        for pi in corpus("involution", 4)[:12]:
            for w in enumerate_words(pi, "involution"):
                for target in _bump_targets(w, "involution"):
                    for fac in split_word(w, 2):
                        bump_factorization(fac, target, "involution")

    def test_factorization_bump_preserves_recording(self):
        from queercrystals.verify import _bump_targets, corpus

        for pi in corpus("involution", 4)[:10]:
            for w in enumerate_words(pi, "involution"):
                for target in _bump_targets(w, "involution"):
                    for fac in split_word(w, 2):
                        out = bump_factorization(fac, target, "involution")
                        assert oeg_insert(out, check=False).Q == \
                            oeg_insert(fac, check=False).Q

    def test_increment_bound_plain(self):
        from queercrystals.verify import _bump_targets, corpus
        from queercrystals.permwords import reduced_words

        for pi in corpus("reduced", 4)[:15]:
            for w in reduced_words(pi):
                for target in _bump_targets(w, "reduced"):
                    v = bump(w, target, "reduced")
                    assert set(increments(w, v)) <= {0, 1}
