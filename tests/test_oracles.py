"""Independent oracles for the word-class predicates.

The library builds involution words through the twisted step-by-step chain
and fpf-involution words through base-matching conjugation with a descent
condition.  Both classes have equivalent closed-form characterizations
(a minimal-length Demazure expression, respectively a minimal-length
conjugating word); these tests recompute membership through those and
compare wholesale.
"""

from itertools import product

from queercrystals.crystals import word_crystal
from queercrystals.insertion import hm_insert
from queercrystals.permwords import (
    FpfInvolution,
    Permutation,
    ell_o,
    ell_sp,
    fpf_target,
    involution_target,
    is_reduced_word,
    word_to_permutation,
)
from queercrystals.verify import corpus


def demazure_right(x, i):
    return x.times_s(i) if x(i) < x(i + 1) else x


def demazure_left(i, x):
    inv = x.inverse()
    return x.s_times(i) if inv(i) < inv(i + 1) else x


def demazure_sandwich(w):
    """s_{w_l} o ... o s_{w_1} o 1 o s_{w_1} o ... o s_{w_l}."""
    m = Permutation.identity()
    for a in w:
        m = demazure_left(a, demazure_right(m, a))
    return m


def conjugated_base(w):
    """The conjugate of the base matching by the plain product of w."""
    return FpfInvolution.identity().conjugate_by(word_to_permutation(w))


def all_words(alphabet, max_len):
    for l in range(max_len + 1):
        yield from product(alphabet, repeat=l)


def test_involution_words_match_demazure_characterization():
    for w in all_words(range(1, 5), 5):
        target = involution_target(w)
        m = demazure_sandwich(w)
        if target is None:
            assert ell_o(m) < len(w)
        else:
            assert m == target
            assert ell_o(m) == len(w)


def test_fpf_words_match_conjugation_characterization():
    for w in all_words(range(1, 6), 5):
        target = fpf_target(w)
        conj = conjugated_base(w)
        if target is None:
            assert ell_sp(conj) < len(w)
        else:
            assert conj == target
            assert ell_sp(conj) == len(w)


def test_corpus_lengths_agree_with_enumeration():
    from queercrystals.permwords import enumerate_words

    for pi in corpus("involution", 5, (1, 5)):
        ws = enumerate_words(pi, "involution")
        assert {len(w) for w in ws} <= {ell_o(pi)}
    for pi in corpus("fpf", 5, (1, 6)):
        ws = enumerate_words(pi, "fpf")
        assert {len(w) for w in ws} <= {ell_sp(pi)}


def test_involution_words_are_reduced_for_an_atom():
    for w in all_words(range(1, 5), 4):
        if involution_target(w) is not None:
            assert is_reduced_word(w)


def test_standard_crystal_shape():
    # the one-letter word crystal is a path with a doubled first arrow
    wc = word_crystal(3, 1)
    edges = {(x, str(i), y) for x, i, y in wc.edges()}
    assert edges == {((1,), "1", (2,)), ((1,), "1bar", (2,)),
                     ((2,), "2", (3,))}


def test_hm_recording_constant_under_queer_move():
    # the queer operator never changes the mixed recording tableau
    wc = word_crystal(3, 4)
    from queercrystals.crystals import QBAR

    moved = 0
    for w in wc.vertices:
        y = wc.f(w, QBAR)
        if y is not None:
            assert hm_insert(y).Q == hm_insert(w).Q
            moved += 1
    assert moved
