"""Independent oracles for the word-class predicates.

The library builds all three word classes with one ascent walk: a letter
must be an ascent of the target built so far, and the flavor's step extends
the target.  Reduced words also have the length characterization, and the
involution and fpf classes equivalent closed-form ones (a minimal-length
Demazure expression, respectively a minimal-length conjugating word); these
tests recompute membership through those and compare wholesale.  The word
enumerator and split_word are checked against brute-force references, the
move-table walk against a plain step loop, the bumping walk table against
one plain walk per deleted word, verify's per-target bump map against
bump, and the fpf walk step against pointwise conjugation.
"""

from itertools import product

from queercrystals.bumping import (
    bump,
    bump_chain,
    delete_letter,
    is_semi_reduced,
    marked_indices,
    walk_table,
)
from queercrystals.crystals import word_crystal
from queercrystals.insertion import Factorization, hm_insert, split_word
from queercrystals.permwords import (
    FLAVORS,
    FpfInvolution,
    Permutation,
    _ascent_states,
    _ascent_walk,
    ell_o,
    ell_sp,
    enumerate_words,
    fpf_target,
    involution_target,
    is_reduced_word,
    word_target,
    word_to_permutation,
)
from queercrystals.verify import _bump_corpus, _BumpMap, corpus


def demazure_right(x, i):
    return x.times_s(i) if x(i) < x(i + 1) else x


def demazure_left(i, x):
    inv = x.inverse()
    return Permutation.s(i) * x if inv(i) < inv(i + 1) else x


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


def test_reduced_walk_matches_length_definition():
    for w in all_words(range(1, 6), 6):
        assert is_reduced_word(w) == (word_to_permutation(w).length() == len(w))


def words_by_target(flavor, letters, max_len):
    """Every word of the flavor over letters, of length <= max_len, grouped
    by target and sorted.  Each kept word is extended by every letter, and
    the extension is kept when the letter is an ascent of its target."""
    flav = FLAVORS[flavor]
    groups = {}
    frontier = [((), flav.identity)]
    for _ in range(max_len):
        grown = []
        for w, pi in frontier:
            for a in letters:
                if not pi.is_descent(a):
                    v, sigma = w + (a,), flav.step(pi, a)
                    grown.append((v, sigma))
                    groups.setdefault(sigma, []).append(v)
        frontier = grown
    return {pi: tuple(sorted(ws)) for pi, ws in groups.items()}


def test_enumerated_words_match_brute_force():
    # max_len 6 holds every default-bound verify corpus of each flavor
    for flavor in FLAVORS:
        targets = corpus(flavor, 6)
        support = [x for pi in targets for x in pi.support()]
        letters = range(min(support) - 1, max(support) + 1)
        groups = words_by_target(flavor, letters, 6)
        for pi in targets:
            assert enumerate_words(pi, flavor) == groups[pi]


def split_word_backtracking(w, n):
    """Cut w into n strictly increasing factors by trying every first cut."""
    w = tuple(w)
    if n == 0:
        return (Factorization(),) if not w else ()
    out = []

    def rec(rest, k, acc):
        if k == 1:
            if all(rest[i] < rest[i + 1] for i in range(len(rest) - 1)):
                out.append(Factorization(acc + [rest]))
            return
        for cut in range(len(rest) + 1):
            head = rest[:cut]
            if any(head[i] >= head[i + 1] for i in range(len(head) - 1)):
                break
            rec(rest[cut:], k - 1, acc + [head])

    rec(w, n, [])
    return tuple(out)


def test_split_word_matches_backtracking():
    for w in all_words(range(1, 5), 6):
        for n in range(5):
            assert split_word(w, n) == split_word_backtracking(w, n)


def plain_states(flavor, w):
    """The prefix targets of w, stepped from the flavor's identity with
    flav.step letter by letter and no move table, ending in None at the
    first descent."""
    flav = FLAVORS[flavor]
    pi = flav.identity
    states = [pi]
    for a in w:
        if pi.is_descent(a):
            return states + [None]
        pi = flav.step(pi, a)
        states.append(pi)
    return states


def deletion_targets(w, flavor):
    """w's target, then the target of each one-letter deletion, every one
    walked plainly from the identity."""
    return tuple(plain_states(flavor, v)[-1] for v in (w,) + tuple(
        delete_letter(w, i) for i in range(1, len(w) + 1)))


def test_table_walk_matches_plain_walk():
    for flavor in FLAVORS:
        words, _ = _bump_corpus(flavor, 5)
        for w in words:
            for v in (w,) + tuple(delete_letter(w, i)
                                  for i in range(1, len(w) + 1)):
                expected = plain_states(flavor, v)
                assert list(_ascent_states(flavor, v)) == expected
                assert word_target(v, flavor) == expected[-1]


def test_bump_map_matches_bump():
    for flavor in FLAVORS:
        words, targets = _bump_corpus(flavor, 4)
        for pi in targets:
            bumped = _BumpMap(pi, flavor)
            # the second pass reads what the first stored
            for w in words + words[::-1]:
                assert bumped[w] == bump(w, pi, flavor)
            assert len(bumped) == len(words)


def semi_reduced_by_product(w, pi):
    """A reduced-word test, then the plain product of w conjugating the base
    matching."""
    if not isinstance(pi, FpfInvolution) or not is_reduced_word(w):
        return False
    sigma = word_to_permutation(w)
    try:
        conj = FpfInvolution.identity().conjugate_by(sigma)
    except ValueError:
        return False
    return conj == pi


def chain_words(flavor):
    """The default-bound bump corpus of the flavor, its targets, and the
    (word, target) pairs on the bump chains of every corpus word."""
    words, targets = _bump_corpus(flavor, 5)
    pairs = set()
    for pi in targets:
        for w in words:
            pairs.update((mw.word, pi) for mw in bump_chain(w, pi, flavor) or ())
    return words, targets, pairs


def test_walk_table_matches_per_deletion_walks():
    semi = 0
    for flavor in FLAVORS:
        words, targets, pairs = chain_words(flavor)
        for w in set(words) | {v for v, _ in pairs}:
            expected = deletion_targets(w, flavor)
            assert walk_table(w, flavor) == expected
            for pi in targets:
                assert marked_indices(w, pi, flavor) == tuple(
                    i for i in range(1, len(w) + 1) if expected[i] == pi)
            prefix = list(_ascent_states(flavor, w))
            for i, start in enumerate(prefix[:len(w)], 1):
                if start is not None:
                    assert _ascent_walk(flavor, w[i:], start) == expected[i]
        for w, pi in pairs:
            got = is_semi_reduced(w, pi)
            assert got == semi_reduced_by_product(w, pi)
            semi += got
    assert semi


def test_corpus_lengths_agree_with_enumeration():
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


def conjugate_s_by_window(pi, i):
    """s_i pi s_i evaluated pointwise on a base-closed window around pi's
    support and i."""
    s = Permutation.s(i)
    window = set(pi.support()) | {i - 1, i, i + 1, i + 2}
    window |= {pi.base(x) for x in window}
    pairs = set()
    for x in window:
        y = s(pi(s(x)))
        pairs.add((min(x, y), max(x, y)))
    return FpfInvolution(p for p in pairs if pi.base(p[0]) != p[1])


def test_conjugate_s_matches_window_evaluation():
    # every fpf verify corpus, widened from letters 1..6 to 1..10
    for pi in (FpfInvolution.identity(),) + corpus("fpf", 6, (1, 10)):
        sup = pi.support() or (1, 2)
        for i in range(min(sup) - 3, max(sup) + 3):
            assert pi.conjugate_s(i) == conjugate_s_by_window(pi, i), (pi, i)
