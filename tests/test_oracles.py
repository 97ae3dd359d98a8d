"""Independent oracles for the word-class predicates.

The library builds all three word classes with one ascent walk: a letter
must be an ascent of the target built so far, and the flavor's step extends
the target.  Reduced words also have the length characterization, and the
involution and fpf classes equivalent closed-form ones (a minimal-length
Demazure expression, respectively a minimal-length conjugating word); these
tests recompute membership through those and compare wholesale.  The word
enumerator and split_word are checked against brute-force references, the
move-table walk on every prefix against a plain step loop, the walk table
against one plain walk per deleted word and its one-loop kernel against
plain walks from the prefix states, with every entry the target its
flavor's move table interns,
verify's image rule and its
fixed-point decision from the walk tables against bump, the base
conjugates that the fpf push memoizes against conjugation by the plain
product, the schurP-positivity targets against the first target of each
translation class of the corpora and, for the reduced flavor, the corpus
over the letters 1..3, the bump
decomposition against plain products of the deleted subwords, the one
push loop against the step-by-step push chain, the
conjugation step of fpf involutions and of permutations against pointwise
conjugation, the one descent window of both against their old per-class
windows, and the length of a target's
first word against the closed-form lengths.  The
shifted-tableau geometry (columns, reading order, the semistandard
predicate and the unpaired boxes that the bracket rule leaves, all read
through the per-shape column record) is checked against row scans through
ShiftedTableau.entry, the boxes of i and i+1 that the reading-order sort
key finds against the column walk, dual_equiv against its rule by
positions in the whole reading word, and verify's scoped d_i map against
dual_equiv.
The factorization operators, which read the same bracket rule on two adjacent
factors and act through each carrier's pair tables, are checked against
the greedy pairing and the queer operators on whole factorizations.  A
crystal's edge tables (edges without a sort, string lengths, and
the components partitioning the vertices along the edges) are checked
against the sort-based edge list and walks of the raw operators, which
each table keeps as its fn; the factorizations that split_word and the
crystal operators build without the increasing-factor scan against the
checking constructor; the carrier sizes counted before
a build, of factorization carriers and of shifted-tableau carriers by
Schur's Pfaffian, against the built carrier and the tableau enumeration;
the weights counted per descent group against the built carrier's
character; and the highest weights found from the splits with no carrier
against the reference highest weights of the built carrier.
"""

from itertools import product

import pytest
from reference import (
    col_word,
    compose,
    conjugate_by,
    conjugate_s_pointwise,
    delete_letter,
    ell_o,
    ell_sp,
    fac_ops_whole,
    fpf_descents,
    highest_weights,
    inverse,
    marked_indices,
    permutation_descents,
    plain_states,
    reference_bump_chain,
    reference_decompose_bump,
    reference_walk,
    shift_t,
    shword_boxes,
    simple,
)

from queercrystals import bumping, permwords, verify
from queercrystals.bumping import (
    bump,
    bump_chain,
    decompose_bump,
    is_semi_reduced,
)
from queercrystals.crystals import (
    _unpaired,
    factorization_crystal,
    factorization_crystal_size,
    factorization_weights,
    highest_weight_factorizations,
    shifted_tableau_crystal_all,
    shifted_tableau_crystal_size,
    strict_partitions,
    word_crystal,
)
from queercrystals.insertion import Factorization, hm_insert, split_word
from queercrystals.permwords import (
    FLAVORS,
    FpfInvolution,
    LazyMap,
    Permutation,
    _ascent_walk,
    enumerate_words,
    fpf_target,
    involution_target,
    walk_table,
    word_target,
    word_to_permutation,
)
from queercrystals.tableaux import (
    ShiftedTableau,
    dual_equiv,
    entry_primed,
    entry_value,
    is_semistandard,
    semistandard_shifted_tableaux,
    shword,
    shword_letters,
    standard_shifted_tableaux,
    star_op,
)
from queercrystals.symchar import character
from queercrystals.verify import _bump_corpus, corpus


def corpus_over(flavor, max_len, window):
    """corpus(flavor, max_len) over the letters of window (lo, hi) instead
    of the flavor's window."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FLAVORS[flavor], "window", window)
        return corpus(flavor, max_len)


def demazure_right(x, i):
    return x.times_s(i) if x(i) < x(i + 1) else x


def demazure_left(i, x):
    inv = inverse(x)
    return compose(simple(i), x) if inv(i) < inv(i + 1) else x


def demazure_sandwich(w):
    """s_{w_l} o ... o s_{w_1} o 1 o s_{w_1} o ... o s_{w_l}."""
    m = Permutation()
    for a in w:
        m = demazure_left(a, demazure_right(m, a))
    return m


def conjugated_base(w):
    """The conjugate of the base matching by the plain product of w."""
    return conjugate_by(FpfInvolution(), word_to_permutation(w))


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
        assert (word_target(w, "reduced") is not None) == (
            word_to_permutation(w).length() == len(w))


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
                expected += [None] * (len(v) + 1 - len(expected))
                for k in range(len(v) + 1):
                    assert _ascent_walk(flavor, v[:k]) == expected[k]
                assert word_target(v, flavor) == expected[-1]


def test_bump_map_matches_bump():
    # verify's image of a corpus word: the last word of its chain when the
    # target marks it, and the word itself otherwise, without a call to bump
    for flavor in FLAVORS:
        words, marked = _bump_corpus(flavor, 5)
        assert list(marked) == sorted(marked, key=str)
        for pi, moved in marked.items():
            for w in words:
                v = bump(w, pi, flavor)
                image = bump_chain(w, pi, flavor)[-1].word if w in moved else w
                assert image == v
                # a word moves exactly when it has a pi-mark
                assert (v != w) == (w in moved) == bool(
                    marked_indices(w, pi, flavor))


def semi_reduced_by_product(w, pi):
    """A reduced-word test, then the plain product of w conjugating the base
    matching."""
    if not isinstance(pi, FpfInvolution) or word_target(w, "reduced") is None:
        return False
    sigma = word_to_permutation(w)
    try:
        conj = conjugate_by(FpfInvolution(), sigma)
    except ValueError:
        return False
    return conj == pi


def chain_words(flavor):
    """The default-bound bump corpus of the flavor, its targets, and the
    (word, target) pairs on the bump chains of every corpus word."""
    words, marked = _bump_corpus(flavor, 5)
    pairs = set()
    for pi in marked:
        for w in words:
            pairs.update((mw.word, pi) for mw in bump_chain(w, pi, flavor) or ())
    return words, list(marked), pairs


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
            prefix = plain_states(flavor, w)
            for i, start in enumerate(prefix[:len(w)], 1):
                if start is not None:
                    assert _ascent_walk(flavor, w[i:], start) == expected[i]
        for w, pi in pairs:
            got = is_semi_reduced(w, pi)
            assert got == semi_reduced_by_product(w, pi)
            semi += got
    assert semi


def test_base_conjugates_match_conjugation_by_the_product():
    # is_semi_reduced fills the memo by folding the fpf step over the word
    # that reached sigma; every sigma the three bump targets reach is in it
    for target in ("bump-properties", "conjecture-ib-bound",
                   "conjecture-fb-bound"):
        verify.run_target(target)
    assert bumping._base_conjugates
    for sigma, conj in bumping._base_conjugates.items():
        assert conj == conjugate_by(FpfInvolution(), sigma), sigma


@pytest.mark.parametrize("window", [None, (1, 7), (1, 8)])
def test_schurp_targets_are_the_first_of_each_translation_class(
        monkeypatch, window):
    # Flavor.ell records each target the check takes and gives it 0
    # variables, so no carrier is built; the queer corpora use the window
    taken = []

    def ell(flav, pi):
        taken.append((flav.name, pi))
        return 0

    monkeypatch.setattr(permwords.Flavor, "ell", ell)
    for flav in verify.QUEER_FLAVORS:
        monkeypatch.setattr(flav, "window", window or flav.window)
    for max_len in range(4, 8):
        taken.clear()
        assert verify.run_target("schurP-positivity", max_len=max_len).ok
        for flav in verify.QUEER_FLAVORS:
            first = {}
            for pi in corpus(flav.name, max_len):
                first.setdefault(shift_t(1 - pi.support()[0], pi), pi)
            assert [pi for name, pi in taken if name == flav.name] == list(
                first.values()), (flav.name, max_len)


def test_schurp_reduced_targets_are_the_corpus_over_1_to_3(monkeypatch):
    # the reduced half takes its corpus with support in 1..4: an element of
    # S_4 has only words in s_1..s_3, so these are the targets with a word
    # in the letters 1..3, in the same order
    taken = []

    def ell(flav, pi):
        taken.append((flav.name, pi))
        return 0

    monkeypatch.setattr(permwords.Flavor, "ell", ell)
    for max_len in range(8):
        taken.clear()
        assert verify.run_target("schurP-positivity", max_len=max_len).ok
        reduced = [pi for name, pi in taken if name == "reduced"]
        assert reduced == list(
            corpus_over("reduced", min(max_len, 4), (1, 3))), max_len
        assert len(reduced) == 19 or max_len < 4


def test_walk_kernel_matches_plain_walks():
    # the corpus words, the words on the push chain of every moved pair, and
    # each corpus word with one letter moved by -1, +1 or +2, which leaves
    # the class at every kind of position
    for flavor in FLAVORS:
        words, marked = _bump_corpus(flavor, 5)
        checked = set(words)
        for pi, moved in marked.items():
            for w in moved:
                checked.update(mw.word for mw in bump_chain(w, pi, flavor))
        checked |= {w[:j] + (w[j] + d,) + w[j + 1:] for w in words
                    for j in range(len(w)) for d in (-1, 1, 2)}
        outside = 0
        for w in checked:
            table = permwords._walk(flavor, w)
            assert table == reference_walk(flavor, w)
            # every entry is the one object of its target that the
            # flavor's move table interns
            moves = FLAVORS[flavor].moves
            assert all(pi is moves[pi][0] for pi in table if pi is not None)
            outside += table[0] is None
        assert 0 < outside < len(checked)


def test_decompose_bump_matches_plain_products():
    moved = 0
    for flavor in ("involution", "fpf"):
        _, marked = _bump_corpus(flavor, 5)
        for pi, words in marked.items():
            for w in sorted(words):
                atoms = decompose_bump(bump_chain(w, pi, flavor))
                assert None not in atoms
                assert atoms == reference_decompose_bump(w, pi, flavor)
                moved += 1
    assert moved == 3572


def test_bump_chain_matches_step_by_step_pushes():
    # one loop in the library, one checked push_step at a time here
    pairs = 0
    for flavor in FLAVORS:
        _, marked = _bump_corpus(flavor, 5)
        for pi, words in marked.items():
            for w in sorted(words):
                expected = reference_bump_chain(w, pi, flavor)
                assert [(m.word, m.mark) for m in bump_chain(w, pi, flavor)] \
                    == [(m.word, m.mark) for m in expected]
                pairs += 1
    assert pairs == 4444


def test_corpus_lengths_agree_with_enumeration():
    for pi in corpus("involution", 5):
        ws = enumerate_words(pi, "involution")
        assert {len(w) for w in ws} <= {ell_o(pi)}
    for pi in corpus("fpf", 5):
        ws = enumerate_words(pi, "fpf")
        assert {len(w) for w in ws} <= {ell_sp(pi)}


def test_first_word_length_matches_the_closed_forms():
    # Flavor.ell reads the length of a target's first word; each flavor's
    # closed form computes it from the target alone
    closed = {"reduced": Permutation.length, "involution": ell_o,
              "fpf": ell_sp}
    for flavor, flav in FLAVORS.items():
        targets = corpus(flavor, 5)
        assert targets
        for pi in targets:
            assert flav.ell(pi) == closed[flavor](pi), (flavor, pi)


def test_involution_words_are_reduced_for_an_atom():
    for w in all_words(range(1, 5), 4):
        if involution_target(w) is not None:
            assert word_target(w, "reduced") is not None


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
        y = wc.f_table[w].get(QBAR)
        if y is not None:
            assert hm_insert(y).Q == hm_insert(w).Q
            moved += 1
    assert moved


def conjugate_s_by_window(pi, i):
    """s_i pi s_i evaluated pointwise on a base-closed window around pi's
    support and i."""
    s = simple(i)
    window = set(pi.support()) | {i - 1, i, i + 1, i + 2}
    window |= {pi.base(x) for x in window}
    pairs = set()
    for x in window:
        y = s(pi(s(x)))
        pairs.add((min(x, y), max(x, y)))
    return FpfInvolution(p for p in pairs if pi.base(p[0]) != p[1])


def kernel_targets():
    """(target, its oracle conjugation, its oracle descents): every fpf
    verify corpus widened from letters 1..6 to 1..10, the Permutation
    targets of the reduced and involution corpora, and both identities."""
    fpf = (FpfInvolution(),) + corpus_over("fpf", 6, (1, 10))
    perms = (Permutation(),) + corpus("reduced", 5) + corpus("involution", 5)
    return ([(pi, conjugate_s_by_window, fpf_descents) for pi in fpf]
            + [(pi, conjugate_s_pointwise, permutation_descents)
               for pi in perms])


def test_conjugate_s_matches_window_evaluation():
    for pi, oracle, _ in kernel_targets():
        sup = pi.support() or (1, 2)
        for i in range(min(sup) - 3, max(sup) + 3):
            assert pi.conjugate_s(i) == oracle(pi, i), (pi, i)


def test_descents_match_the_per_class_windows():
    # one window for both classes: the old fpf window, and a superset of
    # the old permutation window that adds no descent
    for pi, _, oracle in kernel_targets():
        assert pi.descents() == oracle(pi), pi


# Row scans of shifted tableaux: every box looked up through entry(), which
# checks the bounds of its row on each call.

def all_boxes(t):
    return [(r, c) for r, row in enumerate(t.rows, 1)
            for c in range(r, r + len(row))]


def column_scan(t, c):
    out = []
    for r in range(1, min(c, len(t.rows)) + 1):
        code = t.entry(r, c)
        if code is not None:
            out.append((r, code))
    return out


def last_column(t):
    return max((r + len(row) - 1 for r, row in enumerate(t.rows, 1)), default=0)


def shword_boxes_scan(t):
    order = []
    for i in range(last_column(t), 0, -1):
        for r, x in column_scan(t, i):
            if entry_primed(x):
                order.append((r, i))
        if i <= len(t.rows):
            for c, x in enumerate(t.rows[i - 1], i):
                if not entry_primed(x):
                    order.append((i, c))
    return tuple(order)


def is_semistandard_scan(t):
    for r, c in all_boxes(t):
        x = t.entry(r, c)
        if x <= 0:
            return False
        if r == c and entry_primed(x):
            return False
        right = t.entry(r, c + 1)
        if right is not None:
            if right < x or (right == x and entry_primed(x)):
                return False
        up = t.entry(r + 1, c)
        if up is not None:
            if up < x or (up == x and not entry_primed(x)):
                return False
    return True


def unpaired_boxes_scan(t, i):
    order = []
    for r, c in shword_boxes_scan(t):
        v = entry_value(t.entry(r, c))
        if v in (i, i + 1):
            order.append((r, c, v))
    out, stack = [], []
    for r, c, v in order:
        if v == i + 1:
            stack.append((r, c))
        elif stack:
            stack.pop()
        else:
            out.append((r, c))
    seen = set(stack)
    tail = [(r, c) for r, c, v in order if v == i + 1 and (r, c) in seen]
    return tuple(out) + tuple(tail)


def with_entry_by_rows(t, r, c, code):
    rows = [list(row) for row in t.rows]
    rows[r - 1][c - r] = code
    return ShiftedTableau(rows)


def crystal_tableaux():
    """Every vertex of shifted_tableau_crystal_all(n, m), n <= 4, m <= 7."""
    return [t for n in range(1, 5) for m in range(8)
            for t in shifted_tableau_crystal_all(n, m).vertices]


def standard_tableaux():
    """Every standard shifted tableau with at most 7 boxes, primes included."""
    return [t for m in range(1, 8) for mu in strict_partitions(m)
            for t in standard_shifted_tableaux(mu)]


def check_geometry(t, indices, codes):
    """Reading order, reading word, unpaired boxes, find_value and
    col_word of t against the scans; then with_entry on every box with each
    of codes(x), and the semistandard predicate on every such variant."""
    boxes = shword_boxes_scan(t)
    letters = shword_letters(t)
    assert shword_boxes(t) == boxes, t
    assert letters == [(b, entry_value(t.entry(*b))) for b in boxes], t
    assert shword(t) == tuple(v for _, v in letters)
    assert col_word(t) == tuple(entry_value(x) for c in range(1, last_column(t) + 1)
                                for _, x in reversed(column_scan(t, c)))
    for i in indices:
        a = [k for k, (_, v) in enumerate(letters) if v == i]
        b = [k for k, (_, v) in enumerate(letters) if v == i + 1]
        rights, lefts = _unpaired(a, b)
        unpaired = [letters[a[k]][0] for k in rights] + [
            letters[b[k]][0] for k in lefts]
        assert tuple(unpaired) == unpaired_boxes_scan(t, i), (t, i)
        assert t.find_value(i) == next(
            (b for b in all_boxes(t) if entry_value(t.entry(*b)) == i), None)
    assert is_semistandard(t) == is_semistandard_scan(t), t
    for r, c in all_boxes(t):
        for code in codes(t.entry(r, c)):
            u = t.with_entry(r, c, code)
            assert u == with_entry_by_rows(t, r, c, code), (t, r, c, code)
            assert u.shape == t.shape
            assert is_semistandard(u) == is_semistandard_scan(u), u


def test_crystal_tableaux_geometry_matches_scans():
    tabs = crystal_tableaux()
    assert len(tabs) == 5726
    for t in tabs:
        check_geometry(t, range(0, 6), lambda x: (x - 1, x + 1))


def test_standard_tableaux_geometry_matches_scans():
    tabs = standard_tableaux()
    assert len(tabs) == 1057
    for t in tabs:
        m = t.size()
        check_geometry(t, range(0, m + 2), lambda x: (0, x - 2, x - 1, x + 1, x + 2))


def test_dual_equiv_map_matches_dual_equiv():
    for m in range(1, 8):
        for mu in strict_partitions(m):
            # one map per shape, as verify keeps it
            d = LazyMap(lambda key: dual_equiv(*key))
            keys = [(t, i) for t in standard_shifted_tableaux(mu)
                    for i in range(-1, m + 1)]
            # the second pass reads what the first stored
            for key in keys + keys[::-1]:
                assert d[key] == dual_equiv(*key), key
            assert len(d) == len(keys)


def test_range_reads_match_the_column_walk():
    """The boxes of i and i+1 that the crystal operators read by the sort
    key are the column walk's boxes of those values, in its order, on
    every semistandard shifted tableau of at most 7 boxes over 1..4."""
    cases = 0
    for m in range(1, 8):
        for t in shifted_tableau_crystal_all(4, m).vertices:
            letters = [(b, entry_value(t.entry(*b))) for b in shword_boxes(t)]
            for i in range(1, 4):
                assert shword_letters(t, i, i + 1) == [
                    (b, v) for b, v in letters if v in (i, i + 1)], (t, i)
                cases += 1
    assert cases == 14280


def test_dual_equiv_matches_the_reading_word_rule():
    """dual_equiv reads only the boxes of i, i+1 and i+2; the rule it
    replaced ordered them by their positions in the whole shifted reading
    word, here the column walk's, on every standard shifted tableau of at
    most 8 boxes."""
    cases = 0
    for m in range(3, 9):
        for mu in strict_partitions(m):
            for t in standard_shifted_tableaux(mu):
                position = {entry_value(t.entry(*b)): k
                            for k, b in enumerate(shword_boxes(t))}
                for i in range(1, m - 1):
                    middle = sorted((i, i + 1, i + 2), key=position.get)[1]
                    old = (star_op(t, i) if middle == i + 2 else
                           star_op(t, i + 1) if middle == i else t)
                    assert dual_equiv(t, i) == old, (t, i)
                    cases += 1
    assert cases == 24094


def raw_rows(crys):
    """Fresh tables (e, f) over the carrier's raw row operators, each row
    {i: e_i(x)} or {i: f_i(x)} computed once."""
    return LazyMap(crys.e_table.fn), LazyMap(crys.f_table.fn)


def edges_by_sort(crys):
    """Every edge (x, i, f_i(x)) from the raw rows, sorted by x, str(i)
    and then y."""
    f = crys.f_table.fn
    acc = [(x, i, y) for x in crys.vertices for i, y in f(x).items()]
    acc.sort(key=lambda t: (t[0], str(t[1]), t[2]))
    return tuple(acc)


def string_lengths_raw(rows, x, i):
    """(epsilon_i, phi_i) walked through the raw_rows of a carrier."""
    lengths = []
    for row in rows:
        k, y = 0, row[x].get(i)
        while y is not None:
            k, y = k + 1, row[y].get(i)
        lengths.append(k)
    return tuple(lengths)


def table_carriers():
    """The carriers crystal-axioms checks, taken from the target itself, then
    the factorization carriers of every corpus(flavor, 5) target at n = 3, 4,
    the shifted-tableau carriers with n <= 4, m <= 7, and W_3(4), each built
    when the previous one has been read."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "axioms_report",
                   lambda crys: seen.append(crys) or [])
        assert verify.run_target("crystal-axioms").ok
    assert len(seen) == 13
    yield from seen
    for flavor in FLAVORS:
        for n in (3, 4):
            for pi in corpus(flavor, 5):
                yield factorization_crystal(pi, flavor, n)
    for n in range(1, 5):
        for m in range(8):
            yield shifted_tableau_crystal_all(n, m)
    yield word_crystal(3, 4)


def test_edge_tables_match_raw_operators():
    carriers = []
    for crys in table_carriers():
        carriers.append(crys)
        edges = edges_by_sort(crys)
        assert crys.edges() == edges, crys.name
        rows = raw_rows(crys)
        for x in crys.vertices:
            for i in crys.indices:
                assert crys.string_lengths(x, i) == \
                    string_lengths_raw(rows, x, i), (crys.name, x, i)
        # the components partition the vertices and no edge joins two
        where = {x: k for k, comp in enumerate(crys.components())
                 for x in comp}
        assert len(where) == len(crys), crys.name
        assert all(where[x] == where[y] for x, _, y in edges), crys.name
    # every carrier has tables of its own
    tables = [id(t) for crys in carriers for t in (crys.f_table, crys.e_table)]
    assert len(set(tables)) == len(tables)


def test_trusted_factorizations_pass_the_check():
    """Every split_word output and operator result built without the scan
    is a factorization the checking constructor accepts unchanged."""
    count = 0
    for crys in table_carriers():
        if not all(isinstance(x, Factorization) for x in crys.vertices):
            continue
        results = [y for table in (crys.f_table, crys.e_table)
                   for x in crys.vertices for y in table[x].values()]
        for r in (*crys.vertices, *results):
            assert type(r) is Factorization
            assert all(type(f) is tuple for f in r)
            assert Factorization(tuple(r)) == r
            count += 1
    assert count > 50_000


def test_factorization_operators_match_the_greedy_pairing():
    """A carrier's f and e tables, the operators on two adjacent factors
    lifted through its pair tables, equal the reference on whole
    factorizations: the greedy pairing at 1..n-1 and the queer operators at
    QBAR.  Every vertex and label of the carriers of corpus(flavor, 5) with
    n = 2..4; then factorizations outside the carrier: all pairs of subsets
    of 1..7 as factors 1, 2 and as factors 2, 3 under f_1 and f_2, and
    every lift that bump-properties applies f to."""
    cases = 0
    for flavor, flav in FLAVORS.items():
        f_ref, e_ref = fac_ops_whole(flav.relation)
        for n in (2, 3, 4):
            for pi in corpus(flavor, 5):
                crys = factorization_crystal(pi, flavor, n)
                for x in crys.vertices:
                    for i in crys.indices:
                        assert crys.f_table[x].get(i) == f_ref(x, i), \
                            (crys.name, x, i)
                        assert crys.e_table[x].get(i) == e_ref(x, i), \
                            (crys.name, x, i)
                        cases += 1
    assert cases == 57716
    subsets = [tuple(c for c in range(1, 8) if mask >> (c - 1) & 1)
               for mask in range(128)]
    crys = factorization_crystal(Permutation(), "reduced", 3)
    f_ref, e_ref = fac_ops_whole("K")
    for a, b in product(subsets, repeat=2):
        for i, fac in ((1, (a, b, ())), (2, ((), a, b))):
            fac = Factorization(fac)
            assert crys.f_table[fac].get(i) == f_ref(fac, i), (fac, i)
            assert crys.e_table[fac].get(i) == e_ref(fac, i), (fac, i)
    # bump-properties reads f of a lift through the f table of the carrier
    # it lifts from: every row that table computes is checked whole, and
    # the values of those at factorizations outside the carrier are the
    # lifts
    lifts = []

    def carrier(pi, flavor, n):
        crys = factorization_crystal(pi, flavor, n)
        table = crys.f_table
        f, f_ref = table.fn, fac_ops_whole(FLAVORS[flavor].relation)[0]

        def f_checked(x):
            row = f(x)
            assert row == {i: y for i in crys.indices
                           if (y := f_ref(x, i)) is not None}, (crys.name, x)
            if x not in crys.vertex_set:
                lifts.extend((x, i) for i in crys.indices)
            return row

        table.fn = f_checked
        return crys

    # the commutation pass reads corpus(flavor, min(max_len, 4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "factorization_crystal", carrier)
        assert verify.run_target("bump-properties", max_len=4).ok
    assert len(lifts) == 15549


def test_factorization_crystal_size_matches_the_carrier():
    cases = 0
    for flavor in FLAVORS:
        for pi in corpus(flavor, 6):
            for n in range(5):
                assert factorization_crystal_size(pi, flavor, n) == \
                    len(factorization_crystal(pi, flavor, n)), (pi, n)
                cases += 1
    assert cases == 1070


def test_factorization_weights_match_the_carrier():
    """The weights counted per descent group equal the built carrier's
    character, and they add up to the counted carrier size."""
    cases = 0
    for flavor in FLAVORS:
        for pi in corpus(flavor, 5):
            for n in range(5):
                weights = factorization_weights(pi, flavor, n)
                assert weights == character(
                    factorization_crystal(pi, flavor, n)), (pi, n)
                assert sum(weights.values()) == \
                    factorization_crystal_size(pi, flavor, n), (pi, n)
                cases += 1
    assert cases == 845


def test_highest_weights_match_the_carrier():
    """The splits that highest_weight_factorizations yields are the
    reference highest weights of the built carrier, for every target of
    corpus(flavor, 6) in ell(pi), 3 and 4 variables."""
    cases = 0
    for flavor, flav in FLAVORS.items():
        for pi in corpus(flavor, 6):
            for n in {flav.ell(pi), 3, 4}:
                found = list(highest_weight_factorizations(pi, flavor, n))
                crys = factorization_crystal(pi, flavor, n)
                assert len(set(found)) == len(found), (pi, n)
                assert set(found) == {x for x, _ in highest_weights(crys)}, \
                    (crys.name, n)
                cases += 1
    assert cases == 559


def test_shifted_tableau_crystal_size_matches_the_enumeration():
    cases = 0
    for m in range(1, 9):
        for shape in strict_partitions(m):
            for n in range(5):
                assert shifted_tableau_crystal_size(n, shape) == len(
                    semistandard_shifted_tableaux(shape, n)), (shape, n)
                cases += 1
    assert cases == 120
