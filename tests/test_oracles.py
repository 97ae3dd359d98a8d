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
bump, and the fpf walk step against pointwise conjugation.  The
shifted-tableau geometry (columns, reading order, the predicates and the
unpaired boxes, all read through the per-shape column record) is checked
against row scans through ShiftedTableau.entry, and verify's scoped d_i
map against dual_equiv.
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
from queercrystals.crystals import (
    shifted_tableau_crystal_all,
    strict_partitions,
    unpaired_boxes,
    word_crystal,
)
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
from queercrystals.tableaux import (
    ShiftedTableau,
    col_word,
    dual_equiv,
    entry_primed,
    entry_value,
    is_increasing,
    is_semistandard,
    shword,
    shword_boxes,
    standard_shifted_tableaux,
)
from queercrystals.verify import _bump_corpus, _BumpMap, _DualEquivMap, corpus


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


# Row scans of shifted tableaux: every box looked up through entry(), which
# checks the bounds of its row on each call.

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
    for r, c in t.boxes():
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


def is_increasing_scan(t):
    if any(entry_primed(x) for row in t.rows for x in row):
        return False
    for r, c in t.boxes():
        x = t.entry(r, c)
        for nb in (t.entry(r, c + 1), t.entry(r + 1, c)):
            if nb is not None and nb <= x:
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
            for t in standard_shifted_tableaux(mu, primes=True)]


def check_geometry(t, indices, codes):
    """Column, reading order, reading word, unpaired boxes, find_value and
    col_word of t against the scans; then with_entry on every box with each
    of codes(x), and both predicates on every such variant."""
    for c in range(-1, last_column(t) + 3):
        assert t.column(c) == column_scan(t, c), (t, c)
    boxes = shword_boxes_scan(t)
    assert shword_boxes(t) == boxes, t
    assert shword(t) == tuple(entry_value(t.entry(r, c)) for r, c in boxes)
    assert col_word(t) == tuple(entry_value(x) for c in range(1, last_column(t) + 1)
                                for _, x in reversed(column_scan(t, c)))
    for i in indices:
        assert unpaired_boxes(t, i) == unpaired_boxes_scan(t, i), (t, i)
        assert t.find_value(i) == next(
            (b for b in t.boxes() if entry_value(t.entry(*b)) == i), None)
    assert is_semistandard(t) == is_semistandard_scan(t), t
    assert is_increasing(t) == is_increasing_scan(t), t
    for r, c in t.boxes():
        for code in codes(t.entry(r, c)):
            u = t.with_entry(r, c, code)
            assert u == with_entry_by_rows(t, r, c, code), (t, r, c, code)
            assert u.shape == t.shape
            assert is_semistandard(u) == is_semistandard_scan(u), u
            assert is_increasing(u) == is_increasing_scan(u), u


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
            d = _DualEquivMap()
            keys = [(t, i) for t in standard_shifted_tableaux(mu, primes=True)
                    for i in range(-1, m + 1)]
            # the second pass reads what the first stored
            for key in keys + keys[::-1]:
                assert d[key] == dual_equiv(*key), key
            assert len(d) == len(keys)
