"""Functions of the theory that no verify target or CLI path calls.

The tests call them: as fixtures (star, shifts, Grassmannian shapes, atoms,
reading words, `compose`, the product of two permutations, and `inverse`,
for the Demazure oracles, and `conjugate_by`, the conjugate of an fpf
involution by a permutation), as inverses that check the library's maps
(inverse insertion, inv^{-1}, dbl^{-1}), as independent constructions of
crystals (closure under the operators, isomorphism by certificates), and
as the greedy Morse-Schilling pairing with the factorization operators read
through it, against which the library's bracket rule is checked, and as
the insertion algorithms written out one flavor at a time, against which
the library's shared bump and recording loops are checked, and as the
plain and shifted tableau classes with their own predicates and
enumerators, against which the library's shared tableau base is checked,
and as the two-pass shifted reading order, against which the library's
one-pass reading is checked, and as the bump decomposition with each atom
the plain product of a deleted subword, against which the library's
walk-table atoms are checked, and as the step-by-step push chain (a mark
test, the mark search `marked_indices`, one push step and one companion
search at a time), against which
the library's one push loop is checked, and as the plain walk (a
target stepped letter by letter with no move table) and the walk table
built from it (the prefix states, then a plain walk of each deletion's
suffix), against which the library's move-table walk and its one-loop
walk kernel are checked, and as the closed-form word lengths `ell_o` and
`ell_sp` (with the 2-cycles, their count kappa and the base-closed window
they read), against which the library's length of a target's first word
is checked, and as the simple transposition `simple` with the pointwise
conjugation s_i pi s_i of a permutation and the two descent windows of
the old per-class target types, against which the library's one
conjugation and one descent window of the shared target base are checked,
and as the bounds of a verify check read from its signature by `inspect`,
against which the library's reading of the check's code is checked, and
as `morphism_report`, the list of every violation of a strict crystal
morphism, against which the library's quasi-isomorphism test, which stops
at the first, is checked, and as the standard predicate of each kind
(strictly increasing plain fillings, semistandard shifted ones), against
which the library's one standard rule is checked, and as the queer
factorization operators on whole factorizations, against which the
library's operators on two adjacent factors, lifted through each
carrier's pair tables, are checked, and as the highest weights of a built
carrier (its sources, the reflections of its strings and the e_{i'} test
read through its tables), against which the library's highest weights,
found from the splits with no carrier, are checked.
"""

import inspect
from bisect import insort
from itertools import accumulate, product

from queercrystals.bumping import (
    MarkedWord,
    _iteration_cap,
    _push_in_place,
    bump_chain,
)
from queercrystals.crystals import (
    QBAR,
    Crystal,
    _component_certificate,
    pretty_element,
)
from queercrystals.insertion import Factorization, InsertionResult, hm_insert, insert
from queercrystals.permwords import (
    DEFAULT_VERTEX_CAP,
    FpfInvolution,
    Permutation,
    VertexCapExceeded,
    enumerate_words,
    equivalence_class,
    get_flavor,
    insertion_flavor,
    walk_table,
    word_to_permutation,
)
from queercrystals.tableaux import (
    ShiftedTableau,
    Tableau,
    _column_rows,
    entry_from_str,
    entry_primed,
    entry_str,
    entry_value,
    is_strict_partition,
    primed,
    unprimed,
)
from queercrystals.tableaux import weight as tab_weight

# ---------------------------------------------------------------------------
# Permutations and words


def two_cycles(pi):
    """The 2-cycles (a, b) with a < b of an involution."""
    if not pi.is_involution():
        raise ValueError("two_cycles requires an involution")
    return tuple((a, b) for a, b in pi.pairs if a < b)


def kappa(pi):
    return len(two_cycles(pi))


def window_involution(pi):
    """An fpf involution's restriction to a base-closed window [1-m, m] as
    a Permutation, identity outside, and m."""
    if not pi.cycles():
        return Permutation(), 0
    m = max(abs(x) for c in pi.cycles() for x in c)
    m += m % 2
    pairs = {}
    for i in range(1 - m, m + 1):
        j = pi(i)
        if 1 - m <= j <= m:
            pairs[i] = j
    return Permutation(pairs), m


def ell_o(pi):
    """Common length of involution words: (length + #2-cycles) / 2
    (Hamaker-Marberg-Pawlowski)."""
    if not pi.is_involution():
        raise ValueError("ell_o requires an involution")
    return (pi.length() + kappa(pi)) // 2


def ell_sp(pi):
    """Common length of fpf-involution words, via a base-closed window."""
    sigma, m = window_involution(pi)
    return (sigma.length() - m) // 2


def length_invariants(pi):
    """(length, involution length, 2-cycle count).

    For an fpf involution the first and last entries are those of its
    base-closed window restriction, which is what the word-length formula
    consumes; the middle entry is the common fpf-word length."""
    if isinstance(pi, FpfInvolution):
        sigma, _ = window_involution(pi)
        return (sigma.length(), ell_sp(pi), kappa(sigma))
    return (pi.length(), ell_o(pi), kappa(pi))


def compose(a, b):
    """The permutation x -> a(b(x))."""
    keys = set(a.support()) | set(b.support())
    return Permutation({i: a(b(i)) for i in keys})


def simple(i):
    """The simple transposition s_i = (i, i+1)."""
    return Permutation({i: i + 1, i + 1: i})


def inverse(sigma):
    """The inverse permutation, its pairs reversed."""
    return Permutation({b: a for a, b in sigma.pairs})


def conjugate_by(pi, sigma):
    """sigma^-1 * pi * sigma for an fpf involution pi and a permutation
    sigma, evaluated at every point of both supports and at their base
    partners; outside them it is the base matching."""
    inv = inverse(sigma)
    window = set(sigma.support()) | set(pi.support())
    window |= {pi.base(x) for x in window}
    return FpfInvolution((x, inv(pi(sigma(x)))) for x in window)


def conjugate_s_pointwise(pi, i):
    """s_i pi s_i for a permutation, as the product of three permutations."""
    return compose(simple(i), compose(pi, simple(i)))


def permutation_descents(pi):
    """The descents of a permutation, scanned between the ends of its
    support."""
    if pi.is_identity():
        return ()
    lo, hi = pi.pairs[0][0], pi.pairs[-1][0]
    return tuple(i for i in range(lo, hi) if pi(i) > pi(i + 1))


def fpf_descents(pi):
    """The descents of an fpf involution next to its 2-cycles, from two
    below the smallest to the largest element of a cycle."""
    cycles = pi.cycles()
    if not cycles:
        return ()
    lo = cycles[0][0] - 2
    hi = max(b for _, b in cycles) + 1
    return tuple(i for i in range(lo, hi) if pi(i) > pi(i + 1))


def star_word(w):
    return tuple(-a for a in w)


def shift_word(m, w):
    return tuple(a + m for a in w)


def star(x):
    """The automorphism i -> 1 - x(1 - i) of permutations, which sends s_i
    to s_{-i}; on words, a -> -a."""
    if isinstance(x, Permutation):
        return Permutation({1 - b: 1 - a for a, b in x.pairs})
    if isinstance(x, FpfInvolution):
        return FpfInvolution((min(1 - a, 1 - b), max(1 - a, 1 - b))
                             for a, b in x.cycles())
    return star_word(x)


def shift_t(m, x):
    """Conjugation by the translation i -> i + m: on a target, its pairs
    moved by m (even m for an fpf involution, whose base matching an odd m
    moves); on a word, its letters."""
    if isinstance(x, (Permutation, FpfInvolution)):
        return type(x)((a + m, b + m) for a, b in x.pairs)
    return shift_word(m, x)


def atoms(pi, flavor):
    """The permutations whose reduced words partition the word class."""
    if not get_flavor(flavor).queer:
        raise ValueError("atoms are defined for involution and fpf flavors")
    return frozenset(word_to_permutation(w) for w in enumerate_words(pi, flavor))


def delete_letter(w, i):
    """The subword omitting the i-th letter (1-based)."""
    if not 1 <= i <= len(w):
        raise IndexError(f"index {i} out of range")
    return w[:i - 1] + w[i:]


def is_marked(w, i, pi, flavor):
    """Whether (w, i) is a pi-marked word of the flavor."""
    if not 1 <= i <= len(w):
        raise IndexError(f"index {i} out of range")
    return walk_table(w, flavor)[i] == pi


def marked_indices(w, pi, flavor):
    """The 1-based indices i with (w, i) pi-marked, read from w's walk
    table by identity with pi as the flavor's move table interns it: the
    companion search that bump_chain runs inline."""
    table = walk_table(w, flavor)
    pi = get_flavor(flavor).moves.get(pi, (pi,))[0]
    return tuple(i for i in range(1, len(table)) if table[i] is pi)


def companion_index(w, i, pi, flavor):
    """The unique j != i with (w, j) also pi-marked."""
    cands = [j for j in marked_indices(w, pi, flavor) if j != i]
    if len(cands) != 1:
        raise RuntimeError(
            f"expected a unique companion for {w} mark {i}, got {cands}")
    return cands[0]


def push_step(mw, pi):
    """One push/ipush/fpush step on a marked word, which it checks first."""
    w, i, flavor = mw.word, mw.mark, mw.flavor
    if not is_marked(w, i, pi, flavor):
        raise ValueError(f"({w}, {i}) is not marked for {pi}")
    j = i if _push_in_place(walk_table(w, flavor), w, pi) else companion_index(
        w, i, pi, flavor)
    v = w[:j - 1] + (w[j - 1] + 1,) + w[j:]
    return MarkedWord(v, j, flavor)


def reference_bump_chain(w, pi, flavor):
    """bumping.bump_chain on a word of the flavor's class with one pi-mark:
    push_step repeated until a word of the class, within the same cap."""
    (mark,) = marked_indices(w, pi, flavor)
    chain = [MarkedWord(tuple(w), mark, flavor)]
    for _ in range(_iteration_cap(w)):
        chain.append(push_step(chain[-1], pi))
        if walk_table(chain[-1].word, flavor)[0] is not None:
            return chain
    raise RuntimeError(f"push chain from {w} exceeded the cap")


def plain_states(flavor, w, start=None):
    """The prefix targets of w, stepped from start (by default the flavor's
    identity) with flav.step letter by letter and no move table, ending in
    None at the first descent."""
    flav = get_flavor(flavor)
    pi = flav.identity if start is None else start
    states = [pi]
    for a in w:
        if pi.is_descent(a):
            return states + [None]
        pi = flav.step(pi, a)
        states.append(pi)
    return states


def reference_walk(flavor, w):
    """permwords.walk_table from plain walks: the prefix states of w, then
    each deletion i walked on over w[i:] from prefix state i - 1."""
    prefix = plain_states(flavor, w)
    prefix += [None] * (len(w) + 1 - len(prefix))
    return (prefix[-1],) + tuple(
        None if start is None else plain_states(flavor, w[i:], start)[-1]
        for i, start in enumerate(prefix[:-1], 1))


def reference_decompose_bump(w, pi, flavor):
    """bumping.decompose_bump with each atom the plain product of the
    subword deleted at the next chain step's mark."""
    if not get_flavor(flavor).queer:
        raise ValueError("decompose_bump applies to involution and fpf flavors")
    chain = bump_chain(w, pi, flavor)
    if chain is None:
        return ()
    atoms = []
    for mw, nxt in zip(chain, chain[1:]):
        if walk_table(mw.word, "reduced")[0] is not None:
            atoms.append(word_to_permutation(delete_letter(mw.word, nxt.mark)))
    return tuple(atoms)


def inv_grassmannian_shape(pi):
    """The strict partition shape when pi = (m+1, m+r+mu_r)...(m+r, m+r+mu_1),
    else None.  The identity has shape ()."""
    if not pi.is_involution():
        raise ValueError("inv-Grassmannian test requires an involution")
    cycs = two_cycles(pi)
    if not cycs:
        return ()
    mins = [a for a, _ in cycs]
    maxs = [b for _, b in cycs]
    r = len(cycs)
    if mins != list(range(mins[0], mins[0] + r)):
        return None
    if maxs != sorted(maxs) or len(set(maxs)) != r or maxs[0] <= mins[-1]:
        return None
    m = mins[0] - 1
    mu = tuple(b - m - r for b in reversed(maxs))
    return mu


def fpf_hat(pi):
    """The involution keeping only the cycles (i, pi(i)) that cross some
    ascent j < pi(j); everything else becomes a fixed point."""
    m = {}
    for i in pi.support():
        j = pi(i)
        lo, hi = min(i, j), max(i, j)
        if any(k < pi(k) for k in range(lo + 1, hi)):
            m[i] = j
    return Permutation(m)


def fpf_grassmannian_shape(pi):
    """The strict partition shape of an fpf-Grassmannian involution, else None.

    The shape drops one from each part of the shape of the hat involution.
    """
    if not isinstance(pi, FpfInvolution):
        raise ValueError("fpf-Grassmannian test requires an FpfInvolution")
    mu = inv_grassmannian_shape(fpf_hat(pi))
    if mu is None:
        return None
    return tuple(p - 1 for p in mu if p > 1)


# ---------------------------------------------------------------------------
# Tableaux and insertion


# The tableau classes, predicates and enumerators as first written, each
# kind with its own class, and each semistandard rule stated once in its
# predicate and again in its enumerator.  The library's shared base, box
# walk and filler are checked against them.


class ReferenceTableau:
    """A filling of an ordinary Young diagram, rows stored bottom-to-top."""

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        rows = tuple(tuple(r) for r in rows)
        if any(not r for r in rows):
            raise ValueError("empty row")
        lens = [len(r) for r in rows]
        if any(lens[i] < lens[i + 1] for i in range(len(lens) - 1)):
            raise ValueError("row lengths must weakly decrease going up")
        self.rows = rows

    @property
    def shape(self):
        return tuple(len(r) for r in self.rows)

    def size(self):
        return sum(len(r) for r in self.rows)

    def boxes(self):
        return tuple(
            (r + 1, c + 1) for r, row in enumerate(self.rows)
            for c in range(len(row))
        )

    def entry(self, r, c):
        if 1 <= r <= len(self.rows) and 1 <= c <= len(self.rows[r - 1]):
            return self.rows[r - 1][c - 1]
        return None

    def __eq__(self, other):
        return isinstance(other, ReferenceTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(("plain", self.rows))

    def __repr__(self):
        return f"Tableau({list(map(list, self.rows))!r})"

    def pretty(self):
        if not self.rows:
            return "(empty tableau)"
        width = max(len(str(x)) for row in self.rows for x in row)
        lines = []
        for row in reversed(self.rows):
            lines.append(" ".join(str(x).rjust(width) for x in row))
        return "\n".join(lines)

    def to_json(self):
        return {
            "kind": "plain",
            "shape": list(self.shape),
            "rows": [[str(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, data):
        return cls([[int(x) for x in row] for row in data["rows"]])


class ReferenceShiftedTableau:
    """A filling of a shifted diagram; row r occupies columns r..r+len-1.

    Cells hold doubled entry codes (see the module docstring).
    """

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        rows = tuple(tuple(r) for r in rows)
        if any(not r for r in rows):
            raise ValueError("empty row")
        lens = [len(r) for r in rows]
        if any(lens[i] <= lens[i + 1] for i in range(len(lens) - 1)):
            raise ValueError("row lengths must strictly decrease going up")
        self.rows = rows

    @classmethod
    def from_strings(cls, rows):
        """Build from rows of entry strings like ["1", "2'", "3"], bottom-to-top."""
        return cls([[entry_from_str(s) for s in row] for row in rows])

    @property
    def shape(self):
        return tuple(map(len, self.rows))

    def size(self):
        return sum(len(r) for r in self.rows)

    def boxes(self):
        return tuple(
            (r + 1, r + c + 1) for r, row in enumerate(self.rows)
            for c in range(len(row))
        )

    def entry(self, r, c):
        if 1 <= r <= len(self.rows) and r <= c <= r + len(self.rows[r - 1]) - 1:
            return self.rows[r - 1][c - r]
        return None

    def with_entry(self, r, c, code):
        """A copy with the box (r, c) set to code; the box must exist.

        The shape is unchanged, so the copy skips the constructor's checks."""
        if self.entry(r, c) is None:
            raise ValueError(f"no box at {(r, c)}")
        rows, k = self.rows, c - r
        row = rows[r - 1]
        out = object.__new__(ReferenceShiftedTableau)
        out.rows = rows[:r - 1] + (row[:k] + (code,) + row[k + 1:],) + rows[r:]
        return out

    def column(self, c):
        """Pairs (row, code) in column c, bottom to top."""
        cols = _column_rows(self.shape)
        if not 1 <= c <= len(cols):
            return []
        return [(r, self.rows[r - 1][c - r]) for r in cols[c - 1]]

    def find_value(self, v):
        """The box holding v or v'; None when absent (first match wins)."""
        for r, row in enumerate(self.rows, 1):
            for c, x in enumerate(row, r):
                if entry_value(x) == v:
                    return (r, c)
        return None

    def __eq__(self, other):
        return isinstance(other, ReferenceShiftedTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(("shifted", self.rows))

    def __repr__(self):
        rows = [[entry_str(x) for x in row] for row in self.rows]
        return f"ShiftedTableau.from_strings({rows!r})"

    def pretty(self):
        if not self.rows:
            return "(empty tableau)"
        width = max(len(entry_str(x)) for row in self.rows for x in row)
        lines = []
        for r in range(len(self.rows), 0, -1):
            pad = " " * ((r - 1) * (width + 1))
            lines.append(
                pad + " ".join(entry_str(x).rjust(width) for x in self.rows[r - 1])
            )
        return "\n".join(lines)

    def to_json(self):
        return {
            "kind": "shifted",
            "shape": list(self.shape),
            "rows": [[entry_str(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, data):
        return cls.from_strings(data["rows"])


def reference_is_semistandard(t):
    """Semistandardness for either kind of tableau."""
    if isinstance(t, ReferenceTableau):
        for r, row in enumerate(t.rows):
            if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
                return False
            if r and any(
                t.rows[r - 1][c] >= row[c] for c in range(len(row))
            ):
                return False
        return True
    rows = t.rows
    for row in rows:
        # a positive, unprimed diagonal box; weakly increasing rows keep
        # the rest positive
        if row[0] <= 0 or entry_primed(row[0]):
            return False
        for x, right in zip(row, row[1:]):
            if right < x or (right == x and entry_primed(x)):
                return False
    for c, col in enumerate(_column_rows(t.shape), 1):
        for r in col[1:]:
            x, up = rows[r - 2][c - r + 1], rows[r - 1][c - r]
            if up < x or (up == x and not entry_primed(x)):
                return False
    return True


def reference_is_increasing(t):
    """Strictly increasing rows and columns; shifted tableaux must be unprimed."""
    if isinstance(t, ReferenceTableau):
        for r, row in enumerate(t.rows):
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                return False
            if r and any(
                t.rows[r - 1][c] >= row[c] for c in range(len(row))
            ):
                return False
        return True
    rows = t.rows
    if any(entry_primed(x) for row in rows for x in row):
        return False
    if any(right <= x for row in rows for x, right in zip(row, row[1:])):
        return False
    return all(
        rows[r - 1][c - r] > rows[r - 2][c - r + 1]
        for c, col in enumerate(_column_rows(t.shape), 1) for r in col[1:])


def reference_is_standard(t):
    """Each of 1..m used once (the value of a primed entry, shifted case),
    with strictly increasing rows and columns (plain case) or semistandard
    (shifted case)."""
    if isinstance(t, ReferenceTableau):
        used = sorted(x for row in t.rows for x in row)
        return used == list(range(1, t.size() + 1)) and reference_is_increasing(t)
    used = sorted(entry_value(x) for row in t.rows for x in row)
    return used == list(range(1, t.size() + 1)) and reference_is_semistandard(t)


def reference_copy(t):
    """The reference class instance with the rows of a library tableau."""
    kind = ReferenceTableau if isinstance(t, Tableau) else ReferenceShiftedTableau
    return kind(t.rows)


def reference_semistandard_tableaux(shape, n):
    """All semistandard fillings of the plain shape with entries in 1..n."""
    shape = tuple(shape)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError("shape must weakly decrease")
    results = []

    def fill(rows, r, c):
        if r == len(shape):
            results.append(ReferenceTableau(rows))
            return
        if c == shape[r]:
            fill(rows, r + 1, 0)
            return
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, n + 1):
            rows[r].append(v)
            fill(rows, r, c + 1)
            rows[r].pop()

    if not shape:
        return (ReferenceTableau(),)
    fill([[] for _ in shape], 0, 0)
    return tuple(sorted(results, key=lambda t: t.rows))


def reference_semistandard_shifted_tableaux(shape, n):
    """All semistandard shifted fillings with entries at most n."""
    shape = tuple(shape)
    if not is_strict_partition(shape):
        raise ValueError(f"shape {shape} is not a strict partition")
    if not shape:
        return (ReferenceShiftedTableau(),)
    results = []

    def fill(rows, r, c):
        if r == len(shape):
            results.append(ReferenceShiftedTableau(rows))
            return
        if c == shape[r]:
            fill(rows, r + 1, 0)
            return
        col = (r + 1) + c  # absolute column of this box
        choices = range(1, 2 * n + 1)
        for code in choices:
            if col == r + 1 and entry_primed(code):
                continue
            if c > 0:
                left = rows[r][c - 1]
                if code < left or (code == left and entry_primed(code)):
                    continue
            if r > 0:
                below = rows[r - 1][col - r]  # row below is row number r, start col r
                if code < below or (code == below and not entry_primed(code)):
                    continue
            rows[r].append(code)
            fill(rows, r, c + 1)
            rows[r].pop()

    fill([[] for _ in shape], 0, 0)
    return tuple(sorted(results, key=lambda t: t.rows))


def reference_standard_shifted_tableaux(shape, primes=True):
    """All standard shifted tableaux of the shape.

    With primes=False only unprimed fillings are produced.  Enumeration is by
    direct backtracking over which box receives each of 1..m, with an
    independent prime toggle per off-diagonal box.
    """
    shape = tuple(shape)
    if not is_strict_partition(shape):
        raise ValueError(f"shape {shape} is not a strict partition")
    if not shape:
        return (ReferenceShiftedTableau(),)
    m = sum(shape)
    results = []

    def grow(v, rows):
        if v > m:
            results.append(ReferenceShiftedTableau([row[:] for row in rows]))
            return
        for r in range(1, len(shape) + 1):
            c = r + len(rows[r - 1])
            if c - r >= shape[r - 1]:
                continue
            # the new box must extend a legal subdiagram: the box below is filled
            if r > 1 and len(rows[r - 2]) < c - r + 2:
                continue
            for pr in ((False, True) if primes and c != r else (False,)):
                rows[r - 1].append(primed(v) if pr else unprimed(v))
                grow(v + 1, rows)
                rows[r - 1].pop()

    grow(1, [[] for _ in shape])
    return tuple(sorted(results, key=lambda t: t.rows))


def row_word(t):
    """Entries row-by-row left-to-right, starting with the top row.

    Shifted entries come back as plain values (primes stripped)."""
    if isinstance(t, Tableau):
        return tuple(x for row in reversed(t.rows) for x in row)
    return tuple(entry_value(x) for row in reversed(t.rows) for x in row)


def shword_boxes(t):
    """Boxes of a shifted tableau in shifted-reading order by a walk over
    the shape's columns: the oracle of the sort key that shword_letters
    orders the boxes by.

    Reads C_q R_q ... C_1 R_1 where C_i lists the primed entries of column i
    bottom-to-top and R_i the unprimed entries of row i left-to-right.
    """
    rows = t.rows
    cols = _column_rows(t.shape)
    order = []
    for i in range(len(cols), 0, -1):
        for r in cols[i - 1]:
            if entry_primed(rows[r - 1][i - r]):
                order.append((r, i))
        if i <= len(rows):
            for c, x in enumerate(rows[i - 1], i):
                if not entry_primed(x):
                    order.append((i, c))
    return tuple(order)


def col_word(t):
    """Entries down each column, starting with the first column."""
    rows = t.rows
    if isinstance(t, Tableau):
        cols = len(rows[0]) if rows else 0
        return tuple(row[c] for c in range(cols)
                     for row in reversed(rows) if c < len(row))
    return tuple(entry_value(rows[r - 1][c - r])
                 for c, col in enumerate(_column_rows(t.shape), 1)
                 for r in reversed(col))


def invert_insertion(P, Q, flavor, n=None):
    """The unique factorization inserting to (P, Q).

    For the EG flavors the weight of Q gives the factor lengths, so this
    cuts each word of the Coxeter-Knuth class of the row reading word of P
    at those lengths and keeps the cut that re-inserts to (P, Q); the fiber
    theorems guarantee uniqueness.  Raises ValueError when no preimage
    exists.
    """
    if flavor == "hm":
        return _invert_hm(P, Q)
    relation = insertion_flavor(flavor).relation
    if n is None:
        n = max((entry_value(x) if isinstance(Q, ShiftedTableau) else x
                 for row in Q.rows for x in row), default=0)
    if P.size() == 0:
        return Factorization(((),) * n)
    if P.shape != Q.shape:
        raise ValueError("P and Q must have equal shapes")
    cuts = (0, *accumulate(tab_weight(Q, n)))
    for v in sorted(equivalence_class(row_word(P), relation)):
        try:
            fac = Factorization(v[a:b] for a, b in zip(cuts, cuts[1:]))
        except ValueError:
            continue
        res = insert(fac, flavor, check=False)
        if res.P == P and res.Q == Q:
            return fac
    raise ValueError("no factorization inserts to the given pair")


def _invert_hm(P, Q):
    m = P.size()
    if m == 0:
        return ()
    n = max(entry_value(x) for row in P.rows for x in row)
    for w in product(range(1, n + 1), repeat=m):
        res = hm_insert(w)
        if res.P == P and res.Q == Q:
            return w
    raise ValueError("no word inserts to the given pair")


# The insertion algorithms as first written, each rule stated where it is
# used: plain EG, orthogonal/symplectic EG with its own copy of the row and
# column bumps, and mixed insertion, every column read by scanning all rows.
# The library's one bump loop and one recording loop are checked against it.


def reference_eg_letter(rows, x):
    """Insert x into a plain increasing tableau; returns the new box."""
    r = 1
    while True:
        if r > len(rows):
            rows.append([x])
            return (r, 1)
        row = rows[r - 1]
        idx = next((k for k, y in enumerate(row) if x <= y), None)
        if idx is None:
            row.append(x)
            return (r, len(row))
        y = row[idx]
        if x == y:
            x = y + 1
        else:
            row[idx] = x
            x = y
        r += 1


def reference_column_entries(rows, c):
    """(row, value) pairs of column c, bottom to top, in a shifted row list."""
    out = []
    for r in range(1, len(rows) + 1):
        k = c - r
        if 0 <= k < len(rows[r - 1]):
            out.append((r, rows[r - 1][k]))
    return out


def reference_append_to_column(rows, c, x):
    """Add x at the top of column c; the spot must be a legal new box."""
    col = [y for _, y in reference_column_entries(rows, c)]
    h = len(col)
    if h + 1 > len(rows):
        if c != h + 1:
            raise RuntimeError(
                f"cannot open row {h + 1} at column {c} {col} for letter {x}")
        rows.append([x])
    else:
        if h + 1 + len(rows[h]) != c:
            raise RuntimeError(f"appending letter {x} to column {c} {col} "
                               f"does not extend row {h + 1}")
        rows[h].append(x)
    return (h + 1, c)


def reference_shifted_letter(rows, x, symplectic):
    """One letter of orthogonal or symplectic EG insertion.

    Returns (new box, column_inserted).  rows is a mutable list of shifted
    rows holding plain integers.
    """
    r = 1
    while True:  # row insertion
        if r > len(rows):
            rows.append([x])
            return (r, r), False
        row = rows[r - 1]
        idx = next((k for k, y in enumerate(row) if x <= y), None)
        if idx is None:
            row.append(x)
            return (r, r + len(row) - 1), False
        y = row[idx]
        if idx == 0:  # leftmost box of row r is (r, r)
            if not symplectic:
                if x < y:
                    row[idx] = x
                c = r + 1
                x = y + 1 if x == y else y
                break
            if x < y:
                if y > x + 1:
                    row[idx] = x
                    c = r + 1
                    x = y
                else:  # y == x + 1: row unchanged
                    c = r + 1
                    x = y + 1
                break
        if x == y:
            x = y + 1
        else:
            row[idx] = x
            x = y
        r += 1
    while True:  # column insertion
        col = reference_column_entries(rows, c)
        idx = next((k for k, (_, y) in enumerate(col) if x <= y), None)
        if idx is None:
            return reference_append_to_column(rows, c, x), True
        rr, y = col[idx]
        if x == y:
            x = y + 1
        else:
            rows[rr - 1][c - rr] = x
            x = y
        c += 1


def reference_hm_letter(rows, x):
    """One letter of Haiman mixed insertion; entries are doubled codes.

    Unprimed bumped entries continue into the next row, primed ones into the
    next column, and a bumped diagonal entry continues primed into the next
    column.  Bumps are strict: x displaces the first entry exceeding it.
    """
    mode_row, pos = True, 1
    while True:
        if mode_row:
            r = pos
            if r > len(rows):
                rows.append([x])
                return (r, r)
            row = rows[r - 1]
            idx = next((k for k, y in enumerate(row) if y > x), None)
            if idx is None:
                row.append(x)
                return (r, r + len(row) - 1)
            y = row[idx]
            row[idx] = x
            if idx == 0:  # bumped the diagonal entry of row r
                mode_row, pos, x = False, r + 1, y - 1
            elif entry_primed(y):
                mode_row, pos, x = False, r + idx + 1, y
            else:
                pos, x = r + 1, y
        else:
            c = pos
            col = reference_column_entries(rows, c)
            idx = next((k for k, (_, y) in enumerate(col) if y > x), None)
            if idx is None:
                return reference_append_to_column(rows, c, x)
            rr, y = col[idx]
            if rr == c:
                raise RuntimeError(
                    f"mixed insertion of {entry_str(x)} bumped the diagonal "
                    f"entry {entry_str(y)} from column {c} of rows "
                    f"{[[entry_str(e) for e in row] for row in rows]}")
            rows[rr - 1][c - rr] = x
            if entry_primed(y):
                pos, x = c + 1, y
            else:
                mode_row, pos, x = True, rr + 1, y


def reference_eg_insert(fac):
    rows, qrows = [], []
    for j, factor in enumerate(fac, 1):
        for a in factor:
            r, c = reference_eg_letter(rows, a)
            if r > len(qrows):
                qrows.append([])
            qrows[r - 1].append(j)
    P = Tableau(rows)
    Q = Tableau(qrows)
    return InsertionResult(P, Q, (False,) * len(fac.word()))


def reference_shifted_insert(fac, symplectic):
    rows, qrows, trace = [], [], []
    for j, factor in enumerate(fac, 1):
        for a in factor:
            (r, c), col_ins = reference_shifted_letter(rows, a, symplectic)
            if r > len(qrows):
                qrows.append([])
            qrows[r - 1].append(primed(j) if col_ins else unprimed(j))
            trace.append(col_ins)
    P = ShiftedTableau([[unprimed(v) for v in row] for row in rows])
    Q = ShiftedTableau(qrows)
    return InsertionResult(P, Q, tuple(trace))


def reference_hm_insert(w):
    w = tuple(w)
    rows, qrows = [], []
    for k, a in enumerate(w, 1):
        r, c = reference_hm_letter(rows, unprimed(a))
        if r > len(qrows):
            qrows.append([])
        qrows[r - 1].append(unprimed(k))
    P = ShiftedTableau(rows)
    Q = ShiftedTableau(qrows)
    return InsertionResult(P, Q, (False,) * len(w))


def reference_insert(w, flavor):
    """insert(w, flavor, check=False) by the reference algorithms above; w
    is a Factorization, or a word for "hm"."""
    if flavor == "hm":
        return reference_hm_insert(w)
    if flavor == "eg":
        return reference_eg_insert(w)
    return reference_shifted_insert(w, symplectic=flavor == "speg")


# ---------------------------------------------------------------------------
# Crystals

def pair(a, b):
    """Greedy pairing of two increasing words.

    Iterates over the letters of b from largest to smallest, pairing each
    with the smallest still-unpaired letter of a exceeding it.
    """
    free = list(a)
    out = set()
    for y in sorted(b, reverse=True):
        cand = next((x for x in free if x > y), None)
        if cand is not None:
            free.remove(cand)
            out.add((cand, y))
    return frozenset(out)


def fac_f_by_pair(fac, i):
    """f_i through pair: the largest unpaired letter of factor i moves into
    factor i+1, raised past the letters that factor already holds."""
    a, b = fac[i - 1], fac[i]
    paired = {x for x, _ in pair(a, b)}
    unpaired = [x for x in a if x not in paired]
    if not unpaired:
        return None
    x = max(unpaired)
    y = x
    while y in b:
        y += 1
    new_a = tuple(v for v in a if v != x)
    new_b = list(b)
    insort(new_b, y)
    return Factorization(fac[:i - 1] + (new_a, tuple(new_b)) + fac[i + 1:])


def fac_e_by_pair(fac, i):
    """e_i through pair: the smallest unpaired letter of factor i+1 moves
    into factor i, lowered past the letters that factor already holds."""
    a, b = fac[i - 1], fac[i]
    paired = {y for _, y in pair(a, b)}
    unpaired = [y for y in b if y not in paired]
    if not unpaired:
        return None
    y = min(unpaired)
    x = y
    while x in a:
        x -= 1
    new_b = tuple(v for v in b if v != y)
    new_a = list(a)
    insort(new_a, x)
    return Factorization(fac[:i - 1] + (tuple(new_a), new_b) + fac[i + 1:])


def fac_fq_o_whole(fac):
    """Orthogonal queer lowering on a whole factorization: the first
    letter of factor 1 moves to factor 2."""
    w1, w2 = fac[0], fac[1]
    if not w1 or (w2 and w2[0] < w1[0]):
        return None
    return Factorization(((w1[1:]), (w1[0],) + w2) + fac[2:])


def fac_eq_o_whole(fac):
    """Orthogonal queer raising: the first letter of factor 2 moves to
    factor 1."""
    w1, w2 = fac[0], fac[1]
    if not w2 or (w1 and w1[0] < w2[0]):
        return None
    return Factorization(((w2[0],) + w1, w2[1:]) + fac[2:])


def fac_fq_sp_whole(fac):
    """Symplectic queer lowering: with x the smallest letter of factor 1,
    move x when x+1 is absent from factor 1, otherwise delete x+1 there
    and prepend x-1 to factor 2."""
    w1, w2 = fac[0], fac[1]
    if not w1 or (w2 and w2[0] <= w1[0]):
        return None
    x = w1[0]
    if x + 1 in w1:
        new_w1 = tuple(v for v in w1 if v != x + 1)
        new_w2 = (x - 1,) + w2
    else:
        new_w1 = w1[1:]
        new_w2 = (x,) + w2
    return Factorization((new_w1, new_w2) + fac[2:])


def fac_eq_sp_whole(fac):
    """Symplectic queer raising: with x the smallest letter of factor 2,
    move x when even, otherwise delete x there and add x+2 to factor 1."""
    w1, w2 = fac[0], fac[1]
    if not w2 or (w1 and w1[0] <= w2[0]):
        return None
    x = w2[0]
    new_w1 = list(w1)
    insort(new_w1, x if x % 2 == 0 else x + 2)
    return Factorization((tuple(new_w1), w2[1:]) + fac[2:])


def fac_ops_whole(relation):
    """(f, e) on whole factorizations over every label of a carrier of the
    relation: the pairing operators at 1..n-1 and, under "O" and "Sp", the
    queer operators at QBAR."""
    fq, eq = {"K": (None, None), "O": (fac_fq_o_whole, fac_eq_o_whole),
              "Sp": (fac_fq_sp_whole, fac_eq_sp_whole)}[relation]

    def f(fac, i):
        return fq(fac) if i == QBAR else fac_f_by_pair(fac, i)

    def e(fac, i):
        return eq(fac) if i == QBAR else fac_e_by_pair(fac, i)

    return f, e


def explore(seed, n, wt, f, e, fq=None, eq=None, cap=DEFAULT_VERTEX_CAP,
            name=""):
    """BFS closure of one element under all operators, capped: the carrier
    operators f, e and, when fq is given, the queer fq, eq, read through the
    tables of a vertexless Crystal."""
    probe = Crystal((), n, wt, f, e, fq, eq)
    seen = {seed}
    frontier = [seed]
    while frontier:
        x = frontier.pop()
        for table in (probe.f_table, probe.e_table):
            for y in table[x].values():
                if y not in seen:
                    if len(seen) + 1 > cap:
                        raise VertexCapExceeded(
                            f"exploration exceeded cap {cap}")
                    seen.add(y)
                    frontier.append(y)
    return Crystal(seen, n, wt, f, e, fq, eq, name=name)


def sources(crys):
    """Vertices with every raising operator undefined."""
    return tuple(x for x in crys.vertices if not crys.e_table[x])


def reflect(crys, x, j):
    """S_j(x): x moved to the mirror place of its j-string, by f_j or
    e_j applied |phi_j(x) - epsilon_j(x)| times."""
    eps, phi = crys.string_lengths(x, j)
    table = crys.f_table if phi > eps else crys.e_table
    for _ in range(abs(phi - eps)):
        x = table[x].get(j)
    return x


def highest_weights(crys):
    """(vertex, weight) pairs of highest-weight elements: the sources
    that, for a queer crystal, every e_{i'} with 2 <= i < n kills too.

    e_{i'} = S_{w_i}^{-1} e_{1bar} S_{w_i}, where w_i = s_2 ... s_i
    s_1 ... s_{i-1} and S_w is the product of the reflections
    (Grantcharov-Jung-Kang-Kashiwara-Kim); S_{w_i} is a bijection, so
    e_{i'} kills x exactly when e_{1bar} kills S_{w_i}(x).
    """
    def killed(x, i):
        for j in (*range(i - 1, 0, -1), *range(i, 1, -1)):
            x = reflect(crys, x, j)  # S_{w_i} applies its last factor first
        return crys.e_table[x].get(QBAR) is None

    labels = range(2, crys.n) if crys.queer else ()
    return tuple((x, crys.wt(x)) for x in sources(crys)
                 if all(killed(x, i) for i in labels))


def crystals_isomorphic(c1, c2):
    """Isomorphism of weighted labeled digraphs, componentwise."""
    comps1 = c1.components()
    comps2 = c2.components()
    if len(comps1) != len(comps2):
        return False
    certs1 = sorted(_component_certificate(c1, c) for c in comps1)
    certs2 = sorted(_component_certificate(c2, c) for c in comps2)
    return certs1 == certs2


def morphism_report(phi, dom, cod):
    """Violations of phi being a strict morphism dom -> cod.  phi is called
    once per vertex and once per defined edge: callers memoise it."""
    bad = []
    if tuple(dom.indices) != tuple(cod.indices):
        bad.append("index sets differ")
        return bad
    for x in dom.vertices:
        y = phi(x)
        if y not in cod.vertex_set:
            bad.append(f"image not in codomain at {pretty_element(x)}")
            continue
        if dom.wt(x) != cod.wt(y):
            bad.append(f"weight not preserved at {pretty_element(x)}")
        for i in dom.indices:
            for op, dom_op, cod_op in (("f", dom.f_table, cod.f_table),
                                       ("e", dom.e_table, cod.e_table)):
                ox, oy = dom_op[x].get(i), cod_op[y].get(i)
                if (ox is None) != (oy is None):
                    bad.append(f"{op}_{i} definedness at {pretty_element(x)}")
                elif ox is not None and phi(ox) != oy:
                    bad.append(f"{op}_{i} commutation at {pretty_element(x)}")
            if dom.string_lengths(x, i) != cod.string_lengths(y, i):
                bad.append(f"string lengths differ at {pretty_element(x)}, i={i}")
    return bad


def inv_map_inverse(w, n):
    """Factorization whose factor j collects the positions of j in w."""
    groups = [[] for _ in range(n)]
    for pos, j in enumerate(w, 1):
        groups[j - 1].append(pos)
    return Factorization(groups)


def dbl_map_inverse(fac):
    if any(a % 2 for f in fac for a in f):
        raise ValueError("dbl inverse needs even letters")
    return Factorization(tuple(tuple(a // 2 for a in f) for f in fac))


# ---------------------------------------------------------------------------
# Verify targets

def signature_bounds(check):
    """The bounds that a verify check accepts: the parameters of its
    signature after the result."""
    return tuple(inspect.signature(check).parameters)[1:]
