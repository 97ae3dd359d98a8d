"""Edelman-Greene insertion and its orthogonal, symplectic, and mixed variants.

Each algorithm consumes an increasing factorization letter by letter and
produces an insertion tableau P, a recording tableau Q, and a per-letter
trace recording whether the letter ended up row- or column-inserted.
Recording entries carry the factor index, primed for column-inserted
letters in the shifted algorithms.  The orthogonal and symplectic
algorithms are EG bumping plus one rule at the diagonal (`_eg_letter`),
and all four algorithms share one recording loop (`_record`).
"""

from collections import namedtuple
from functools import partial
from itertools import combinations_with_replacement

from .permwords import insertion_flavor, word_target
from .tableaux import (
    ShiftedTableau,
    Tableau,
    _column_rows,
    entry_primed,
    entry_str,
    entry_value,
    primed,
    unprimed,
)


class Factorization(tuple):
    """A tuple of strictly increasing (possibly empty) words."""

    def __new__(cls, factors=()):
        factors = tuple(tuple(f) for f in factors)
        for f in factors:
            if len(forced_cuts(f)) > 2:  # a forced cut besides its ends
                raise ValueError(f"factor {f} is not strictly increasing")
        return super().__new__(cls, factors)

    @classmethod
    def _trusted(cls, factors):
        """A factorization of tuples already known to increase strictly:
        the crystal operators and split_word build their results this way,
        without the constructor's scan."""
        return tuple.__new__(cls, factors)

    @classmethod
    def from_word(cls, w):
        """One letter per factor."""
        return cls(tuple((a,) for a in w))

    def word(self):
        return tuple(a for f in self for a in f)

    def weight(self):
        return tuple(map(len, self))

    def __str__(self):
        return "".join("(" + "".join(map(str, f)) + ")" for f in self) or "()"


def forced_cuts(w):
    """The places where every split of w into strictly increasing factors
    cuts: its two ends (one place when w is empty) and each weak descent k,
    w[k-1] >= w[k]."""
    if not w:
        return (0,)
    return (0, *[k for k in range(1, len(w)) if w[k - 1] >= w[k]], len(w))


def split_cuts(forced, n):
    """The cut points [0, c_1, ..., c_{n-1}, len(w)], in weakly increasing
    order, of each split into n strictly increasing, possibly empty factors
    of a word w with the forced cuts.  The n + 1 points hold the forced
    ones, and the other k = n + 1 - len(forced) form a multiset of the
    len(w) + 1 places, so there are C(len(w) + k, k) splits, and none when
    k < 0 (at n = 0 only the empty word splits, into no factors)."""
    k = n + 1 - len(forced)
    if k >= 0:
        for free in combinations_with_replacement(range(forced[-1] + 1), k):
            yield sorted(forced + free)


def split_word(w, n):
    """All ways to cut w into n strictly increasing, possibly empty factors."""
    w = tuple(w)
    out = []
    for c in split_cuts(forced_cuts(w), n):
        out.append(Factorization._trusted([w[a:b] for a, b in zip(c, c[1:])]))
    return tuple(out)


class InsertionResult(namedtuple("InsertionResult", "P Q column_inserted")):
    __slots__ = ()

    def to_json(self):
        return {
            "P": self.P.to_json(),
            "Q": self.Q.to_json(),
            "trace": ["col" if c else "row" for c in self.column_inserted],
        }


def _as_factorization(w, key, check):
    """w, a factorization or a sequence of factors, as a factorization; with
    check, a ValueError unless its word is in the word class of the
    insertion key."""
    fac = w if isinstance(w, Factorization) else Factorization(w)
    if check:
        flavor = insertion_flavor(key).name
        if word_target(fac.word(), flavor) is None:
            raise ValueError(f"{fac.word()} is not in the {flavor} word class")
    return fac


def _columns(rows):
    """tableaux._column_rows of the shape of rows, plus the empty column past
    its end; bumps keep the shape, so one read serves a letter."""
    return _column_rows(tuple(map(len, rows))) + ((),)


def _eg_letter(relation, rows, x):
    """Insert x into the rows of an increasing tableau by Edelman-Greene
    bumping; returns the row of the new box and whether x was
    column-inserted.

    x meets the first entry y >= x of a row: x takes y's box and y moves on
    when x < y, the row stays and y + 1 moves on when x == y.  Relation "K"
    is plain EG, where what moves on goes to the next row.  Under "O" and
    "Sp" the rows are shifted, row r starting at the diagonal box (r, r),
    and a bump there (under "Sp" only one with x < y, where y == x + 1
    stays as an equal entry would) sends what moves on up the columns from
    column r + 1, by the same rule.
    """
    r = 1
    while True:
        if r > len(rows):
            rows.append([x])
            return r, False
        row = rows[r - 1]
        idx = next((k for k, y in enumerate(row) if x <= y), None)
        if idx is None:
            row.append(x)
            return r, False
        y = row[idx]
        diagonal = idx == 0 and (relation == "O" or relation == "Sp" and x < y)
        if diagonal and relation == "Sp" and y == x + 1:
            x = y
        if x == y:
            x += 1
        else:
            row[idx], x = x, y
        if diagonal:
            break
        r += 1
    cols = _columns(rows)
    c = r + 1
    while True:
        rr = next((s for s in cols[c - 1] if x <= rows[s - 1][c - s]), None)
        if rr is None:
            return _append_to_column(rows, c, x), True
        y = rows[rr - 1][c - rr]
        if x == y:
            x += 1
        else:
            rows[rr - 1][c - rr], x = x, y
        c += 1


def _append_to_column(rows, c, x):
    """Add x at the top of column c, the spot a legal new box; returns the
    row of the new box."""
    cols = _columns(rows)
    col = [rows[r - 1][c - r] for r in cols[c - 1]] if c <= len(cols) else []
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
    return h + 1


def _hm_letter(rows, a):
    """One letter of Haiman mixed insertion into rows of doubled codes;
    returns the row of the new box and False, since mixed insertion's
    recording tableau takes no primes.

    Unprimed bumped entries continue into the next row, primed ones into the
    next column, and a bumped diagonal entry continues primed into the next
    column.  Bumps are strict: x displaces the first entry exceeding it.
    """
    x, cols = unprimed(a), None
    mode_row, pos = True, 1
    while True:
        if mode_row:
            r = pos
            if r > len(rows):
                rows.append([x])
                return r, False
            row = rows[r - 1]
            idx = next((k for k, y in enumerate(row) if y > x), None)
            if idx is None:
                row.append(x)
                return r, False
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
            if cols is None:
                cols = _columns(rows)
            rr = next((s for s in cols[c - 1] if rows[s - 1][c - s] > x), None)
            if rr is None:
                return _append_to_column(rows, c, x), False
            y = rows[rr - 1][c - rr]
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


def _record(fac, letter):
    """The recording loop of all four insertions: feed the letters of fac in
    order to letter(rows, a), which returns the row of the new box and
    whether a was column-inserted.  Q gets the letter's factor index in that
    row, primed when the letter was column-inserted.  Returns the rows of P
    and Q and the trace."""
    rows, qrows, trace = [], [], []
    for j, factor in enumerate(fac, 1):
        for a in factor:
            r, col = letter(rows, a)
            if r > len(qrows):
                qrows.append([])
            qrows[r - 1].append(primed(j) if col else unprimed(j))
            trace.append(col)
    return rows, qrows, tuple(trace)


def eg_insert(w, check=True):
    """Edelman-Greene insertion of a reduced factorization."""
    fac = _as_factorization(w, "eg", check)
    rows, qrows, trace = _record(fac, partial(_eg_letter, "K"))
    Q = [[entry_value(q) for q in row] for row in qrows]
    return InsertionResult(Tableau(rows), Tableau(Q), trace)


def _shifted_insert(fac, relation):
    rows, qrows, trace = _record(fac, partial(_eg_letter, relation))
    P = ShiftedTableau([[unprimed(v) for v in row] for row in rows])
    return InsertionResult(P, ShiftedTableau(qrows), trace)


def oeg_insert(w, check=True):
    """Orthogonal Edelman-Greene insertion of an involution word factorization."""
    return _shifted_insert(_as_factorization(w, "oeg", check), "O")


def speg_insert(w, check=True):
    """Symplectic Edelman-Greene insertion of an fpf-involution word factorization."""
    return _shifted_insert(_as_factorization(w, "speg", check), "Sp")


def hm_insert(w):
    """Haiman mixed insertion of a word of letters >= 1."""
    if any(a < 1 for a in w):
        raise ValueError(f"mixed insertion takes letters >= 1, not {tuple(w)}")
    fac = Factorization._trusted((a,) for a in w)
    rows, qrows, trace = _record(fac, _hm_letter)
    return InsertionResult(ShiftedTableau(rows), ShiftedTableau(qrows), trace)


_INSERTERS = {"eg": eg_insert, "oeg": oeg_insert, "speg": speg_insert}


def insert(w, flavor, check=True):
    if flavor == "hm":
        return hm_insert(w if not isinstance(w, Factorization) else w.word())
    try:
        fn = _INSERTERS[flavor]
    except KeyError:
        raise ValueError(f"unknown insertion flavor {flavor!r}") from None
    return fn(w, check=check)
