"""Edelman-Greene insertion and its orthogonal, symplectic, and mixed variants.

Each algorithm consumes an increasing factorization letter by letter and
produces an insertion tableau P, a recording tableau Q, and a per-letter
trace recording whether the letter ended up row- or column-inserted.
Recording entries carry the factor index, primed for column-inserted
letters in the shifted algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement, product

from .permwords import (
    equivalence_class,
    insertion_flavor,
    is_fpf_involution_word,
    is_involution_word,
    is_reduced_word,
)
from .tableaux import (
    ShiftedTableau,
    Tableau,
    entry_primed,
    entry_str,
    entry_value,
    primed,
    row_word,
    unprimed,
)
from .tableaux import weight as tab_weight


class Factorization(tuple):
    """A tuple of strictly increasing (possibly empty) words."""

    def __new__(cls, factors=()):
        factors = tuple(tuple(f) for f in factors)
        for f in factors:
            if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
                raise ValueError(f"factor {f} is not strictly increasing")
        return super().__new__(cls, factors)

    @classmethod
    def from_word(cls, w):
        """One letter per factor."""
        return cls(tuple((a,) for a in w))

    def word(self):
        return tuple(a for f in self for a in f)

    def weight(self):
        return tuple(len(f) for f in self)

    def __str__(self):
        return "".join("(" + "".join(map(str, f)) + ")" for f in self) or "()"

    def to_json(self):
        return [list(f) for f in self]


def split_word(w, n):
    """All ways to cut w into n strictly increasing, possibly empty factors.

    Every weak descent w_k >= w_{k+1} needs a cut between its letters and
    the remaining cuts may fall anywhere, so the factorizations correspond
    to the multisets of n - 1 cut positions holding all weak descents.
    """
    w = tuple(w)
    if n == 0:
        return (Factorization(),) if not w else ()
    forced = [k for k in range(1, len(w)) if w[k - 1] >= w[k]]
    if len(forced) > n - 1:
        return ()
    out = []
    for free in combinations_with_replacement(range(len(w) + 1),
                                              n - 1 - len(forced)):
        cuts = (0, *sorted(forced + list(free)), len(w))
        out.append(Factorization(w[a:b] for a, b in zip(cuts, cuts[1:])))
    return tuple(out)


@dataclass(frozen=True)
class InsertionResult:
    P: object
    Q: object
    column_inserted: tuple

    def __iter__(self):
        return iter((self.P, self.Q))

    def to_json(self):
        return {
            "P": self.P.to_json(),
            "Q": self.Q.to_json(),
            "trace": ["col" if c else "row" for c in self.column_inserted],
        }


def _as_factorization(w):
    if isinstance(w, Factorization):
        return w
    if w and isinstance(w[0], int):
        return Factorization.from_word(w)
    return Factorization(w)


def _eg_letter(rows, x):
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


def eg_insert(w, check=True):
    """Edelman-Greene insertion of a reduced factorization."""
    fac = _as_factorization(w)
    if check and not is_reduced_word(fac.word()):
        raise ValueError(f"{fac.word()} is not a reduced word")
    rows, qrows = [], []
    for j, factor in enumerate(fac, 1):
        for a in factor:
            r, c = _eg_letter(rows, a)
            if r > len(qrows):
                qrows.append([])
            qrows[r - 1].append(j)
    P = Tableau(rows)
    Q = Tableau(qrows)
    return InsertionResult(P, Q, (False,) * len(fac.word()))


def _column_entries(rows, c):
    """(row, value) pairs of column c, bottom to top, in a shifted row list."""
    out = []
    for r in range(1, len(rows) + 1):
        k = c - r
        if 0 <= k < len(rows[r - 1]):
            out.append((r, rows[r - 1][k]))
    return out


def _append_to_column(rows, c, x):
    """Add x at the top of column c; the spot must be a legal new box."""
    col = [y for _, y in _column_entries(rows, c)]
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


def _shifted_letter(rows, x, symplectic):
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
        diagonal = idx == 0  # leftmost box of row r is (r, r)
        if diagonal:
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
        col = _column_entries(rows, c)
        idx = next((k for k, (_, y) in enumerate(col) if x <= y), None)
        if idx is None:
            return _append_to_column(rows, c, x), True
        rr, y = col[idx]
        if x == y:
            x = y + 1
        else:
            rows[rr - 1][c - rr] = x
            x = y
        c += 1


def _shifted_insert(fac, symplectic):
    rows, qrows, trace = [], [], []
    for j, factor in enumerate(fac, 1):
        for a in factor:
            (r, c), col_ins = _shifted_letter(rows, a, symplectic)
            if r > len(qrows):
                qrows.append([])
            qrows[r - 1].append(primed(j) if col_ins else unprimed(j))
            trace.append(col_ins)
    P = ShiftedTableau([[unprimed(v) for v in row] for row in rows])
    Q = ShiftedTableau(qrows)
    return InsertionResult(P, Q, tuple(trace))


def oeg_insert(w, check=True):
    """Orthogonal Edelman-Greene insertion of an involution word factorization."""
    fac = _as_factorization(w)
    if check and not is_involution_word(fac.word()):
        raise ValueError(f"{fac.word()} is not an involution word")
    return _shifted_insert(fac, symplectic=False)


def speg_insert(w, check=True):
    """Symplectic Edelman-Greene insertion of an fpf-involution word factorization."""
    fac = _as_factorization(w)
    if check and not is_fpf_involution_word(fac.word()):
        raise ValueError(f"{fac.word()} is not an fpf-involution word")
    return _shifted_insert(fac, symplectic=True)


def _hm_letter(rows, x):
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
            col = _column_entries(rows, c)
            idx = next((k for k, (_, y) in enumerate(col) if y > x), None)
            if idx is None:
                return _append_to_column(rows, c, x)
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


def hm_insert(w):
    """Haiman mixed insertion of an arbitrary word."""
    w = tuple(w)
    rows, qrows = [], []
    for k, a in enumerate(w, 1):
        r, c = _hm_letter(rows, unprimed(a))
        if r > len(qrows):
            qrows.append([])
        qrows[r - 1].append(unprimed(k))
    P = ShiftedTableau(rows)
    Q = ShiftedTableau(qrows)
    return InsertionResult(P, Q, (False,) * len(w))


_INSERTERS = {"eg": eg_insert, "oeg": oeg_insert, "speg": speg_insert}


def insert(w, flavor, check=True):
    if flavor == "hm":
        return hm_insert(w if not isinstance(w, Factorization) else w.word())
    try:
        fn = _INSERTERS[flavor]
    except KeyError:
        raise ValueError(f"unknown insertion flavor {flavor!r}") from None
    return fn(w, check=check)


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
