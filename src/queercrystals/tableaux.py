"""Plain and shifted tableaux with primed entries.

Entries of shifted tableaux are encoded as doubled integers so that primes
stay exact and orderable: 2k is the unprimed number k and 2k-1 is the
primed number k'.  Plain tableaux hold ordinary integers.  All tableaux are
drawn in French notation: row 1 is the bottom row and row indices increase
going up, with row r of a shifted tableau starting in column r.
"""

from __future__ import annotations

from functools import lru_cache


def unprimed(k):
    return 2 * k


def primed(k):
    return 2 * k - 1


def entry_value(code):
    return (code + 1) // 2


def entry_primed(code):
    return code % 2 == 1


def entry_str(code):
    v = entry_value(code)
    return f"{v}'" if entry_primed(code) else str(v)


def entry_from_str(s):
    s = s.strip()
    if s.endswith("'"):
        return primed(int(s[:-1]))
    return unprimed(int(s))


class Tableau:
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
        return isinstance(other, Tableau) and self.rows == other.rows

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


@lru_cache(maxsize=None)
def _column_rows(shape):
    """The rows of each column of the shifted shape, bottom to top: entry
    c-1 lists the rows r whose box (r, c) exists, so that box holds
    rows[r-1][c-r].  Every column's rows run from 1 up without a gap."""
    cols = []
    for r, length in enumerate(shape, 1):
        for c in range(r, r + length):
            if c > len(cols):
                cols.append([])
            cols[c - 1].append(r)
    return tuple(map(tuple, cols))


class ShiftedTableau:
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
        out = object.__new__(ShiftedTableau)
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
        return isinstance(other, ShiftedTableau) and self.rows == other.rows

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


def is_semistandard(t):
    """Semistandardness for either kind of tableau."""
    if isinstance(t, Tableau):
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


def is_increasing(t):
    """Strictly increasing rows and columns; shifted tableaux must be unprimed."""
    if isinstance(t, Tableau):
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


def is_standard(t):
    """Standard: each of 1..m (or a primed variant, shifted case) used once."""
    m = t.size()
    if isinstance(t, Tableau):
        used = sorted(x for row in t.rows for x in row)
        return used == list(range(1, m + 1)) and is_increasing(t)
    used = sorted(entry_value(x) for row in t.rows for x in row)
    return used == list(range(1, m + 1)) and is_semistandard(t)


def shword_boxes(t):
    """Boxes of a shifted tableau in shifted-reading order.

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


def shword(t):
    """The shifted reading word, primes removed."""
    rows = t.rows
    return tuple(entry_value(rows[r - 1][c - r]) for r, c in shword_boxes(t))


def tableau_descents(t):
    """Descent set of a standard shifted tableau.

    i is a descent when i+1 sits in a strictly later row than an unprimed i,
    when (i+1)' sits in a strictly later column than a primed i', or when i
    is unprimed while i+1 carries a prime.
    """
    if not is_standard(t):
        raise ValueError("descents are defined for standard shifted tableaux")
    pos = {entry_value(x): (r, c, entry_primed(x))
           for r, row in enumerate(t.rows, 1) for c, x in enumerate(row, r)}
    out = set()
    for i in range(1, t.size()):
        r1, c1, p1 = pos[i]
        r2, c2, p2 = pos[i + 1]
        if not p1 and not p2:
            if r2 > r1:
                out.add(i)
        elif p1 and p2:
            if c2 > c1:
                out.add(i)
        elif not p1 and p2:
            out.add(i)
    return frozenset(out)


def shword_descents(t):
    """Descents read off the shifted reading word: i such that i+1 occurs
    before i.  Agrees with tableau_descents; kept as an independent oracle."""
    w = shword(t)
    position = {v: k for k, v in enumerate(w)}
    return frozenset(i for i in range(1, len(w)) if position[i + 1] < position[i])


def weight(t, n):
    """Occurrences of each of 1..n (merging k and k')."""
    wt = [0] * n
    for row in t.rows:
        for x in row:
            v = entry_value(x) if isinstance(t, ShiftedTableau) else x
            if not 1 <= v <= n:
                raise ValueError(f"entry {v} exceeds n={n}")
            wt[v - 1] += 1
    return tuple(wt)


@lru_cache(maxsize=None)
def semistandard_tableaux(shape, n):
    """All semistandard fillings of the plain shape with entries in 1..n."""
    shape = tuple(shape)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError("shape must weakly decrease")
    results = []

    def fill(rows, r, c):
        if r == len(shape):
            results.append(Tableau(rows))
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
        return (Tableau(),)
    fill([[] for _ in shape], 0, 0)
    return tuple(sorted(results, key=lambda t: t.rows))


def is_strict_partition(parts):
    """Whether parts are positive and strictly decreasing; () is one."""
    return all(parts[i] > parts[i + 1] for i in range(len(parts) - 1)) and all(
        p > 0 for p in parts)


@lru_cache(maxsize=None)
def semistandard_shifted_tableaux(shape, n):
    """All semistandard shifted fillings with entries at most n."""
    shape = tuple(shape)
    if not is_strict_partition(shape):
        raise ValueError(f"shape {shape} is not a strict partition")
    if not shape:
        return (ShiftedTableau(),)
    results = []

    def fill(rows, r, c):
        if r == len(shape):
            results.append(ShiftedTableau(rows))
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


@lru_cache(maxsize=None)
def standard_shifted_tableaux(shape, primes=True):
    """All standard shifted tableaux of the shape.

    With primes=False only unprimed fillings are produced.  Enumeration is by
    direct backtracking over which box receives each of 1..m, with an
    independent prime toggle per off-diagonal box.
    """
    shape = tuple(shape)
    if not is_strict_partition(shape):
        raise ValueError(f"shape {shape} is not a strict partition")
    if not shape:
        return (ShiftedTableau(),)
    m = sum(shape)
    results = []

    def grow(v, rows):
        if v > m:
            results.append(ShiftedTableau([row[:] for row in rows]))
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


def star_op(t, i):
    """The involution s_i * T on standard shifted tableaux.

    When the boxes of i and i+1 share a row or column, toggle the prime on
    each of them except on the main diagonal; otherwise trade the values i
    and i+1 between the two boxes, keeping each box's prime.
    """
    if not is_standard(t):
        raise ValueError("star_op requires a standard shifted tableau")
    n = t.size()
    if not 1 <= i <= n - 1:
        return t
    pos = {entry_value(x): (r, c, x)
           for r, row in enumerate(t.rows, 1) for c, x in enumerate(row, r)}
    (r1, c1, x1), (r2, c2, x2) = pos[i], pos[i + 1]
    out = t
    if r1 == r2 or c1 == c2:
        if r1 != c1:
            out = out.with_entry(r1, c1, x1 + (1 if entry_primed(x1) else -1))
        if r2 != c2:
            out = out.with_entry(r2, c2, x2 + (1 if entry_primed(x2) else -1))
        return out
    shift1 = 1 if entry_primed(x1) else 0
    shift2 = 1 if entry_primed(x2) else 0
    out = out.with_entry(r1, c1, unprimed(i + 1) - shift1)
    out = out.with_entry(r2, c2, unprimed(i) - shift2)
    return out


def dual_equiv(t, i):
    """The dual equivalence operator on standard shifted tableaux.

    Chooses s_i* or s_{i+1}* from the relative order of i, i+1, i+2 in the
    shifted reading word; fixed when i+1 sits between the other two.
    Defined for 0 <= i <= n-2 and the identity otherwise.
    """
    n = t.size()
    if i + 1 < 1 or i + 1 > n - 1:
        return t
    if i == 0:
        return star_op(t, 1)
    w = shword(t)
    position = {v: k for k, v in enumerate(w)}
    order = sorted((i, i + 1, i + 2), key=lambda v: position[v])
    middle = order[1]
    if middle == i + 2:
        return star_op(t, i)
    if middle == i:
        return star_op(t, i + 1)
    return t
