"""Plain and shifted tableaux with primed entries.

Entries of shifted tableaux are encoded as doubled integers so that primes
stay exact and orderable: 2k is the unprimed number k and 2k-1 is the
primed number k'.  Plain tableaux hold ordinary integers.  All tableaux are
drawn in French notation: row 1 is the bottom row and row indices increase
going up, with row r of a shifted tableau starting in column r.
"""

from functools import lru_cache
from math import inf


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


class _Tableau:
    """Rows of entries, bottom to top, with row r starting in column
    1 + SHIFT*(r-1): 0 for a plain Young diagram, 1 for a shifted one.

    Subclasses set SHIFT, KIND (the tag of hash and JSON), text (the
    printed form of one entry) and fits (the semistandard rule at one box).
    """

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        rows = tuple(tuple(r) for r in rows)
        if any(not r for r in rows):
            raise ValueError("empty row")
        if any(len(a) - len(b) < self.SHIFT for a, b in zip(rows, rows[1:])):
            order = "strictly" if self.SHIFT else "weakly"
            raise ValueError(f"row lengths must {order} decrease going up")
        self.rows = rows

    def entry(self, r, c):
        """The entry in box (r, c), or None when there is no such box."""
        rows = self.rows
        if 0 < r <= len(rows):
            row = rows[r - 1]
            k = c - 1 - self.SHIFT * (r - 1)
            if 0 <= k < len(row):
                return row[k]
        return None

    @property
    def shape(self):
        return tuple(map(len, self.rows))

    def size(self):
        return sum(map(len, self.rows))

    def __eq__(self, other):
        return type(other) is type(self) and self.rows == other.rows

    def __hash__(self):
        return hash((self.KIND, self.rows))

    def __lt__(self, other):
        """Tableaux of one kind sort by their rows."""
        return self.rows < other.rows

    def pretty(self):
        if not self.rows:
            return "(empty tableau)"
        text = self.text
        width = max(len(text(x)) for row in self.rows for x in row)
        return "\n".join(
            " " * (self.SHIFT * (r - 1) * (width + 1))
            + " ".join(text(x).rjust(width) for x in row)
            for r, row in reversed(list(enumerate(self.rows, 1))))

    def to_json(self):
        return {
            "kind": self.KIND,
            "shape": list(self.shape),
            "rows": [[self.text(x) for x in row] for row in self.rows],
        }


class Tableau(_Tableau):
    """A filling of an ordinary Young diagram with integers."""

    __slots__ = ()
    SHIFT, KIND = 0, "plain"
    text = str

    @staticmethod
    def fits(x, left, below):
        """Rows weakly increase and columns strictly increase."""
        return (left is None or left <= x) and (below is None or below < x)

    def __repr__(self):
        return f"Tableau({list(map(list, self.rows))!r})"


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


class ShiftedTableau(_Tableau):
    """A filling of a shifted diagram; row r occupies columns r..r+len-1.

    Cells hold doubled entry codes (see the module docstring).
    """

    __slots__ = ()
    SHIFT, KIND = 1, "shifted"
    text = staticmethod(entry_str)

    @staticmethod
    def fits(code, left, below):
        """No primed or non-positive diagonal box; a row repeats only
        unprimed entries, a column only primed ones."""
        if left is None:  # the first box of a row is on the diagonal
            if code <= 0 or entry_primed(code):
                return False
        elif code < left or (code == left and entry_primed(code)):
            return False
        return below is None or code > below or (
            code == below and entry_primed(code))

    @classmethod
    def from_strings(cls, rows):
        """Build from rows of entry strings like ["1", "2'", "3"], bottom-to-top."""
        return cls([[entry_from_str(s) for s in row] for row in rows])

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

    def find_value(self, v):
        """The box holding v or v'; None when absent (first match wins)."""
        for r, row in enumerate(self.rows, 1):
            for c, x in enumerate(row, r):
                if entry_value(x) == v:
                    return (r, c)
        return None

    def __repr__(self):
        rows = [[entry_str(x) for x in row] for row in self.rows]
        return f"ShiftedTableau.from_strings({rows!r})"


def is_semistandard(t):
    """Semistandardness for either kind of tableau: t.fits(entry, left
    neighbour, lower neighbour) holds at every box, a missing neighbour
    given as None."""
    fits, shift, below = t.fits, t.SHIFT, None
    for row in t.rows:
        left = None
        for k, x in enumerate(row):
            if not fits(x, left, None if below is None else below[k + shift]):
                return False
            left = x
        below = row
    return True


def is_standard(t):
    """Standard: semistandard, with each of 1..m (or a primed variant,
    shifted case) used once; distinct values make weak rows strict."""
    boxes = [x for row in t.rows for x in row]
    used = sorted(map(entry_value, boxes) if t.SHIFT else boxes)
    return used == list(range(1, len(boxes) + 1)) and is_semistandard(t)


def shword_letters(t, lo=1, hi=inf):
    """The boxes of a shifted tableau holding lo..hi in shifted-reading
    order, each with its unprimed value: a list of ((r, c), value).

    Reads C_q R_q ... C_1 R_1 where C_i lists the primed entries of column i
    bottom-to-top and R_i the unprimed entries of row i left-to-right, so
    the order is one sort key: a primed (r, c) at (-c, 0, r) and an
    unprimed one at (-r, 1, c); an odd code is primed.
    """
    first, last = primed(lo), unprimed(hi)
    found = sorted(
        ((-c, 0, r) if x % 2 else (-r, 1, c), (r, c), (x + 1) // 2)
        for r, row in enumerate(t.rows, 1) for c, x in enumerate(row, r)
        if first <= x <= last)
    return [(box, v) for _, box, v in found]


def shword(t):
    """The shifted reading word, primes removed."""
    return tuple(v for _, v in shword_letters(t))


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
    wt, shifted = [0] * n, t.SHIFT
    for row in t.rows:
        for x in row:
            v = entry_value(x) if shifted else x
            if not 1 <= v <= n:
                raise ValueError(f"entry {v} exceeds n={n}")
            wt[v - 1] += 1
    return tuple(wt)


def _fillings(cls, shape, codes):
    """Every filling of shape by codes that cls.fits accepts at each box,
    sorted by rows."""
    fits, shift = cls.fits, cls.SHIFT
    rows = [[] for _ in shape]
    out = []

    def fill(r, c):
        if r == len(shape):
            out.append(cls(rows))
        elif c == shape[r]:
            fill(r + 1, 0)
        else:
            row = rows[r]
            left = row[c - 1] if c else None
            below = rows[r - 1][c + shift] if r else None
            for code in codes:
                if fits(code, left, below):
                    row.append(code)
                    fill(r, c + 1)
                    row.pop()

    fill(0, 0)
    return tuple(sorted(out))


def semistandard_tableaux(shape, n):
    """All semistandard fillings of the plain shape with entries in 1..n."""
    shape = tuple(shape)
    if not is_partition(shape):
        raise ValueError(f"shape {shape} is not a partition")
    return _fillings(Tableau, shape, range(1, n + 1))


def is_partition(parts):
    """Whether parts are positive and weakly decreasing; () is one."""
    return all(a >= b for a, b in zip(parts, parts[1:])) and all(
        p > 0 for p in parts)


def is_strict_partition(parts):
    """Whether parts are positive and strictly decreasing; () is one."""
    return all(a > b for a, b in zip(parts, parts[1:])) and all(
        p > 0 for p in parts)


@lru_cache(maxsize=None)
def semistandard_shifted_tableaux(shape, n):
    """All semistandard shifted fillings with entries at most n."""
    shape = tuple(shape)
    if not is_strict_partition(shape):
        raise ValueError(f"shape {shape} is not a strict partition")
    return _fillings(ShiftedTableau, shape, range(1, 2 * n + 1))


def standard_shifted_tableaux(shape):
    """All standard shifted tableaux of the shape.

    Enumeration is by direct backtracking over which box receives each of
    1..m, with an independent prime toggle per off-diagonal box.
    """
    shape = tuple(shape)
    if not is_strict_partition(shape):
        raise ValueError(f"shape {shape} is not a strict partition")
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
            for code in (unprimed(v),) if c == r else (unprimed(v), primed(v)):
                rows[r - 1].append(code)
                grow(v + 1, rows)
                rows[r - 1].pop()

    grow(1, [[] for _ in shape])
    return tuple(sorted(results))


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
    middle = shword_letters(t, i, i + 2)[1][1]
    if middle == i + 2:
        return star_op(t, i)
    if middle == i:
        return star_op(t, i + 1)
    return t
