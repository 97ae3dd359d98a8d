"""Crystal operators and graphs for words, factorizations, and shifted tableaux.

A crystal here is a finite vertex set with a weight map and partial
raising/lowering operators indexed by 1..n-1 plus, in the queer case, the
extra index QBAR acting on the first two weight coordinates.  Undefined
operator values are represented by None; the auxiliary zero element is
never materialized.
"""

from __future__ import annotations

import os
from bisect import insort
from itertools import permutations, product

from .insertion import Factorization, split_word
from .permwords import Permutation, enumerate_words, get_flavor, word_target
from .tableaux import (
    ShiftedTableau,
    entry_primed,
    entry_str,
    entry_value,
    is_strict_partition,
    primed,
    semistandard_shifted_tableaux,
    shword_boxes,
    unprimed,
)
from .tableaux import weight as tab_weight

QBAR = "1bar"

DEFAULT_VERTEX_CAP = 200_000

STRING_CAP = 10_000  # longest i-string walked before VertexCapExceeded


class VertexCapExceeded(RuntimeError):
    """Raised when graph exploration exceeds the configured vertex cap."""


def vertex_cap():
    return int(os.environ.get("QC_VERTEX_CAP", DEFAULT_VERTEX_CAP))


def crystal_indices(n, queer):
    """The operator labels 1..n-1, led by QBAR for a queer crystal, which
    needs the two weight coordinates QBAR acts on."""
    gl = tuple(range(1, n))
    return (QBAR,) + gl if queer and n >= 2 else gl


def queer_ops(f, e, fq, eq):
    """(f, e) over every label: fq/eq at QBAR, f(x, i)/e(x, i) elsewhere."""

    def f_all(x, i):
        return fq(x) if i == QBAR else f(x, i)

    def e_all(x, i):
        return eq(x) if i == QBAR else e(x, i)

    return f_all, e_all


# ---------------------------------------------------------------------------
# The word crystal W_n(m)

def word_weight(w, n):
    wt = [0] * n
    for a in w:
        wt[a - 1] += 1
    return tuple(wt)


def _unmatched(w, i):
    """Positions of unmatched letters: i acts as ')' and i+1 as '('.

    Returns (rights, lefts): unmatched i positions and unmatched i+1
    positions, each in word order.
    """
    rights, lefts = [], []
    for k, a in enumerate(w):
        if a == i + 1:
            lefts.append(k)
        elif a == i:
            if lefts:
                lefts.pop()
            else:
                rights.append(k)
    return rights, lefts


def word_f(w, i):
    """Lowering operator on words: last unmatched i becomes i+1."""
    rights, _ = _unmatched(w, i)
    if not rights:
        return None
    k = rights[-1]
    return w[:k] + (i + 1,) + w[k + 1:]


def word_e(w, i):
    """Raising operator on words: first unmatched i+1 becomes i."""
    _, lefts = _unmatched(w, i)
    if not lefts:
        return None
    k = lefts[0]
    return w[:k] + (i,) + w[k + 1:]


def word_fqbar(w):
    """Change the first 1 to 2, provided it precedes every 2."""
    p1 = next((k for k, a in enumerate(w) if a == 1), None)
    p2 = next((k for k, a in enumerate(w) if a == 2), None)
    if p1 is None or (p2 is not None and p2 < p1):
        return None
    return w[:p1] + (2,) + w[p1 + 1:]


def word_eqbar(w):
    """Change the first 2 to 1, provided it precedes every 1."""
    p1 = next((k for k, a in enumerate(w) if a == 1), None)
    p2 = next((k for k, a in enumerate(w) if a == 2), None)
    if p2 is None or (p1 is not None and p1 < p2):
        return None
    return w[:p2] + (1,) + w[p2 + 1:]


# ---------------------------------------------------------------------------
# Factorization crystals

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


def fac_f(fac, i):
    """Move the largest unpaired letter of factor i into factor i+1."""
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


def fac_e(fac, i):
    """Move the smallest unpaired letter of factor i+1 into factor i."""
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


def fac_fq_o(fac):
    """Orthogonal queer lowering: first letter of factor 1 moves to factor 2."""
    w1, w2 = fac[0], fac[1]
    if not w1 or (w2 and w2[0] < w1[0]):
        return None
    return Factorization(((w1[1:]), (w1[0],) + w2) + fac[2:])


def fac_eq_o(fac):
    """Orthogonal queer raising: first letter of factor 2 moves to factor 1."""
    w1, w2 = fac[0], fac[1]
    if not w2 or (w1 and w1[0] < w2[0]):
        return None
    return Factorization(((w2[0],) + w1, w2[1:]) + fac[2:])


def fac_fq_sp(fac):
    """Symplectic queer lowering.

    With x the smallest letter of factor 1: move x when x+1 is absent from
    factor 1, otherwise delete x+1 there and prepend x-1 to factor 2.
    """
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


def fac_eq_sp(fac):
    """Symplectic queer raising.

    With x the smallest letter of factor 2: move x when even, otherwise
    delete x there and add x+2 to factor 1.
    """
    w1, w2 = fac[0], fac[1]
    if not w2 or (w1 and w1[0] <= w2[0]):
        return None
    x = w2[0]
    new_w1 = list(w1)
    insort(new_w1, x if x % 2 == 0 else x + 2)
    return Factorization((tuple(new_w1), w2[1:]) + fac[2:])


# ---------------------------------------------------------------------------
# Shifted tableau crystal operators (explicit appendix formulas)

def unpaired_boxes(t, i):
    """Unpaired boxes of the i/(i+1)-restriction in reading order.

    Boxes holding i or i' read as ')' and those holding i+1 or (i+1)' as
    '(' along the shifted reading word of the restriction.
    """
    rows = t.rows
    order = []
    for r, c in shword_boxes(t):
        v = entry_value(rows[r - 1][c - r])
        if v in (i, i + 1):
            order.append((r, c, v))
    out, stack = [], []
    for r, c, v in order:
        if v == i + 1:
            stack.append((r, c))
        else:
            if stack:
                stack.pop()
            else:
                out.append((r, c))
    # unmatched '(' boxes stay in reading order after the unmatched ')'
    seen = set(stack)
    tail = [(r, c) for r, c, v in order if v == i + 1 and (r, c) in seen]
    return tuple(out) + tuple(tail)


def _value_ribbon(t, v, box):
    """The connected component of v-valued boxes through box, NW to SE."""
    cells = {
        (r, c) for r, row in enumerate(t.rows, 1)
        for c, x in enumerate(row, r) if entry_value(x) == v
    }
    comp, frontier = {box}, [box]
    while frontier:
        r, c = frontier.pop()
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nb in cells and nb not in comp:
                comp.add(nb)
                frontier.append(nb)
    return sorted(comp, key=lambda rc: (-rc[0], rc[1]))


def shtab_f(t, i):
    """Lowering operator on semistandard shifted tableaux."""
    cand = [
        (r, c) for r, c in unpaired_boxes(t, i)
        if entry_value(t.rows[r - 1][c - r]) == i
    ]
    if not cand:
        return None
    x, y = cand[-1]
    code = t.entry(x, y)
    east = t.entry(x, y + 1)
    north = t.entry(x + 1, y)
    if not entry_primed(code):  # L1
        if east == primed(i + 1):
            return t.with_entry(x, y, primed(i + 1)).with_entry(
                x, y + 1, unprimed(i + 1))
        if north not in (primed(i + 1), unprimed(i + 1)):
            return t.with_entry(x, y, unprimed(i + 1))
        rib = _value_ribbon(t, i + 1, (x + 1, y))
        tr, tc = rib[0]
        if tr != tc:
            return t.with_entry(x, y, primed(i + 1)).with_entry(
                tr, tc, unprimed(i + 1))
        return t.with_entry(x, y, primed(i + 1))
    # L2
    if north == unprimed(i):
        return t.with_entry(x, y, unprimed(i)).with_entry(
            x + 1, y, primed(i + 1))
    if east not in (unprimed(i), primed(i + 1)):
        return t.with_entry(x, y, primed(i + 1))
    rib = _value_ribbon(t, i, (x, y))
    start = rib.index((x, y))
    for tr, tc in rib[start + 1:]:
        if t.entry(tr, tc) == unprimed(i) and t.entry(tr, tc + 1) not in (
                unprimed(i), primed(i + 1)):
            return t.with_entry(x, y, unprimed(i)).with_entry(
                tr, tc, primed(i + 1))
    raise RuntimeError(f"L2(c) found no landing position for f_{i} on {t!r}")


def shtab_e(t, i):
    """Raising operator on semistandard shifted tableaux."""
    cand = [
        (r, c) for r, c in unpaired_boxes(t, i)
        if entry_value(t.rows[r - 1][c - r]) == i + 1
    ]
    if not cand:
        return None
    x, y = cand[0]
    code = t.entry(x, y)
    west = t.entry(x, y - 1)
    south = t.entry(x - 1, y)
    if not entry_primed(code):  # R1
        if west == primed(i + 1):
            return t.with_entry(x, y, primed(i + 1)).with_entry(
                x, y - 1, unprimed(i))
        if south not in (unprimed(i), primed(i + 1)):
            return t.with_entry(x, y, unprimed(i))
        rib = _value_ribbon(t, i + 1, (x, y))
        start = rib.index((x, y))
        for tr, tc in rib[start + 1:]:
            if t.entry(tr, tc) == primed(i + 1) and t.entry(tr - 1, tc) not in (
                    unprimed(i), primed(i + 1)):
                return t.with_entry(x, y, primed(i + 1)).with_entry(
                    tr, tc, unprimed(i))
        raise RuntimeError(
            f"R1(c) found no landing position for e_{i} on {t!r}")
    # R2
    if south == unprimed(i):
        return t.with_entry(x, y, unprimed(i)).with_entry(
            x - 1, y, primed(i))
    if west not in (primed(i), unprimed(i)):
        return t.with_entry(x, y, primed(i))
    rib = _value_ribbon(t, i, (x, y - 1))
    tr, tc = rib[0]
    if tr != tc:
        return t.with_entry(x, y, unprimed(i)).with_entry(tr, tc, primed(i))
    return t.with_entry(x, y, unprimed(i))


def shtab_fqbar(t):
    """Queer lowering: the rightmost 1 in row 1 becomes 2 on the diagonal, else 2'."""
    if any(x == primed(2) for row in t.rows for x in row):
        return None
    if not t.rows:
        return None
    row1 = t.rows[0]
    cols = [c for c, x in enumerate(row1, 1) if x == unprimed(1)]
    if not cols:
        return None
    c = cols[-1]
    return t.with_entry(1, c, unprimed(2) if c == 1 else primed(2))


def shtab_eqbar(t):
    """Queer raising: a leading 2 or the unique 2' of row 1 becomes 1."""
    if not t.rows:
        return None
    row1 = t.rows[0]
    if row1[0] == unprimed(2):
        return t.with_entry(1, 1, unprimed(1))
    for c, x in enumerate(row1, 1):
        if x == primed(2):
            return t.with_entry(1, c, unprimed(1))
    return None


# ---------------------------------------------------------------------------
# Crystal container

def _sort_key(x):
    if isinstance(x, ShiftedTableau):
        return x.rows
    return x


class Crystal:
    """A finite crystal with explicit operator maps.

    indices lists the operator labels, QBAR first for queer crystals.
    f(x, i) and e(x, i) return None when undefined.
    """

    def __init__(self, vertices, n, wt, f, e, queer, name=""):
        self.vertices = tuple(sorted(set(vertices), key=_sort_key))
        self.vertex_set = frozenset(self.vertices)
        self.n = n
        self.wt = wt
        self.f = f
        self.e = e
        self.queer = queer
        self.name = name
        self.indices = crystal_indices(n, queer)
        self._edges = None
        self._in = None
        self._out = None

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, x):
        return x in self.vertex_set

    def edges(self):
        """All labeled edges (x, i, y) with y = f_i(x), in canonical order."""
        if self._edges is None:
            acc = []
            for x in self.vertices:
                for i in self.indices:
                    y = self.f(x, i)
                    if y is not None:
                        acc.append((x, i, y))
            acc.sort(key=lambda t: (_sort_key(t[0]), str(t[1]), _sort_key(t[2])))
            self._edges = tuple(acc)
        return self._edges

    def _adjacency(self):
        if self._out is None:
            out = {x: {} for x in self.vertices}
            into = {x: {} for x in self.vertices}
            for x, i, y in self.edges():
                out[x][i] = y
                into[y][i] = x
            self._out, self._in = out, into
        return self._out, self._in

    def string_lengths(self, x, i):
        """(epsilon_i, phi_i): how often e_i and f_i apply before vanishing."""
        lengths = []
        for op in (self.e, self.f):
            k, y = 0, op(x, i)
            while y is not None:
                k += 1
                if k > STRING_CAP:
                    raise VertexCapExceeded(f"{i}-string too long at {x!r}")
                y = op(y, i)
            lengths.append(k)
        return tuple(lengths)

    def components(self):
        """Weakly connected components as sub-crystals, deterministic order."""
        out, into = self._adjacency()
        seen = set()
        comps = []
        for v in self.vertices:
            if v in seen:
                continue
            comp, frontier = {v}, [v]
            while frontier:
                x = frontier.pop()
                for nbs in (out[x], into[x]):
                    for y in nbs.values():
                        if y not in comp:
                            comp.add(y)
                            frontier.append(y)
            seen |= comp
            comps.append(Crystal(comp, self.n, self.wt, self.f, self.e,
                                 self.queer, name=self.name))
        return comps

    def sources(self):
        """Vertices with every raising operator undefined."""
        return tuple(
            x for x in self.vertices
            if all(self.e(x, i) is None for i in self.indices)
        )

    def highest_weights(self):
        """(vertex, weight) pairs of highest-weight elements.

        For queer crystals these are the sources whose weight, trailing
        zeros dropped, is a strict partition; a queer component can have
        further sources that are not highest weights.
        """
        out = []
        for x in self.sources():
            wt = self.wt(x)
            trimmed = _trim(wt)
            if self.queer and not is_strict_partition(trimmed):
                continue
            out.append((x, wt))
        return tuple(out)

    def to_json(self):
        verts = [pretty_element(x) for x in self.vertices]
        index = {x: k for k, x in enumerate(self.vertices)}
        return {
            "n": self.n,
            "queer": self.queer,
            "vertices": verts,
            "weights": [list(self.wt(x)) for x in self.vertices],
            "edges": [
                [index[x], str(i), index[y]] for x, i, y in self.edges()
            ],
        }

    def to_dot(self):
        """One DOT digraph per component, concatenated deterministically."""
        chunks = []
        for k, comp in enumerate(self.components()):
            index = {x: f"v{j}" for j, x in enumerate(comp.vertices)}
            lines = [f'digraph component{k} {{']
            for x in comp.vertices:
                wt = ",".join(map(str, comp.wt(x)))
                lines.append(
                    f'  {index[x]} [label="{pretty_element(x)}" weight="{wt}"];'
                )
            for x, i, y in comp.edges():
                lines.append(f'  {index[x]} -> {index[y]} [label="{i}"];')
            lines.append("}")
            chunks.append("\n".join(lines))
        return "\n".join(chunks) + "\n"


def _trim(wt):
    wt = tuple(wt)
    while wt and wt[-1] == 0:
        wt = wt[:-1]
    return wt


def pretty_element(x):
    if isinstance(x, ShiftedTableau):
        return "[" + " / ".join(
            " ".join(entry_str(v) for v in row) for row in x.rows
        ) + "]"
    if isinstance(x, Factorization) or (
            isinstance(x, tuple) and x and isinstance(x[0], tuple)):
        return "/".join("".join(map(str, f)) or "-" for f in x)
    if isinstance(x, tuple):
        return "".join(map(str, x))
    return str(x)


def explore(seed, n, wt, f, e, queer, cap=None, name=""):
    """BFS closure of one element under all operators, capped."""
    cap = vertex_cap() if cap is None else cap
    seen = {seed}
    frontier = [seed]
    while frontier:
        x = frontier.pop()
        for i in crystal_indices(n, queer):
            for op in (f, e):
                y = op(x, i)
                if y is not None and y not in seen:
                    if len(seen) + 1 > cap:
                        raise VertexCapExceeded(
                            f"exploration exceeded cap {cap}")
                    seen.add(y)
                    frontier.append(y)
    return Crystal(seen, n, wt, f, e, queer, name=name)


# ---------------------------------------------------------------------------
# Concrete carriers

def word_crystal(n, m):
    """The crystal of all m-letter words over 1..n."""
    f, e = queer_ops(word_f, word_e, word_fqbar, word_eqbar)
    return Crystal(
        product_words(n, m), n, lambda w: word_weight(w, n), f, e,
        queer=True, name=f"W_{n}({m})")


def product_words(n, m):
    return [tuple(w) for w in product(range(1, n + 1), repeat=m)]


def _fac_ops(relation):
    """(f, e) for factorization carriers; the relation "O" or "Sp" picks the
    queer operators, and "K" has none."""
    fq, eq = {"K": (None, None), "O": (fac_fq_o, fac_eq_o),
              "Sp": (fac_fq_sp, fac_eq_sp)}[relation]
    return queer_ops(fac_f, fac_e, fq, eq)


def _fac_crystal(words, n, relation, name):
    """The crystal on the n-fold increasing factorizations of the words, with
    the relation's operators: a q_n-crystal unless the relation is "K"."""
    f, e = _fac_ops(relation)
    verts = [fac for w in words for fac in split_word(w, n)]
    return Crystal(verts, n, Factorization.weight, f, e,
                   queer=relation != "K", name=name)


def factorization_crystal(pi, flavor, n):
    """The crystal of n-fold increasing factorizations of the flavor's words
    for pi: a gl_n-crystal for reduced words, a q_n-crystal otherwise."""
    flav = get_flavor(flavor)
    return _fac_crystal(enumerate_words(pi, flavor), n, flav.relation,
                        f"{flav.carrier}_{n}({pi})")


def _shtab_crystal(verts, n, name):
    """The q_n-crystal on the given semistandard shifted tableaux."""
    f, e = queer_ops(shtab_f, shtab_e, shtab_fqbar, shtab_eqbar)
    return Crystal(verts, n, lambda t: tab_weight(t, n), f, e, queer=True,
                   name=name)


def shifted_tableau_crystal(n, shape):
    """The q_n-crystal on semistandard shifted tableaux of one shape."""
    return _shtab_crystal(semistandard_shifted_tableaux(tuple(shape), n), n,
                          f"ShTab_{n}({tuple(shape)})")


def strict_partitions(m, max_parts=None):
    """All strict partitions of m, largest part first."""
    out = []

    def rec(rest, biggest, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        if max_parts is not None and len(acc) == max_parts:
            return
        for p in range(min(rest, biggest), 0, -1):
            rec(rest - p, p - 1, acc + [p])

    rec(m, m, [])
    return tuple(sorted(out, reverse=True))


def shifted_tableau_crystal_all(n, m):
    """The q_n-crystal on all semistandard shifted tableaux with m boxes."""
    verts = []
    for mu in strict_partitions(m, max_parts=n):
        verts.extend(semistandard_shifted_tableaux(mu, n))
    return _shtab_crystal(verts, n, f"ShTab_{n}[{m}]")


# ---------------------------------------------------------------------------
# Reduction to permutations: Perm_n(m), Even_n(m), inv, dbl

def perm_words(m):
    return [tuple(p) for p in permutations(range(1, m + 1))]


def even_words(m):
    return [tuple(p) for p in permutations(range(2, 2 * m + 1, 2))]


def perm_crystal(n, m):
    """Perm_n(m): factorized permutations of 1..m with the orthogonal ops."""
    return _fac_crystal(perm_words(m), n, "O", f"Perm_{n}({m})")


def even_crystal(n, m, relation="O"):
    """Even_n(m): factorized permutations of 2,4,...,2m.

    The orthogonal and symplectic queer operators coincide here; the
    relation "O" or "Sp" picks which family realizes the crystal.
    """
    return _fac_crystal(even_words(m), n, relation, f"Even_{n}({m})")


def inv_map(fac):
    """The word whose i-th letter names the factor containing letter i."""
    letters = fac.word()
    m = len(letters)
    if sorted(letters) != list(range(1, m + 1)):
        raise ValueError("inv is defined on factorized permutations of 1..m")
    out = []
    for i in range(1, m + 1):
        for j, factor in enumerate(fac, 1):
            if i in factor:
                out.append(j)
                break
    return tuple(out)


def inv_map_inverse(w, n):
    """Factorization whose factor j collects the positions of j in w."""
    groups = [[] for _ in range(n)]
    for pos, j in enumerate(w, 1):
        groups[j - 1].append(pos)
    return Factorization(groups)


def dbl_map(fac):
    return Factorization(tuple(tuple(2 * a for a in f) for f in fac))


def dbl_map_inverse(fac):
    if any(a % 2 for f in fac for a in f):
        raise ValueError("dbl inverse needs even letters")
    return Factorization(tuple(tuple(a // 2 for a in f) for f in fac))


def sigma_set(m):
    """The involutions whose word classes partition the permutations of 1..m."""
    out = {}
    for w in perm_words(m):
        pi = word_target(w, "involution")
        if pi is None:
            raise RuntimeError(f"permutation word {w} is not an involution word")
        out.setdefault(pi, []).append(w)
    return out


def sigma_set_pattern(m):
    """The same involutions from the nested-cycle pattern
    (1,i_1)(i_1-1,i_2)...(i_k-1,m+1), breaks 3 <= i_1, i_j+2 <= i_{j+1} <= m."""
    if m < 1:
        return set()

    def chains(start):
        yield ()
        for b in range(start, m + 1):
            for rest in chains(b + 2):
                yield (b,) + rest

    results = set()
    for breaks in chains(3):
        cycles, prev = [], 1
        for b in breaks:
            cycles.append((prev, b))
            prev = b - 1
        cycles.append((prev, m + 1))
        results.add(Permutation.from_cycles(cycles))
    return results


def even_target_o(m):
    """tau with Even(m) = R^O(tau): the product s_2 s_4 ... s_{2m}."""
    return word_target(range(2, 2 * m + 1, 2), "involution")


def even_target_sp(m):
    """pi with Even(m) = R^Sp(pi): conjugate the base matching by s_2 s_4 ... s_{2m}."""
    return word_target(range(2, 2 * m + 1, 2), "fpf")


# ---------------------------------------------------------------------------
# Axioms, morphisms, isomorphism

def axioms_report(crys):
    """Violations of the crystal axioms; empty means a clean pass."""
    bad = []
    gl = [i for i in crys.indices if i != QBAR]
    delta = {}  # f_i moves one unit of weight from coordinate k to k+1
    for i in crys.indices:
        k = {QBAR: 1}.get(i, i)
        delta[i] = tuple((j == k) - (j == k - 1) for j in range(crys.n))
    for x in crys.vertices:
        wtx = crys.wt(x)
        for i in crys.indices:
            y = crys.f(x, i)
            if y is not None:
                if crys.e(y, i) != x:
                    bad.append(f"pairing: e_{i}(f_{i}(x)) != x at {pretty_element(x)}")
                if tuple(a + d for a, d in zip(wtx, delta[i])) != crys.wt(y):
                    bad.append(f"weight shift across f_{i} at {pretty_element(x)}")
            z = crys.e(x, i)
            if z is not None and crys.f(z, i) != x:
                bad.append(f"pairing: f_{i}(e_{i}(x)) != x at {pretty_element(x)}")
        for i in gl:
            eps, phi = crys.string_lengths(x, i)
            if phi - eps != wtx[i - 1] - wtx[i]:
                bad.append(f"string axiom phi-eps at {pretty_element(x)}, i={i}")
    if QBAR in crys.indices:
        far = [i for i in gl if i >= 3]
        for x in crys.vertices:
            wtx = crys.wt(x)
            eps, phi = crys.string_lengths(x, QBAR)
            if eps + phi > 1:
                bad.append(f"queer string bound at {pretty_element(x)}")
            if (wtx[0] != 0 or wtx[1] != 0) and eps + phi != 1:
                bad.append(f"queer string equality at {pretty_element(x)}")
            c = crys.e(x, QBAR)
            if c is not None:
                for i in far:
                    if crys.string_lengths(x, i) != \
                            crys.string_lengths(c, i):
                        bad.append(
                            f"queer string preservation at {pretty_element(x)}, i={i}")
            for i in far:
                for qop in (lambda v: crys.e(v, QBAR), lambda v: crys.f(v, QBAR)):
                    for gop in (lambda v: crys.e(v, i), lambda v: crys.f(v, i)):
                        a = _chain(qop, gop, x)
                        b = _chain(gop, qop, x)
                        if a != b:
                            bad.append(
                                f"queer commutation at {pretty_element(x)}, i={i}")
    return bad


def _chain(op1, op2, x):
    y = op2(x)
    if y is None:
        return None
    return op1(y)


def morphism_report(phi, dom, cod):
    """Violations of phi being a strict morphism dom -> cod."""
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
            for op, dom_op, cod_op in (("f", dom.f, cod.f), ("e", dom.e, cod.e)):
                ox, oy = dom_op(x, i), cod_op(y, i)
                if (ox is None) != (oy is None):
                    bad.append(f"{op}_{i} definedness at {pretty_element(x)}")
                elif ox is not None and phi(ox) != oy:
                    bad.append(f"{op}_{i} commutation at {pretty_element(x)}")
            if dom.string_lengths(x, i) != cod.string_lengths(y, i):
                bad.append(f"string lengths differ at {pretty_element(x)}, i={i}")
    return bad


def is_quasi_isomorphism(phi, dom, cod):
    """Morphism that restricts to an isomorphism on every full subcrystal."""
    if morphism_report(phi, dom, cod):
        return False
    cod_comps = cod.components()
    for comp in dom.components():
        images = {phi(x) for x in comp.vertices}
        if len(images) != len(comp.vertices):
            return False
        target = next(
            (c for c in cod_comps if images <= set(c.vertices)), None)
        if target is None or len(images) != len(target.vertices):
            return False
    return True


def _certificate_from(comp, root):
    out, into = comp._adjacency()
    order = {root: 0}
    queue = [root]
    edges = []
    while queue:
        x = queue.pop(0)
        xid = order[x]
        for direction, nbs in (("f", out[x]), ("e", into[x])):
            for i in sorted(nbs, key=str):
                y = nbs[i]
                if y not in order:
                    order[y] = len(order)
                    queue.append(y)
                edges.append((xid, direction, str(i), order[y]))
        if len(order) > len(comp.vertices):
            break
    wts = [None] * len(order)
    for v, k in order.items():
        wts[k] = comp.wt(v)
    return (tuple(edges), tuple(wts))


def _component_certificate(comp):
    out, into = comp._adjacency()

    def rootkey(v):
        return (
            tuple(sorted(map(str, into[v]))),
            tuple(sorted(map(str, out[v]))),
            comp.wt(v),
        )

    best = min(rootkey(v) for v in comp.vertices)
    roots = [v for v in comp.vertices if rootkey(v) == best]
    return min(_certificate_from(comp, r) for r in roots)


def crystals_isomorphic(c1, c2):
    """Isomorphism of weighted labeled digraphs, componentwise."""
    comps1 = c1.components()
    comps2 = c2.components()
    if len(comps1) != len(comps2):
        return False
    certs1 = sorted(_component_certificate(c) for c in comps1)
    certs2 = sorted(_component_certificate(c) for c in comps2)
    return certs1 == certs2
