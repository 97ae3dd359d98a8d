"""Crystal operators and graphs for words, factorizations, and shifted tableaux.

A crystal here is a finite vertex set with a weight map and partial
raising/lowering operators indexed by 1..n-1 plus, in the queer case, the
extra index QBAR acting on the first two weight coordinates.  Undefined
operator values are represented by None; the auxiliary zero element is
never materialized.
"""

from collections import Counter
from functools import partial
from itertools import chain, permutations, product
from math import comb

from .insertion import Factorization, forced_cuts, split_cuts, split_word
from .permwords import (
    LazyMap,
    Permutation,
    enumerate_words,
    get_flavor,
)
from .tableaux import (
    ShiftedTableau,
    entry_primed,
    entry_str,
    entry_value,
    primed,
    semistandard_shifted_tableaux,
    shword_letters,
    unprimed,
)
from .tableaux import weight as tab_weight

QBAR = "1bar"


def crystal_indices(n, queer):
    """The operator labels 1..n-1, led by QBAR for a queer crystal, which
    needs the two weight coordinates QBAR acts on."""
    gl = tuple(range(1, n))
    return (QBAR,) + gl if queer and n >= 2 else gl


# ---------------------------------------------------------------------------
# The bracket rule that words, factorizations and shifted tableaux share

def _unpaired(a, b):
    """The bracket rule of every gl_n operator on two increasing sequences:
    a reads ')' and b reads '(', and an element of b opens before an element
    of a when it is smaller, a first on ties.  Returns (rights, lefts), the
    indices of the unmatched elements of a and of b; f_i acts at the last
    right and e_i at the first left."""
    rights, lefts, j = [], [], 0
    for k, x in enumerate(a):
        while j < len(b) and b[j] < x:
            lefts.append(j)
            j += 1
        if lefts:
            lefts.pop()
        else:
            rights.append(k)
    return rights, lefts + list(range(j, len(b)))


def _positions(letters, i):
    """The reading positions of the letters i and of the letters i+1, among
    (key, value) letters in reading order."""
    a, b = [], []
    for k, (_, x) in enumerate(letters):
        if x == i:
            a.append(k)
        elif x == i + 1:
            b.append(k)
    return a, b


# ---------------------------------------------------------------------------
# The word crystal W_n(m)

def word_weight(w, n):
    wt = [0] * n
    for a in w:
        wt[a - 1] += 1
    return tuple(wt)


def word_f(w, i):
    """Lowering operator on words: last unmatched i becomes i+1."""
    a, b = _positions(enumerate(w), i)
    rights, _ = _unpaired(a, b)
    if not rights:
        return None
    k = a[rights[-1]]
    return w[:k] + (i + 1,) + w[k + 1:]


def word_e(w, i):
    """Raising operator on words: first unmatched i+1 becomes i."""
    a, b = _positions(enumerate(w), i)
    _, lefts = _unpaired(a, b)
    if not lefts:
        return None
    k = b[lefts[0]]
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
# Factorization crystals: operators map two adjacent factors to a new pair

def fac_f(a, b):
    """Move the largest unpaired letter of factor a into factor b: the
    bracket rule on two adjacent factors is the Morse-Schilling pairing."""
    rights, _ = _unpaired(a, b)
    if not rights:
        return None
    k = rights[-1]
    y = a[k]
    while y in b:
        y += 1
    return a[:k] + a[k + 1:], tuple(sorted(b + (y,)))


def fac_e(a, b):
    """Move the smallest unpaired letter of factor b into factor a."""
    _, lefts = _unpaired(a, b)
    if not lefts:
        return None
    k = lefts[0]
    x = b[k]
    while x in a:
        x -= 1
    return tuple(sorted(a + (x,))), b[:k] + b[k + 1:]


def fac_fq_o(w1, w2):
    """Orthogonal queer lowering: first letter of factor 1 moves to factor 2."""
    if not w1 or (w2 and w2[0] < w1[0]):
        return None
    return w1[1:], (w1[0],) + w2


def fac_eq_o(w1, w2):
    """Orthogonal queer raising: first letter of factor 2 moves to factor 1."""
    if not w2 or (w1 and w1[0] < w2[0]):
        return None
    return (w2[0],) + w1, w2[1:]


def fac_fq_sp(w1, w2):
    """Symplectic queer lowering: with x the smallest letter of factor 1,
    move x when x+1 is absent from factor 1, otherwise delete x+1 there and
    prepend x-1 to factor 2."""
    if not w1 or (w2 and w2[0] <= w1[0]):
        return None
    x = w1[0]
    if x + 1 in w1:
        return tuple(v for v in w1 if v != x + 1), (x - 1,) + w2
    return w1[1:], (x,) + w2


def fac_eq_sp(w1, w2):
    """Symplectic queer raising: with x the smallest letter of factor 2,
    move x when even, otherwise delete x there and add x+2 to factor 1."""
    if not w2 or (w1 and w1[0] <= w2[0]):
        return None
    x = w2[0]
    return tuple(sorted(w1 + (x if x % 2 == 0 else x + 2,))), w2[1:]


def _lift(pair_op):
    """One operator on factorizations from a pair map: op(fac, i) maps
    factors (i, i+1) and op(fac) factors (1, 2), each pair read through a
    table {(a, b): value} that lives and dies with the carrier."""
    pairs = LazyMap(lambda pair: pair_op(*pair))

    def op(fac, i=1):
        new = pairs[fac[i - 1], fac[i]]
        return None if new is None else Factorization._trusted(
            fac[:i - 1] + new + fac[i + 1:])

    return op


def _queer_pair(relation):
    """The queer pair maps (lowering, raising) of a relation, read from the
    module at call time: "O" and "Sp" have theirs, and "K" has none."""
    return {"K": (None, None), "O": (fac_fq_o, fac_eq_o),
            "Sp": (fac_fq_sp, fac_eq_sp)}[relation]


# ---------------------------------------------------------------------------
# Shifted tableau crystal operators (explicit appendix formulas)

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
    letters = shword_letters(t, i, i + 1)
    a, b = _positions(letters, i)
    rights, _ = _unpaired(a, b)
    if not rights:
        return None
    x, y = letters[a[rights[-1]]][0]
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
    letters = shword_letters(t, i, i + 1)
    a, b = _positions(letters, i)
    _, lefts = _unpaired(a, b)
    if not lefts:
        return None
    x, y = letters[b[lefts[0]]][0]
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

class Crystal:
    """A finite crystal: its vertices, a weight map wt and two operator tables.

    The raw operators, None when undefined, are f(x, i) and e(x, i) at the
    labels 1..n-1 and, for a q_n-crystal, the queer fq(x) and eq(x); the
    carrier is queer exactly when fq is given.  indices lists the labels,
    QBAR first for a queer crystal with n >= 2.  The operators are kept only
    in the tables f_table and e_table, one row per vertex: f_table[x] is
    {i: f_i(x)} over the labels where f_i(x) is defined, in str order,
    computed at its first lookup; the tables are the one place that sends
    QBAR to fq and eq.  The f-table is the out-adjacency; the in-edges are
    built once, from edges().  The tables live and die with the carrier: a
    process-wide table would keep every carrier's edges.
    """

    def __init__(self, vertices, n, wt, f, e, fq=None, eq=None, name=""):
        self.vertex_set = frozenset(vertices)
        self.vertices = tuple(sorted(self.vertex_set))
        self.n = n
        self.wt = wt
        self.queer = fq is not None
        self.name = name
        self.indices = crystal_indices(n, self.queer)
        labels = sorted(self.indices, key=str)

        def rows(op, op_q):
            return LazyMap(lambda x: {i: y for i in labels if (
                y := op_q(x) if i == QBAR else op(x, i)) is not None})

        self.f_table, self.e_table = rows(f, fq), rows(e, eq)
        self._in = self._components = None

    def __len__(self):
        return len(self.vertices)

    def edges(self):
        """All labeled edges (x, i, y) with y = f_i(x), in canonical order,
        the order of the sorted vertices and of their rows.  Every reader of
        the edges goes through here, so an f_i(x) outside the carrier is a
        theorem failure, raised as RuntimeError."""
        edges = tuple((x, i, y) for x in self.vertices
                      for i, y in self.f_table[x].items())
        for x, i, y in edges:
            if y not in self.vertex_set:
                raise RuntimeError(
                    f"f_{i}({pretty_element(x)}) = {pretty_element(y)} "
                    f"is not a vertex of {self.name}")
        return edges

    def _into(self):
        """The in-edges {y: {i: x}} with f_i(x) = y, built once."""
        if self._in is None:
            self._in = {x: {} for x in self.vertices}
            for x, i, y in self.edges():
                self._in[y][i] = x
        return self._in

    def string_lengths(self, x, i):
        """(epsilon_i, phi_i): how often e_i and f_i apply before vanishing.

        A string of k steps visits k + 1 distinct vertices, so a walk that
        reaches len(self) steps has met a cycle: a broken operator, which
        is a theorem failure, not a resource limit."""
        lengths = []
        for table in (self.e_table, self.f_table):
            k, y = 0, table[x].get(i)
            while y is not None:
                k += 1
                if k == len(self.vertices):
                    raise RuntimeError(f"the {i}-string at {x!r} has a cycle")
                y = table[y].get(i)
            lengths.append(k)
        return tuple(lengths)

    def components(self):
        """The weakly connected components as tuples of vertices, each in
        the carrier's order, in the order of their first vertices; found
        once per carrier."""
        if self._components is not None:
            return self._components
        out, into = self.f_table, self._into()
        where, groups = {}, []  # vertex -> the index of its component
        for v in self.vertices:
            if v not in where:  # v is the first vertex of a new component
                k = where[v] = len(groups)
                groups.append([])
                frontier = [v]
                for x in frontier:  # the frontier grows while it is read
                    for y in chain(out[x].values(), into[x].values()):
                        if y not in where:
                            where[y] = k
                            frontier.append(y)
            groups[where[v]].append(v)
        self._components = tuple(map(tuple, groups))
        return self._components

    def to_json(self):
        # one list per distinct weight, shared by the vertices that have it
        label, weights = _labeler(), LazyMap(list)
        index = {x: k for k, x in enumerate(self.vertices)}
        return {
            "n": self.n,
            "queer": self.queer,
            "vertices": [label(x) for x in self.vertices],
            "weights": [weights[self.wt(x)] for x in self.vertices],
            "edges": [
                [index[x], str(i), index[y]] for x, i, y in self.edges()
            ],
        }

    def to_dot(self):
        """One DOT digraph per component, concatenated deterministically:
        its edges are the rows of the f-table, which components() checked
        through edges()."""
        comps, out = self.components(), self.f_table
        label, wt_text = _labeler(), LazyMap(lambda wt: ",".join(map(str, wt)))
        chunks = []
        for k, comp in enumerate(comps):
            index = {x: f"v{j}" for j, x in enumerate(comp)}
            lines = [f'digraph component{k} {{']
            lines += [f'  {v} [label="{label(x)}" weight="{wt_text[self.wt(x)]}"];'
                      for x, v in index.items()]
            lines += [f'  {v} -> {index[y]} [label="{i}"];'
                      for x, v in index.items() for i, y in out[x].items()]
            lines.append("}")
            chunks.append("\n".join(lines))
        return "\n".join(chunks) + "\n"


def _factor_text(factor):
    return "".join(map(str, factor)) or "-"


def pretty_element(x, factor_text=_factor_text):
    if isinstance(x, ShiftedTableau):
        return "[" + " / ".join(
            " ".join(entry_str(v) for v in row) for row in x.rows
        ) + "]"
    if isinstance(x, Factorization):
        return "/".join(map(factor_text, x))
    if isinstance(x, tuple):
        return "".join(map(str, x))
    return str(x)


def _labeler():
    """pretty_element for one output: each distinct factor formatted once."""
    return partial(pretty_element,
                   factor_text=LazyMap(_factor_text).__getitem__)


# ---------------------------------------------------------------------------
# Concrete carriers

def word_crystal(n, m):
    """The crystal of all m-letter words over 1..n."""
    return Crystal(
        product_words(n, m), n, lambda w: word_weight(w, n), word_f, word_e,
        word_fqbar, word_eqbar, name=f"W_{n}({m})")


def product_words(n, m):
    return [tuple(w) for w in product(range(1, n + 1), repeat=m)]


def _fac_crystal(words, n, relation, name):
    """The crystal on the n-fold increasing factorizations of the words, with
    the relation's operators: "O" and "Sp" add their queer operators, so the
    carrier is a q_n-crystal, and "K" adds none."""
    fq, eq = _queer_pair(relation)
    queer = (_lift(fq), _lift(eq)) if fq else ()
    verts = [fac for w in words for fac in split_word(w, n)]
    return Crystal(verts, n, Factorization.weight, _lift(fac_f),
                   _lift(fac_e), *queer, name=name)


def factorization_crystal_name(pi, flavor, n):
    """The name of factorization_crystal(pi, flavor, n), as R^O_3(pi)."""
    return f"{get_flavor(flavor).carrier}_{n}({pi})"


def factorization_crystal(pi, flavor, n):
    """The crystal of n-fold increasing factorizations of the flavor's words
    for pi: a gl_n-crystal for reduced words, a q_n-crystal otherwise."""
    return _fac_crystal(enumerate_words(pi, flavor), n,
                        get_flavor(flavor).relation,
                        factorization_crystal_name(pi, flavor, n))


def _descent_groups(pi, flavor):
    """The forced cuts of pi's words, which decide where a word splits into
    factors, each with the number of words that have them."""
    return Counter(map(forced_cuts, enumerate_words(pi, flavor))).items()


def factorization_crystal_size(pi, flavor, n):
    """len(factorization_crystal(pi, flavor, n)), counted without building
    it: a word of length l with k = n + 1 - len(forced cuts) free cuts has
    C(l + k, k) splits into n factors when k >= 0, and none otherwise."""
    total = 0
    for forced, count in _descent_groups(pi, flavor):
        k = n + 1 - len(forced)
        if k >= 0:
            total += count * comb(forced[-1] + k, k)
    return total


def factorization_weights(pi, flavor, n):
    """character(factorization_crystal(pi, flavor, n)) without the carrier:
    the fundamental quasisymmetric expansion of the class's Stanley
    function in n variables, the gaps of each descent group's split cuts
    counted once per word of the group."""
    weights = Counter()
    for forced, count in _descent_groups(pi, flavor):
        for c in split_cuts(forced, n):
            weights[tuple(b - a for a, b in zip(c, c[1:]))] += count
    return weights


def _reflect(a, b):
    """S_i on factors (i, i+1), the only factors e_i and f_i change: the
    pair moved to the mirror place of its i-string, which has at most
    len(a) + len(b) + 1 places, as each step moves one letter across."""
    string = [(a, b)]
    for op in (fac_e, fac_f):
        string.reverse()  # e_i walks up from (a, b), then f_i down from it
        while (y := op(*string[-1])) is not None:
            string.append(y)
            if len(string) > len(a) + len(b) + 1:
                raise RuntimeError(f"the string of the factors {a}, {b} has a cycle")
    return string[-1 - string.index((a, b))]


def highest_weight_factorizations(pi, flavor, n):
    """The highest weights of factorization_crystal(pi, flavor, n), found
    without the carrier: the splits that every e_i kills and, for a queer
    flavor, every e_{i'} = S_{w_i}^{-1} e_{1bar} S_{w_i} with 1 <= i < n,
    where w_i = s_2 ... s_i s_1 ... s_{i-1} and S_w is the product of the
    reflections (Grantcharov-Jung-Kang-Kashiwara-Kim); S_{w_i} is a
    bijection, so e_{i'} kills x exactly when e_{1bar} kills S_{w_i}(x).

    A split is cut one factor at a time, and a prefix is dropped once e_i
    raises its last pair (a, b), as e_i reads only factors i and i+1.  When
    e_i kills (a, b), each letter of b pairs with one of a, so len(b) <=
    len(a); when it raises (a, b), it raises b with a larger letter too."""
    eq = _queer_pair(get_flavor(flavor).relation)[1]

    def killed(x, i):
        x = list(x)
        for j in (*range(i - 1, 0, -1), *range(i, 1, -1)):
            x[j - 1:j + 1] = _reflect(x[j - 1], x[j])  # last factor first
        return eq(x[0], x[1]) is None

    def cuts(w, forced, start, fac):
        """The splits of w that go on from the factors fac at start."""
        if len(fac) == n:
            if start == len(w):
                yield Factorization._trusted(fac)
            return
        longest = len(fac[-1]) if fac else len(w)
        later = n - 1 - len(fac)  # the factors after the next one, b
        stop = next((k for k in forced if k > start), start)  # b increases
        for end in range(start, min(stop, start + longest) + 1):
            b = w[start:end]
            if len(w) - end > len(b) * later:
                continue  # no later factor is longer than b
            if fac and fac_e(fac[-1], b) is not None:
                return
            yield from cuts(w, forced, end, fac + (b,))

    for w in enumerate_words(pi, flavor):
        for x in cuts(w, forced_cuts(w), 0, ()):
            if eq is None or all(killed(x, i) for i in range(1, n)):
                yield x


def _pfaffian(a):
    """The Pfaffian of a skew-symmetric integer matrix of even order (a list
    of rows, reduced in place), by fraction-free elimination: once a pair
    of indices is eliminated, entry (i, j) is the Pfaffian on the indices
    eliminated so far and i, j, so each division is exact."""
    sign, last = 1, 1
    for k in range(0, len(a), 2):
        p = next((j for j in range(k + 1, len(a)) if a[k][j]), None)
        if p is None:
            return 0
        if p != k + 1:  # swapping two indices negates the Pfaffian
            a[k + 1], a[p] = a[p], a[k + 1]
            for row in a:
                row[k + 1], row[p] = row[p], row[k + 1]
            sign = -sign
        x, y, pivot = a[k], a[k + 1], a[k][k + 1]
        for i in range(k + 2, len(a)):
            for j in range(k + 2, len(a)):
                a[i][j] = (pivot * a[i][j] - x[i] * y[j] + x[j] * y[i]) // last
        last = pivot
    return sign * last


def shifted_tableau_crystal_size(n, shape):
    """len(shifted_tableau_crystal(n, shape)), counted without building it:
    P_shape(1^n), the number of semistandard shifted tableaux.

    Schur's Pfaffian gives Q_shape = Pf[Q_(a, b)] over the pairs of parts
    (a zero part appended to an odd length), where Q_(a, b) is q_a q_b +
    2 sum_k (-1)^k q_(a+k) q_(b-k) over k = 1..b, and q_k(1^n), the
    coefficient of t^k in ((1 + t) / (1 - t))^n, is the sum of
    2^j C(n, j) C(k - 1, j - 1) over j >= 1.  Then P_shape is
    2^-len(shape) Q_shape.
    """
    parts = tuple(shape) + (0,) * (len(shape) % 2)
    top = sum(parts[:2])
    q = [1] + [sum(comb(n, j) * comb(k - 1, j - 1) << j
                   for j in range(1, min(n, k) + 1)) for k in range(1, top + 1)]

    def pair(a, b):
        return q[a] * q[b] + 2 * sum((-1) ** k * q[a + k] * q[b - k]
                                     for k in range(1, b + 1))

    a = [[pair(x, y) if i < j else -pair(y, x) if i > j else 0
          for j, y in enumerate(parts)] for i, x in enumerate(parts)]
    return _pfaffian(a) >> len(shape)


def _shtab_crystal(verts, n, name):
    """The q_n-crystal on the given semistandard shifted tableaux."""
    return Crystal(verts, n, lambda t: tab_weight(t, n), shtab_f, shtab_e,
                   shtab_fqbar, shtab_eqbar, name=name)


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
    factor_of = {a: j for j, factor in enumerate(fac, 1) for a in factor}
    m = sum(map(len, fac))
    if sorted(factor_of) != list(range(1, m + 1)):
        raise ValueError("inv is defined on factorized permutations of 1..m")
    return tuple(factor_of[i] for i in range(1, m + 1))


def dbl_map(fac):
    return Factorization(tuple(tuple(2 * a for a in f) for f in fac))


def sigma_set_pattern(m):
    """Sigma(m), the involutions whose word classes partition the
    permutations of 1..m, from the nested-cycle pattern
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


# ---------------------------------------------------------------------------
# Axioms, morphisms, isomorphism

def axioms_report(crys):
    """Violations of the crystal axioms; empty means a clean pass."""
    bad = []
    f, e = crys.f_table, crys.e_table
    gl = [i for i in crys.indices if i != QBAR]
    delta = {}  # f_i moves one unit of weight from coordinate k to k+1
    for i in crys.indices:
        k = {QBAR: 1}.get(i, i)
        delta[i] = tuple((j == k) - (j == k - 1) for j in range(crys.n))
    for x in crys.vertices:
        wtx, fx, ex = crys.wt(x), f[x], e[x]
        for i in crys.indices:
            y = fx.get(i)
            if y is not None:
                if e[y].get(i) != x:
                    bad.append(f"pairing: e_{i}(f_{i}(x)) != x at {pretty_element(x)}")
                if tuple(a + d for a, d in zip(wtx, delta[i])) != crys.wt(y):
                    bad.append(f"weight shift across f_{i} at {pretty_element(x)}")
            z = ex.get(i)
            if z is not None and f[z].get(i) != x:
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
            c = e[x].get(QBAR)
            if c is not None:
                for i in far:
                    if crys.string_lengths(x, i) != \
                            crys.string_lengths(c, i):
                        bad.append(
                            f"queer string preservation at {pretty_element(x)}, i={i}")
            for i in far:
                for q in (e, f):
                    for g in (e, f):
                        gx, qx = g[x].get(i), q[x].get(QBAR)
                        qgx = None if gx is None else q[gx].get(QBAR)
                        gqx = None if qx is None else g[qx].get(i)
                        if qgx != gqx:
                            bad.append(
                                f"queer commutation at {pretty_element(x)}, i={i}")
    return bad


def is_quasi_isomorphism(phi, dom, cod):
    """Morphism that restricts to an isomorphism on every full subcrystal.

    phi is a strict morphism dom -> cod when the index sets agree and, at
    every vertex x, phi(x) is in cod with the weight of x, each f_i and e_i
    is defined at phi(x) exactly when it is at x and commutes with phi, and
    the i-strings through x and phi(x) have the same lengths."""
    phi = LazyMap(phi).__getitem__  # phi once per vertex
    if tuple(dom.indices) != tuple(cod.indices):
        return False
    ops = ((dom.f_table, cod.f_table), (dom.e_table, cod.e_table))
    for x in dom.vertices:
        y = phi(x)
        if y not in cod.vertex_set or dom.wt(x) != cod.wt(y):
            return False
        for dom_op, cod_op in ops:
            if {i: phi(v) for i, v in dom_op[x].items()} != cod_op[y]:
                return False
        for i in dom.indices:
            if dom.string_lengths(x, i) != cod.string_lengths(y, i):
                return False
    cod_comps = set(map(frozenset, cod.components()))
    for comp in dom.components():
        # phi maps comp one-to-one onto a whole component of cod
        images = frozenset(map(phi, comp))
        if len(images) != len(comp) or images not in cod_comps:
            return False
    return True


def _certificate_from(crys, root):
    out, into = crys.f_table, crys._into()
    order = {root: 0}
    queue = [root]
    edges = []
    for xid, x in enumerate(queue):  # the queue grows while it is read
        for direction, nbs in (("f", out[x]), ("e", into[x])):
            for i in sorted(nbs, key=str):
                y = nbs[i]
                if y not in order:
                    order[y] = len(order)
                    queue.append(y)
                edges.append((xid, direction, str(i), order[y]))
    return (tuple(edges), tuple(crys.wt(v) for v in queue))


def _component_certificate(crys, comp):
    out, into = crys.f_table, crys._into()

    def rootkey(v):  # the labels in and out of v, each in str order
        return (tuple(sorted(map(str, into[v]))), tuple(map(str, out[v])),
                crys.wt(v))

    best = min(rootkey(v) for v in comp)
    roots = [v for v in comp if rootkey(v) == best]
    return min(_certificate_from(crys, r) for r in roots)
