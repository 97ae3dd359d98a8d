"""Permutations of the integers and their word classes.

Words are plain tuples of integers.  Three word classes appear throughout:
reduced words for arbitrary finitely supported permutations of Z, involution
words for self-inverse permutations, and fpf-involution words for
fixed-point-free involutions.  This module also houses the Coxeter-Knuth
moves whose closures characterize insertion-tableau fibers.
"""

from functools import lru_cache, partial

DEFAULT_VERTEX_CAP = 200_000


class VertexCapExceeded(RuntimeError):
    """Raised when a carrier or a word class exceeds its cap."""


class LazyMap(dict):
    """A dict whose missing key k is filled with fn(k) at its first lookup:
    the memo of a table that its readers index as a dict, such as the walk
    tables or a crystal's edges.  A function memoized as a whole uses
    functools.lru_cache instead."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Target:
    """A bijection of Z that equals the class's base map outside a finite
    set: a target of a word class.

    Stored as the sorted tuple of pairs (i, pi(i)) where pi differs from
    `base`, so equality and hashing are structural.  A subclass states its
    base map, its identity text ONE and its constructor check, which drops
    the pairs that agree with the base map; everything read off the pairs
    is here.
    """

    __slots__ = ("pairs", "_map")

    def __call__(self, i):
        got = self._map.get(i)
        return self.base(i) if got is None else got

    def __eq__(self, other):
        return type(other) is type(self) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __str__(self):
        return "".join("(" + ",".join(map(str, c)) + ")"
                       for c in self.cycles()) or self.ONE

    def support(self):
        return tuple(i for i, _ in self.pairs)

    def is_identity(self):
        return not self.pairs

    def is_involution(self):
        return all(self(b) == a for a, b in self.pairs)

    def cycles(self):
        """The disjoint cycles of the pairs, each starting at its smallest
        element, in the order of those elements."""
        out, seen = [], set()
        for a, _ in self.pairs:
            if a not in seen:
                cyc = [a]
                while (b := self(cyc[-1])) != a:
                    cyc.append(b)
                seen.update(cyc)
                out.append(tuple(cyc))
        return tuple(out)

    def is_descent(self, i):
        return self(i) > self(i + 1)

    def descents(self):
        """The descents i with min(support) - 2 <= i <= max(support).

        A Permutation has no other descent: it is the identity outside its
        support, moves min(support) up and moves max(support) down.  Every
        other descent of an fpf involution is a base pair {i, i+1}, which
        conjugation by s_i fixes."""
        if not self.pairs:
            return ()
        lo, hi = self.pairs[0][0], self.pairs[-1][0]
        return tuple(i for i in range(lo - 2, hi + 1) if self.is_descent(i))

    def conjugate_s(self, i):
        """s_i * self * s_i, evaluated pointwise where it can differ from
        the base map: on the support, at i, i+1 and at their images.  The
        constructor keeps the points where it does differ."""
        def s(j):
            return i + 1 if j == i else i if j == i + 1 else j

        window = set(self._map) | {i, i + 1, self(i), self(i + 1)}
        return type(self)((j, s(self(s(j)))) for j in window)


class Permutation(_Target):
    """A bijection of Z fixing all but finitely many integers: the base
    map is the identity.  There is no ambient window: s_i makes sense for
    every integer i.
    """

    __slots__ = ()
    ONE = "1"

    @staticmethod
    def base(i):
        return i

    def __init__(self, mapping=()):
        m = {i: v for i, v in dict(mapping).items() if i != v}
        if sorted(m) != sorted(m.values()):
            raise ValueError("not a finitely supported bijection of Z")
        self.pairs = tuple(sorted(m.items()))
        self._map = m

    @classmethod
    def from_cycles(cls, cycles):
        m = {}
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a in m:
                    raise ValueError("cycles are not disjoint")
                m[a] = b
        return cls(m)

    def __repr__(self):
        if not self.pairs:
            return "Permutation()"
        return f"Permutation({dict(self.pairs)!r})"

    def length(self):
        """Coxeter length = number of inversions."""
        if not self.pairs:
            return 0
        lo, hi = self.pairs[0][0], self.pairs[-1][0]
        vals = [self(i) for i in range(lo, hi + 1)]
        n = len(vals)
        return sum(1 for a in range(n) for b in range(a + 1, n) if vals[a] > vals[b])

    def times_s(self, i):
        """Right multiplication by s_i (swaps the images of i and i+1)."""
        m = dict(self.pairs)
        a, b = self(i), self(i + 1)
        m[i], m[i + 1] = b, a
        return Permutation(m)

    def rtimes_step(self, i):
        """The involution product: pi s_i when pi commutes with s_i (pi
        fixes or swaps i and i+1), else s_i pi s_i."""
        if {self(i), self(i + 1)} == {i, i + 1}:
            return self.times_s(i)
        return self.conjugate_s(i)


class FpfInvolution(_Target):
    """A fixed-point-free involution of Z equal to the base matching
    i -> i - (-1)**i outside a finite set.

    The pairs list both (a, b) and (b, a) of each 2-cycle where the map
    differs from the base matching.  Their support must be a union of base
    pairs {2k-1, 2k}, otherwise the complement could not stay
    base-matched; this is checked eagerly on construction.
    """

    __slots__ = ()
    ONE = "1_fpf"

    @staticmethod
    def base(i):
        return i - (-1) ** i

    def __init__(self, cycles=()):
        seen = {}
        for a, b in cycles:
            if a == b:
                raise ValueError("fixed point in fpf involution")
            for x, y in ((a, b), (b, a)):
                if x in seen and seen[x] != y:
                    raise ValueError("cycles are not disjoint")
                seen[x] = y
        for x in set(seen):
            if self.base(x) not in seen:
                raise ValueError(
                    f"support not closed under the base matching near {x}")
        # overrides that agree with the base matching are not overrides
        m = {x: y for x, y in seen.items() if y != self.base(x)}
        self.pairs = tuple(sorted(m.items()))
        self._map = m

    @classmethod
    def from_cycles(cls, cycles):
        """The fpf involution with these 2-cycles, named as for Permutation."""
        for c in cycles:
            if len(c) != 2:
                raise ValueError(f"cycle {c} of an fpf involution is not a pair")
        return cls(cycles)

    def __repr__(self):
        return f"FpfInvolution({list(self.cycles())!r})"


def word_to_permutation(w):
    """The product s_{w_1} s_{w_2} ... s_{w_l}."""
    pi = Permutation()
    for a in w:
        pi = pi.times_s(a)
    return pi


def _move_node(flav, pi):
    """pi's node in the flavor's move table: (the stored object equal to pi,
    {letter: node of the next target, or None when the letter is a
    descent}).  A new target is interned on entry, as its own key, so the
    table holds one object per target of the flavor."""
    node = flav.moves.get(pi)
    if node is None:
        node = flav.moves[pi] = (pi, {})
    return node


def _step(flav, node, a):
    """The node after letter a from node, or None when a is a descent of
    node's target (exactly the invalid-word condition): the one move rule.
    Each (target, letter) move is stepped once per process and kept in
    node's moves, so every node holds the interned target."""
    pi, moves = node
    nxt = moves.get(a, False)
    if nxt is False:
        nxt = moves[a] = None if pi.is_descent(a) else _move_node(
            flav, flav.step(pi, a))
    return nxt


def _ascent_walk(flavor, w, start=None):
    """The target of w in the flavor's class (of start followed by w when
    start is given), or None at the first letter that is a descent of the
    target built so far.  For reduced words the target is the product
    s_{w_1} ... s_{w_l}."""
    flav = FLAVORS[flavor]
    node = _move_node(flav, flav.identity if start is None else start)
    for a in w:
        node = _step(flav, node, a)
        if node is None:
            return None
    return node[0]


def _walk(flavor, w):
    """walk_table(w, flavor), read from the flavor's move table in one loop.

    Walk 0 is the prefix walk of w from the identity, and it keeps the node
    after each prefix; walk i >= 1 steps w[i:] from the node of the first
    i - 1 letters.  A walk stops at the first letter that is a descent of
    the target built so far; a deletion whose start lies past that point of
    the prefix walk is outside the class as well.
    """
    flav = FLAVORS[flavor]
    prefix = [_move_node(flav, flav.identity)]
    table = []
    for i in range(len(w) + 1):
        if i > len(prefix):
            table += [None] * (len(w) + 1 - i)
            break
        node = prefix[i - 1] if i else prefix[0]
        for a in w[i:]:
            node = _step(flav, node, a)
            if node is None:
                break
            if not i:
                prefix.append(node)
        table.append(None if node is None else node[0])
    return tuple(table)


def walk_table(w, flavor):
    """(target(w), target(w minus letter 1), ..., target(w minus letter l))
    in the flavor's class, None outside it, so index i is the 1-based mark i.

    Computed once per word: deletion i walks only w[i:], from the prefix
    state i-1 of w's own walk.  The flavor's move table holds interned
    targets, so equal targets in the flavor's tables are one object.
    """
    return _walk_tables[get_flavor(flavor).name][tuple(w)]


@lru_cache(maxsize=None)
def involution_target(w):
    """The involution built by the twisted chain, or None."""
    return _ascent_walk("involution", w)


@lru_cache(maxsize=None)
def fpf_target(w):
    """The fpf involution built by conjugating the base matching, or None."""
    return _ascent_walk("fpf", w)


def word_target(w, flavor):
    """The target whose word class of the flavor contains w, or None: the
    one membership test of the three word classes."""
    return get_flavor(flavor).target(tuple(w))


_reduced_cache = {}
_involution_cache = {}
_fpf_cache = {}


def enumerate_words(pi, flavor):
    """All words of the flavor for the target pi, sorted.

    The ascent walk run backwards: a word ends in a descent i of pi that is
    an ascent of prev = step(pi, i), and the rest of it is a word of prev.
    """
    flav = get_flavor(flavor)
    need = flav.invalid(pi)
    if need:
        raise ValueError(f"{flavor} words require {need}")
    got = flav.cache.get(pi)
    if got is None:
        if pi.is_identity():
            got = ((),)
        else:
            acc = []
            for i in pi.descents():
                prev = flav.step(pi, i)
                if not prev.is_descent(i):
                    acc.extend(w + (i,) for w in enumerate_words(prev, flavor))
            got = tuple(sorted(acc))
        flav.cache[pi] = got
    return got


reduced_words = partial(enumerate_words, flavor="reduced")
involution_words = partial(enumerate_words, flavor="involution")
fpf_involution_words = partial(enumerate_words, flavor="fpf")


def descent_set(w):
    return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def ck(w, i):
    """Coxeter-Knuth move on the window at positions i, i+1, i+2 (1-based).

    Swaps acb <-> cab and bca <-> bac for a < b < c, and applies the braid
    move a(a+1)a <-> (a+1)a(a+1); anything else is fixed.  Out-of-range i
    returns w unchanged.
    """
    w = tuple(w)
    if not 1 <= i <= len(w) - 2:
        return w
    x, y, z = w[i - 1], w[i], w[i + 1]
    if len({x, y, z}) == 3:
        a, b, c = sorted((x, y, z))
        window = {(a, c, b): (c, a, b), (c, a, b): (a, c, b),
                  (b, c, a): (b, a, c), (b, a, c): (b, c, a)}.get((x, y, z))
    elif x == z and abs(y - x) == 1:
        window = (y, x, y)
    else:
        window = None
    if window is None:
        return w
    return w[:i - 1] + window + w[i + 2:]


def ck0_o(w):
    """Initial move for the orthogonal relation: swap the first two letters."""
    w = tuple(w)
    if len(w) <= 1:
        return w
    return (w[1], w[0]) + w[2:]


def ck0_sp(w):
    """Initial move for the symplectic relation.

    Replaces w_1 w_2 by w_1 (w_1 -+ 1) when w_2 = w_1 +- 1, swaps the first
    two letters when w_1 - w_2 is even, and otherwise does nothing.
    """
    w = tuple(w)
    if len(w) <= 1:
        return w
    a, b = w[0], w[1]
    if b == a + 1:
        return (a, a - 1) + w[2:]
    if b == a - 1:
        return (a, a + 1) + w[2:]
    if (a - b) % 2 == 0:
        return (b, a) + w[2:]
    return w


def ck_moves(w, ck0):
    """The (i, ck_i(w)) pairs of the word w, led by (0, ck0(w)) when the
    relation has an initial move ck0: the one list of a word's
    Coxeter-Knuth images."""
    moves = [] if ck0 is None else [(0, ck0(w))]
    moves += [(i, ck(w, i)) for i in range(1, len(w) - 1)]
    return moves


def equivalence_class(w, relation, cap=DEFAULT_VERTEX_CAP):
    """BFS closure of w under Coxeter-Knuth moves.

    The moves of `ck_moves` with the initial move ck0 of the flavor whose
    relation it is: "K" has none, "O" adds the initial swap, "Sp" the
    symplectic move.  A class of more than cap words raises
    VertexCapExceeded: outside the fpf class, the symplectic move lets
    letters drift without bound.
    """
    ck0 = _flavor_with("relation", relation, "relation").ck0
    w = tuple(w)
    seen = {w}
    frontier = [w]
    while frontier:
        if len(seen) > cap:
            raise VertexCapExceeded(
                f"the {relation}-class of {w} has more than {cap} words")
        for _, u in ck_moves(frontier.pop(), ck0):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


class Flavor:
    """One word class and the theory the paper builds on it.

    perfbench/tracer.py wraps the inserters, the crystal operators and
    word_to_permutation by rebinding module attributes and module-level dict
    values, so the record names the inserter instead of holding it:
    `insertion` is a key of insertion._INSERTERS.  There is one record per
    flavor, in FLAVORS, so records compare by identity.
    """

    __slots__ = ("name", "insertion", "relation", "ck0", "target", "identity",
                 "step", "cache", "window", "sort_key", "carrier", "basis",
                 "bump_increments", "moves")

    def __init__(self, *, name, insertion, relation, ck0, target, identity,
                 step, cache, window, sort_key, carrier, basis,
                 bump_increments):
        self.name = name            # "reduced", "involution" or "fpf"
        self.insertion = insertion  # "eg", "oeg" or "speg"
        self.relation = relation    # "K", "O" or "Sp"; also picks the queer operators
        self.ck0 = ck0              # initial Coxeter-Knuth move, None for "K"
        self.target = target        # word -> its target, or None outside the class
        self.identity = identity    # target of the empty word
        self.step = step            # (target, i) -> target of the word extended by i
        self.cache = cache          # target -> its words
        self.window = window        # default letter window of the verify corpora
        self.sort_key = sort_key    # order of the verify corpora
        self.carrier = carrier      # name prefix of the factorization crystals
        self.basis = basis          # expansion basis of their characters
        self.bump_increments = bump_increments  # a bump's increments; conjectured if queer
        # target -> its move-table node, filled by _move_node; a node's
        # letter -> next node map is filled by _step alone
        self.moves = {}

    @property
    def queer(self):
        """Whether the factorization crystals are q_n-crystals."""
        return self.ck0 is not None

    def ell(self, pi):
        """The common length of pi's words, read from the first of them."""
        return len(enumerate_words(pi, self.name)[0])

    def invalid(self, pi):
        """None when pi is a target of the flavor, else what pi should be.

        The one validity rule for targets: a target has the identity's type,
        and the targets of a queer flavor are involutions."""
        kind = type(self.identity)
        if not isinstance(pi, kind):
            return f"a {kind.__name__}"
        if self.queer and not pi.is_involution():
            return "an involution"
        return None


def _length_order(pi):
    return (pi.length(), pi.pairs)


FLAVORS = {flav.name: flav for flav in (
    Flavor(name="reduced", insertion="eg", relation="K", ck0=None,
           target=partial(_ascent_walk, "reduced"), identity=Permutation(),
           step=Permutation.times_s, cache=_reduced_cache, window=(1, 4),
           sort_key=_length_order, carrier="R", basis="schur",
           bump_increments=frozenset({0, 1})),
    Flavor(name="involution", insertion="oeg", relation="O", ck0=ck0_o,
           target=involution_target, identity=Permutation(),
           step=Permutation.rtimes_step, cache=_involution_cache,
           window=(1, 5), sort_key=_length_order, carrier="R^O",
           basis="schurP", bump_increments=frozenset({0, 1})),
    Flavor(name="fpf", insertion="speg", relation="Sp", ck0=ck0_sp,
           target=fpf_target, identity=FpfInvolution(),
           step=FpfInvolution.conjugate_s, cache=_fpf_cache, window=(1, 6),
           sort_key=FpfInvolution.cycles, carrier="R^Sp", basis="schurP",
           bump_increments=frozenset({0, 1, 2})),
)}

# flavor -> {word: walk_table(word, flavor)}, kept for the process: every
# push step of every bump reads the tables of the words it passes
_walk_tables = {name: LazyMap(partial(_walk, name)) for name in FLAVORS}


def get_flavor(name):
    """The Flavor record of a word class name."""
    try:
        return FLAVORS[name]
    except KeyError:
        raise ValueError(f"unknown flavor {name!r}") from None


def _flavor_with(field, value, noun):
    """The Flavor record whose field is value."""
    for flav in FLAVORS.values():
        if getattr(flav, field) == value:
            return flav
    raise ValueError(f"unknown {noun} {value!r}")


def insertion_flavor(key):
    """The Flavor record whose insertion algorithm is key."""
    return _flavor_with("insertion", key, "insertion flavor")
