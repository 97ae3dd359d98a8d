"""Permutations of the integers and their word classes.

Words are plain tuples of integers.  Three word classes appear throughout:
reduced words for arbitrary finitely supported permutations of Z, involution
words for self-inverse permutations, and fpf-involution words for
fixed-point-free involutions.  This module also houses the Coxeter-Knuth
moves whose closures characterize insertion-tableau fibers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial


class Permutation:
    """A bijection of Z fixing all but finitely many integers.

    Stored as the sorted tuple of pairs (i, pi(i)) over the support, so
    equality and hashing are structural.  There is no ambient window: s_i
    makes sense for every integer i.
    """

    __slots__ = ("pairs", "_map")

    def __init__(self, mapping=()):
        m = mapping if isinstance(mapping, dict) else dict(mapping)
        m = {i: v for i, v in m.items() if i != v}
        if sorted(m) != sorted(m.values()):
            raise ValueError("not a finitely supported bijection of Z")
        self.pairs = tuple(sorted(m.items()))
        self._map = m

    @classmethod
    def identity(cls):
        return cls()

    @classmethod
    def s(cls, i):
        """The simple transposition s_i = (i, i+1)."""
        return cls({i: i + 1, i + 1: i})

    @classmethod
    def from_cycles(cls, cycles):
        m = {}
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a in m:
                    raise ValueError("cycles are not disjoint")
                m[a] = b
        return cls(m)

    def __call__(self, i):
        return self._map.get(i, i)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        if not self.pairs:
            return "Permutation()"
        return f"Permutation({dict(self.pairs)!r})"

    def __str__(self):
        cycs = self.cycles()
        if not cycs:
            return "1"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)

    def support(self):
        return tuple(i for i, _ in self.pairs)

    def is_identity(self):
        return not self.pairs

    def __mul__(self, other):
        """Composition: (self * other)(x) = self(other(x))."""
        keys = set(self.support()) | set(other.support())
        return Permutation({i: self(other(i)) for i in keys})

    def inverse(self):
        return Permutation({b: a for a, b in self.pairs})

    def is_involution(self):
        return all(self(b) == a for a, b in self.pairs)

    def cycles(self):
        """Disjoint cycles sorted by smallest element, each starting at its min."""
        seen = set()
        out = []
        for a, _ in self.pairs:
            if a in seen:
                continue
            cyc = [a]
            seen.add(a)
            b = self(a)
            while b != a:
                cyc.append(b)
                seen.add(b)
                b = self(b)
            out.append(tuple(cyc))
        return tuple(sorted(out))

    def two_cycles(self):
        """The 2-cycles (a, b) with a < b; requires an involution."""
        if not self.is_involution():
            raise ValueError("two_cycles requires an involution")
        return tuple((a, b) for a, b in self.pairs if a < b)

    def kappa(self):
        return len(self.two_cycles())

    def length(self):
        """Coxeter length = number of inversions."""
        if not self.pairs:
            return 0
        lo, hi = self.pairs[0][0], self.pairs[-1][0]
        vals = [self(i) for i in range(lo, hi + 1)]
        n = len(vals)
        return sum(1 for a in range(n) for b in range(a + 1, n) if vals[a] > vals[b])

    def is_descent(self, i):
        return self(i) > self(i + 1)

    def descents(self):
        """All i with pi(i) > pi(i+1); finite since the support is."""
        if not self.pairs:
            return ()
        lo, hi = self.pairs[0][0], self.pairs[-1][0]
        return tuple(i for i in range(lo, hi) if self.is_descent(i))

    def times_s(self, i):
        """Right multiplication by s_i (swaps the images of i and i+1)."""
        m = dict(self.pairs)
        a, b = self(i), self(i + 1)
        m[i], m[i + 1] = b, a
        return Permutation(m)

    def conjugate_s(self, i):
        """s_i * self * s_i."""
        s = Permutation.s(i)
        keys = set(self.support()) | {i, i + 1}
        return Permutation({j: s(self(s(j))) for j in keys})

    def commutes_with_s(self, i):
        pi, pj = self(i), self(i + 1)
        return (pi == i and pj == i + 1) or (pi == i + 1 and pj == i)

    def rtimes_step(self, i):
        """The involution product: s_i pi s_i unless they commute, then pi s_i."""
        if self.commutes_with_s(i):
            return self.times_s(i)
        return self.conjugate_s(i)

    def star(self):
        """The automorphism i -> 1 - pi(1 - i) sending s_i to s_{-i}."""
        return Permutation({1 - b: 1 - a for a, b in self.pairs})

    def shift(self, m):
        """Conjugation by translation: i -> pi(i - m) + m."""
        return Permutation({a + m: b + m for a, b in self.pairs})

    def to_json(self):
        return [list(p) for p in self.pairs]


class FpfInvolution:
    """A fixed-point-free involution of Z equal to the base matching
    i -> i - (-1)**i outside a finite set.

    Stored as the 2-cycles where the map differs from the base matching.
    The support of these overrides must be a union of base pairs
    {2k-1, 2k}, otherwise the complement could not stay base-matched;
    this is checked eagerly on construction.
    """

    __slots__ = ("cycles", "_map")

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
        support = set(seen)
        for x in support:
            partner = self.base(x)
            if partner not in support:
                raise ValueError(
                    f"support not closed under the base matching near {x}"
                )
        # overrides that agree with the base matching are not overrides
        kept = sorted(
            (a, b) for a, b in seen.items()
            if a < b and seen[a] != self.base(a)
        )
        self.cycles = tuple(kept)
        self._map = {x: y for c in kept for x, y in (c, c[::-1])}

    @classmethod
    def identity(cls):
        """The base matching 1_fpf itself."""
        return cls()

    def __call__(self, i):
        got = self._map.get(i)
        return self.base(i) if got is None else got

    def __eq__(self, other):
        return isinstance(other, FpfInvolution) and self.cycles == other.cycles

    def __hash__(self):
        return hash(("fpf", self.cycles))

    def __repr__(self):
        return f"FpfInvolution({list(self.cycles)!r})"

    def __str__(self):
        if not self.cycles:
            return "1_fpf"
        return "".join(f"({a},{b})" for a, b in self.cycles)

    def support(self):
        return tuple(sorted(x for c in self.cycles for x in c))

    def is_identity(self):
        return not self.cycles

    def is_descent(self, i):
        return self(i) > self(i + 1)

    def conjugate_s(self, i):
        """s_i * self * s_i, again a fixed-point-free involution."""
        s = Permutation.s(i)
        window = set(self.support()) | {i - 1, i, i + 1, i + 2}
        window |= {self.base(x) for x in window}
        pairs = set()
        for x in window:
            y = s(self(s(x)))
            pairs.add((min(x, y), max(x, y)))
        return FpfInvolution(p for p in pairs if self.base(p[0]) != p[1])

    def conjugate_by(self, sigma):
        """sigma^{-1} * 1_fpf * sigma for a finitely supported permutation."""
        inv = sigma.inverse()
        window = set(sigma.support())
        window |= {self.base(x) for x in window}
        window |= {x + d for x in list(window) for d in (-1, 1)}
        pairs = set()
        for x in window:
            y = inv(self.base(sigma(x)))
            if y == x:
                raise ValueError("conjugate is not fixed-point-free")
            pairs.add((min(x, y), max(x, y)))
        return FpfInvolution(p for p in pairs if self.base(p[0]) != p[1])

    def descents(self):
        """The descents next to the support; every other descent is a base
        pair {i, i+1}, which conjugation by s_i fixes."""
        if not self.cycles:
            return ()
        lo = self.cycles[0][0] - 2
        hi = max(b for _, b in self.cycles) + 1
        return tuple(i for i in range(lo, hi) if self.is_descent(i))

    def window_involution(self):
        """Restriction to a base-closed window as a Permutation, identity outside."""
        if not self.cycles:
            return Permutation(), 0
        m = max(abs(x) for c in self.cycles for x in c)
        m += m % 2
        pairs = {}
        for i in range(1 - m, m + 1):
            j = self(i)
            if 1 - m <= j <= m:
                pairs[i] = j
        return Permutation(pairs), m

    def star(self):
        return FpfInvolution(
            (min(1 - a, 1 - b), max(1 - a, 1 - b)) for a, b in self.cycles
        )

    def shift(self, m):
        if m % 2:
            raise ValueError("fpf involutions only shift by even integers")
        return FpfInvolution((a + m, b + m) for a, b in self.cycles)

    def to_json(self):
        return {"flavor": "fpf", "cycles": [list(c) for c in self.cycles]}


def word_to_permutation(w):
    """The product s_{w_1} s_{w_2} ... s_{w_l}."""
    pi = Permutation.identity()
    for a in w:
        pi = pi.times_s(a)
    return pi


def _ascent_walk(flavor, w):
    """The target of w in the flavor's class, or None when some letter is a
    descent of the target built so far (exactly the invalid-word condition).
    For reduced words the target is the product s_{w_1} ... s_{w_l}."""
    flav = FLAVORS[flavor]
    pi = flav.identity
    for a in w:
        if pi.is_descent(a):
            return None
        pi = flav.step(pi, a)
    return pi


def is_reduced_word(w):
    return _ascent_walk("reduced", w) is not None


@lru_cache(maxsize=None)
def involution_target(w):
    """The involution built by the twisted chain, or None."""
    return _ascent_walk("involution", w)


def is_involution_word(w):
    return involution_target(tuple(w)) is not None


@lru_cache(maxsize=None)
def fpf_target(w):
    """The fpf involution built by conjugating the base matching, or None."""
    return _ascent_walk("fpf", w)


def is_fpf_involution_word(w):
    return fpf_target(tuple(w)) is not None


def word_target(w, flavor):
    """The target whose word class of the flavor contains w, or None."""
    return get_flavor(flavor).target(tuple(w))


_reduced_cache = {}
_involution_cache = {}
_fpf_cache = {}


def enumerate_words(pi, flavor):
    """All words of the flavor for the target pi, sorted.

    The ascent walk run backwards: a word ends in a descent i of pi that the
    flavor's step moves, and its earlier letters form a word of step(pi, i).
    """
    flav = get_flavor(flavor)
    kind = type(flav.identity)
    if not isinstance(pi, kind):
        raise ValueError(f"{flavor} words require a {kind.__name__}")
    got = flav.cache.get(pi)
    if got is None:
        if pi.is_identity():
            got = ((),)
        else:
            if flavor == "involution" and not pi.is_involution():
                raise ValueError("involution words require an involution")
            acc = []
            for i in pi.descents():
                sub = flav.step(pi, i)
                if sub != pi:
                    acc.extend(w + (i,) for w in enumerate_words(sub, flavor))
            got = tuple(sorted(acc))
        flav.cache[pi] = got
    return got


reduced_words = partial(enumerate_words, flavor="reduced")
involution_words = partial(enumerate_words, flavor="involution")
fpf_involution_words = partial(enumerate_words, flavor="fpf")


def atoms(pi, flavor):
    """The permutations whose reduced words partition the word class."""
    if not get_flavor(flavor).queer:
        raise ValueError("atoms are defined for involution and fpf flavors")
    return frozenset(word_to_permutation(w) for w in enumerate_words(pi, flavor))


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
    elif x == z and y == x + 1:
        window = (y, x, y)
    elif x == z and y == x - 1:
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


def equivalence_class(w, relation):
    """BFS closure of w under Coxeter-Knuth moves.

    relation "K" uses the ck_i alone; "O" adds the initial swap; "Sp" adds
    the symplectic initial move.
    """
    if relation not in ("K", "O", "Sp"):
        raise ValueError(f"unknown relation {relation!r}")
    w = tuple(w)
    seen = {w}
    frontier = [w]
    while frontier:
        v = frontier.pop()
        images = [ck(v, i) for i in range(1, len(v) - 1)]
        if relation == "O":
            images.append(ck0_o(v))
        elif relation == "Sp":
            images.append(ck0_sp(v))
        for u in images:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


def ell_o(pi):
    """Common length of involution words: (length + #2-cycles) / 2."""
    if not pi.is_involution():
        raise ValueError("ell_o requires an involution")
    return (pi.length() + pi.kappa()) // 2


def ell_sp(pi):
    """Common length of fpf-involution words, via a base-closed window."""
    sigma, m = pi.window_involution()
    return (sigma.length() - m) // 2


@dataclass(frozen=True)
class Flavor:
    """One word class and the theory the paper builds on it.

    perfbench/tracer.py wraps the inserters, the crystal operators and
    word_to_permutation by rebinding module attributes and module-level dict
    values, so the record names the inserter instead of holding it:
    `insertion` is a key of insertion._INSERTERS.
    """

    name: str          # "reduced", "involution" or "fpf"
    insertion: str     # "eg", "oeg" or "speg"
    relation: str      # "K", "O" or "Sp"; also picks the queer operators
    ck0: object        # initial Coxeter-Knuth move, None for "K"
    ell: object        # common length of a target's words
    target: object     # word -> its target, or None outside the class
    identity: object   # target of the empty word
    step: object       # (target, i) -> target of the word extended by i
    cache: dict = field(compare=False, repr=False)  # target -> its words
    window: tuple      # default letter window of the verify corpora
    sort_key: object   # order of the verify corpora
    carrier: str       # name prefix of the factorization crystals
    basis: str         # expansion basis of their characters

    @property
    def queer(self):
        """Whether the factorization crystals are q_n-crystals."""
        return self.ck0 is not None


def _length_order(pi):
    return (pi.length(), pi.pairs)


FLAVORS = {flav.name: flav for flav in (
    Flavor(name="reduced", insertion="eg", relation="K", ck0=None,
           ell=Permutation.length, target=partial(_ascent_walk, "reduced"),
           identity=Permutation(), step=Permutation.times_s,
           cache=_reduced_cache, window=(1, 4), sort_key=_length_order,
           carrier="R", basis="schur"),
    Flavor(name="involution", insertion="oeg", relation="O", ck0=ck0_o,
           ell=ell_o, target=involution_target, identity=Permutation(),
           step=Permutation.rtimes_step, cache=_involution_cache,
           window=(1, 5), sort_key=_length_order, carrier="R^O",
           basis="schurP"),
    Flavor(name="fpf", insertion="speg", relation="Sp", ck0=ck0_sp,
           ell=ell_sp, target=fpf_target, identity=FpfInvolution(),
           step=FpfInvolution.conjugate_s, cache=_fpf_cache, window=(1, 6),
           sort_key=lambda pi: pi.cycles, carrier="R^Sp", basis="schurP"),
)}


def get_flavor(name):
    """The Flavor record of a word class name."""
    try:
        return FLAVORS[name]
    except KeyError:
        raise ValueError(f"unknown flavor {name!r}") from None


def insertion_flavor(key):
    """The Flavor record whose insertion algorithm is key."""
    for flav in FLAVORS.values():
        if flav.insertion == key:
            return flav
    raise ValueError(f"unknown insertion flavor {key!r}")


def length_invariants(pi):
    """(length, involution length, 2-cycle count).

    For an fpf involution the first and last entries are those of its
    base-closed window restriction, which is what the word-length formula
    consumes; the middle entry is the common fpf-word length."""
    if isinstance(pi, FpfInvolution):
        sigma, _ = pi.window_involution()
        return (sigma.length(), ell_sp(pi), sigma.kappa())
    return (pi.length(), ell_o(pi), pi.kappa())


def star_word(w):
    return tuple(-a for a in w)


def shift_word(m, w):
    return tuple(a + m for a in w)


def star(x):
    if isinstance(x, (Permutation, FpfInvolution)):
        return x.star()
    return star_word(x)


def shift_t(m, x):
    if isinstance(x, (Permutation, FpfInvolution)):
        return x.shift(m)
    return shift_word(m, x)


def inv_grassmannian_shape(pi):
    """The strict partition shape when pi = (m+1, m+r+mu_r)...(m+r, m+r+mu_1),
    else None.  The identity has shape ()."""
    if not pi.is_involution():
        raise ValueError("inv-Grassmannian test requires an involution")
    cycs = pi.two_cycles()
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

