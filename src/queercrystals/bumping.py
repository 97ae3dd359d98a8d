"""Marked words and the three families of Little bumping operators.

A pair (w, i) is marked for a target pi when deleting the i-th letter of w
leaves a word of pi's class.  Each push step increments one letter: the
marked one when the word is already in a stable state for the flavor, and
otherwise the unique companion index that is also marked.  Iterating from
a marked word reaches the flavor's word class; the resulting word is the
value of the bumping operator.
"""

from collections import namedtuple
from functools import reduce

from .insertion import Factorization
from .permwords import (
    FpfInvolution,
    _walk_tables,
    get_flavor,
    walk_table,
)

# reduced target sigma -> sigma^-1 * 1_fpf * sigma, filled by
# is_semi_reduced and kept for the process: a few hundred sigma recur over
# thousands of calls
_base_conjugates = {}


class MarkedWord(namedtuple("MarkedWord", "word mark flavor")):
    """One word of a push chain, built by `bump_chain`; mark is a 1-based
    index."""
    __slots__ = ()


def is_semi_reduced(w, pi):
    """Reduced words whose underlying permutation conjugates the base
    matching to the fpf involution pi; these pause the companion search in
    the fpf flavor, and no word is semi-reduced for any other target."""
    if not isinstance(pi, FpfInvolution):
        return False
    sigma = walk_table(w, "reduced")[0]
    if sigma is None:
        return False
    conj = _base_conjugates.get(sigma)
    if conj is None:
        # w is a word of sigma, so conjugating the base matching by its
        # letters in order gives sigma^-1 * 1_fpf * sigma
        conj = _base_conjugates[sigma] = reduce(
            FpfInvolution.conjugate_s, w, FpfInvolution())
    return conj == pi


def _push_in_place(table, w, pi):
    """Whether the push from a marked w, whose walk table in the bumped
    flavor is table, increments the marked letter itself."""
    return table[0] is not None or is_semi_reduced(w, pi)


def _iteration_cap(w):
    span = (max(w) - min(w) + 2) if w else 1
    return 10 * max(len(w), 1) * span


def bump_chain(w, pi, flavor):
    """The full push chain: the list of marked words visited, or None when
    no letter of w is marked for pi (the operator fixes w).

    The one statement of the push rule.  A step increments the marked
    letter when the word pushes in place, else the unique other pi-marked
    letter of its walk table; either stays marked, as deleting it leaves
    the same subword.  The chain stops at the first word of the class.

    Every table entry is the flavor's interned target, so once the marks
    of w are found by equality, pi becomes the entry at its mark and the
    companion search compares entries by identity.  Each step reads the
    current word's table once, and the push test takes it.
    """
    w = tuple(w)
    tables = _walk_tables[get_flavor(flavor).name]
    table = tables[w]
    if table[0] is None:
        raise ValueError(f"{w} is not in the {flavor} word class")
    marks = tuple(i for i in range(1, len(table)) if table[i] == pi)
    if not marks:
        return None
    if len(marks) > 1:
        raise RuntimeError(
            f"strong exchange violated: several marks {marks} on {w}")
    pi = table[marks[0]]
    cap = _iteration_cap(w)
    v, i = w, marks[0]
    chain = [MarkedWord(v, i, flavor)]
    for _ in range(cap):
        if not _push_in_place(table, v, pi):
            cands = [j for j in range(1, len(table))
                     if table[j] is pi and j != i]
            if len(cands) != 1:
                raise RuntimeError(
                    f"expected a unique companion for {v} mark {i}, got {cands}")
            i = cands[0]
        v = v[:i - 1] + (v[i - 1] + 1,) + v[i:]
        chain.append(MarkedWord(v, i, flavor))
        table = tables[v]
        if table[0] is not None:
            return chain
    raise RuntimeError(f"push chain from {w} exceeded {cap} steps")


def bump(w, pi, flavor):
    """The Little bumping operator of pi on the flavor's word class."""
    chain = bump_chain(w, pi, flavor)
    return tuple(w) if chain is None else chain[-1].word


def bump_factorization(fac, pi, flavor):
    """Bump the concatenation and re-split at the original factor lengths."""
    fac = fac if isinstance(fac, Factorization) else Factorization(fac)
    v = bump(fac.word(), pi, flavor)
    out, k = [], 0
    for f in fac:
        out.append(v[k:k + len(f)])
        k += len(f)
    return Factorization(out)


def decompose_bump(chain):
    """The atom sequence splitting a bump into ordinary Little bumps, read
    from its push chain (`bump_chain`, whose None gives ()).

    A new ordinary bump starts at every plain-reduced word of the chain;
    its atom is the permutation of the deleted subword at the index about
    to be pushed, which is the mark of the next chain step.  That subword
    is marked, so it is a word of the flavor's class and hence reduced:
    the atom is its entry in the word's reduced walk table.
    """
    if chain is None:
        return ()
    if not get_flavor(chain[0].flavor).queer:
        raise ValueError("decompose_bump applies to involution and fpf flavors")
    atoms = []
    for mw, nxt in zip(chain, chain[1:]):
        table = walk_table(mw.word, "reduced")
        if table[0] is not None:
            atoms.append(table[nxt.mark])
    return tuple(atoms)


def replay_decomposition(w, atoms):
    """Apply ordinary bumps for the listed atoms in order.

    Each atom is bumped afresh, on purpose: the segments of the chain the
    atoms came from would replay that chain against itself, and the replay
    would check nothing."""
    v = tuple(w)
    for alpha in atoms:
        v = bump(v, alpha, "reduced")
    return v


def increments(w, v):
    """Letterwise differences v - w for equal-length words."""
    if len(w) != len(v):
        raise ValueError("words must have equal length")
    return tuple(b - a for a, b in zip(w, v))
