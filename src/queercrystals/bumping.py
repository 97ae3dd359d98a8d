"""Marked words and the three families of Little bumping operators.

A pair (w, i) is marked for a target pi when deleting the i-th letter of w
leaves a word of pi's class.  Each push step increments one letter: the
marked one when the word is already in a stable state for the flavor, and
otherwise the unique companion index that is also marked.  Iterating from
a marked word reaches the flavor's word class; the resulting word is the
value of the bumping operator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .insertion import Factorization
from .permwords import (
    FLAVORS,
    FpfInvolution,
    get_flavor,
    is_reduced_word,
    word_target,
    word_to_permutation,
)


@dataclass(frozen=True)
class MarkedWord:
    word: tuple
    mark: int  # 1-based index
    flavor: str

    def __post_init__(self):
        if not 1 <= self.mark <= len(self.word):
            raise ValueError("mark out of range")
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")


def delete_letter(w, i):
    """The subword omitting the i-th letter (1-based)."""
    if not 1 <= i <= len(w):
        raise IndexError(f"index {i} out of range")
    return w[:i - 1] + w[i:]


def is_marked(w, i, pi, flavor):
    """Whether (w, i) is a pi-marked word of the flavor."""
    return word_target(delete_letter(w, i), flavor) == pi


def marked_indices(w, pi, flavor):
    return tuple(
        i for i in range(1, len(w) + 1) if is_marked(w, i, pi, flavor)
    )


def is_semi_reduced(w, pi):
    """Reduced words whose underlying permutation conjugates the base
    matching to the fpf involution pi; these pause the companion search in
    the fpf flavor, and no word is semi-reduced for any other target."""
    if not isinstance(pi, FpfInvolution) or not is_reduced_word(w):
        return False
    sigma = word_to_permutation(w)
    try:
        conj = FpfInvolution.identity().conjugate_by(sigma)
    except ValueError:
        return False
    return conj == pi


def _push_in_place(w, pi, flavor):
    """Whether the push from a marked w increments the marked letter itself."""
    return word_target(w, flavor) is not None or is_semi_reduced(w, pi)


def companion_index(w, i, pi, flavor):
    """The unique j != i with (w, j) also pi-marked."""
    cands = [j for j in marked_indices(w, pi, flavor) if j != i]
    if len(cands) != 1:
        raise RuntimeError(
            f"expected a unique companion for {w} mark {i}, got {cands}")
    return cands[0]


def push_step(mw, pi):
    """One push/ipush/fpush step on a marked word."""
    w, i, flavor = mw.word, mw.mark, mw.flavor
    if not is_marked(w, i, pi, flavor):
        raise ValueError(f"({w}, {i}) is not marked for {pi}")
    j = i if _push_in_place(w, pi, flavor) else companion_index(
        w, i, pi, flavor)
    v = w[:j - 1] + (w[j - 1] + 1,) + w[j:]
    return MarkedWord(v, j, flavor)


def _iteration_cap(w):
    span = (max(w) - min(w) + 2) if w else 1
    return 10 * max(len(w), 1) * span


def bump_chain(w, pi, flavor, cap=None):
    """The full push chain: the list of marked words visited, or None when
    no letter of w is marked for pi (the operator fixes w)."""
    w = tuple(w)
    if word_target(w, flavor) is None:
        raise ValueError(f"{w} is not in the {flavor} word class")
    marks = marked_indices(w, pi, flavor)
    if not marks:
        return None
    if len(marks) > 1:
        raise RuntimeError(
            f"strong exchange violated: several marks {marks} on {w}")
    cap = _iteration_cap(w) if cap is None else cap
    mw = MarkedWord(w, marks[0], flavor)
    chain = [mw]
    for _ in range(cap):
        mw = push_step(mw, pi)
        chain.append(mw)
        if word_target(mw.word, flavor) is not None:
            return chain
    raise RuntimeError(f"push chain from {w} exceeded {cap} steps")


def bump(w, pi, flavor, cap=None):
    """The Little bumping operator of pi on the flavor's word class."""
    chain = bump_chain(w, pi, flavor, cap=cap)
    return tuple(w) if chain is None else chain[-1].word


def bump_factorization(fac, pi, flavor, cap=None):
    """Bump the concatenation and re-split at the original factor lengths."""
    fac = fac if isinstance(fac, Factorization) else Factorization(fac)
    v = bump(fac.word(), pi, flavor, cap=cap)
    out, k = [], 0
    for f in fac:
        out.append(v[k:k + len(f)])
        k += len(f)
    return Factorization(out)


def decompose_bump(w, pi, flavor, cap=None):
    """The atom sequence splitting a bump into ordinary Little bumps.

    A new ordinary bump starts at every plain-reduced word of the chain;
    its atom is the permutation of the deleted subword at the index about
    to be pushed, which is the mark of the next chain step.  Returns () when
    the bump fixes w.
    """
    if not get_flavor(flavor).queer:
        raise ValueError("decompose_bump applies to involution and fpf flavors")
    chain = bump_chain(w, pi, flavor, cap=cap)
    if chain is None:
        return ()
    atoms = []
    for mw, nxt in zip(chain, chain[1:]):
        if is_reduced_word(mw.word):
            atoms.append(word_to_permutation(delete_letter(mw.word, nxt.mark)))
    return tuple(atoms)


def replay_decomposition(w, atoms, cap=None):
    """Apply ordinary bumps for the listed atoms in order."""
    v = tuple(w)
    for alpha in atoms:
        v = bump(v, alpha, "reduced", cap=cap)
    return v


def increments(w, v):
    """Letterwise differences v - w for equal-length words."""
    if len(w) != len(v):
        raise ValueError("words must have equal length")
    return tuple(b - a for a, b in zip(w, v))
