"""Desk-scale verification of every theorem the library implements.

Each target exhaustively checks one family of statements over bounded
corpora of words and permutations and reports pass/fail with a minimal
counterexample.  Conjecture targets never fail the build; they report.
"""

from collections import Counter
from functools import lru_cache, partial

from . import bumping, tableaux
from .bumping import (
    bump_chain,
    decompose_bump,
    increments,
    replay_decomposition,
)
from .crystals import (
    _component_certificate,
    axioms_report,
    dbl_map,
    even_crystal,
    even_words,
    factorization_crystal,
    factorization_crystal_name,
    factorization_weights,
    highest_weight_factorizations,
    inv_map,
    is_quasi_isomorphism,
    perm_crystal,
    perm_words,
    shifted_tableau_crystal,
    shifted_tableau_crystal_all,
    shtab_e,
    shtab_f,
    sigma_set_pattern,
    strict_partitions,
    word_crystal,
)
from .insertion import Factorization, hm_insert, insert, oeg_insert, speg_insert, split_word
from .permwords import (
    FLAVORS,
    FpfInvolution,
    LazyMap,
    Permutation,
    _ascent_walk,
    ck_moves,
    descent_set,
    enumerate_words,
    equivalence_class,
    get_flavor,
    walk_table,
    word_target,
    word_to_permutation,
)
from .symchar import BASES, _trim, character, expand, is_supersymmetric, is_symmetric
from .tableaux import standard_shifted_tableaux, tableau_descents, shword_descents

QUEER_FLAVORS = tuple(flav for flav in FLAVORS.values() if flav.queer)


class VerifyResult:
    def __init__(self, name, ok):
        self.name, self.ok = name, ok
        self.conjecture = False
        self.counterexample = None
        self.lines = []
        self.checks = 0

    def summary(self):
        if self.conjecture:
            status = "checked, no counterexample" if self.ok else "COUNTEREXAMPLE"
        else:
            status = "pass" if self.ok else "FAIL"
        head = f"{self.name}: {status} ({self.checks} checks)"
        if self.counterexample is not None:
            head += f"\n  counterexample: {self.counterexample}"
        return "\n".join([head] + [f"  {l}" for l in self.lines])

    def fail(self, line, counterexample):
        """Record the first failure of a target; its check returns next."""
        self.ok = False
        self.counterexample = counterexample
        self.lines.append(line)


# ---------------------------------------------------------------------------
# Corpora

def corpus(flavor, max_len):
    """The targets other than the identity that have a word of the flavor of
    length <= max_len over the letters of the flavor's window (lo, hi), in
    the flavor's corpus order."""
    flav = get_flavor(flavor)
    lo, hi = flav.window
    found = {flav.identity}
    frontier = [(flav.identity, 0)]
    while frontier:
        pi, l = frontier.pop()
        if l == max_len:
            continue
        for i in range(lo, hi + 1):
            nxt = _ascent_walk(flavor, (i,), pi)
            if nxt is not None and nxt not in found:
                found.add(nxt)
                frontier.append((nxt, l + 1))
    found.remove(flav.identity)
    return tuple(sorted(found, key=flav.sort_key))


@lru_cache(maxsize=None)
def _p_tableau(w, flavor):
    return insert(Factorization.from_word(w), flavor, check=False).P


@lru_cache(maxsize=None)
def _q_tableau(w, flavor):
    return insert(Factorization.from_word(w), flavor, check=False).Q


# ---------------------------------------------------------------------------
# Targets

def check_crystal_axioms(res):
    """Definitions of gl_n- and q_n-crystals on every constructed carrier."""
    carriers = [
        word_crystal(2, 3), word_crystal(3, 4), word_crystal(4, 4),
        shifted_tableau_crystal(3, (3, 1)),
        shifted_tableau_crystal(4, (2, 1)),
        shifted_tableau_crystal_all(3, 4),
        factorization_crystal(
            Permutation.from_cycles([(1, 3), (2, 5)]), "involution", 3),
        factorization_crystal(
            FpfInvolution([(1, 4), (2, 6), (3, 5)]), "fpf", 3),
        factorization_crystal(
            word_to_permutation((1, 2, 1, 3)), "reduced", 3),
        factorization_crystal(
            Permutation.from_cycles([(1, 3), (2, 5)]), "involution", 4),
        factorization_crystal(
            FpfInvolution([(1, 4), (2, 6), (3, 5)]), "fpf", 4),
        perm_crystal(3, 4), even_crystal(2, 3),
    ]
    for crys in carriers:
        bad = axioms_report(crys)
        res.checks += len(crys)
        if bad:
            return res.fail(f"{crys.name}: {len(bad)} violations",
                            (crys.name, bad[0]))
        res.lines.append(f"{crys.name}: {len(crys)} vertices ok")


def _fiber_check(flavor, res, max_len=5, n=3):
    """Coxeter-Knuth classes = P fibers; components of the factorization
    crystal = P fibers."""
    flav = get_flavor(flavor)
    rel, ins = flav.relation, flav.insertion
    for pi in corpus(flavor, max_len):
        words = enumerate_words(pi, flavor)
        fibers = {}
        for w in words:
            fibers.setdefault(_p_tableau(w, ins), set()).add(w)
        for fib in fibers.values():
            cls = equivalence_class(min(fib), rel)
            res.checks += 1
            if cls != fib:
                return res.fail(f"{pi}: P-fiber differs from the {rel}-class",
                                (str(pi), min(fib)))
        crys = factorization_crystal(pi, flavor, n)
        comps = set(map(frozenset, crys.components()))
        byp = {}
        for fac in crys.vertices:
            byp.setdefault(_p_tableau(fac.word(), ins), set()).add(fac)
        res.checks += 1
        if comps != {frozenset(v) for v in byp.values()}:
            return res.fail(f"{pi}: components differ from P-fibers", str(pi))
    res.lines.append(f"{rel}-classes, fibers, and components all agree")


@lru_cache(maxsize=None)
def _word_component_certs(n, m):
    out = {}
    crys = word_crystal(n, m)
    for c in crys.components():
        out.setdefault(len(c), []).append(_component_certificate(crys, c))
    return out


def _q_morphism_check(flavor, res, max_len=5, n=3):
    """The recording map is a quasi-isomorphism onto shifted tableaux and
    every component of the factorization crystal is normal."""
    flav = get_flavor(flavor)
    ins = flav.insertion
    codomains = {}  # m -> the carrier of shifted tableaux with m boxes
    for pi in corpus(flavor, max_len):
        m = flav.ell(pi)
        crys = factorization_crystal(pi, flavor, n)
        if m not in codomains:
            codomains[m] = shifted_tableau_crystal_all(n, m)
        tab = codomains[m]
        res.checks += 1
        if not is_quasi_isomorphism(
                lambda x: insert(x, ins, check=False).Q, crys, tab):
            return res.fail(f"{pi}: Q is not a quasi-isomorphism", str(pi))
        certs = _word_component_certs(n, m)
        for comp in crys.components():
            res.checks += 1
            if _component_certificate(crys, comp) not in certs.get(len(comp), []):
                return res.fail(
                    f"{pi}: a component is not normal (no match in W_{n}({m}))",
                    str(pi))
    res.lines.append("recording map is a quasi-isomorphism; all components normal")


def _marked_words(words, flavor):
    """{pi: the words of words with a pi-marked letter}, ordered by str(pi)
    and read in one pass over their walk tables: the words that
    bump(., pi, flavor) moves."""
    marked = {}
    for w in words:
        for pi in walk_table(w, flavor)[1:]:
            if pi is not None:
                marked.setdefault(pi, set()).add(w)
    return dict(sorted(marked.items(), key=lambda item: str(item[0])))


def _bump_corpus(flavor, max_len):
    """The corpus words of the flavor, sorted, and {pi: its pi-marked words}
    for every bump target marked on one of them, ordered by name."""
    words = set()
    for pi in corpus(flavor, max_len):
        words.update(enumerate_words(pi, flavor))
    words = sorted(words)
    return words, _marked_words(words, flavor)


def check_bump_properties(res, max_len=5, n=3):
    """Bijectivity, descent preservation, ck commutation, recording
    invariance, the factorization lift, and the atom decomposition.

    A pair (w, pi) moves when pi marks a letter of w, and its image v is
    the last word of its push chain; otherwise it is fixed, v = w.  Every
    pair runs one body: injectivity, and the ck commutation of w's
    `ck_moves` images against v's, which for a fixed pair are w's own.
    Descents, the recording tableau, increments and the atom replay hold
    by identity on a fixed pair, so only a moved pair runs them.  A ck
    image outside the corpus is a failure: a ck move keeps a word's
    target and length."""
    for flavor, flav in FLAVORS.items():
        ins, ck0 = flav.insertion, flav.ck0
        words, marked = _bump_corpus(flavor, max_len)
        # each word's ck images, whatever the target
        sides = {w: ck_moves(w, ck0) for w in words}
        for pi, moved in marked.items():
            # the push chain of each moved word, kept while pi's loop runs
            chains = LazyMap(partial(bump_chain, pi=pi, flavor=flavor))
            images = {}
            for w, cks in sides.items():
                res.checks += 1
                chain = chains[w] if w in moved else None
                v = w if chain is None else chain[-1].word
                if images.setdefault(v, w) != w:
                    return res.fail(f"{flavor}: bump not injective", (str(pi), w))
                if chain is not None:
                    if descent_set(v) != descent_set(w):
                        return res.fail(f"{flavor}: descents not preserved", (str(pi), w))
                    if not flav.queer and set(increments(w, v)) - flav.bump_increments:
                        return res.fail(f"{flavor}: increment bound broken", (str(pi), w))
                    if _q_tableau(w, ins) != _q_tableau(v, ins):
                        return res.fail(f"{flavor}: recording tableau changed", (str(pi), w))
                v_cks = cks if chain is None else ck_moves(v, ck0)
                for (i, u), (_, x) in zip(cks, v_cks):
                    if u not in sides:
                        return res.fail(f"{flavor}: ck_{i} leaves the word class", (str(pi), w))
                    if (chains[u][-1].word if u in moved else u) != x:
                        return res.fail(f"{flavor}: ck_{i} commutation", (str(pi), w))
                if chain is not None and flav.queer and replay_decomposition(
                        w, decompose_bump(chain)) != v:
                    return res.fail(f"{flavor}: decomposition replay", (str(pi), w))
    # crystal-operator commutation on factorizations (qi theorems)
    for flavor in FLAVORS:
        for sigma in corpus(flavor, min(max_len, 4)):
            crys = factorization_crystal(sigma, flavor, n)
            table = crys.f_table
            targets = _marked_words(enumerate_words(sigma, flavor), flavor)
            # {(fac, pi): its lift}: f_i of one factorization of sigma is
            # another, so each lift is computed once per sigma
            lift = LazyMap(lambda key: bumping.bump_factorization(*key, flavor))
            for fac in crys.vertices:
                row = table[fac]
                for pi in targets:
                    bumped = table[lift[fac, pi]]
                    for i in crys.indices:
                        res.checks += 1
                        lhs = row.get(i)
                        if lhs is None:
                            if i in bumped:
                                return res.fail(
                                    f"{flavor}: f_{i} definedness vs bump",
                                    (str(pi), fac))
                        elif lift[lhs, pi] != bumped.get(i):
                            return res.fail(
                                f"{flavor}: bump/f_{i} commutation",
                                (str(pi), fac))
    res.lines.append("parts (a)-(d) and the crystal commutation all hold")


def check_dual_equivalence(res, max_len=6, max_boxes=7):
    """Recording tableaux intertwine ck moves with the d_i operators."""
    for flav in QUEER_FLAVORS:
        flavor, ins, ck0 = flav.name, flav.insertion, flav.ck0
        # {(t, i): d_i(t)}, built per flavor or per shape and dropped with
        # it: a map over the whole run would hold every pair at once
        d = LazyMap(lambda key: tableaux.dual_equiv(*key))
        for pi in corpus(flavor, max_len):
            for w in enumerate_words(pi, flavor):
                q = _q_tableau(w, ins)
                res.checks += 1
                for i, u in ck_moves(w, ck0):
                    if _q_tableau(u, ins) != d[q, i]:
                        return res.fail(f"{flavor}: ck_{i} vs d_{i}", w)
    # involutivity, standardness, descent mirroring, operator composites
    for m in range(1, max_boxes + 1):
        for mu in strict_partitions(m):
            # one map per shape, since d_i keeps the shape
            d = LazyMap(lambda key: tableaux.dual_equiv(*key))
            for t in standard_shifted_tableaux(mu):
                des = tableau_descents(t)
                res.checks += 1
                if des != shword_descents(t):
                    return res.fail("descent characterizations disagree", t)
                for i in range(0, m - 1):
                    u = d[t, i]
                    if not tableaux.is_standard(u) or d[u, i] != t:
                        return res.fail("d_i not a standard involution", (t, i))
                for i in range(1, m):
                    if i in des:
                        if shtab_e(t, i) is not None or shtab_f(t, i) is not None:
                            return res.fail("e_i/f_i do not vanish on a descent", (t, i))
                    else:
                        box = t.find_value(i)
                        if shtab_f(t, i) != t.with_entry(*box, t.entry(*box) + 2):
                            return res.fail("f_i is not the +1 move off descents", (t, i))
                        box = t.find_value(i + 1)
                        if shtab_e(t, i) != t.with_entry(*box, t.entry(*box) - 2):
                            return res.fail("e_i is not the -1 move off descents", (t, i))
                for i in range(1, m - 1):
                    both = des & {i, i + 1}
                    if both == {i}:
                        seq = _compose(t, [("e", i + 1), ("e", i), ("f", i + 1), ("f", i)])
                        if seq != d[t, i]:
                            return res.fail("f f e e composite (descent i)", (t, i))
                    elif both == {i + 1}:
                        seq = _compose(t, [("e", i), ("e", i + 1), ("f", i), ("f", i + 1)])
                        if seq != d[t, i]:
                            return res.fail("f f e e composite (descent i+1)", (t, i))
    res.lines.append("ck/d intertwining and the operator composites hold")


def _compose(t, ops):
    for kind, i in ops:
        t = shtab_e(t, i) if kind == "e" else shtab_f(t, i)
        if t is None:
            return None
    return t


def _class_targets(words, flavor):
    """(targets, bad): the targets of the words of the flavor, and a word
    that breaks "the words are the union of their targets' word classes",
    or None: the first word with no target, else the first in one set only."""
    target = {w: word_target(w, flavor) for w in words}
    targets = set(target.values()) - {None}
    union = set().union(*(enumerate_words(pi, flavor) for pi in targets))
    bad = ([w for w in words if target[w] is None]
           or sorted(union.symmetric_difference(words)))
    return targets, bad[0] if bad else None


def check_reduction_lemma(res, max_m=5, n=3):
    """The inv/dbl dictionary between insertion algorithms, and the
    decompositions of Perm(m) and Even(m) into word classes."""
    for m in range(1, max_m + 1):
        for nn in range(1, n + 1):
            for w in perm_words(m):
                for fac in split_word(w, nn):
                    winv = inv_map(fac)
                    hm = hm_insert(winv)
                    o = oeg_insert(fac, check=False)
                    sp2 = speg_insert(dbl_map(fac), check=False)
                    o2 = oeg_insert(dbl_map(fac), check=False)
                    res.checks += 1
                    if o.P != hm.Q:
                        return res.fail("P^O != Q_HM(inverse)", fac)
                    if not (o.Q == o2.Q == sp2.Q == hm.P):
                        return res.fail("recording identities fail", fac)
        res.checks += 1
        sigma, bad = _class_targets(perm_words(m), "involution")
        if bad is not None:
            return res.fail(
                f"Perm({m}) is not the union of its involution classes", bad)
        if sigma != sigma_set_pattern(m):
            return res.fail("Sigma(m) pattern mismatch", m)
        for flavor, relation in (("involution", "O"), ("fpf", "Sp")):
            targets, bad = _class_targets(even_words(m), flavor)
            if bad is not None or len(targets) != 1:
                return res.fail(f"Even({m}) is not one class R^{relation}",
                                bad or sorted(map(str, targets)))
        eo = even_crystal(2, m, "O")
        es = even_crystal(2, m, "Sp")
        if eo.edges() != es.edges():
            return res.fail("O/Sp structures differ on Even", m)
    res.lines.append("insertion dictionary and decompositions all hold")


def check_supersymmetry(res, max_len=4, n=3):
    """Characters of q_n-crystals are symmetric and supersymmetric."""
    characters = [(crys.name, character(crys)) for crys in (
        word_crystal(2, 4), word_crystal(3, 4), shifted_tableau_crystal_all(3, 4))]
    cap = 40  # factorization characters per flavor, of the first targets
    taken = []
    for flav in QUEER_FLAVORS:
        targets = corpus(flav.name, max_len)
        characters += [(factorization_crystal_name(pi, flav.name, n),
                        factorization_weights(pi, flav.name, n))
                       for pi in targets[:cap]]
        taken.append(f"{min(len(targets), cap)} of {len(targets)} {flav.name}")
    for name, ch in characters:
        res.checks += 1
        if not is_symmetric(ch):
            return res.fail(f"{name}: character not symmetric", name)
        if not is_supersymmetric(ch):
            return res.fail(f"{name}: character not supersymmetric", name)
    res.lines.append(f"{len(characters)} characters symmetric and supersymmetric "
                     f"({', '.join(taken)} targets)")


def check_schurp_positivity(res, max_len=5, n=None):
    """Schur-P (and Schur) expansion coefficients equal highest-weight counts.

    A queer flavor takes the targets of its corpus whose support starts
    at 1, one per translation class (translates have isomorphic crystals).
    The reduced flavor takes every permutation with support in 1..4 and a
    word of length at most min(max_len, 4).  Each target is read, with no
    carrier, in ell(pi) variables, or in n when n is given; n = 0 reads none.
    """
    runs = [(flav, [pi for pi in corpus(flav.name, max_len)
                    if pi.support()[0] == 1])
            for flav in QUEER_FLAVORS]
    runs.append((get_flavor("reduced"),
                 [pi for pi in corpus("reduced", min(max_len, 4))
                  if pi.support()[-1] <= 4]))
    for flav, targets in runs:
        flavor = flav.name
        basis = BASES[flav.basis][0]
        for pi in targets:
            nn = flav.ell(pi) if n is None else n
            if nn == 0:
                continue
            res.checks += 1
            try:
                coeffs = expand(factorization_weights(pi, flavor, nn), flav.basis)
            except ValueError:
                return res.fail(f"{flavor}: character has no {basis} expansion", str(pi))
            if any(c <= 0 for c in coeffs.values()):
                return res.fail(f"{flavor}: negative {basis} coefficient", str(pi))
            if coeffs != Counter(_trim(x.weight()) for x in
                                 highest_weight_factorizations(pi, flavor, nn)):
                return res.fail(f"{flavor}: coefficients != highest weight counts", str(pi))
    res.lines.append("all expansions nonnegative and equal to source counts")


def _conjecture_bounds(flavor, res, max_len=5):
    res.conjecture = True
    allowed = get_flavor(flavor).bump_increments
    words, marked = _bump_corpus(flavor, max_len)
    for pi, moved in marked.items():
        for w in words:
            res.checks += 1
            # a fixed word's increments are all 0
            if w not in moved:
                continue
            v = bump_chain(w, pi, flavor)[-1].word
            if set(increments(w, v)) - allowed:
                return res.fail(
                    f"increment outside {sorted(allowed)}: {w} -> {v}",
                    (str(pi), w, v))
    res.lines.append(f"all increments within {sorted(allowed)}")


TARGETS = {
    "crystal-axioms": check_crystal_axioms,
    "eg-fibers": partial(_fiber_check, "reduced"),
    "oeg-fibers": partial(_fiber_check, "involution"),
    "speg-fibers": partial(_fiber_check, "fpf"),
    "q-morphism-O": partial(_q_morphism_check, "involution"),
    "q-morphism-Sp": partial(_q_morphism_check, "fpf"),
    "bump-properties": check_bump_properties,
    "dual-equivalence": check_dual_equivalence,
    "reduction-lemma": check_reduction_lemma,
    "supersymmetry": check_supersymmetry,
    "schurP-positivity": check_schurp_positivity,
    "conjecture-ib-bound": partial(_conjecture_bounds, "involution"),
    "conjecture-fb-bound": partial(_conjecture_bounds, "fpf"),
}


def _check(name):
    try:
        return TARGETS[name]
    except KeyError:
        raise ValueError(f"unknown verify target {name!r}") from None


def target_bounds(name):
    """The bounds that target name accepts: the parameters of its check
    after the result, read from the check's code, where the arguments that
    a partial binds come first."""
    check = _check(name)
    skip = 1 + len(getattr(check, "args", ()))
    code = getattr(check, "func", check).__code__
    return code.co_varnames[skip:code.co_argcount]


def run_target(name, **bounds):
    """The result of target name at the given bounds, named by its key in
    TARGETS; each check fills the result it is given."""
    res = VerifyResult(name, True)
    _check(name)(res, **bounds)
    return res
