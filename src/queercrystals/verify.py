"""Desk-scale verification of every theorem the library implements.

Each target exhaustively checks one family of statements over bounded
corpora of words and permutations and reports pass/fail with a minimal
counterexample.  Conjecture targets never fail the build; they report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

from . import bumping, tableaux
from .bumping import bump, decompose_bump, increments, replay_decomposition
from .crystals import (
    _component_certificate,
    _fac_ops,
    axioms_report,
    crystal_indices,
    dbl_map,
    even_crystal,
    even_target_o,
    even_target_sp,
    even_words,
    factorization_crystal,
    inv_map,
    is_quasi_isomorphism,
    perm_crystal,
    perm_words,
    shifted_tableau_crystal,
    shifted_tableau_crystal_all,
    shtab_e,
    shtab_f,
    sigma_set,
    sigma_set_pattern,
    strict_partitions,
    word_crystal,
)
from .insertion import Factorization, hm_insert, insert, oeg_insert, speg_insert, split_word
from .permwords import (
    FLAVORS,
    FpfInvolution,
    Permutation,
    ck,
    descent_set,
    enumerate_words,
    equivalence_class,
    get_flavor,
    word_to_permutation,
)
from .symchar import character, expand, is_supersymmetric, is_symmetric
from .tableaux import standard_shifted_tableaux, tableau_descents, shword_descents

QUEER_FLAVORS = tuple(flav for flav in FLAVORS.values() if flav.queer)


@dataclass
class VerifyResult:
    name: str
    ok: bool
    conjecture: bool = False
    counterexample: object = None
    lines: list = field(default_factory=list)
    checks: int = 0

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
        """Record the first failure of a target and return the result."""
        self.ok = False
        self.counterexample = counterexample
        self.lines.append(line)
        return self


# ---------------------------------------------------------------------------
# Corpora

@lru_cache(maxsize=None)
def corpus(flavor, max_len, window=None):
    """The targets other than the identity that have a word of the flavor of
    length <= max_len over the letters of window (lo, hi), by default the
    flavor's window, in the flavor's corpus order."""
    flav = get_flavor(flavor)
    lo, hi = window or flav.window
    found = {flav.identity}
    frontier = [(flav.identity, 0)]
    while frontier:
        pi, l = frontier.pop()
        if l == max_len:
            continue
        for i in range(lo, hi + 1):
            if not pi.is_descent(i):
                nxt = flav.step(pi, i)
                if nxt not in found:
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

def check_crystal_axioms():
    """Definitions of gl_n- and q_n-crystals on every constructed carrier."""
    res = VerifyResult("crystal-axioms", True)
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
    return res


def _fiber_check(flavor, max_len=5, n=3):
    """Coxeter-Knuth classes = P fibers; components of the factorization
    crystal = P fibers."""
    flav = get_flavor(flavor)
    rel, ins = flav.relation, flav.insertion
    res = VerifyResult(f"{ins}-fibers", True)
    for pi in corpus(flavor, max_len):
        words = enumerate_words(pi, flavor)
        fibers = {}
        for w in words:
            fibers.setdefault(_p_tableau(w, ins), set()).add(w)
        for fib in fibers.values():
            cls = equivalence_class(next(iter(sorted(fib))), rel)
            res.checks += 1
            if cls != fib:
                return res.fail(f"{pi}: P-fiber differs from the {rel}-class",
                                (str(pi), sorted(fib)[0]))
        crys = factorization_crystal(pi, flavor, n)
        comps = {frozenset(c.vertices) for c in crys.components()}
        byp = {}
        for fac in crys.vertices:
            byp.setdefault(_p_tableau(fac.word(), ins), set()).add(fac)
        res.checks += 1
        if comps != {frozenset(v) for v in byp.values()}:
            return res.fail(f"{pi}: components differ from P-fibers", str(pi))
    res.lines.append(f"{rel}-classes, fibers, and components all agree")
    return res


@lru_cache(maxsize=None)
def _word_component_certs(n, m):
    out = {}
    for c in word_crystal(n, m).components():
        out.setdefault(len(c), []).append(_component_certificate(c))
    return out


def _q_morphism_check(flavor, max_len=5, n=3):
    """The recording map is a quasi-isomorphism onto shifted tableaux and
    every component of the factorization crystal is normal."""
    flav = get_flavor(flavor)
    ins = flav.insertion
    res = VerifyResult(f"q-morphism-{flav.relation}", True)
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
            if _component_certificate(comp) not in certs.get(len(comp), []):
                return res.fail(
                    f"{pi}: a component is not normal (no match in W_{n}({m}))",
                    str(pi))
    res.lines.append("recording map is a quasi-isomorphism; all components normal")
    return res


def _bump_targets(w, flavor):
    """Class representatives pi for which some (w, i) is pi-marked."""
    return set(bumping.walk_table(w, flavor)[1:]) - {None}


def _bump_corpus(flavor, max_len):
    """The corpus words of the flavor, sorted, and every bump target marked
    on one of them, sorted by name."""
    words = set()
    for pi in corpus(flavor, max_len):
        words.update(enumerate_words(pi, flavor))
    words = sorted(words)
    targets = set()
    for w in words:
        targets |= _bump_targets(w, flavor)
    return words, sorted(targets, key=str)


class _BumpMap(dict):
    """{w: bump(w, pi, flavor)} for one target, each word bumped at its
    first lookup.  Built per target and dropped with it: a map over every
    target at once would hold every (word, target) pair of the run."""

    def __init__(self, pi, flavor):
        super().__init__()
        self.pi, self.flavor = pi, flavor

    def __missing__(self, w):
        v = self[w] = bump(w, self.pi, self.flavor)
        return v


def check_bump_properties(max_len=5, n=3):
    """Bijectivity, descent preservation, ck commutation, recording
    invariance, the factorization lift, and the atom decomposition."""
    res = VerifyResult("bump-properties", True)
    for flavor, flav in FLAVORS.items():
        ins, ck0 = flav.insertion, flav.ck0
        words, targets = _bump_corpus(flavor, max_len)
        # each word's descents and ck images, whatever the target
        sides = [(w, descent_set(w), [ck(w, i) for i in range(1, len(w) - 1)],
                  None if ck0 is None else ck0(w)) for w in words]
        for pi in targets:
            bumped = _BumpMap(pi, flavor)
            images = {}
            for w, des, cks, w0 in sides:
                v = bumped[w]
                res.checks += 1
                if v in images and images[v] != w:
                    return res.fail(f"{flavor}: bump not injective", (str(pi), w))
                images[v] = w
                if descent_set(v) != des:
                    return res.fail(f"{flavor}: descents not preserved", (str(pi), w))
                if not flav.queer and set(increments(w, v)) - {0, 1}:
                    return res.fail(f"{flavor}: increment bound broken", (str(pi), w))
                if _q_tableau(w, ins) != _q_tableau(v, ins):
                    return res.fail(f"{flavor}: recording tableau changed", (str(pi), w))
                for i, u in enumerate(cks, 1):
                    if bumped[u] != ck(v, i):
                        return res.fail(f"{flavor}: ck_{i} commutation", (str(pi), w))
                if ck0 is not None and bumped[w0] != ck0(v):
                    return res.fail(f"{flavor}: ck_0 commutation", (str(pi), w))
                if flav.queer and v != w:
                    atoms_seq = decompose_bump(w, pi, flavor)
                    if replay_decomposition(w, atoms_seq) != v:
                        return res.fail(f"{flavor}: decomposition replay", (str(pi), w))
    # crystal-operator commutation on factorizations (qi theorems)
    for flavor, flav in FLAVORS.items():
        f_op, _ = _fac_ops(flav.relation)
        indices = crystal_indices(n, flav.queer)
        for sigma in corpus(flavor, min(max_len, 4)):
            words = enumerate_words(sigma, flavor)
            targets = set()
            for w in words:
                targets |= _bump_targets(w, flavor)
            targets = sorted(targets, key=str)
            for w in words:
                for fac in split_word(w, n):
                    lhs_all = [(i, f_op(fac, i)) for i in indices]
                    for pi in targets:
                        bumped = bumping.bump_factorization(fac, pi, flavor)
                        for i, lhs in lhs_all:
                            res.checks += 1
                            if lhs is None:
                                if f_op(bumped, i) is not None:
                                    return res.fail(
                                        f"{flavor}: f_{i} definedness vs bump",
                                        (str(pi), fac))
                            elif bumping.bump_factorization(
                                    lhs, pi, flavor) != f_op(bumped, i):
                                return res.fail(
                                    f"{flavor}: bump/f_{i} commutation",
                                    (str(pi), fac))
    res.lines.append("parts (a)-(d) and the crystal commutation all hold")
    return res


class _DualEquivMap(dict):
    """{(t, i): dual_equiv(t, i)}, each pair computed at its first lookup.
    Built per flavor or per shape and dropped with it: a map over the whole
    run would hold every pair at once."""

    def __missing__(self, key):
        v = self[key] = tableaux.dual_equiv(*key)
        return v


def check_dual_equivalence(max_len=6, max_boxes=7, n=3):
    """Recording tableaux intertwine ck moves with the d_i operators."""
    res = VerifyResult("dual-equivalence", True)
    for flav in QUEER_FLAVORS:
        flavor, ins, ck0 = flav.name, flav.insertion, flav.ck0
        d = _DualEquivMap()
        for pi in corpus(flavor, max_len):
            for w in enumerate_words(pi, flavor):
                q = _q_tableau(w, ins)
                res.checks += 1
                if _q_tableau(ck0(w), ins) != d[q, 0]:
                    return res.fail(f"{flavor}: ck_0 vs d_0", w)
                for i in range(1, len(w) - 1):
                    if _q_tableau(ck(w, i), ins) != d[q, i]:
                        return res.fail(f"{flavor}: ck_{i} vs d_{i}", w)
    # involutivity, standardness, descent mirroring, operator composites
    for m in range(1, max_boxes + 1):
        for mu in strict_partitions(m):
            d = _DualEquivMap()  # d_i keeps the shape
            for t in standard_shifted_tableaux(mu, primes=True):
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
    return res


def _compose(t, ops):
    for kind, i in ops:
        t = shtab_e(t, i) if kind == "e" else shtab_f(t, i)
        if t is None:
            return None
    return t


def check_reduction_lemma(max_m=5, n=3):
    """The inv/dbl dictionary between insertion algorithms, and the
    decomposition of permutations into involution word classes."""
    res = VerifyResult("reduction-lemma", True)
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
        sig = sigma_set(m)
        res.checks += 1
        if set(sig) != sigma_set_pattern(m):
            return res.fail("Sigma(m) pattern mismatch", m)
        if sum(len(v) for v in sig.values()) != len(perm_words(m)):
            return res.fail("Perm(m) does not partition", m)
        if sorted(enumerate_words(even_target_o(m), "involution")) != sorted(even_words(m)):
            return res.fail("Even(m) != R^O(tau)", m)
        if sorted(enumerate_words(even_target_sp(m), "fpf")) != sorted(even_words(m)):
            return res.fail("Even(m) != R^Sp(pi)", m)
        eo = even_crystal(2, m, "O")
        es = even_crystal(2, m, "Sp")
        if eo.edges() != es.edges():
            return res.fail("O/Sp structures differ on Even", m)
    res.lines.append("insertion dictionary and decompositions all hold")
    return res


def check_supersymmetry(max_len=4, n=3):
    """Characters of q_n-crystals are symmetric and supersymmetric."""
    res = VerifyResult("supersymmetry", True)
    carriers = [word_crystal(2, 4), word_crystal(3, 4),
                shifted_tableau_crystal_all(3, 4)]
    for flav in QUEER_FLAVORS:
        for pi in corpus(flav.name, max_len)[:40]:
            carriers.append(factorization_crystal(pi, flav.name, n))
    for crys in carriers:
        ch = character(crys)
        res.checks += 1
        if not is_symmetric(ch):
            return res.fail(f"{crys.name}: character not symmetric", crys.name)
        if not is_supersymmetric(ch):
            return res.fail(f"{crys.name}: character not supersymmetric",
                            crys.name)
    res.lines.append(f"{len(carriers)} characters symmetric and supersymmetric")
    return res


def _hw_counts(crys):
    out = {}
    for _, wt in crys.highest_weights():
        key = tuple(p for p in wt if p)
        out[key] = out.get(key, 0) + 1
    return out


def check_schurp_positivity(max_len=5, n=None):
    """Schur-P (and Schur) expansion coefficients equal highest-weight counts."""
    res = VerifyResult("schurP-positivity", True)
    for flav in QUEER_FLAVORS:
        flavor, ell = flav.name, flav.ell
        seen = set()
        for pi in corpus(flavor, max_len):
            key = _translation_class(pi)
            if key in seen:
                continue
            seen.add(key)
            nn = ell(pi) if n is None else n
            if nn == 0:
                continue
            crys = factorization_crystal(pi, flavor, nn)
            coeffs = expand(character(crys), flav.basis, min_n=ell(pi))
            res.checks += 1
            if any(c <= 0 for c in coeffs.values()):
                return res.fail(f"{flavor}: negative Schur-P coefficient", str(pi))
            if coeffs != _hw_counts(crys):
                return res.fail(f"{flavor}: coefficients != highest weight counts", str(pi))
    reduced = get_flavor("reduced")
    for sigma in corpus("reduced", 4, (1, 3)):
        nn = reduced.ell(sigma)
        crys = factorization_crystal(sigma, "reduced", nn)
        coeffs = expand(character(crys), reduced.basis, min_n=nn)
        res.checks += 1
        if any(c <= 0 for c in coeffs.values()):
            return res.fail("reduced: negative Schur coefficient", str(sigma))
        if coeffs != _hw_counts(crys):
            return res.fail("reduced: coefficients != highest weight counts", str(sigma))
    res.lines.append("all expansions nonnegative and equal to source counts")
    return res


def _translation_class(pi):
    """Canonical translate of pi: support moved to start at 1 (even shift
    for fpf); crystals of translates are isomorphic."""
    sup = pi.support()
    if not sup:
        return pi
    shiftby = 1 - min(sup)
    if isinstance(pi, FpfInvolution):
        shiftby += shiftby % 2
    return pi.shift(shiftby)


def _conjecture_bounds(name, flavor, allowed, max_len=5):
    res = VerifyResult(name, True, conjecture=True)
    words, targets = _bump_corpus(flavor, max_len)
    for pi in targets:
        bumped = _BumpMap(pi, flavor)
        for w in words:
            v = bumped[w]
            res.checks += 1
            if set(increments(w, v)) - allowed:
                return res.fail(
                    f"increment outside {sorted(allowed)}: {w} -> {v}",
                    (str(pi), w, v))
    res.lines.append(f"all increments within {sorted(allowed)}")
    return res


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
    "conjecture-ib-bound": partial(
        _conjecture_bounds, "conjecture-ib-bound", "involution", {0, 1}),
    "conjecture-fb-bound": partial(
        _conjecture_bounds, "conjecture-fb-bound", "fpf", {0, 1, 2}),
}


def run_target(name, **bounds):
    try:
        fn = TARGETS[name]
    except KeyError:
        raise ValueError(f"unknown verify target {name!r}") from None
    return fn(**bounds)
