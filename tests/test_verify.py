"""The verification targets themselves, run at reduced bounds for speed;
the acceptance suite runs them at the full contract bounds."""

import sys
from collections import Counter
from functools import partial
from types import SimpleNamespace

import pytest
from reference import signature_bounds

from queercrystals import (
    bumping,
    cli,
    crystals,
    insertion,
    permwords,
    symchar,
    tableaux,
    verify,
)
from queercrystals.permwords import FLAVORS, ck_moves
from queercrystals.verify import (
    TARGETS,
    VerifyResult,
    corpus,
    run_target,
    target_bounds,
)


def test_corpora_nonempty():
    assert len(corpus("involution", 4)) > 10
    assert len(corpus("fpf", 4)) > 5
    assert len(corpus("reduced", 4)) > 10


# every target at bounds that keep the suite fast
TARGET_BOUNDS = [
    ("crystal-axioms", {}),
    ("eg-fibers", {"max_len": 4}),
    ("oeg-fibers", {"max_len": 4}),
    ("speg-fibers", {"max_len": 4}),
    ("q-morphism-O", {"max_len": 4}),
    ("q-morphism-Sp", {"max_len": 4}),
    ("bump-properties", {"max_len": 4}),
    ("dual-equivalence", {"max_len": 4, "max_boxes": 5}),
    ("reduction-lemma", {"max_m": 4}),
    ("supersymmetry", {"max_len": 4}),
    ("schurP-positivity", {"max_len": 4}),
    ("conjecture-ib-bound", {"max_len": 4}),
    ("conjecture-fb-bound", {"max_len": 4}),
]


@pytest.mark.parametrize("name,bounds", TARGET_BOUNDS)
def test_targets_pass(name, bounds):
    res = run_target(name, **bounds)
    assert res.ok, res.summary()
    assert res.checks > 0


def test_unknown_target():
    with pytest.raises(ValueError):
        run_target("no-such-target")


def test_target_bounds_agree_with_the_signatures(monkeypatch):
    # on every target, and on partials that bind one and two positional
    # arguments of a check with a local variable after its bounds
    def bounded(flavor, res, max_len=5, n=3):
        total = max_len + n
        return total

    monkeypatch.setitem(TARGETS, "bind-one", partial(bounded, "fpf"))
    monkeypatch.setitem(TARGETS, "bind-two", partial(bounded, "fpf", None))
    assert {name: target_bounds(name) for name in TARGETS} == {
        name: signature_bounds(check) for name, check in TARGETS.items()}
    assert target_bounds("bind-two") == ("n",)


# One planted bug per target: the module attribute the target reads, its
# replacement, the target's small bounds, and the matching qc verify flags.
PLANTED = [
    ("crystal-axioms", crystals, "word_f", lambda w, i: None, {}, []),
    ("eg-fibers", verify, "equivalence_class", lambda w, rel: set(),
     {"max_len": 3}, ["--maxlen", "3"]),
    ("oeg-fibers", verify, "equivalence_class", lambda w, rel: set(),
     {"max_len": 3}, ["--maxlen", "3"]),
    ("speg-fibers", verify, "equivalence_class", lambda w, rel: set(),
     {"max_len": 3}, ["--maxlen", "3"]),
    ("q-morphism-O", verify, "is_quasi_isomorphism", lambda *args: False,
     {"max_len": 3}, ["--maxlen", "3"]),
    ("q-morphism-Sp", verify, "is_quasi_isomorphism", lambda *args: False,
     {"max_len": 3}, ["--maxlen", "3"]),
    ("bump-properties", verify, "increments", lambda w, v: (2,),
     {"max_len": 3}, ["--maxlen", "3"]),
    ("dual-equivalence", tableaux, "dual_equiv", lambda t, i: None,
     {"max_len": 3, "max_boxes": 3}, ["--maxlen", "3"]),
    ("reduction-lemma", verify, "hm_insert",
     lambda w: SimpleNamespace(P=None, Q=None), {"max_m": 2}, []),
    ("supersymmetry", verify, "is_supersymmetric", lambda ch: False,
     {"max_len": 3}, ["--maxlen", "3"]),
    ("schurP-positivity", verify, "expand", lambda *args, **kw: {(1,): -1},
     {"max_len": 3}, ["--maxlen", "3"]),
    ("conjecture-ib-bound", verify, "increments", lambda w, v: (5,),
     {"max_len": 3}, ["--maxlen", "3"]),
    ("conjecture-fb-bound", verify, "increments", lambda w, v: (5,),
     {"max_len": 3}, ["--maxlen", "3"]),
]


def test_every_target_has_a_planted_bug():
    assert sorted(case[0] for case in PLANTED) == sorted(TARGETS)


@pytest.mark.parametrize("name,module,attr,bug,bounds,flags", PLANTED,
                         ids=[case[0] for case in PLANTED])
def test_planted_bug_is_reported(name, module, attr, bug, bounds, flags,
                                 monkeypatch, capsys):
    monkeypatch.setattr(module, attr, bug)
    res = run_target(name, **bounds)
    assert isinstance(res, VerifyResult)
    assert not res.ok
    assert res.counterexample is not None
    status = "COUNTEREXAMPLE" if res.conjecture else "FAIL"
    assert f"{name}: {status}" in res.summary()
    assert "counterexample:" in res.summary()

    code = cli.main(["verify", name, *flags])
    out = capsys.readouterr().out
    assert code == (cli.EXIT_CONJECTURE if res.conjecture
                    else cli.EXIT_THEOREM_FAIL)
    assert f"{name}: {status}" in out


def drop_the_last_word(pi, flavor):
    return permwords.enumerate_words(pi, flavor)[:-1]


def lose_one_involution(m):
    return set(sorted(crystals.sigma_set_pattern(m), key=str)[1:])


def retarget_one_even_word(w, flavor):
    """(4, 2), a word of Even(2), given the target of (2,)."""
    return permwords.word_target((2,) if tuple(w) == (4, 2) else w, flavor)


# Planted bugs in the decompositions of reduction-lemma: Perm(m) is the
# union of the involution classes of Sigma(m), and Even(m) is one class of
# each queer flavor.  Each names the reading that must report it.
DECOMPOSITION_PLANTS = [
    ("enumerate_words", drop_the_last_word, "Perm(1) is not"),
    ("sigma_set_pattern", lose_one_involution, "Sigma(m) pattern mismatch"),
    ("word_target", retarget_one_even_word, "Even(2) is not"),
]


@pytest.mark.parametrize("attr,bug,line", DECOMPOSITION_PLANTS,
                         ids=[case[0] for case in DECOMPOSITION_PLANTS])
def test_decomposition_bug_is_reported(attr, bug, line, monkeypatch):
    monkeypatch.setattr(verify, attr, bug)
    res = run_target("reduction-lemma", max_m=3)
    assert not res.ok
    assert res.counterexample is not None
    assert res.lines[-1].startswith(line), res.lines


def test_permutation_word_without_target_exits_1(monkeypatch, capsys):
    # a word outside every involution class is a theorem failure with a
    # counterexample, not a traceback
    real = permwords.word_target
    monkeypatch.setattr(verify, "word_target", lambda w, flavor: (
        None if tuple(w) == (2, 1) else real(w, flavor)))
    assert cli.main(["verify", "reduction-lemma"]) == cli.EXIT_THEOREM_FAIL
    out = capsys.readouterr().out
    assert out.startswith("reduction-lemma: FAIL")
    assert "  counterexample: (2, 1)\n" in out
    assert "Perm(2) is not" in out


def raise_the_next_factor(monkeypatch):
    """Plant an f_i that also raises each letter of factor i+1 by one, so
    that f_i(x) is a factorization of another target, outside the carrier:
    on two adjacent factors, each letter of the second new factor."""
    real = crystals.fac_f

    def broken(a, b):
        y = real(a, b)
        return None if y is None else (y[0], tuple(v + 1 for v in y[1]))
    monkeypatch.setattr(crystals, "fac_f", broken)


def drop_the_smallest_term(monkeypatch):
    """Plant a character, and weights for qc expand, that lose their
    smallest monomial when they have more than one, so that they have no
    Schur or Schur-P expansion and are not symmetric."""
    def dropped(p):
        if len(p) > 1:
            del p[min(p)]
        return p
    for module in (verify, cli):
        monkeypatch.setattr(module, "factorization_weights", lambda *args: dropped(
            crystals.factorization_weights(*args)))


# Planted values that a theorem rules out, as qc reports them: exit 1, and
# the stdout and stderr below, with no traceback.
STRAY = "theorem failure: f_2({}) = {} is not a vertex of R^O_3({})\n"
OUTSIDE_THE_CARRIER = [
    (["verify", "oeg-fibers", "--maxlen", "3"],
     STRAY.format("-/1/-", "-/-/2", "(1,2)")),
    (["crystal", "(1,3)(2,5)", "--flavor", "oeg"],
     STRAY.format("-/13/24", "-/3/235", "(1,3)(2,5)")),
    (["crystal", "(1,3)(2,5)", "--flavor", "oeg", "--json"],
     STRAY.format("-/13/24", "-/3/235", "(1,3)(2,5)")),
]
NO_EXPANSION = [
    (["verify", "schurP-positivity"],
     "schurP-positivity: FAIL (2 checks)\n"
     "  counterexample: (1,2)(3,4)\n"
     "  involution: character has no Schur-P expansion\n", ""),
    (["verify", "supersymmetry"],
     "supersymmetry: FAIL (4 checks)\n"
     "  counterexample: R^O_3((1,2))\n"
     "  R^O_3((1,2)): character not symmetric\n", ""),
    (["expand", "(1,3)(2,5)", "--n", "3"], "",
     "theorem failure: the character of (1,3)(2,5) has no schurP expansion: "
     "leading exponent (0, 1, 3) is not a shape; wrong basis?\n"),
]


@pytest.mark.parametrize("argv,err", OUTSIDE_THE_CARRIER,
                         ids=["oeg-fibers", "dot", "json"])
def test_operator_value_outside_its_carrier_exits_1(argv, err, monkeypatch,
                                                    capsys):
    raise_the_next_factor(monkeypatch)
    assert cli.main(argv) == cli.EXIT_THEOREM_FAIL
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv,out,err", NO_EXPANSION,
                         ids=["schurP-positivity", "supersymmetry", "expand"])
def test_character_without_expansion_exits_1(argv, out, err, monkeypatch,
                                             capsys):
    drop_the_smallest_term(monkeypatch)
    assert cli.main(argv) == cli.EXIT_THEOREM_FAIL
    assert capsys.readouterr() == (out, err)


def test_increments_only_on_moved_pairs(monkeypatch):
    # a fixed (word, target) pair has increments 0 and is not asked for them
    calls = []

    def counted(w, v):
        calls.append(w)
        return bumping.increments(w, v)

    monkeypatch.setattr(verify, "increments", counted)
    assert run_target("conjecture-ib-bound", max_len=4).ok
    words = verify._bump_corpus("involution", 4)[0]
    marked = verify._marked_words(words, "involution")
    assert sum(len(moved) for moved in marked.values()) == 753
    assert len(calls) == 753


def test_ck_bug_on_a_fixed_pair_is_reported(monkeypatch, capsys):
    # ck_1 of one word, fixed by the first target, is sent to a word that
    # the target moves: only the check of the fixed pair can see it
    words, marked = verify._bump_corpus("reduced", 3)
    pi, moved = next(iter(marked.items()))
    fixed = next(w for w in words if w not in moved and len(w) > 2)
    wrong, real_ck = min(moved), permwords.ck
    monkeypatch.setattr(permwords, "ck", lambda w, i: (
        wrong if (w, i) == (fixed, 1) else real_ck(w, i)))
    res = run_target("bump-properties", max_len=3)
    assert not res.ok
    assert res.counterexample == (str(pi), fixed)
    assert res.lines == ["reduced: ck_1 commutation"]
    assert cli.main(["verify", "bump-properties", "--maxlen", "3"]) \
        == cli.EXIT_THEOREM_FAIL
    out = capsys.readouterr().out
    assert out.startswith("bump-properties: FAIL")
    assert "reduced: ck_1 commutation" in out


def test_ck_images_of_the_bump_corpus_stay_in_it():
    # a ck move keeps a word's target and length, which is why the verifier
    # needs no bump of a word outside its corpus
    for flavor, flav in FLAVORS.items():
        for max_len in range(1, 6):
            words = set(verify._bump_corpus(flavor, max_len)[0])
            assert words
            assert all(u in words for w in words
                       for _, u in ck_moves(w, flav.ck0))


def test_ck_image_outside_the_corpus_is_reported(monkeypatch, capsys):
    # ck_1 of one corpus word is sent out of its word class
    words, _ = verify._bump_corpus("reduced", 3)
    word = next(w for w in words if len(w) > 2)
    real_ck = permwords.ck
    monkeypatch.setattr(permwords, "ck", lambda w, i: (
        (0,) * len(w) if (w, i) == (word, 1) else real_ck(w, i)))
    res = run_target("bump-properties", max_len=3)
    assert not res.ok
    assert res.counterexample[1] == word
    assert res.lines == ["reduced: ck_1 leaves the word class"]
    assert cli.main(["verify", "bump-properties", "--maxlen", "3"]) \
        == cli.EXIT_THEOREM_FAIL
    out, err = capsys.readouterr()
    assert out.startswith("bump-properties: FAIL")
    assert "reduced: ck_1 leaves the word class" in out
    assert err == ""


def test_push_steps_read_no_table_of_the_bumped_flavor_twice(monkeypatch):
    # bump_chain reads each word's table of the bumped flavor once, itself;
    # the reads through walk_table are the reduced tables of the
    # semi-reduced test and the atom decomposition
    calls = []
    record_calls(monkeypatch, bumping, "walk_table", calls)
    assert run_target("bump-properties", max_len=3).ok
    assert calls
    assert {flavor for _, flavor in calls} == {"reduced"}


def test_every_schurp_carrier_component_has_one_highest_weight(monkeypatch):
    # the target reads highest weights with no carrier: each carrier is
    # built here, at the arguments the target read them at
    found = []

    def recorded(pi, flavor, n):
        hw = list(crystals.highest_weight_factorizations(pi, flavor, n))
        found.append(((pi, flavor, n), hw))
        return hw
    monkeypatch.setattr(verify, "highest_weight_factorizations", recorded)
    res = run_target("schurP-positivity")
    assert res.ok and res.checks == len(found) == 81
    for args, hw in found:
        crys = crystals.factorization_crystal(*args)
        for comp in crys.components():
            assert len(set(comp).intersection(hw)) == 1, (crys.name, comp[0])


SCHURP_PASS = ("schurP-positivity: pass ({} checks)\n"
               "  all expansions nonnegative and equal to source counts\n")


@pytest.mark.parametrize("flags,checks", [([], 81),
                                          (["--n", "2", "--maxlen", "4"], 59)])
def test_schurp_positivity_builds_no_carrier(flags, checks, monkeypatch,
                                             capsys):
    def stop(*args):
        raise AssertionError("schurP-positivity built a carrier")
    monkeypatch.setattr(verify, "factorization_crystal", stop)
    monkeypatch.setattr(crystals.Crystal, "__init__", stop)
    assert cli.main(["verify", "schurP-positivity", *flags]) == 0
    assert capsys.readouterr().out == SCHURP_PASS.format(checks)


def calls_by_caller(monkeypatch, module, name):
    """Point module.name at a wrapper that counts its calls by the name of
    the calling function; returns the Counter."""
    fn, calls = getattr(module, name), Counter()

    def counted(*args):
        calls[sys._getframe(1).f_code.co_name] += 1
        return fn(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_schurp_positivity_work_counts(monkeypatch):
    # exact work at default bounds, which a clock cannot resolve: one
    # listing of split cuts per descent group for the character and no
    # split built, none for the highest weights, and e_i on the pairs that
    # the pruned search cuts and the reflections walk
    cuts, splits = ([calls_by_caller(monkeypatch, module, name)
                     for module in (insertion, crystals)]
                    for name in ("split_cuts", "split_word"))
    raises = calls_by_caller(monkeypatch, crystals, "fac_e")
    assert run_target("schurP-positivity").checks == 81
    assert sum(cuts, Counter()) == {"factorization_weights": 523}
    assert sum(splits, Counter()) == {}
    assert sum(raises.values()) == 3912


def test_dual_equivalence_work_counts(monkeypatch):
    # d_i reads the boxes of i..i+2 alone; the whole reading word is read
    # once per standard tableau, for its descents
    words = calls_by_caller(monkeypatch, tableaux, "shword")
    assert run_target("dual-equivalence").checks == 3995
    assert words == {"shword_descents": 1057}


CARRIER_OPERATORS = (
    "fac_f", "fac_e", "fac_fq_o", "fac_eq_o", "fac_fq_sp", "fac_eq_sp",
    "shtab_f", "shtab_e", "shtab_fqbar", "shtab_eqbar",
    "word_f", "word_e", "word_fqbar", "word_eqbar")


@pytest.mark.parametrize("target,counts", [
    ("q-morphism-O", {
        "fac_f": 2088, "fac_e": 2088, "fac_fq_o": 1457, "fac_eq_o": 1457,
        "shtab_f": 438, "shtab_e": 438, "shtab_fqbar": 219,
        "shtab_eqbar": 219, "word_f": 726, "word_fqbar": 363,
        "string_lengths": 8874}),
    ("crystal-axioms", {
        "fac_f": 298, "fac_e": 298, "fac_fq_o": 146, "fac_eq_o": 146,
        "fac_fq_sp": 47, "fac_eq_sp": 47, "shtab_f": 222, "shtab_e": 222,
        "shtab_fqbar": 101, "shtab_eqbar": 101, "word_f": 938,
        "word_e": 938, "word_fqbar": 345, "word_eqbar": 345,
        "string_lengths": 3089}),
])
def test_carrier_work_counts(monkeypatch, target, counts):
    # raw operator calls at default bounds: a carrier's tables compute each
    # vertex's row once, and a factorization carrier each distinct pair
    # of adjacent factors once per pair map; the W_3(m) certificates of
    # q-morphism-O read only f edges, so no word_e or word_eqbar runs
    verify._word_component_certs.cache_clear()
    calls = {name: calls_by_caller(monkeypatch, crystals, name)
             for name in CARRIER_OPERATORS}
    calls["string_lengths"] = calls_by_caller(
        monkeypatch, crystals.Crystal, "string_lengths")
    assert run_target(target).ok
    assert {name: sum(c.values()) for name, c in calls.items() if c} == counts


def reflect_nothing(monkeypatch):
    """Plant S_i as the identity, so that every e_{i'} tests what e_{1bar}
    tests."""
    monkeypatch.setattr(crystals, "_reflect", lambda a, b: (a, b))


def raise_no_queer_letter(monkeypatch):
    """Plant queer raising operators that are nowhere defined."""
    for name in ("fac_eq_o", "fac_eq_sp"):
        monkeypatch.setattr(crystals, name, lambda a, b: None)


def keep_sources_of_strict_weight(monkeypatch):
    """Plant, for a queer flavor, the sources of strict-partition weight as
    its highest weights, in place of the e_{i'} test: it misses a source
    that an e_{i'} raises only from --maxlen 6 on."""
    reflect_nothing(monkeypatch)
    real = crystals.highest_weight_factorizations
    monkeypatch.setattr(verify, "highest_weight_factorizations", lambda *args: (
        x for x in real(*args) if not FLAVORS[args[1]].queer
        or tableaux.is_strict_partition(symchar._trim(x.weight()))))


def raise_no_pair(monkeypatch):
    """Plant an e_i that is nowhere defined: the pruned search reads it
    from the module, so it drops no prefix that e_i raises."""
    monkeypatch.setattr(crystals, "fac_e", lambda a, b: None)


HIGHEST_WEIGHT_PLANTS = [
    (reflect_nothing, [], 12, "(1,2)(3,5)(4,6)"),
    (raise_no_pair, [], 2, "(1,2)(3,4)"),
    (raise_no_queer_letter, [], 2, "(1,2)(3,4)"),
    (keep_sources_of_strict_weight, ["--maxlen", "5"], 81, None),
    (keep_sources_of_strict_weight, ["--maxlen", "6"], 31, "(1,3)(2,6)(4,5)"),
]


@pytest.mark.parametrize("plant,flags,checks,counterexample",
                         HIGHEST_WEIGHT_PLANTS,
                         ids=["reflect", "pair-raising", "queer-raising",
                              "strict-weight-5",
                              "strict-weight-6"])
def test_planted_highest_weight_bug(plant, flags, checks, counterexample,
                                    monkeypatch, capsys):
    plant(monkeypatch)
    code = cli.main(["verify", "schurP-positivity", *flags])
    out = capsys.readouterr().out
    if counterexample is None:
        assert (code, out) == (0, SCHURP_PASS.format(checks))
    else:
        assert (code, out) == (
            cli.EXIT_THEOREM_FAIL,
            f"schurP-positivity: FAIL ({checks} checks)\n"
            f"  counterexample: {counterexample}\n"
            "  involution: coefficients != highest weight counts\n")


def test_a_string_with_a_cycle_is_a_theorem_failure(monkeypatch, capsys):
    # an f_i that maps each pair of factors to itself: the walk of a
    # reflection stops at its bound, with nothing on stdout
    monkeypatch.setattr(crystals, "fac_f", lambda a, b: (a, b))
    assert cli.main(["verify", "schurP-positivity", "--maxlen", "3"]) \
        == cli.EXIT_THEOREM_FAIL
    assert capsys.readouterr() == ("", "theorem failure: the string of the "
                                   "factors (1, 3, 5), () has a cycle\n")


class CrystalPass(Exception):
    """Raised where bump-properties starts its crystal-commutation pass."""


def run_word_level_loop(monkeypatch):
    """bump-properties at max_len 4, stopped where its crystal-commutation
    pass starts, so that a count sees the word-level loop only."""
    def stop(pi, flavor, n):
        raise CrystalPass

    monkeypatch.setattr(verify, "factorization_crystal", stop)
    with pytest.raises(CrystalPass):
        run_target("bump-properties", max_len=4)


def record_calls(monkeypatch, module, name, calls):
    """Point module.name at a wrapper that appends each call's arguments."""
    fn = getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(module, name, recorded)


def moved_pairs(max_len):
    """(flavor, pi, w) for every pair of the bump corpora that bump moves."""
    return [(flavor, pi, w) for flavor in FLAVORS
            for pi, moved in verify._bump_corpus(flavor, max_len)[1].items()
            for w in sorted(moved)]


def test_one_push_chain_per_pair(monkeypatch):
    # a moved pair's one chain gives its image and its atoms, and bump
    # pushes the words outside the corpus; the replay of the atoms bumps
    # along them, which are not pairs of the loop
    pairs, replaying = Counter(), []
    chain, replay = bumping.bump_chain, verify.replay_decomposition

    def counted(w, pi, flavor):
        if not replaying:
            pairs[flavor, pi, tuple(w)] += 1
        return chain(w, pi, flavor)

    def marked_replay(w, atoms):
        replaying.append(w)
        try:
            return replay(w, atoms)
        finally:
            replaying.pop()
    monkeypatch.setattr(bumping, "bump_chain", counted)
    monkeypatch.setattr(verify, "bump_chain", counted, raising=False)
    monkeypatch.setattr(verify, "replay_decomposition", marked_replay)
    run_word_level_loop(monkeypatch)
    assert max(pairs.values()) == 1
    assert set(moved_pairs(4)) <= set(pairs)


def test_descents_and_recording_only_on_moved_pairs(monkeypatch):
    # a fixed pair keeps its descents and recording tableau by identity
    descents, recordings = [], []
    record_calls(monkeypatch, verify, "descent_set", descents)
    record_calls(monkeypatch, verify, "_q_tableau", recordings)
    run_word_level_loop(monkeypatch)
    expected = Counter()
    for flavor, pi, w in moved_pairs(4):
        ins = FLAVORS[flavor].insertion
        expected.update([(w, ins), (bumping.bump(w, pi, flavor), ins)])
    assert Counter(recordings) == expected
    assert Counter(w for (w,) in descents) == Counter(
        w for w, _ in expected.elements())


def test_decompose_bump_reads_the_chain(monkeypatch):
    calls = []
    record_calls(monkeypatch, verify, "decompose_bump", calls)
    run_word_level_loop(monkeypatch)
    chains = [chain for (chain,) in calls]
    assert all(isinstance(mw, bumping.MarkedWord)
               for chain in chains for mw in chain)
    assert sorted((chain[0].word, chain[0].flavor) for chain in chains) \
        == sorted((w, flavor) for flavor, _, w in moved_pairs(4)
                  if FLAVORS[flavor].queer)


# Push-rule mutants: bumping._push_in_place made constant, and what each bump
# target reports at --maxlen 3, as stdout or as stderr.  Always pushing in
# place breaks descents and increments; never doing so leaves a stable word
# without a companion, an internal invariant failure.
NO_COMPANION = "theorem failure: expected a unique companion for {} mark 2, got []\n"
PUSH_MUTANTS = [
    (True, "bump-properties", cli.EXIT_THEOREM_FAIL,
     "bump-properties: FAIL (50 checks)\n"
     "  counterexample: ('(1,2)(3,4)', (1, 2, 3))\n"
     "  reduced: descents not preserved\n", ""),
    (True, "conjecture-ib-bound", cli.EXIT_CONJECTURE,
     "conjecture-ib-bound: COUNTEREXAMPLE (88 checks)\n"
     "  counterexample: ('(1,2)(3,4)', (1, 2, 3), (1, 4, 3))\n"
     "  increment outside [0, 1]: (1, 2, 3) -> (1, 4, 3)\n", ""),
    (True, "conjecture-fb-bound", cli.EXIT_CONJECTURE,
     "conjecture-fb-bound: COUNTEREXAMPLE (65 checks)\n"
     "  counterexample: ('(1,3)(2,4)(5,7)(6,8)', (2, 4, 6), (2, 8, 6))\n"
     "  increment outside [0, 1, 2]: (2, 4, 6) -> (2, 8, 6)\n", ""),
    (False, "bump-properties", cli.EXIT_THEOREM_FAIL, "",
     NO_COMPANION.format("(1, 2)")),
    (False, "conjecture-ib-bound", cli.EXIT_THEOREM_FAIL, "",
     NO_COMPANION.format("(1, 2)")),
    (False, "conjecture-fb-bound", cli.EXIT_THEOREM_FAIL, "",
     NO_COMPANION.format("(2, 1)")),
]


@pytest.mark.parametrize("in_place,name,code,out,err", PUSH_MUTANTS,
                         ids=[f"{case[1]}-{case[0]}" for case in PUSH_MUTANTS])
def test_push_rule_mutant_is_reported(in_place, name, code, out, err,
                                      monkeypatch, capsys):
    monkeypatch.setattr(bumping, "_push_in_place",
                        lambda w, pi, flavor: in_place)
    assert cli.main(["verify", name, "--maxlen", "3"]) == code
    assert capsys.readouterr() == (out, err)
