"""The verification targets themselves, run at reduced bounds for speed;
the acceptance suite runs them at the full contract bounds."""

from types import SimpleNamespace

import pytest

from queercrystals import bumping, cli, crystals, tableaux, verify
from queercrystals.verify import TARGETS, VerifyResult, corpus, run_target


def test_corpora_nonempty():
    assert len(corpus("involution", 4, (1, 4))) > 10
    assert len(corpus("fpf", 4, (1, 6))) > 5
    assert len(corpus("reduced", 4, (1, 3))) > 10


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
    res = TARGETS[name](**bounds)
    assert res.ok, res.summary()
    assert res.checks > 0


def test_unknown_target():
    with pytest.raises(ValueError):
        run_target("no-such-target")


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
    res = TARGETS[name](**bounds)
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
