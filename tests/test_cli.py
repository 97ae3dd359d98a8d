import argparse
import json
import os
import pathlib
import random
import subprocess
import sys
import warnings
from collections import Counter

import pytest

from queercrystals import bumping, cli, crystals
from queercrystals.verify import TARGETS, VerifyResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, an argparse exit
    included; argv None reads sys.argv as the qc console script does."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParserReuse:
    """main builds its parser once per process and reuses it."""

    def test_parser_built_once(self, capsys, monkeypatch):
        run(capsys, "insert", "21", "--flavor", "hm")
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (("insert", "(4)(23)(12)", "--flavor", "speg", "--json"),
                     ("crystal", "(1,3)", "--n", "2", "--json"),
                     ("bump", "2134", "(2,5)"),
                     ("expand", "(1,3)", "--n", "2"),
                     ("class", "21", "--relation", "O")):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out, argv
        assert built == []

    def test_reuse_leaks_no_state(self, capsys, monkeypatch):
        def sequence():
            monkeypatch.setattr(sys, "argv", ["qc", "insert", "21", "--flavor", "hm"])
            return [outcome(capsys, argv) for argv in (
                ["insert", "(4)(23)(12)", "--flavor", "speg", "--json"],
                ["insert", "1", "--flavor", "xx"],
                ["crystal", "--shape", "2,1", "--n", "2"],
                ["verify", "dual-equivalence", "--n", "4"],
                None,
            )]

        first = sequence()
        assert [code for code, _, _ in first] == [0, 2, 0, 2, 0]
        assert first[1][1] == "" and first[1][2].startswith("usage: qc insert")
        assert "invalid choice: 'xx'" in first[1][2]
        assert first[2][1].startswith("digraph")
        assert first[4][1].startswith("P:\n") and first[4][2] == ""
        assert sequence() == first


class TestParsing:
    def test_word(self):
        assert cli.parse_word("332332") == (3, 3, 2, 3, 3, 2)
        assert cli.parse_word("10,11,2") == (10, 11, 2)
        assert cli.parse_word("") == ()
        assert cli.parse_word("-1") == (-1,)
        assert cli.parse_word("-12") == (-12,)
        with pytest.raises(cli.InputError):
            cli.parse_word("1-2")
        with pytest.raises(cli.InputError):
            cli.parse_word("ab")

    def test_factorization(self):
        fac = cli.parse_factorization("(4)(23)(12)")
        assert fac.word() == (4, 2, 3, 1, 2)
        assert cli.parse_factorization("()").word() == ()
        with pytest.raises(cli.InputError):
            cli.parse_factorization("(42")

    def test_cycles(self):
        pi = cli.parse_permutation("(1,3)(2,5)", "involution")
        assert pi(1) == 3 and pi(2) == 5
        fpi = cli.parse_permutation("(1,4)(2,6)(3,5)", "fpf")
        assert fpi(1) == 4 and fpi(7) == 8
        with pytest.raises(cli.InputError):
            cli.parse_permutation("(1,2)(2,3)", "involution")
        with pytest.raises(cli.InputError, match=r"^\(1,2,3\) is not an involution$"):
            cli.parse_permutation("(1,2,3)", "involution")
        assert cli.parse_permutation("(1,2,3)", "reduced")(3) == 1
        with pytest.raises(cli.InputError):
            cli.parse_permutation("(2,3)", "fpf")  # window not base-closed

    def test_cycle_text_is_groups_or_an_identity_word(self):
        assert cli.parse_cycles(" (1,3) (2, 5)") == [(1, 3), (2, 5)]
        for text in ("", "1", "id", " 1 "):
            assert cli.parse_cycles(text) == []

    @pytest.mark.parametrize("argv", [
        ("crystal", "(1,3)abc"), ("crystal", "x(1,3)"), ("crystal", "(1,3)("),
        ("bump", "2134", "(2,5)x"), ("expand", "(1,3)y"),
    ])
    def test_text_outside_the_cycle_groups_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"input error: cannot parse cycles {argv[-1]!r}\n"

    @pytest.mark.parametrize("group", ["(1,,3)", "(1, ,3)", "(,1,3)", "(1,3,)"])
    def test_an_empty_entry_in_a_group_exits_2(self, capsys, group):
        code, out, err = run(capsys, "crystal", group, "--n", "1", "--json")
        assert (code, out) == (2, "")
        assert err == f"input error: cannot parse cycle {group}\n"


class TestInsert:
    def test_speg_example(self, capsys):
        code, out, _ = run(capsys, "insert", "(4)(23)(12)", "--flavor", "speg",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert data["P"]["rows"] == [["2", "3", "4"], ["4", "5"]]
        assert data["Q"]["rows"] == [["1", "2'", "3'"], ["2", "3'"]]

    def test_hm_example(self, capsys):
        code, out, _ = run(capsys, "insert", "332332", "--flavor", "hm", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["P"]["rows"] == [["2", "2", "3'", "3"], ["3", "3"]]
        assert data["Q"]["rows"] == [["1", "2", "4", "5"], ["3", "6"]]

    def test_hm_letter_below_1_exit_2(self, capsys):
        # P would hold a 0 on the diagonal, which no shifted tableau holds
        code, out, err = run(capsys, "insert", "10", "--flavor", "hm", "--json")
        assert (code, out) == (2, "")
        assert err.startswith("input error: mixed insertion takes letters >= 1")

    def test_lone_negative_letter(self, capsys):
        code, out, _ = run(capsys, "insert", "(0)(-1)(0)", "--flavor", "eg",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert data["P"]["rows"] == [["-1", "0"], ["0"]]
        assert data["Q"]["rows"] == [["1", "3"], ["2"]]

    def test_empty_input(self, capsys):
        code, out, _ = run(capsys, "insert", "", "--flavor", "oeg")
        assert code == 0
        assert "empty" in out

    def test_invalid_word_exit_2(self, capsys):
        code, _, err = run(capsys, "insert", "(1)", "--flavor", "speg")
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("insertion,flavor,target", [
        ("eg", "reduced", "(2,5)"), ("oeg", "involution", "(2,5)"),
        ("speg", "fpf", "(1,2)(3,6)(4,5)"),
    ])
    def test_insert_and_bump_name_the_word_class(self, capsys, insertion,
                                                 flavor, target):
        # 22 is in no word class; both commands refuse it with one message
        err = f"input error: (2, 2) is not in the {flavor} word class\n"
        assert run(capsys, "insert", "(2)(2)", "--flavor", insertion) == (
            2, "", err)
        assert run(capsys, "bump", "22", target, "--flavor", flavor) == (
            2, "", err)


class TestCrystal:
    def test_dot_deterministic(self, capsys):
        code, out1, _ = run(capsys, "crystal", "(1,3)(2,5)", "--flavor", "oeg",
                            "--n", "3")
        assert code == 0
        code, out2, _ = run(capsys, "crystal", "(1,3)(2,5)", "--flavor", "oeg",
                            "--n", "3")
        assert out1 == out2
        assert out1.count("digraph") == 1
        assert out1.count("->") == 38

    def test_shape_carrier(self, capsys):
        code, out, _ = run(capsys, "crystal", "--shape", "3,1", "--n", "3",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 24

    def test_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "crystal", "(1,3)(2,5)", "--flavor", "oeg",
                           "--n", "3", "--cap", "5")
        assert code == 3
        assert "resource" in err

    @pytest.mark.parametrize("argv,size,cap", [
        (("--cap", "5"), 24, 5), (("--cap", "23", "--json"), 24, 23),
        (("--n", "2", "--cap", "3"), 4, 3), (("--n", "4", "--cap", "79"), 80, 79),
    ])
    def test_cap_refused_before_the_build(self, capsys, monkeypatch, argv,
                                          size, cap):
        def unbuilt(w, n):
            raise AssertionError("the carrier was built")

        monkeypatch.setattr(crystals, "split_word", unbuilt)
        code, out, err = run(capsys, "crystal", "(1,3)(2,5)", "--flavor",
                             "oeg", *argv)
        assert code == 3 and out == ""
        assert err == (f"resource limit: carrier has {size} vertices, "
                       f"above the cap {cap}\n")

    def test_shape_cap_refused_before_the_build(self, capsys, monkeypatch):
        def unbuilt(shape, n):
            raise AssertionError("the carrier was built")

        monkeypatch.setattr(crystals, "semistandard_shifted_tableaux", unbuilt)
        assert run(capsys, "crystal", "--shape", "6,4,2", "--n", "6",
                   "--cap", "1") == (3, "", "resource limit: carrier has "
                                     "802816 vertices, above the cap 1\n")
        assert run(capsys, "crystal", "--shape", "3,1", "--n", "3",
                   "--cap", "23") == (3, "", "resource limit: carrier has "
                                      "24 vertices, above the cap 23\n")

    def test_vertex_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QC_VERTEX_CAP", "5")
        code, out, err = run(capsys, "crystal", "(1,3)(2,5)")
        assert code == 3 and out == ""
        assert err == "resource limit: carrier has 24 vertices, above the cap 5\n"

    def test_trivial_permutation_single_vertex(self, capsys):
        code, out, _ = run(capsys, "crystal", "", "--flavor", "oeg", "--n", "2",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 1 and not data["edges"]

    @pytest.mark.parametrize("argv,out", [
        (("--shape", "1"), '{"edges": [], "n": 1, "queer": true, '
                           '"vertices": ["[1]"], "weights": [[1]]}\n'),
        (("(1,3)",), '{"edges": [], "n": 1, "queer": true, '
                     '"vertices": ["12"], "weights": [[2]]}\n'),
        (("(1,2)", "--flavor", "eg"), '{"edges": [], "n": 1, "queer": false, '
                                      '"vertices": ["1"], "weights": [[1]]}\n'),
    ])
    def test_queer_carriers_below_two_factors(self, capsys, argv, out):
        # a q_1-crystal has no label at all, 1bar included, and is still queer
        assert run(capsys, "crystal", *argv, "--n", "1", "--json") == (
            0, out, "")

    @pytest.mark.parametrize("shape", ["3,3", "0", "x", "-1"])
    def test_malformed_shape_exit_2(self, capsys, shape):
        code, out, err = run(capsys, "crystal", "--shape", shape)
        assert code == 2 and out == ""
        assert err.startswith("input error: ")

    def test_target_with_shape_exit_2(self, capsys):
        code, out, err = run(capsys, "crystal", "(1,3)", "--shape", "2,1")
        assert code == 2 and out == ""
        assert err == ("input error: a target cannot be given together "
                       "with --shape\n")
        code, out, err = run(capsys, "crystal", "--shape", "2,1", "--n", "2",
                             "--flavor", "speg", "--json")
        assert code == 2 and out == ""
        assert err == ("input error: --flavor cannot be given together "
                       "with --shape\n")

    @pytest.mark.parametrize("argv,err", [
        (("--shape", "", "--n", "2"), "cannot parse shape ''"),
        (("(1,3)", "--shape", ""),
         "a target cannot be given together with --shape"),
    ], ids=["alone", "with-target"])
    def test_empty_shape_is_given_exit_2(self, capsys, argv, err):
        # an empty --shape is a malformed shape, not an absent one
        assert run(capsys, "crystal", *argv) == (
            2, "", f"input error: {err}\n")

    @pytest.mark.parametrize("target", ["", "1"])
    def test_identity_target_with_shape_exit_2(self, capsys, target):
        # an explicit empty target is a target, as "1" is
        assert run(capsys, "crystal", target, "--shape", "2,1", "--n", "2",
                   "--json") == (2, "", "input error: a target cannot be "
                                 "given together with --shape\n")

    def test_zero_bounds_are_legal(self, capsys):
        code, out, _ = run(capsys, "crystal", "(1,3)(2,5)", "--n", "0",
                           "--cap", "0", "--json")
        assert code == 0
        assert json.loads(out)["vertices"] == []


class TestBump:
    def test_chain_trace(self, capsys):
        code, out, _ = run(capsys, "bump", "2134", "(2,5)",
                           "--flavor", "involution")
        assert code == 0
        data = json.loads(out)
        assert data["result"] == [3, 2, 4, 5]
        assert data["chain"] == [
            [[2, 1, 3, 4], 2], [[2, 2, 3, 4], 2], [[3, 2, 3, 4], 1],
            [[3, 2, 4, 4], 3], [[3, 2, 4, 5], 4]]

    def test_fpf_chain(self, capsys):
        code, out, _ = run(capsys, "bump", "243", "(1,2)(3,6)(4,5)",
                           "--flavor", "fpf")
        assert code == 0
        assert json.loads(out)["result"] == [4, 6, 5]

    def test_bad_word_exit_2(self, capsys):
        code, _, _ = run(capsys, "bump", "22", "(2,5)", "--flavor", "involution")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("bump", "21", "(1,2,3)", "--flavor", "fpf"),
        ("crystal", "(1,2,3)", "--flavor", "speg"),
        ("expand", "(1,2,3)", "--flavor", "fpf"),
    ])
    def test_fpf_cycle_not_a_pair_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == ("input error: cycle (1, 2, 3) of an fpf involution "
                       "is not a pair\n")


class TestExpandAndClass:
    def test_expand(self, capsys):
        code, out, _ = run(capsys, "expand", "(1,3)(2,5)", "--flavor",
                           "involution", "--n", "4")
        assert code == 0
        assert json.loads(out)["coefficients"] == {"3,1": 1}

    @pytest.mark.parametrize("argv,out", [
        (("(1,3)", "--n", "0"),
         '{"basis": "schurP", "character": "0", "coefficients": {}}\n'),
        (("(1,2)(3,4)", "--flavor", "fpf", "--n", "1"),
         '{"basis": "schurP", "character": "1", "coefficients": {"": 1}}\n'),
        (("(1,5)", "--n", "2"),
         '{"basis": "schurP", "character": "x1^4 + 2*x1^3*x2 + '
         '2*x1^2*x2^2 + 2*x1*x2^3 + x2^4", "coefficients": {"4": 1}}\n'),
    ], ids=["zero", "constant", "two-variables"])
    def test_character_text(self, capsys, argv, out):
        assert run(capsys, "expand", *argv) == (0, out, "")

    @pytest.mark.parametrize("argv", [
        ("crystal", "(1,3)", "--flavor", "oeg", "--n", "3"),
        ("expand", "(1,3)", "--flavor", "involution", "--n", "3"),
    ], ids=["crystal", "expand"])
    def test_vertex_cap_bounds_the_carrier(self, capsys, monkeypatch, argv):
        def unbuilt(w, n):
            raise AssertionError("the carrier was built")

        monkeypatch.setattr(crystals, "split_word", unbuilt)
        monkeypatch.setenv("QC_VERTEX_CAP", "1")
        assert run(capsys, *argv) == (
            3, "", "resource limit: carrier has 9 vertices, above the cap 1\n")

    def test_expand_builds_no_carrier(self, capsys, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("a carrier was built")

        monkeypatch.setattr(crystals.Crystal, "__init__", unbuilt)
        for flavor, target in (("involution", "(1,3)(2,5)"),
                               ("fpf", "(1,4)(2,8)(3,7)(5,6)"),
                               ("reduced", "(1,4)(2,3)")):
            code, out, err = run(capsys, "expand", target, "--flavor", flavor)
            assert (code, err) == (0, ""), (flavor, err)
        assert json.loads(out)["coefficients"] == {"3,2,1": 1}

    def test_expand_gate_runs_before_the_weights(self, capsys, monkeypatch):
        def uncounted(*args):
            raise AssertionError("the weights were counted")

        monkeypatch.setattr(cli, "factorization_weights", uncounted)
        monkeypatch.setenv("QC_VERTEX_CAP", "1")
        assert run(capsys, "expand", "(1,3)", "--flavor", "involution",
                   "--n", "3") == (3, "", "resource limit: carrier has 9 "
                                   "vertices, above the cap 1\n")

    def test_class(self, capsys):
        code, out, _ = run(capsys, "class", "243", "--relation", "Sp")
        assert code == 0
        assert json.loads(out) == [[2, 4, 3], [4, 2, 3]]

    def test_word_with_a_negative_first_letter_follows_double_dash(
            self, capsys):
        # argparse reads -1,-2 as an option, so the word must follow --
        code, out, err = outcome(capsys, ["class", "-1,-2", "--relation", "K"])
        assert (code, out) == (2, "")
        assert "the following arguments are required: word" in err
        assert run(capsys, "class", "--relation", "K", "--", "-1,-2") == (
            0, "[[-1, -2]]\n", "")

    def test_infinite_class_stops_at_the_cap(self, capsys, monkeypatch):
        # the symplectic move lets the letters of 212 drift without bound
        monkeypatch.setenv("QC_VERTEX_CAP", "50")
        code, out, err = run(capsys, "class", "212", "--relation", "Sp")
        assert code == 3 and out == ""
        assert err == ("resource limit: the Sp-class of (2, 1, 2) has more "
                       "than 50 words\n")

    def test_class_at_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("QC_VERTEX_CAP", "2")
        assert run(capsys, "class", "243", "--relation", "Sp")[0] == 0
        monkeypatch.setenv("QC_VERTEX_CAP", "1")
        assert run(capsys, "class", "243", "--relation", "Sp")[0] == 3
        monkeypatch.setenv("QC_VERTEX_CAP", "x")
        code, out, err = run(capsys, "class", "243", "--relation", "Sp")
        assert code == 2 and out == "" and "QC_VERTEX_CAP" in err


class TestVerifyCommand:
    def test_pass_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify", "supersymmetry", "--maxlen", "3")
        assert code == 0
        assert "pass" in out

    def test_supersymmetry_names_the_targets_it_takes(self, capsys):
        # the target builds the first 40 carriers of each flavor's corpus
        code, out, _ = run(capsys, "verify", "supersymmetry")
        assert code == 0
        assert out == ("supersymmetry: pass (73 checks)\n"
                       "  73 characters symmetric and supersymmetric "
                       "(40 of 42 involution, 30 of 30 fpf targets)\n")

    def test_expansion_in_few_variables_warns_nothing(self, capsys):
        # each carrier's character is compared with the highest weights of
        # that same carrier in the same n variables: exact at any n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(capsys, "verify", "schurP-positivity", "--n", "2",
                         "--maxlen", "4")
        assert result == (0, "schurP-positivity: pass (59 checks)\n"
                             "  all expansions nonnegative and equal to "
                             "source counts\n", "")

    @pytest.mark.parametrize("argv,checks", [
        (("--maxlen", "1"), 5), (("--maxlen", "0"), 0), (("--n", "0"), 0),
    ], ids=["maxlen-1", "maxlen-0", "n-0"])
    def test_schurp_positivity_honours_its_bounds(self, capsys, argv, checks):
        # the reduced half reads --maxlen (at most 4) and --n as well
        assert run(capsys, "verify", "schurP-positivity", *argv) == (
            0, f"schurP-positivity: pass ({checks} checks)\n  all expansions "
               "nonnegative and equal to source counts\n", "")

    @pytest.mark.parametrize("argv,out", [
        (("reduction-lemma", "--maxm", "6"), "reduction-lemma: pass (1230 "
         "checks)\n  insertion dictionary and decompositions all hold\n"),
        (("dual-equivalence", "--maxboxes", "6"), "dual-equivalence: pass "
         "(3211 checks)\n  ck/d intertwining and the operator composites "
         "hold\n"),
    ], ids=["maxm-6", "maxboxes-6"])
    def test_every_bound_has_a_flag(self, capsys, argv, out):
        # each bound that target_bounds reports is the flag of its name
        # with "_" dropped
        assert run(capsys, "verify", *argv) == (0, out, "")

    def test_dual_equivalence_at_contract_bounds(self, capsys):
        code, out, _ = run(capsys, "verify", "dual-equivalence", "--maxlen", "6")
        assert code == 0
        assert "pass" in out

    def test_exit_code_contract(self, capsys, monkeypatch):
        def failing(res, **kw):
            res.fail("planted", "w")

        def refuted(res, **kw):
            res.conjecture = True
            res.fail("planted", "w")

        monkeypatch.setitem(cli.TARGETS, "eg-fibers", failing)
        code, out, _ = run(capsys, "verify", "eg-fibers")
        assert code == 1 and "FAIL" in out

        monkeypatch.setitem(cli.TARGETS, "conjecture-ib-bound", refuted)
        code, out, _ = run(capsys, "verify", "conjecture-ib-bound")
        assert code == 4 and "COUNTEREXAMPLE" in out

    def test_unsupported_bound_exit_2(self, capsys):
        # reduction-lemma is bounded by max_m, so --maxlen must not fall
        # back to the default bounds
        code, out, err = run(capsys, "verify", "reduction-lemma", "--maxlen", "2")
        assert code == 2 and out == ""
        assert "--maxlen" in err
        code, out, _ = run(capsys, "verify", "crystal-axioms", "--n", "4")
        assert code == 2 and out == ""
        # dual-equivalence builds no crystal, so --n is refused, not ignored
        code, out, err = run(capsys, "verify", "dual-equivalence", "--n", "4")
        assert code == 2 and out == ""
        assert "--n" in err

    def test_target_type_error_not_rerun(self, capsys, monkeypatch):
        calls = []

        def broken(res, max_len=5):
            calls.append(max_len)
            raise TypeError("bug inside the target")

        monkeypatch.setitem(cli.TARGETS, "eg-fibers", broken)
        with pytest.raises(TypeError):
            cli.main(["verify", "eg-fibers", "--maxlen", "3"])
        assert calls == [3]


# (target, accepts --maxlen, --n, --maxm, --maxboxes): every cell of the
# bound matrix; BOUNDS maps each flag to its bound
BOUND_FLAGS = [
    ("crystal-axioms", False, False, False, False),
    ("eg-fibers", True, True, False, False),
    ("oeg-fibers", True, True, False, False),
    ("speg-fibers", True, True, False, False),
    ("q-morphism-O", True, True, False, False),
    ("q-morphism-Sp", True, True, False, False),
    ("bump-properties", True, True, False, False),
    ("dual-equivalence", True, False, False, True),
    ("reduction-lemma", False, True, True, False),
    ("supersymmetry", True, True, False, False),
    ("schurP-positivity", True, True, False, False),
    ("conjecture-ib-bound", True, False, False, False),
    ("conjecture-fb-bound", True, False, False, False),
]
BOUNDS = {"maxlen": "max_len", "n": "n", "maxm": "max_m",
          "maxboxes": "max_boxes"}
BOUND_CELLS = [(target, flag, accepted)
               for target, *row in BOUND_FLAGS
               for flag, accepted in zip(BOUNDS, row)]


def test_the_bound_matrix_names_every_target():
    assert [target for target, *_ in BOUND_FLAGS] == list(TARGETS)


@pytest.mark.parametrize("target,flag,accepted", BOUND_CELLS,
                         ids=[f"{t}--{f}" for t, f, _ in BOUND_CELLS])
def test_bound_flag_matrix(capsys, monkeypatch, target, flag, accepted):
    # an accepted flag reaches the target as its bound; a refused one exits
    # 2 before the target runs
    calls = []

    def recorded(name, **bounds):
        calls.append((name, bounds))
        return VerifyResult(name, True)

    monkeypatch.setattr(cli, "run_target", recorded)
    result = run(capsys, "verify", target, f"--{flag}", "2")
    if accepted:
        assert result == (0, f"{target}: pass (0 checks)\n", "")
        assert calls == [(target, {BOUNDS[flag]: 2})]
    else:
        assert result == (cli.EXIT_INPUT, "", f"input error: verify {target} "
                                               f"does not accept --{flag}\n")
        assert calls == []


class TestBoundValidation:
    @pytest.mark.parametrize("argv", [
        ("verify", "eg-fibers", "--maxlen", "-1"),
        ("verify", "bump-properties", "--n", "-1"),
        ("crystal", "(1,3)(2,5)", "--n", "-1"),
        ("crystal", "(1,3)(2,5)", "--cap", "-1"),
        ("expand", "(1,3)", "--n", "-1"),
    ])
    def test_negative_bound_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", ["abc", "", "-5", "1.5"])
    def test_malformed_vertex_cap_env_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QC_VERTEX_CAP", value)
        code, out, err = run(capsys, "crystal", "(1,3)")
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and "QC_VERTEX_CAP" in err

    def test_bump_properties_with_one_factor(self, capsys):
        # n = 1 leaves a single weight coordinate, so no 1bar operator
        code, out, _ = run(capsys, "verify", "bump-properties", "--n", "1",
                           "--maxlen", "2")
        assert code == 0 and "pass" in out


class TestInternalInvariantFailure:
    """A broken internal invariant is a theorem failure: exit 1, the message
    on stderr, nothing on stdout."""

    def test_bump_chain_runtime_error_exit_1(self, capsys, monkeypatch):
        def broken(w, pi, flavor):
            raise RuntimeError(f"expected a unique companion for {w}")

        monkeypatch.setattr(cli, "bump_chain", broken)
        code, out, err = run(capsys, "bump", "2134", "(2,5)",
                             "--flavor", "involution")
        assert code == cli.EXIT_THEOREM_FAIL and out == ""
        assert "theorem failure: expected a unique companion for (2, 1, 3, 4)" in err

    def test_push_chain_over_its_cap_exit_1(self, capsys, monkeypatch):
        # the README chain takes four push steps
        monkeypatch.setattr(bumping, "_iteration_cap", lambda w: 1)
        code, out, err = run(capsys, "bump", "2134", "(2,5)")
        assert (code, out, err) == (
            cli.EXIT_THEOREM_FAIL, "",
            "theorem failure: push chain from (2, 1, 3, 4) exceeded 1 steps\n")

    def test_i_string_cycle_exit_1(self, capsys, monkeypatch):
        # an f_1 that fixes every word makes each 1-string a cycle: a broken
        # operator, not a carrier over a resource cap
        monkeypatch.setattr(crystals, "word_f", lambda w, i: w)
        assert run(capsys, "verify", "crystal-axioms") == (
            cli.EXIT_THEOREM_FAIL, "",
            "theorem failure: the 1-string at (1, 1, 1) has a cycle\n")

    def test_target_runtime_error_exit_1(self, capsys, monkeypatch):
        def broken(res, max_len=5, n=3):
            raise RuntimeError("L2(c) found no landing position")

        monkeypatch.setitem(cli.TARGETS, "oeg-fibers", broken)
        code, out, err = run(capsys, "verify", "oeg-fibers")
        assert code == cli.EXIT_THEOREM_FAIL and out == ""
        assert "theorem failure: L2(c)" in err


class TestClosedPipe:
    """A reader that closes the pipe early (`qc verify ... | true`) is no
    theorem failure: no traceback, and exit 141 instead of 1."""

    @pytest.mark.parametrize("argv", [
        ("verify", "conjecture-ib-bound", "--maxlen", "3"),
        ("crystal", "(1,3)(2,5)"),
    ])
    def test_closed_read_end(self, argv):
        src = pathlib.Path(cli.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "queercrystals", *argv], stdout=write,
                stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == cli.EXIT_BROKEN_PIPE != cli.EXIT_THEOREM_FAIL
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ""


# The vocabulary of the seeded argv fuzz: every command and flavor, one
# unknown of each, malformed inputs of every kind, and small targets only
FUZZ_WORDS = ("", "1", "121", "1,2,1", "2 1 3", "3232", "-1", "0", "1,,2",
              "12x", "a")
FUZZ_FACTORIZATIONS = ("(4)(23)(12)", "()(1)()", "(21)", "(1)(", "((1))",
                       "(,)", "(1,3)(2)", "")
FUZZ_CYCLES = ("(1,3)(2,5)", "(1,2)", "(1,4)(2,3)", "(1,2)(3,4)", "",
               "(1,,3)", "(1,2,3)", "(1,1)", "(0,2)", "(-1,2)", "(3)", "x",
               "(1,3")
FUZZ_SHAPES = ("1", "2,1", "3,1", "", "1,2", "2,2", "0", "-1", "a")
# words with finite classes under every relation: qc class has no --cap,
# and the Sp-class of 121 drifts through 200,000 words before exit 3
FUZZ_CLASS_WORDS = ("", "1", "2 1 3", "2,4,3", "465", "0", "-1", "1,,2", "a")
FUZZ_COMMANDS = ("insert", "crystal", "bump", "expand", "class", "verify",
                 "frobnicate")


def fuzz_argv(rng):
    """One argv drawn from the vocabulary.  A verify argv passes each bound
    its target accepts as 0 or 1, and now and then a bound it refuses."""
    pick = rng.choice
    command = pick(FUZZ_COMMANDS)
    flavors = ("reduced", "involution", "fpf", "plain")
    if command == "insert":
        argv = [pick(FUZZ_FACTORIZATIONS + FUZZ_WORDS),
                "--flavor", pick(("eg", "oeg", "speg", "hm", "peg"))]
    elif command == "crystal":
        argv = [pick(FUZZ_CYCLES), "--flavor", pick(("eg", "oeg", "speg", "peg"))]
        if rng.random() < 0.3:
            argv = ["--shape", pick(FUZZ_SHAPES)] + argv[rng.choice((0, 2)):]
        argv += ["--n", str(rng.randint(0, 4))]
        if rng.random() < 0.5:
            argv += ["--cap", str(pick((0, 1, 5, 50)))]
    elif command == "bump":
        argv = [pick(FUZZ_WORDS), pick(FUZZ_CYCLES), "--flavor", pick(flavors)]
    elif command == "expand":
        argv = [pick(FUZZ_CYCLES), "--flavor", pick(flavors),
                "--n", str(rng.randint(0, 4))]
    elif command == "class":
        argv = [pick(FUZZ_CLASS_WORDS), "--relation", pick(("K", "O", "Sp", "Q"))]
    elif command == "verify":
        target, *accepted = pick(BOUND_FLAGS + [("theorem-x", True) + (False,) * 3])
        argv = [target]
        for flag, ok in zip(BOUNDS, accepted):
            if ok or rng.random() < 0.1:
                argv += [f"--{flag}", pick(("0", "1"))]
    else:
        argv = [pick(FUZZ_WORDS)]
    if command in ("insert", "crystal") and rng.random() < 0.5:
        argv.append("--json")
    return [command, *argv]


def test_seeded_argv_fuzz(capsys):
    """A few hundred argv under a fixed seed: each exits with a code that
    qc documents, an argparse exit included, and raises nothing."""
    rng = random.Random(0)
    codes = Counter()
    for _ in range(300):
        argv = fuzz_argv(rng)
        code = outcome(capsys, argv)[0]
        assert code in (0, 1, 2, 3, 4), argv
        codes[code] += 1
    # the draw reaches the commands, the input errors and the cap
    assert {0, 2, 3} <= set(codes)
