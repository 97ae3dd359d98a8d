import json

import pytest

from queercrystals import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_word(self):
        assert cli.parse_word("332332") == (3, 3, 2, 3, 3, 2)
        assert cli.parse_word("10,11,2") == (10, 11, 2)
        assert cli.parse_word("") == ()
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
        with pytest.raises(cli.InputError):
            cli.parse_permutation("(2,3)", "fpf")  # window not base-closed


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

    def test_empty_input(self, capsys):
        code, out, _ = run(capsys, "insert", "", "--flavor", "oeg")
        assert code == 0
        assert "empty" in out

    def test_invalid_word_exit_2(self, capsys):
        code, _, err = run(capsys, "insert", "(1)", "--flavor", "speg")
        assert code == 2
        assert "input error" in err


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

    def test_trivial_permutation_single_vertex(self, capsys):
        code, out, _ = run(capsys, "crystal", "", "--flavor", "oeg", "--n", "2",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 1 and not data["edges"]


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


class TestExpandAndClass:
    def test_expand(self, capsys):
        code, out, _ = run(capsys, "expand", "(1,3)(2,5)", "--flavor",
                           "involution", "--n", "4")
        assert code == 0
        assert json.loads(out)["coefficients"] == {"3,1": 1}

    def test_class(self, capsys):
        code, out, _ = run(capsys, "class", "243", "--relation", "Sp")
        assert code == 0
        assert json.loads(out) == [[2, 4, 3], [4, 2, 3]]


class TestVerifyCommand:
    def test_pass_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify", "supersymmetry", "--maxlen", "3")
        assert code == 0
        assert "pass" in out

    def test_dual_equivalence_at_contract_bounds(self, capsys):
        code, out, _ = run(capsys, "verify", "dual-equivalence", "--maxlen", "6")
        assert code == 0
        assert "pass" in out

    def test_exit_code_contract(self, capsys, monkeypatch):
        from queercrystals.verify import VerifyResult

        monkeypatch.setitem(
            cli.TARGETS, "eg-fibers",
            lambda **kw: VerifyResult("eg-fibers", False, counterexample="w"))
        code, out, _ = run(capsys, "verify", "eg-fibers")
        assert code == 1 and "FAIL" in out

        monkeypatch.setitem(
            cli.TARGETS, "conjecture-ib-bound",
            lambda **kw: VerifyResult(
                "conjecture-ib-bound", False, conjecture=True,
                counterexample="w"))
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

    def test_target_type_error_not_rerun(self, capsys, monkeypatch):
        calls = []

        def broken(max_len=5):
            calls.append(max_len)
            raise TypeError("bug inside the target")

        monkeypatch.setitem(cli.TARGETS, "eg-fibers", broken)
        with pytest.raises(TypeError):
            cli.main(["verify", "eg-fibers", "--maxlen", "3"])
        assert calls == [3]


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

    def test_target_runtime_error_exit_1(self, capsys, monkeypatch):
        def broken(max_len=5, n=3):
            raise RuntimeError("L2(c) found no landing position")

        monkeypatch.setitem(cli.TARGETS, "oeg-fibers", broken)
        code, out, err = run(capsys, "verify", "oeg-fibers")
        assert code == cli.EXIT_THEOREM_FAIL and out == ""
        assert "theorem failure: L2(c)" in err
