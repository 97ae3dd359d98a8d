from collections import Counter

import pytest
from reference import (
    atoms,
    ell_o,
    highest_weights,
    reference_semistandard_shifted_tableaux,
    reference_semistandard_tableaux,
    simple,
)

from queercrystals import verify
from queercrystals.crystals import (
    Crystal,
    factorization_crystal,
    factorization_weights,
    shifted_tableau_crystal,
    word_crystal,
)
from queercrystals.permwords import FpfInvolution, Permutation, get_flavor
from queercrystals.symchar import (
    character,
    expand,
    is_supersymmetric,
    is_symmetric,
    polynomial_str,
    schur_poly,
    schurp_poly,
)
from queercrystals.verify import run_target

P = Permutation


def stanley(pi, flavor, n):
    """The character of the flavor's factorization crystal of pi."""
    return character(factorization_crystal(pi, flavor, n))


def x(exps, coeff=1):
    """The monomial coeff * x^exps."""
    return {tuple(exps): coeff}


class TestPolynomial:
    def test_text(self):
        assert polynomial_str(x((2, 1), 3)) == "3*x1^2*x2"
        assert polynomial_str({(1, 0): -1, (0, 2): 1, (0, 0): -2}) == \
            "-x1 + x2^2 - 2"
        assert polynomial_str({(0, 0): 1}) == "1"
        assert polynomial_str({}) == "0"

    def test_symmetry(self):
        assert is_symmetric({(1, 0): 1, (0, 1): 1})
        assert not is_symmetric(x((1, 0)))
        assert not is_symmetric({(1, 0): 1, (0, 1): 2})
        assert is_supersymmetric({(1, 0): 1, (0, 1): 1})
        assert not is_supersymmetric(x((1, 1)))  # becomes -x1^2
        assert is_symmetric({}) and is_supersymmetric({})
        assert is_supersymmetric(x((2,)))  # no x_2 to substitute


class TestSchurFamilies:
    def test_schur_basics(self):
        assert schur_poly((1,), 2) == {(1, 0): 1, (0, 1): 1}
        assert schur_poly((2, 1), 1) == {}

    def test_schurp_by_enumeration(self):
        assert schurp_poly((2, 1), 2) == {(2, 1): 1, (1, 2): 1}
        assert is_symmetric(schurp_poly((3, 1), 3))
        assert is_supersymmetric(schurp_poly((3, 1), 3))

    def test_characters_match(self):
        c = shifted_tableau_crystal(3, (3, 1))
        assert character(c) == schurp_poly((3, 1), 3)
        pi = P.from_cycles([(1, 3), (2, 5)])
        assert character(factorization_crystal(pi, "involution", 3)) == \
            schurp_poly((3, 1), 3)

    def test_singleton_character(self):
        single = Crystal(
            [()], 3, lambda v: (0, 0, 0), lambda v, i: None, lambda v, i: None,
            lambda v: None, lambda v: None)
        assert character(single) == {(0, 0, 0): 1}

    def test_character_additive_over_components(self):
        wc = word_crystal(2, 3)
        total = Counter()
        for comp in wc.components():
            total += Counter(map(wc.wt, comp))
        assert total == character(wc)


class TestStanley:
    def test_single_word(self):
        assert stanley(simple(1), "reduced", 2) == {(1, 0): 1, (0, 1): 1}

    def test_atom_sum(self):
        pi = P.from_cycles([(2, 5)])
        lhs = stanley(pi, "involution", 3)
        rhs = Counter()
        for a in atoms(pi, "involution"):
            rhs += stanley(a, "reduced", 3)
        assert lhs == rhs

    def test_fpf_atom_sum(self):
        pi = FpfInvolution([(1, 4), (2, 6), (3, 5)])
        lhs = stanley(pi, "fpf", 3)
        rhs = Counter()
        for a in atoms(pi, "fpf"):
            rhs += stanley(a, "reduced", 3)
        assert lhs == rhs

    def test_supersymmetric_characters(self):
        pi = FpfInvolution([(1, 4), (2, 6), (3, 5)])
        for crys in (factorization_crystal(pi, "fpf", 3),
                     word_crystal(3, 4)):
            assert is_supersymmetric(character(crys))


class TestExpand:
    def test_self_expansion(self):
        assert expand(schurp_poly((3, 1), 3), "schurP") == {(3, 1): 1}
        assert expand(schur_poly((2, 1), 3), "schur") == {(2, 1): 1}

    def test_stanley_expansion_matches_highest_weights(self):
        pi = P.from_cycles([(1, 3), (2, 5)])
        n = ell_o(pi)
        crys = factorization_crystal(pi, "involution", n)
        coeffs = expand(character(crys), "schurP")
        hw = {}
        for _, wt in highest_weights(crys):
            key = tuple(v for v in wt if v)
            hw[key] = hw.get(key, 0) + 1
        assert coeffs == hw
        assert all(c > 0 for c in coeffs.values())

    def test_basis_mismatch_raises(self):
        # x1*x2 alone is not a nonneg combination starting at a strict shape
        with pytest.raises(ValueError):
            expand(x((1, 1)), "schurP")

    def test_unknown_basis_raises(self):
        with pytest.raises(ValueError, match="unknown basis"):
            expand(x((1,)), "monomial")

    def test_cached_bases_are_read_only(self):
        cached = schurp_poly((3, 1), 3)
        kept = dict(cached)
        with pytest.raises(TypeError):
            cached[(3, 1, 0)] = 2
        with pytest.raises(TypeError):
            del cached[(3, 1, 0)]
        ch = character(shifted_tableau_crystal(3, (3, 1)))
        before = dict(ch)
        assert expand(ch, "schurP") == {(3, 1): 1}
        assert expand(cached, "schurP") == {(3, 1): 1}
        assert ch == before
        assert schurp_poly((3, 1), 3) is cached and dict(cached) == kept


def reference_basis(shape, n, shifted):
    """P_shape (s_shape when not shifted) in x_1..x_n, as the weight counts
    of the reference tableau enumeration; a shifted code k reads (k+1)//2."""
    tableaux = (reference_semistandard_shifted_tableaux if shifted
                else reference_semistandard_tableaux)
    out = Counter()
    for t in tableaux(shape, n):
        entries = [(v + 1) // 2 if shifted else v for row in t.rows for v in row]
        out[tuple(entries.count(k) for k in range(1, n + 1))] += 1
    return out


def read_carriers(target, monkeypatch):
    """The crystals whose characters the target reads at default bounds."""
    seen = []

    def recording(crys):
        seen.append(crys)
        return character(crys)
    monkeypatch.setattr(verify, "character", recording)
    assert run_target(target).ok
    return seen


def read_schurp_characters(monkeypatch):
    """(pi, n, queer, character) for each character that schurP-positivity
    reads at default bounds, which it counts with no carrier."""
    seen = []

    def recording(pi, flavor, n):
        weights = factorization_weights(pi, flavor, n)
        seen.append((str(pi), n, get_flavor(flavor).queer, Counter(weights)))
        return weights
    monkeypatch.setattr(verify, "factorization_weights", recording)
    assert run_target("schurP-positivity").ok
    return seen


def test_expansions_rebuild_their_characters(monkeypatch):
    """Sum c_lam * P_lam (s_lam for a gl_n carrier) over expand's
    coefficients, with each P_lam counted from the reference tableaux,
    equals the character term by term: every character of schurP-positivity
    and the word and shifted-tableau carriers of supersymmetry."""
    characters = read_schurp_characters(monkeypatch)
    assert len(characters) == 81
    words_and_tableaux = [
        crys for crys in read_carriers("supersymmetry", monkeypatch)
        if crys.name.startswith(("W_", "ShTab"))]
    assert [crys.name for crys in words_and_tableaux] == [
        "W_2(4)", "W_3(4)", "ShTab_3[4]"]
    characters += [(crys.name, crys.n, crys.queer, character(crys))
                   for crys in words_and_tableaux]
    for name, n, queer, ch in characters:
        coeffs = expand(ch, "schurP" if queer else "schur")
        rebuilt = Counter()
        for lam, c in coeffs.items():
            for e, k in reference_basis(lam, n, queer).items():
                rebuilt[e] += c * k
        assert {e: c for e, c in rebuilt.items() if c} == dict(ch), name
