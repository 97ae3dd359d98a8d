import pytest

from queercrystals.crystals import (
    Crystal,
    factorization_crystal,
    shifted_tableau_crystal,
    word_crystal,
)
from queercrystals.permwords import FpfInvolution, Permutation, atoms, ell_o
from queercrystals.symchar import (
    Polynomial,
    character,
    expand,
    is_supersymmetric,
    is_symmetric,
    schur_poly,
    schurp_poly,
    stanley_poly,
)

P = Permutation
x = Polynomial.monomial


class TestPolynomial:
    def test_arithmetic(self):
        p = x((1, 0)) + x((0, 1))
        assert p * p == x((2, 0)) + 2 * x((1, 1)) + x((0, 2))
        assert (p - p).is_zero()
        assert str(x((2, 1), 3)) == "3*x1^2*x2"
        assert str(Polynomial.zero(2)) == "0"

    def test_json(self):
        p = x((1, 0)) + 2 * x((0, 1))
        assert p.to_json() == [[[0, 1], 2], [[1, 0], 1]]

    def test_symmetry(self):
        assert is_symmetric(x((1, 0)) + x((0, 1)))
        assert not is_symmetric(x((1, 0)))
        assert is_supersymmetric(x((1, 0)) + x((0, 1)))
        assert not is_supersymmetric(x((1, 1)))  # becomes -x1^2


class TestSchurFamilies:
    def test_schur_basics(self):
        assert schur_poly((1,), 2) == x((1, 0)) + x((0, 1))
        assert schur_poly((2, 1), 1).is_zero()

    def test_schurp_by_enumeration(self):
        assert schurp_poly((2, 1), 2) == Polynomial(2, {(2, 1): 1, (1, 2): 1})
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
            queer=True)
        assert character(single) == Polynomial.one(3)

    def test_character_additive_over_components(self):
        wc = word_crystal(2, 3)
        total = Polynomial.zero(2)
        for comp in wc.components():
            total = total + character(comp)
        assert total == character(wc)


class TestStanley:
    def test_single_word(self):
        assert stanley_poly(P.s(1), "reduced", 2) == x((1, 0)) + x((0, 1))

    def test_atom_sum(self):
        pi = P.from_cycles([(2, 5)])
        lhs = stanley_poly(pi, "involution", 3)
        rhs = Polynomial.zero(3)
        for a in atoms(pi, "involution"):
            rhs = rhs + stanley_poly(a, "reduced", 3)
        assert lhs == rhs

    def test_fpf_atom_sum(self):
        pi = FpfInvolution([(1, 4), (2, 6), (3, 5)])
        lhs = stanley_poly(pi, "fpf", 3)
        rhs = Polynomial.zero(3)
        for a in atoms(pi, "fpf"):
            rhs = rhs + stanley_poly(a, "reduced", 3)
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
        for _, wt in crys.highest_weights():
            key = tuple(v for v in wt if v)
            hw[key] = hw.get(key, 0) + 1
        assert coeffs == hw
        assert all(c > 0 for c in coeffs.values())

    def test_basis_mismatch_raises(self):
        # x1*x2 alone is not a nonneg combination starting at a strict shape
        with pytest.raises(ValueError):
            expand(Polynomial(2, {(1, 1): 1}), "schurP")

    def test_small_n_warns(self):
        with pytest.warns(UserWarning):
            expand(schurp_poly((2, 1), 2), "schurP", min_n=3)
