import pytest

from queercrystals.tableaux import (
    ShiftedTableau,
    Tableau,
    col_word,
    dual_equiv,
    entry_from_str,
    entry_str,
    is_increasing,
    is_semistandard,
    is_standard,
    primed,
    row_word,
    semistandard_shifted_tableaux,
    semistandard_tableaux,
    shword,
    shword_descents,
    standard_shifted_tableaux,
    star_op,
    tableau_descents,
    unprimed,
    weight,
)

S = ShiftedTableau.from_strings


def test_entry_codes():
    assert unprimed(3) == 6 and primed(3) == 5
    assert entry_str(6) == "3" and entry_str(5) == "3'"
    assert entry_from_str("3'") == 5 and entry_from_str("3") == 6
    assert primed(3) < unprimed(3) < primed(4)


class TestPredicates:
    def test_plain_triple(self):
        semi = Tableau([[2, 2, 4], [3, 4]])
        inc = Tableau([[2, 3, 4], [3, 4]])
        std = Tableau([[1, 2, 4], [3, 5]])
        assert is_semistandard(semi) and not is_increasing(semi)
        assert is_increasing(inc) and not is_standard(inc)
        assert is_standard(std) and is_increasing(std)

    def test_shifted_triple(self):
        semi = S([["2", "2", "4'"], ["3", "4'"]])
        inc = S([["2", "3", "4"], ["4", "5"]])
        std = S([["1", "2'", "4"], ["3", "5'"]])
        assert is_semistandard(semi) and not is_increasing(semi)
        assert is_increasing(inc)
        assert is_standard(std)

    def test_diagonal_prime_rejected(self):
        assert not is_semistandard(S([["1", "1"], ["2'"]]))

    def test_single_box(self):
        t = S([["1"]])
        assert is_semistandard(t) and is_standard(t)
        assert is_increasing(t)

    def test_with_entry_missing_box(self):
        t = S([["1", "2", "3"], ["4"]])
        for box in [(0, 0), (1, 0), (1, 4), (2, 1), (2, 3), (3, 3)]:
            with pytest.raises(ValueError, match="no box"):
                t.with_entry(*box, unprimed(2))
        assert t.with_entry(1, 2, primed(2)) == S([["1", "2'", "3"], ["4"]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ShiftedTableau([[2, 4], [6, 8]])  # not strictly decreasing
        with pytest.raises(ValueError):
            Tableau([[1], [2, 3]])


class TestReadingWords:
    def test_row_words(self):
        assert row_word(Tableau([[2, 2, 4], [3, 4]])) == (3, 4, 2, 2, 4)
        assert row_word(Tableau([[2, 3, 4], [3, 4]])) == (3, 4, 2, 3, 4)
        assert row_word(Tableau([[1, 2, 4], [3, 5]])) == (3, 5, 1, 2, 4)

    def test_col_words(self):
        assert col_word(Tableau([[2, 2, 4], [3, 4]])) == (3, 2, 4, 2, 4)
        assert col_word(Tableau([[1, 2, 4], [3, 5]])) == (3, 1, 5, 2, 4)

    def test_shword(self):
        t = S([["1", "2'", "4'", "5", "9"], ["3", "6'", "8"], ["7"]])
        assert shword(t) == (4, 6, 7, 2, 3, 8, 1, 5, 9)
        assert shword(ShiftedTableau()) == ()

    def test_descents(self):
        t = S([["1", "2'", "4'", "5", "9"], ["3", "6'", "8"], ["7"]])
        assert tableau_descents(t) == frozenset({1, 3, 5})
        assert shword_descents(t) == frozenset({1, 3, 5})
        assert tableau_descents(S([["1"]])) == frozenset()

    def test_descent_agreement_small(self):
        from queercrystals.crystals import strict_partitions

        for m in range(1, 7):
            for mu in strict_partitions(m):
                for t in standard_shifted_tableaux(mu, primes=True):
                    assert tableau_descents(t) == shword_descents(t)


class TestWeight:
    def test_displayed_example(self):
        t = S([["2", "2", "4'"], ["3", "4"]])
        assert weight(t, 5) == (0, 2, 1, 2, 0)

    def test_empty_and_total(self):
        assert weight(ShiftedTableau(), 3) == (0, 0, 0)
        t = S([["1", "2'", "4"], ["3", "5'"]])
        assert sum(weight(t, 5)) == t.size()

    def test_entry_bound(self):
        with pytest.raises(ValueError):
            weight(S([["3"]]), 2)


class TestEnumeration:
    def test_shifted_counts(self):
        assert len(semistandard_shifted_tableaux((3, 1), 3)) == 24

    def test_plain_single_column_of_rows(self):
        for m in (1, 3, 5):
            assert len(semistandard_tableaux((m,), 1)) == 1

    def test_standard_prime_factor(self):
        with_p = standard_shifted_tableaux((3, 1), primes=True)
        without = standard_shifted_tableaux((3, 1), primes=False)
        assert len(with_p) == len(without) * 2 ** (4 - 1 - 1)
        assert all(is_standard(t) for t in with_p)

    def test_semistandard_all_valid(self):
        for t in semistandard_shifted_tableaux((2, 1), 3):
            assert is_semistandard(t)

    @pytest.mark.parametrize("shape", [(-1,), (3, -1), (0,), (2, 0)])
    def test_shifted_shape_with_non_positive_part(self, shape):
        with pytest.raises(ValueError, match="is not a strict partition"):
            semistandard_shifted_tableaux(shape, 3)

    @pytest.mark.parametrize("shape", [(-1,), (3, -1), (0,), (2, 0), (2, 2)])
    def test_standard_shape_not_strict(self, shape):
        for primes in (True, False):
            with pytest.raises(ValueError, match="is not a strict partition"):
                standard_shifted_tableaux(shape, primes=primes)


class TestStarAndDual:
    def test_star_toggles_two(self):
        t = S([["1", "2", "3"], ["4"]])
        assert star_op(t, 1) == S([["1", "2'", "3"], ["4"]])

    def test_star_involutive(self):
        for t in standard_shifted_tableaux((3, 1), primes=True):
            for i in range(1, 4):
                assert star_op(star_op(t, i), i) == t

    def test_dual_equiv_final_example(self):
        t = S([["1", "2", "3"], ["4"]])
        assert dual_equiv(t, 0) == S([["1", "2'", "3"], ["4"]])
        assert dual_equiv(t, 2) == S([["1", "2", "4"], ["3"]])

    def test_dual_equiv_involutive_and_standard(self):
        from queercrystals.crystals import strict_partitions

        for m in range(1, 8):
            for mu in strict_partitions(m):
                for t in standard_shifted_tableaux(mu, primes=True):
                    for i in range(0, m - 1):
                        u = dual_equiv(t, i)
                        assert is_standard(u)
                        assert dual_equiv(u, i) == t

    def test_dual_equiv_fixed_case(self):
        # values i+1 between i and i+2 in the reading word: fixed point
        t = S([["1", "2", "3"]])
        assert dual_equiv(t, 1) == t

    def test_out_of_range_identity(self):
        t = S([["1", "2"]])
        assert dual_equiv(t, 5) == t
        assert dual_equiv(t, -3) == t


class TestSerialization:
    def test_json_round_trip(self):
        t = S([["1", "2'", "4"], ["3", "5'"]])
        assert ShiftedTableau.from_json(t.to_json()) == t
        p = Tableau([[1, 2, 4], [3, 5]])
        assert Tableau.from_json(p.to_json()) == p
        assert t.to_json()["rows"][0] == ["1", "2'", "4"]

    def test_pretty_french(self):
        t = S([["1", "2'", "4"], ["3", "5'"]])
        lines = t.pretty().splitlines()
        assert lines[-1].strip().startswith("1")
        assert lines[0].strip().startswith("3")
