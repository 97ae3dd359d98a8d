from itertools import accumulate, permutations

import pytest
from reference import (
    ReferenceShiftedTableau,
    ReferenceTableau,
    col_word,
    reference_copy,
    reference_is_increasing,
    reference_is_semistandard,
    reference_is_standard,
    reference_semistandard_shifted_tableaux,
    reference_semistandard_tableaux,
    reference_standard_shifted_tableaux,
    row_word,
)

from queercrystals.crystals import strict_partitions

from queercrystals.tableaux import (
    ShiftedTableau,
    Tableau,
    dual_equiv,
    entry_from_str,
    entry_primed,
    entry_str,
    is_semistandard,
    is_standard,
    primed,
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


def increasing(t):
    return reference_is_increasing(reference_copy(t))


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
        assert is_semistandard(semi) and not increasing(semi)
        assert increasing(inc) and not is_standard(inc)
        assert is_standard(std) and increasing(std)

    def test_shifted_triple(self):
        semi = S([["2", "2", "4'"], ["3", "4'"]])
        inc = S([["2", "3", "4"], ["4", "5"]])
        std = S([["1", "2'", "4"], ["3", "5'"]])
        assert is_semistandard(semi) and not increasing(semi)
        assert increasing(inc)
        assert is_standard(std)

    def test_diagonal_prime_rejected(self):
        assert not is_semistandard(S([["1", "1"], ["2'"]]))

    def test_single_box(self):
        t = S([["1"]])
        assert is_semistandard(t) and is_standard(t)
        assert increasing(t)

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
                for t in standard_shifted_tableaux(mu):
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
        with_p = standard_shifted_tableaux((3, 1))
        without = [t for t in with_p
                   if not any(entry_primed(x) for row in t.rows for x in row)]
        assert len(with_p) == len(without) * 2 ** (4 - 1 - 1)
        assert all(is_standard(t) for t in with_p)

    def test_semistandard_all_valid(self):
        for t in semistandard_shifted_tableaux((2, 1), 3):
            assert is_semistandard(t)

    @pytest.mark.parametrize("shape", [(-1,), (3, -1), (0,), (2, 0), (1, 2)])
    def test_plain_shape_not_a_partition(self, shape):
        with pytest.raises(ValueError, match=r"^shape .* is not a partition$"):
            semistandard_tableaux(shape, 3)

    @pytest.mark.parametrize("shape", [(-1,), (3, -1), (0,), (2, 0)])
    def test_shifted_shape_with_non_positive_part(self, shape):
        with pytest.raises(ValueError, match="is not a strict partition"):
            semistandard_shifted_tableaux(shape, 3)

    @pytest.mark.parametrize("shape", [(-1,), (3, -1), (0,), (2, 0), (2, 2)])
    def test_standard_shape_not_strict(self, shape):
        with pytest.raises(ValueError, match="is not a strict partition"):
            standard_shifted_tableaux(shape)


class TestStarAndDual:
    def test_star_toggles_two(self):
        t = S([["1", "2", "3"], ["4"]])
        assert star_op(t, 1) == S([["1", "2'", "3"], ["4"]])

    def test_star_involutive(self):
        for t in standard_shifted_tableaux((3, 1)):
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
                for t in standard_shifted_tableaux(mu):
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
        assert S(t.to_json()["rows"]) == t
        p = Tableau([[1, 2, 4], [3, 5]])
        assert Tableau([map(int, row) for row in p.to_json()["rows"]]) == p
        assert t.to_json()["rows"][0] == ["1", "2'", "4"]

    def test_pretty_french(self):
        t = S([["1", "2'", "4"], ["3", "5'"]])
        lines = t.pretty().splitlines()
        assert lines[-1].strip().startswith("1")
        assert lines[0].strip().startswith("3")


def partitions(m, biggest=None):
    """All partitions of m, as weakly decreasing tuples."""
    if m == 0:
        return [()]
    biggest = m if biggest is None else biggest
    return [(p,) + rest for p in range(min(m, biggest), 0, -1)
            for rest in partitions(m - p, p)]


def mutations(t):
    """t with one box moved by 1 or 2 either way, as rows: codes 0 and below
    included, a prime toggled or a diagonal box primed."""
    for r, row in enumerate(t.rows):
        for k, x in enumerate(row):
            for y in (x - 2, x - 1, x + 1, x + 2):
                yield t.rows[:r] + (row[:k] + (y,) + row[k + 1:],) + t.rows[r + 1:]


def assert_same_tableau(t):
    ref = reference_copy(t)
    assert (t.shape, t.size()) == (ref.shape, ref.size()), t
    assert (t.pretty(), t.to_json(), repr(t)) == (
        ref.pretty(), ref.to_json(), repr(ref)), t
    assert hash(t) == hash(ref), t
    for r in range(len(t.rows) + 2):
        for c in range(len(t.rows[0]) + len(t.rows) + 2 if t.rows else 2):
            assert t.entry(r, c) == ref.entry(r, c), (t, r, c)


def test_tableaux_match_the_reference_classes():
    """The shared base, box rules and filler against the two classes,
    predicates and enumerators written out one kind at a time."""
    kinds = [(Tableau, semistandard_tableaux, reference_semistandard_tableaux,
              [mu for m in range(6) for mu in partitions(m)]),
             (ShiftedTableau, semistandard_shifted_tableaux,
              reference_semistandard_shifted_tableaux,
              [mu for m in range(7) for mu in strict_partitions(m)])]
    tabs = []
    for kind, enumerate_, reference, shapes in kinds:
        for shape in shapes:
            if kind is ShiftedTableau:
                standard = standard_shifted_tableaux(shape)
                assert [t.rows for t in standard] == [
                    t.rows for t in reference_standard_shifted_tableaux(shape)]
                tabs.extend(standard)
            for n in range(4):
                some = enumerate_(shape, n)
                assert [t.rows for t in some] == [
                    t.rows for t in reference(shape, n)], (shape, n)
                assert all(type(t) is kind for t in some)
                tabs.extend(some)
    checked = 0
    for t in tabs:
        assert_same_tableau(t)
        for u in (t, *map(type(t), mutations(t))):
            ref = reference_copy(u)
            assert is_semistandard(u) == reference_is_semistandard(ref), u
            assert is_standard(u) == reference_is_standard(ref), u
            checked += 1
    assert (len(tabs), checked) == (977, 20453)
    for t in (Tableau(), ShiftedTableau(), Tableau([[1, 10, 12], [11, 13]]),
              S([["1", "10'", "12"], ["11", "13'"]]), S([["3", "10"], ["12"]])):
        assert_same_tableau(t)
    assert Tableau([[2, 4]]) != ShiftedTableau([[2, 4]])
    for kind, rows in [(Tableau, [[1], [2, 3]]), (ShiftedTableau, [[2, 4], [6, 8]]),
                       (ShiftedTableau, [[2], []])]:
        with pytest.raises(ValueError) as got:
            kind(rows)
        with pytest.raises(ValueError) as want:
            (ReferenceTableau if kind is Tableau else ReferenceShiftedTableau)(rows)
        assert str(got.value) == str(want.value)


def test_is_standard_matches_the_reference():
    """Every standard shifted tableau and every filling of a plain shape by
    1..m, m <= 5, with their mutations (one box moved by 1 or 2, which
    repeats a value or toggles a prime)."""
    shifted = [t for m in range(6) for mu in strict_partitions(m)
               for t in standard_shifted_tableaux(mu)]
    plain = []
    for m in range(6):
        for mu in partitions(m):
            cuts = list(accumulate(mu, initial=0))
            plain += [Tableau([perm[a:b] for a, b in zip(cuts, cuts[1:])])
                      for perm in permutations(range(1, m + 1))]
    standard = {"plain": 0, "shifted": 0}
    for t in shifted + plain:
        for u in (t, *map(type(t), mutations(t))):
            got = is_standard(u)
            assert got == reference_is_standard(reference_copy(u)), u
            standard[u.KIND] += got
    # the plain standard fillings are the 44 standard Young tableaux
    assert (len(shifted), len(plain), standard) == (
        82, 984, {"plain": 44, "shifted": 318})
