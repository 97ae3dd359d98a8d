from itertools import product

import pytest
from reference import (
    invert_insertion,
    reference_copy,
    reference_insert,
    reference_is_increasing,
    row_word,
)

from queercrystals.insertion import (
    Factorization,
    eg_insert,
    forced_cuts,
    hm_insert,
    insert,
    oeg_insert,
    speg_insert,
    split_cuts,
    split_word,
)
from queercrystals.permwords import (
    descent_set,
    enumerate_words,
    equivalence_class,
    get_flavor,
    involution_words,
    reduced_words,
    word_target,
    word_to_permutation,
)
from queercrystals.tableaux import (
    ShiftedTableau,
    Tableau,
    is_semistandard,
    is_standard,
    tableau_descents,
)

S = ShiftedTableau.from_strings


class TestFactorization:
    def test_validation(self):
        with pytest.raises(ValueError):
            Factorization([(2, 1)])
        Factorization([(), (1, 3), ()])

    def test_word_and_weight(self):
        fac = Factorization([(4,), (2, 3), (1, 2)])
        assert fac.word() == (4, 2, 3, 1, 2)
        assert fac.weight() == (1, 2, 2)

    def test_split_word(self):
        splits = split_word((2, 1, 3), 2)
        assert Factorization([(2,), (1, 3)]) in splits
        # the descent forces a cut after the 2
        assert all(s[0] in ((), (2,)) for s in splits)
        assert split_word((), 2) == (Factorization(((), ())),)
        # the forced cuts: the ends and the weak descents, a repeated
        # letter included
        assert forced_cuts((2, 1, 3, 3)) == (0, 1, 3, 4)
        assert forced_cuts(()) == (0,)
        assert list(split_cuts((0, 1, 3), 2)) == [[0, 1, 3]]
        assert list(split_cuts((0, 1, 3), 1)) == []
        # at n = 0 only the empty word splits, into no factors
        assert list(split_cuts((0,), 0)) == [[0]]
        assert list(split_cuts((0, 2), 0)) == []
        assert split_word((), 0) == (Factorization(),)

    def test_inserters_take_factors_not_flat_words(self):
        with pytest.raises(TypeError):
            oeg_insert((2, 1))
        res = oeg_insert([(4,), (2, 3), (2,), (1,)])
        assert res == oeg_insert(Factorization([(4,), (2, 3), (2,), (1,)]))
        with pytest.raises(ValueError, match="not strictly increasing"):
            eg_insert([(2, 1)])


class TestGoldenExamples:
    def test_eg(self):
        res = eg_insert(Factorization([(4,), (2, 3), (2,)]))
        assert res.P == Tableau([[2, 3], [3], [4]])
        assert res.Q == Tableau([[1, 2], [2], [3]])

    def test_oeg_with_prefix_chain(self):
        res = oeg_insert(Factorization([(4,), (2, 3), (2,), (1,)]))
        assert res.P == S([["1", "2", "3", "4"], ["4"]])
        assert res.Q == S([["1", "2'", "3'", "4'"], ["2"]])
        prefixes = [
            S([["4"]]),
            S([["2", "4"]]),
            S([["2", "3"], ["4"]]),
            S([["2", "3", "4"], ["4"]]),
        ]
        for k, expected in enumerate(prefixes, 1):
            got = oeg_insert(Factorization.from_word((4, 2, 3, 2, 1)[:k]),
                             check=False)
            assert got.P == expected

    def test_speg(self):
        res = speg_insert(Factorization([(4,), (2, 3), (1, 2)]))
        assert res.P == S([["2", "3", "4"], ["4", "5"]])
        assert res.Q == S([["1", "2'", "3'"], ["2", "3'"]])

    def test_speg_single_letter(self):
        res = speg_insert(Factorization([(2,)]))
        assert res.P == S([["2"]]) and res.Q == S([["1"]])

    def test_hm(self):
        res = hm_insert((3, 3, 2, 3, 3, 2))
        assert res.P == S([["2", "2", "3'", "3"], ["3", "3"]])
        assert res.Q == S([["1", "2", "4", "5"], ["3", "6"]])
        one = hm_insert((1,))
        assert one.P == S([["1"]])

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            eg_insert(Factorization([(1,), (1,)]))
        with pytest.raises(ValueError):
            oeg_insert(Factorization([(3,), (2, 3), (4,)]))  # 3234 not inv word
        with pytest.raises(ValueError):
            speg_insert(Factorization([(1,)]))  # must start even
        for w in ((1, 0), (-2,), (2, 1, 0, 3)):  # P would hold a box <= 0
            with pytest.raises(ValueError, match="letters >= 1"):
                hm_insert(w)
        oeg_insert(Factorization([(3,), (2, 3), (4,)]), check=False)


class TestShapesAndStandardness:
    def test_shapes_agree(self):
        for pi in (word_to_permutation((1, 2, 1)),):
            for w in reduced_words(pi):
                for fac in split_word(w, 3):
                    res = eg_insert(fac)
                    assert res.P.shape == res.Q.shape

    def test_q_standard_iff_singletons(self):
        from queercrystals.permwords import involution_target

        pi = involution_target((2, 3, 4))
        for w in enumerate_words(pi, "involution"):
            for n in (2, 3, 4):
                for fac in split_word(w, n):
                    res = oeg_insert(fac)
                    m = len(w)
                    # standard exactly when the letters sit in the first m
                    # factors, one letter each
                    singletons = (all(len(f) == 1 for f in fac[:m])
                                  and all(not f for f in fac[m:]))
                    assert is_standard(res.Q) == singletons
                    assert is_semistandard(res.Q)
                    assert reference_is_increasing(reference_copy(res.P))


class TestFibersAndDescents:
    def test_p_constant_on_class_row_in_class(self):
        w = (2, 3, 4)
        cls = equivalence_class(w, "O")
        ps = {oeg_insert(Factorization.from_word(v), check=False).P for v in cls}
        assert len(ps) == 1
        p = next(iter(ps))
        assert tuple(row_word(p)) in cls

    def test_fibers_are_classes_length_six(self):
        # word-level fiber identity pushed one letter past the graph suites
        from queercrystals.verify import corpus

        for flavor, ins, rel in (("involution", oeg_insert, "O"),
                                 ("fpf", speg_insert, "Sp")):
            for pi in corpus(flavor, 6):
                fibers = {}
                for w in enumerate_words(pi, flavor):
                    p = ins(Factorization.from_word(w), check=False).P
                    fibers.setdefault(p, set()).add(w)
                for fib in fibers.values():
                    assert equivalence_class(min(fib), rel) == fib

    def test_descent_compatibility(self):
        from queercrystals.verify import corpus

        for flavor, ins in (("involution", oeg_insert), ("fpf", speg_insert)):
            for pi in corpus(flavor, 6):
                for w in enumerate_words(pi, flavor):
                    q = ins(Factorization.from_word(w), check=False).Q
                    assert descent_set(w) == tableau_descents(q)


class TestIncrementMonotonicity:
    def masks(self, w):
        for mask in product((0, 1), repeat=len(w)):
            yield tuple(a + d for a, d in zip(w, mask))

    def test_eg_recording_stable_under_increments(self):
        from queercrystals.verify import corpus

        for pi in corpus("reduced", 5):
            for w in reduced_words(pi):
                q = eg_insert(Factorization.from_word(w), check=False).Q
                for v in self.masks(w):
                    if v != w and word_target(v, "reduced") is not None:
                        assert eg_insert(Factorization.from_word(v),
                                         check=False).Q == q

    def test_oeg_recording_stable_under_increments(self):
        from queercrystals.verify import corpus

        for pi in corpus("involution", 5):
            for w in involution_words(pi):
                q = oeg_insert(Factorization.from_word(w), check=False).Q
                for v in self.masks(w):
                    if v != w and word_target(v, "involution") is not None:
                        assert oeg_insert(Factorization.from_word(v),
                                          check=False).Q == q


class TestDiagonalParity:
    @staticmethod
    def _row_phase_diagonal_hits(rows, x):
        """Walk the shared row-insertion phase read-only, reporting the
        (x, y) pair whenever the bump target sits on the main diagonal."""
        hits = []
        r = 1
        while r <= len(rows):
            row = rows[r - 1]
            idx = next((k for k, y in enumerate(row) if x <= y), None)
            if idx is None:
                break
            y = row[idx]
            if idx == 0:
                hits.append((x, y))
                break
            x = y + 1 if x == y else y
            r += 1
        return hits

    def test_speg_diagonal_bumps_even(self):
        # whenever symplectic row insertion meets the diagonal with x <= y,
        # y is even and either x is even or x = y - 1
        from queercrystals import insertion as ins
        from queercrystals.verify import corpus

        total = 0
        for pi in corpus("fpf", 6):
            for w in enumerate_words(pi, "fpf"):
                rows = []
                for a in w:
                    for x, y in self._row_phase_diagonal_hits(rows, a):
                        total += 1
                        assert y % 2 == 0, (w, x, y)
                        assert x % 2 == 0 or x == y - 1, (w, x, y)
                    ins._eg_letter("Sp", rows, a)
                got = ins.ShiftedTableau([[2 * v for v in row] for row in rows])
                assert got == speg_insert(
                    Factorization.from_word(w), check=False).P
        assert total > 0


class TestReferenceEngine:
    """The shared bump and recording loops give the P, Q and trace of the
    algorithms written out one flavor at a time."""

    @pytest.mark.parametrize("flavor", ["reduced", "involution", "fpf"])
    def test_eg_flavors_match_reference(self, flavor):
        from queercrystals.verify import corpus

        ins = get_flavor(flavor).insertion
        count, column_inserted = 0, 0
        for pi in corpus(flavor, 6):
            for w in enumerate_words(pi, flavor):
                for k in (1, 2, 3):
                    for fac in split_word(w, k):
                        res = insert(fac, ins)
                        assert res == reference_insert(fac, ins), fac
                        count += 1
                        column_inserted += any(res.column_inserted)
        assert count
        assert column_inserted or flavor == "reduced"

    def test_mixed_insertion_matches_reference(self):
        for length in range(1, 7):
            for w in product((1, 2, 3), repeat=length):
                assert hm_insert(w) == reference_insert(w, "hm"), w


class TestInversion:
    def test_round_trips_golden(self):
        for flavor, fac in (
            ("eg", Factorization([(4,), (2, 3), (2,)])),
            ("oeg", Factorization([(4,), (2, 3), (2,), (1,)])),
            ("speg", Factorization([(4,), (2, 3), (1, 2)])),
        ):
            res = insert(fac, flavor)
            assert invert_insertion(res.P, res.Q, flavor, n=len(fac)) == fac

    def test_round_trips_exhaustive_small(self):
        from queercrystals.verify import corpus

        count = 0
        for pi in corpus("involution", 5):
            if len(enumerate_words(pi, "involution")[0]) > 5:
                continue
            for w in enumerate_words(pi, "involution"):
                for fac in split_word(w, 2):
                    res = oeg_insert(fac)
                    assert invert_insertion(res.P, res.Q, "oeg", n=2) == fac
                    count += 1
            if count > 400:
                break
        assert count

    def test_empty(self):
        fac = invert_insertion(ShiftedTableau(), ShiftedTableau(), "oeg", n=2)
        assert fac == Factorization(((), ()))

    def test_hm_bijection_w24(self):
        seen = {}
        for w in product((1, 2), repeat=4):
            res = hm_insert(w)
            key = (res.P, res.Q)
            assert key not in seen
            seen[key] = w
            assert invert_insertion(res.P, res.Q, "hm") == w
            assert is_semistandard(res.P)
            assert is_standard(res.Q)

    def test_no_preimage(self):
        with pytest.raises(ValueError):
            invert_insertion(S([["2"]]), S([["1'"]]), "oeg", n=1)


def test_illegal_column_append_names_its_input():
    from queercrystals.insertion import _append_to_column

    # column 3 of a one-box shifted row list is not the next box of row 1
    with pytest.raises(RuntimeError, match=r"letter 5 to column 3 \[\]"):
        _append_to_column([[2]], 3, 5)
    with pytest.raises(RuntimeError, match=r"row 2 at column 3 \[6\] for letter 5"):
        _append_to_column([[2, 4, 6]], 3, 5)
