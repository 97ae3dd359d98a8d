import json
import os

import pytest

import figures
from queercrystals.crystals import (
    QBAR,
    Crystal,
    VertexCapExceeded,
    axioms_report,
    crystals_isomorphic,
    dbl_map,
    dbl_map_inverse,
    even_crystal,
    even_target_o,
    even_target_sp,
    even_words,
    explore,
    fac_e,
    fac_eq_o,
    fac_eq_sp,
    fac_f,
    fac_fq_o,
    fac_fq_sp,
    factorization_crystal,
    inv_map,
    inv_map_inverse,
    is_quasi_isomorphism,
    morphism_report,
    pair,
    perm_crystal,
    perm_words,
    shifted_tableau_crystal,
    shifted_tableau_crystal_all,
    shtab_e,
    shtab_eqbar,
    shtab_f,
    shtab_fqbar,
    sigma_set,
    sigma_set_pattern,
    word_crystal,
    word_e,
    word_eqbar,
    word_f,
    word_fqbar,
)
from queercrystals.insertion import Factorization, hm_insert, oeg_insert, speg_insert
from queercrystals.permwords import (
    FpfInvolution,
    Permutation,
    ell_o,
    ell_sp,
    involution_words,
)
from queercrystals.tableaux import ShiftedTableau

S = ShiftedTableau.from_strings
P = Permutation

PI = P.from_cycles([(1, 3), (2, 5)])
FPI = FpfInvolution([(1, 4), (2, 6), (3, 5)])


class TestWordOperators:
    W = (1, 2, 2, 3, 3, 1, 3, 2, 1, 2)

    def test_displayed_values(self):
        assert word_f(self.W, 2) == (1, 2, 3, 3, 3, 1, 3, 2, 1, 2)
        assert word_e(self.W, 2) == (1, 2, 2, 2, 3, 1, 3, 2, 1, 2)
        assert word_fqbar(self.W) == (2, 2, 2, 3, 3, 1, 3, 2, 1, 2)
        assert word_eqbar(self.W) is None

    def test_blocked(self):
        assert word_f((2, 1), 1) is None
        assert word_e((2, 1), 1) is None
        assert word_fqbar((2, 1)) is None
        assert word_eqbar((1, 2)) is None


class TestPair:
    def test_displayed(self):
        u = (1, 3, 4, 5, 8, 10, 11)
        v = (2, 6, 9, 12, 13)
        assert pair(u, v) == frozenset({(10, 9), (8, 6), (3, 2)})

    def test_empty(self):
        assert pair((1, 2), ()) == frozenset()
        assert pair((), (1, 2)) == frozenset()

    def test_recursive_oracle(self):
        import itertools

        def pair_recursive(a, b):
            best = None
            for j in range(len(b) - 1, -1, -1):
                if any(x > b[j] for x in a):
                    best = j
                    break
            if best is None:
                return frozenset()
            i = min(k for k, x in enumerate(a) if x > b[best])
            rest = pair_recursive(a[:i] + a[i + 1:], b[:best] + b[best + 1:])
            return rest | {(a[i], b[best])}

        pool = [(1, 2, 4), (2, 3), (1, 5, 6), (), (3,)]
        for a in pool:
            for b in pool:
                assert pair(a, b) == pair_recursive(a, b)


class TestFigures:
    def test_shtab_figure(self):
        c = shifted_tableau_crystal(3, (3, 1))
        vs, es = figures.shtab_figure()
        assert set(c.vertices) == vs
        assert {(x, str(i), y) for x, i, y in c.edges()} == es

    def test_orth_figure(self):
        c = factorization_crystal(PI, "involution", 3)
        vs, es = figures.orth_figure()
        assert set(c.vertices) == vs
        assert {(x, str(i), y) for x, i, y in c.edges()} == es

    def test_symp_figure(self):
        c = factorization_crystal(FPI, "fpf", 3)
        vs, es = figures.symp_figure()
        assert set(c.vertices) == vs
        assert {(x, str(i), y) for x, i, y in c.edges()} == es

    def test_pairwise_isomorphic(self):
        a = shifted_tableau_crystal(3, (3, 1))
        b = factorization_crystal(PI, "involution", 3)
        c = factorization_crystal(FPI, "fpf", 3)
        assert crystals_isomorphic(a, b)
        assert crystals_isomorphic(b, c)
        assert crystals_isomorphic(a, c)

    def test_not_isomorphic_to_smaller(self):
        a = shifted_tableau_crystal(3, (3, 1))
        d = shifted_tableau_crystal(3, (4,))
        assert not crystals_isomorphic(a, d)


class TestQueerFactorizationOps:
    def test_orthogonal_edge(self):
        fac = Factorization([(1, 3, 4), (2,), ()])
        assert fac_fq_o(fac) == Factorization([(3, 4), (1, 2), ()])
        assert fac_eq_o(fac_fq_o(fac)) == fac

    def test_gl_edge(self):
        fac = Factorization([(1, 3, 4), (2,), ()])
        assert fac_f(fac, 1) == Factorization([(1, 3), (2, 4), ()])
        assert fac_e(fac_f(fac, 1), 1) == fac

    def test_symplectic_move_branch(self):
        fac = Factorization([(2, 4, 5), (3,), ()])
        assert fac_fq_sp(fac) == Factorization([(4, 5), (2, 3), ()])

    def test_symplectic_delete_branch(self):
        fac = Factorization([(4, 5), (), (2, 3)])
        assert fac_fq_sp(fac) == Factorization([(4,), (3,), (2, 3)])

    def test_symplectic_odd_raise(self):
        fac = Factorization([(4,), (3,), (2, 3)])
        assert fac_eq_sp(fac) == Factorization([(4, 5), (), (2, 3)])

    def test_inverse_pairing_on_figure(self):
        c = factorization_crystal(FPI, "fpf", 3)
        for x in c.vertices:
            y = fac_fq_sp(x)
            if y is not None:
                assert fac_eq_sp(y) == x
            z = fac_eq_sp(x)
            if z is not None:
                assert fac_fq_sp(z) == x


class TestShiftedTableauOps:
    def test_fqbar_blocked_by_prime(self):
        assert shtab_fqbar(S([["1", "2'", "2"], ["3"]])) is None
        assert shtab_fqbar(S([["2", "2"], ["3"]])) is None

    def test_fqbar_values(self):
        assert shtab_fqbar(S([["1", "1", "2"], ["3"]])) == S([["1", "2'", "2"], ["3"]])
        assert shtab_fqbar(S([["1", "2", "2"], ["3"]])) == S([["2", "2", "2"], ["3"]])

    def test_eqbar_values(self):
        assert shtab_eqbar(S([["2", "2"], ["3"]])) == S([["1", "2"], ["3"]])
        assert shtab_eqbar(S([["1", "2'", "2"], ["3"]])) == S([["1", "1", "2"], ["3"]])
        assert shtab_eqbar(S([["1", "2", "2"], ["3"]])) is None
        assert shtab_eqbar(S([["1", "4'"], ["4"]])) is None

    def test_pairing_axiom_exhaustive(self):
        c = shifted_tableau_crystal(3, (3, 1))
        for t in c.vertices:
            for i in (1, 2):
                ft = shtab_f(t, i)
                if ft is not None:
                    assert shtab_e(ft, i) == t
                et = shtab_e(t, i)
                if et is not None:
                    assert shtab_f(et, i) == t


class TestCrystalGraph:
    def test_explore_matches_carrier(self):
        seed = Factorization([(1, 3, 4), (2,), ()])
        from queercrystals.crystals import _fac_ops

        f, e = _fac_ops("O")
        crys = explore(seed, 3, Factorization.weight, f, e, queer=True)
        assert len(crys) == 24

    def test_explore_cap(self):
        seed = Factorization([(1, 3, 4), (2,), ()])
        from queercrystals.crystals import _fac_ops

        f, e = _fac_ops("O")
        with pytest.raises(VertexCapExceeded):
            explore(seed, 3, Factorization.weight, f, e, queer=True, cap=5)

    def test_singleton_crystal(self):
        c = factorization_crystal(P.identity(), "involution", 3)
        assert len(c) == 1 and not c.edges()

    def test_components_are_p_fibers(self):
        pi = P.from_cycles([(2, 5)])
        c = factorization_crystal(pi, "involution", 2)
        fibers = {}
        for fac in c.vertices:
            fibers.setdefault(oeg_insert(fac, check=False).P, set()).add(fac)
        assert {frozenset(comp.vertices) for comp in c.components()} == {
            frozenset(v) for v in fibers.values()}

    def test_string_lengths_axiom(self):
        c = shifted_tableau_crystal(3, (3, 1))
        for t in c.vertices:
            wt = c.wt(t)
            for i in (1, 2):
                eps, phi = c.string_lengths(t, i)
                assert phi - eps == wt[i - 1] - wt[i]
            eps, phi = c.string_lengths(t, QBAR)
            assert eps + phi <= 1
            if wt[0] or wt[1]:
                assert eps + phi == 1

    def test_highest_weights(self):
        c = shifted_tableau_crystal(3, (3, 1))
        hw = c.highest_weights()
        assert hw == ((S([["1", "1", "1"], ["2"]]), (3, 1, 0)),)
        c2 = factorization_crystal(PI, "involution", 3)
        assert c2.highest_weights() == (
            (Factorization([(1, 3, 4), (2,), ()]), (3, 1, 0)),)
        # the graph has a second source, which is not a highest weight
        assert len(c.sources()) == 2

    def test_every_component_has_one_highest_weight(self):
        for crys in (word_crystal(2, 4), word_crystal(3, 4),
                     factorization_crystal(PI, "involution", 3)):
            for comp in crys.components():
                assert len(comp.highest_weights()) == 1


class TestAxioms:
    def test_pass(self):
        assert not axioms_report(word_crystal(3, 4))
        assert not axioms_report(shifted_tableau_crystal(3, (3, 1)))

    def test_deleted_edge_fails(self):
        base = shifted_tableau_crystal(3, (3, 1))
        victim = base.edges()[0]

        def f(x, i):
            if (x, i) == (victim[0], victim[1]):
                return None
            return base.f(x, i)

        broken = Crystal(base.vertices, 3, base.wt, f, base.e, queer=True)
        report = axioms_report(broken)
        assert any("pairing" in line for line in report)


class TestMorphisms:
    def test_inv_is_isomorphism(self):
        pc = perm_crystal(3, 4)
        wc = word_crystal(3, 4)
        assert not morphism_report(inv_map, pc, wc)
        assert len({inv_map(x) for x in pc.vertices}) == len(pc) == len(wc)

    def test_inv_round_trip(self):
        fac = Factorization([(2, 4, 5), (), (1,), (3,)])
        assert inv_map(fac) == (3, 1, 4, 1, 1)
        assert inv_map_inverse((3, 1, 4, 1, 1), 4) == fac

    def test_dbl(self):
        fac = Factorization([(2, 4, 5), (), (1,), (3,)])
        assert dbl_map(fac) == Factorization([(4, 8, 10), (), (2,), (6,)])
        assert dbl_map_inverse(dbl_map(fac)) == fac

    def test_q_map_is_quasi_iso(self):
        c = factorization_crystal(PI, "involution", 3)
        tab = shifted_tableau_crystal_all(3, ell_o(PI))
        assert is_quasi_isomorphism(lambda x: oeg_insert(x, check=False).Q, c, tab)
        cs = factorization_crystal(FPI, "fpf", 3)
        tab2 = shifted_tableau_crystal_all(3, ell_sp(FPI))
        assert is_quasi_isomorphism(lambda x: speg_insert(x, check=False).Q, cs, tab2)

    def test_identity_map_passes(self):
        c = shifted_tableau_crystal(3, (3, 1))
        assert not morphism_report(lambda x: x, c, c)

    def test_weight_breaking_map_fails(self):
        c = word_crystal(2, 2)
        bad = morphism_report(lambda w: w, c, Crystal(
            c.vertices, 2, lambda w: (0, 0), c.f, c.e, queer=True))
        assert bad


class TestReduction:
    def test_sigma_sets(self):
        for m in range(1, 6):
            sig = sigma_set(m)
            assert set(sig) == sigma_set_pattern(m)
            assert sum(len(ws) for ws in sig.values()) == len(perm_words(m))

    def test_even_targets(self):
        for m in range(1, 5):
            assert sorted(involution_words(even_target_o(m))) == sorted(even_words(m))
            from queercrystals.permwords import fpf_involution_words

            assert sorted(fpf_involution_words(even_target_sp(m))) == sorted(
                even_words(m))

    def test_even_structures_coincide(self):
        for n, m in ((2, 3), (3, 3)):
            assert even_crystal(n, m, "O").edges() == even_crystal(n, m, "Sp").edges()

    def test_icc_identities_small(self):
        from queercrystals.insertion import split_word

        for m in range(1, 5):
            for w in perm_words(m):
                for fac in split_word(w, 3):
                    winv = inv_map(fac)
                    hm = hm_insert(winv)
                    o = oeg_insert(fac, check=False)
                    assert o.P == hm.Q
                    assert o.Q == hm.P
                    assert oeg_insert(dbl_map(fac), check=False).Q == o.Q
                    assert speg_insert(dbl_map(fac), check=False).Q == o.Q

    def test_icc_worked_example(self):
        fac = Factorization([(), (3, 6), (1, 2, 4, 5)])
        assert inv_map(fac) == (3, 3, 2, 3, 3, 2)
        res = oeg_insert(fac, check=False)
        assert res.P == S([["1", "2", "4", "5"], ["3", "6"]])
        assert res.Q == S([["2", "2", "3'", "3"], ["3", "3"]])
        hm = hm_insert((3, 3, 2, 3, 3, 2))
        assert res.P == hm.Q and res.Q == hm.P

    def test_p_hm_transports_the_structure(self):
        # recording tableaux are constant along word-crystal edges and the
        # insertion tableau intertwines every operator
        for n, m in ((2, 5), (3, 5)):
            wc = word_crystal(n, m)
            for w in wc.vertices:
                for i in wc.indices:
                    y = wc.f(w, i)
                    if y is None:
                        continue
                    assert hm_insert(y).Q == hm_insert(w).Q
                    got = shtab_f(hm_insert(w).P, i) if i != QBAR else \
                        shtab_fqbar(hm_insert(w).P)
                    assert got == hm_insert(y).P


class TestSerialization:
    def test_dot_deterministic(self):
        c = shifted_tableau_crystal(3, (2, 1))
        assert c.to_dot() == c.to_dot()
        assert c.to_dot().startswith("digraph component0 {")
        assert 'label="1bar"' in shifted_tableau_crystal(3, (3, 1)).to_dot()

    def test_json(self):
        c = shifted_tableau_crystal(2, (2,))
        data = c.to_json()
        assert data["n"] == 2 and data["queer"]
        json.dumps(data)

    def test_vertex_cap_env(self):
        from queercrystals.crystals import vertex_cap

        old = os.environ.get("QC_VERTEX_CAP")
        try:
            os.environ["QC_VERTEX_CAP"] = "123"
            assert vertex_cap() == 123
        finally:
            if old is None:
                os.environ.pop("QC_VERTEX_CAP", None)
            else:
                os.environ["QC_VERTEX_CAP"] = old
