import json

import pytest

import figures
from reference import (
    crystals_isomorphic, dbl_map_inverse, ell_o, ell_sp, explore,
    highest_weights, inv_map_inverse, morphism_report, pair, sources)

from queercrystals import crystals
from queercrystals.crystals import (
    QBAR,
    Crystal,
    axioms_report,
    dbl_map,
    even_crystal,
    even_words,
    factorization_crystal,
    highest_weight_factorizations,
    inv_map,
    is_quasi_isomorphism,
    perm_crystal,
    perm_words,
    shifted_tableau_crystal,
    shifted_tableau_crystal_all,
    shtab_e,
    shtab_eqbar,
    shtab_f,
    shtab_fqbar,
    sigma_set_pattern,
    word_crystal,
    word_e,
    word_eqbar,
    word_f,
    word_fqbar,
)
from queercrystals.insertion import (
    Factorization, hm_insert, insert, oeg_insert, speg_insert)
from queercrystals.permwords import (
    FpfInvolution,
    LazyMap,
    Permutation,
    VertexCapExceeded,
    fpf_involution_words,
    get_flavor,
    involution_words,
    word_target,
)
from queercrystals.symchar import character, expand
from queercrystals.tableaux import ShiftedTableau
from queercrystals.verify import corpus

S = ShiftedTableau.from_strings
P = Permutation

PI = P.from_cycles([(1, 3), (2, 5)])
FPI = FpfInvolution([(1, 4), (2, 6), (3, 5)])


def ops(crys):
    """A queer carrier's operators f(x, i), e(x, i), fq(x) and eq(x), read
    through its tables."""
    f, e = crys.f_table, crys.e_table
    return ((lambda x, i: f[x].get(i)), (lambda x, i: e[x].get(i)),
            (lambda x: f[x].get(QBAR)), (lambda x: e[x].get(QBAR)))


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
    """The factorization operators through a carrier's tables, which lift
    the operators on two adjacent factors; the factorizations they act on
    need not lie in the carrier."""

    def test_orthogonal_edge(self):
        c = factorization_crystal(PI, "involution", 3)
        fac = Factorization([(1, 3, 4), (2,), ()])
        assert c.f_table[fac].get(QBAR) == Factorization([(3, 4), (1, 2), ()])
        assert c.e_table[c.f_table[fac][QBAR]][QBAR] == fac

    def test_gl_edge(self):
        c = factorization_crystal(PI, "involution", 3)
        fac = Factorization([(1, 3, 4), (2,), ()])
        assert c.f_table[fac].get(1) == Factorization([(1, 3), (2, 4), ()])
        assert c.e_table[c.f_table[fac][1]][1] == fac

    def test_symplectic_move_branch(self):
        c = factorization_crystal(FPI, "fpf", 3)
        fac = Factorization([(2, 4, 5), (3,), ()])
        assert c.f_table[fac].get(QBAR) == Factorization([(4, 5), (2, 3), ()])

    def test_symplectic_delete_branch(self):
        c = factorization_crystal(FPI, "fpf", 3)
        fac = Factorization([(4, 5), (), (2, 3)])
        assert c.f_table[fac].get(QBAR) == Factorization([(4,), (3,), (2, 3)])

    def test_symplectic_odd_raise(self):
        c = factorization_crystal(FPI, "fpf", 3)
        fac = Factorization([(4,), (3,), (2, 3)])
        assert c.e_table[fac].get(QBAR) == Factorization([(4, 5), (), (2, 3)])

    def test_inverse_pairing_on_figure(self):
        c = factorization_crystal(FPI, "fpf", 3)
        for x in c.vertices:
            y = c.f_table[x].get(QBAR)
            if y is not None:
                assert c.e_table[y].get(QBAR) == x
            z = c.e_table[x].get(QBAR)
            if z is not None:
                assert c.f_table[z].get(QBAR) == x


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
        c = factorization_crystal(word_target(seed.word(), "involution"),
                                  "involution", 3)
        crys = explore(seed, 3, Factorization.weight, *ops(c))
        assert len(crys) == 24

    def test_explore_cap(self):
        seed = Factorization([(1, 3, 4), (2,), ()])
        c = factorization_crystal(word_target(seed.word(), "involution"),
                                  "involution", 3)
        with pytest.raises(VertexCapExceeded):
            explore(seed, 3, Factorization.weight, *ops(c), cap=5)

    def test_singleton_crystal(self):
        c = factorization_crystal(P(), "involution", 3)
        assert len(c) == 1 and not c.edges()

    def test_components_are_p_fibers(self):
        pi = P.from_cycles([(2, 5)])
        c = factorization_crystal(pi, "involution", 2)
        fibers = {}
        for fac in c.vertices:
            fibers.setdefault(oeg_insert(fac, check=False).P, set()).add(fac)
        assert set(map(frozenset, c.components())) == {
            frozenset(v) for v in fibers.values()}

    def test_components_found_once_per_carrier(self):
        c = word_crystal(2, 3)
        comps = c.components()
        assert type(comps) is tuple and len(comps) == 2
        assert all(type(comp) is tuple for comp in comps)
        assert c.components() is comps
        # a partition of the vertices, each part in the carrier's order,
        # the parts in the order of their first vertices
        assert sorted(v for comp in comps for v in comp) == list(c.vertices)
        for comp in comps:
            assert comp == tuple(x for x in c.vertices if x in comp)
        firsts = [comp[0] for comp in comps]
        assert firsts == sorted(firsts) and firsts[0] == c.vertices[0]

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
        hw = highest_weights(c)
        assert hw == ((S([["1", "1", "1"], ["2"]]), (3, 1, 0)),)
        c2 = factorization_crystal(PI, "involution", 3)
        assert highest_weights(c2) == (
            (Factorization([(1, 3, 4), (2,), ()]), (3, 1, 0)),)
        assert list(highest_weight_factorizations(PI, "involution", 3)) == [
            Factorization([(1, 3, 4), (2,), ()])]
        # the graph has a second source, which is not a highest weight
        assert len(sources(c)) == 2

    def test_every_component_has_one_highest_weight(self):
        for crys in (word_crystal(2, 4), word_crystal(3, 4),
                     factorization_crystal(PI, "involution", 3)):
            hw = [x for x, _ in highest_weights(crys)]
            for comp in crys.components():
                assert len(set(comp).intersection(hw)) == 1

    def test_sources_that_e_2prime_raises_are_not_highest_weights(self):
        # one component with four sources, two of strict-partition weight
        # (4,2) and (3,2,1); e_{2'} raises the second
        pi = P.from_cycles([(1, 3), (2, 6), (4, 5)])
        crys = factorization_crystal(pi, "involution", ell_o(pi))
        assert len(crys.components()) == 1
        assert len(sources(crys)) == 4
        assert [wt for _, wt in highest_weights(crys)] == [(4, 2, 0, 0, 0, 0)]
        assert [x.weight() for x in highest_weight_factorizations(
            pi, "involution", ell_o(pi))] == [(4, 2, 0, 0, 0, 0)]
        assert expand(character(crys), "schurP") == {(4, 2): 1}


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
            return base.f_table[x].get(i)

        _, e, _, eq = ops(base)
        broken = Crystal(base.vertices, 3, base.wt, f, e,
                         lambda x: f(x, QBAR), eq)
        report = axioms_report(broken)
        assert any("pairing" in line for line in report)


def reference_quasi_isomorphism(phi, dom, cod):
    """No morphism violation, and each component of dom maps bijectively
    onto a component of cod."""
    if morphism_report(phi, dom, cod):
        return False
    cod_comps = set(map(frozenset, cod.components()))
    for comp in dom.components():
        images = {phi(x) for x in comp}
        if len(images) != len(comp) or images not in cod_comps:
            return False
    return True


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

    def test_quasi_isomorphism_evaluates_phi_once_per_vertex(self):
        c = factorization_crystal(PI, "involution", 3)
        tab = shifted_tableau_crystal_all(3, ell_o(PI))
        calls = []

        def phi(x):
            calls.append(x)
            return oeg_insert(x, check=False).Q

        assert is_quasi_isomorphism(phi, c, tab)
        assert len(calls) == len(c.vertices)

    def test_identity_map_passes(self):
        c = shifted_tableau_crystal(3, (3, 1))
        assert not morphism_report(lambda x: x, c, c)

    def test_weight_breaking_map_fails(self):
        c = word_crystal(2, 2)
        bad = morphism_report(lambda w: w, c, Crystal(
            c.vertices, 2, lambda w: (0, 0), *ops(c)))
        assert bad

    def test_string_lengths_catch_a_consistent_cycle(self):
        """f_1 and e_1 both swap a and b at one weight: the identity
        commutes with them, is defined where they are and keeps weights,
        so only the string lengths, the one e-string walk of the predicate,
        see the broken operator."""
        swap = {"a": "b", "b": "a"}
        c = Crystal("ab", 2, lambda x: (1, 1), lambda x, i: swap[x],
                    lambda x, i: swap[x])
        with pytest.raises(RuntimeError,
                           match="^the 1-string at 'a' has a cycle$"):
            is_quasi_isomorphism(lambda x: x, c, c)

    @pytest.mark.parametrize("flavor,carriers", [("involution", 55), ("fpf", 44)])
    def test_q_morphism_carriers_match_the_reference(self, flavor, carriers):
        """Every carrier of q-morphism-O and q-morphism-Sp at default bounds:
        Q is a quasi-isomorphism onto ShTab_3[m], and so says the reference,
        no violation and every component mapped bijectively onto one."""
        flav = get_flavor(flavor)
        targets = corpus(flavor, 5)
        codomains = {}  # as in the target: one carrier, and its tables, per m
        for pi in targets:
            crys = factorization_crystal(pi, flavor, 3)
            m = flav.ell(pi)
            if m not in codomains:
                codomains[m] = shifted_tableau_crystal_all(3, m)
            tab = codomains[m]
            q = LazyMap(lambda x: insert(x, flav.insertion, check=False).Q)
            assert is_quasi_isomorphism(q.__getitem__, crys, tab), pi
            assert reference_quasi_isomorphism(q.__getitem__, crys, tab), pi
        assert len(targets) == carriers

    def test_planted_maps_fail(self):
        """A weight-breaking codomain, one f-edge rerouted, a map that is
        not injective, mismatched index sets, and an e-string that runs on
        past the vertices: the predicate and the reference both say no."""
        dom = factorization_crystal(PI, "involution", 3)
        tab = shifted_tableau_crystal_all(3, ell_o(PI))
        q = LazyMap(lambda x: oeg_insert(x, check=False).Q).__getitem__
        y0, i, y1 = next(edge for edge in tab.edges() if edge[1] == 1)
        y2 = next(y for y in tab.vertices if y not in (y0, y1))
        x0, x1 = dom.components()[0][:2]

        def rerouted(y, j):
            return y2 if (y, j) == (y0, i) else tab.f_table[y].get(j)

        def collapsed(x):
            return q(x0) if x == x1 else q(x)

        def crystal(vertices, f, e, wt, n=2):
            return Crystal(vertices, n, wt, lambda x, j: f.get(x),
                           lambda x, j: e.get(x))

        # two 1-strings a -> b and c -> d; past a, e_1 takes two more steps
        # on one side and one on the other
        wt = {"a": (1, 0), "b": (0, 1), "c": (1, 0), "d": (0, 1)}.get
        f = {"a": "b", "c": "d"}
        long_e = crystal("abcd", f, {"b": "a", "d": "c", "a": "z", "z": "w"}, wt)
        short_e = crystal("abcd", f, {"b": "a", "d": "c", "a": "y"}, wt)
        planted = [
            (q, dom, Crystal(tab.vertices, 3, lambda y: tab.wt(y)[::-1],
                             *ops(tab))),
            (q, dom, Crystal(tab.vertices, 3, tab.wt, rerouted,
                             *ops(tab)[1:])),
            (collapsed, dom, tab),
            (q, dom, Crystal(tab.vertices, 3, tab.wt, *ops(tab)[:2])),
            (lambda x: "y" if x == "z" else x, long_e, short_e),
        ]
        assert is_quasi_isomorphism(q, dom, tab)
        for phi, d, c in planted:
            assert not is_quasi_isomorphism(phi, d, c)
            assert not reference_quasi_isomorphism(phi, d, c)
        assert morphism_report(*planted[-1]) == [
            "string lengths differ at a, i=1", "string lengths differ at b, i=1"]


class TestReduction:
    def test_sigma_sets(self):
        """Perm(m) is the union of the involution classes of Sigma(m)."""
        for m in range(1, 6):
            sigma = {word_target(w, "involution") for w in perm_words(m)}
            assert sigma == sigma_set_pattern(m)
            union = [w for pi in sigma for w in involution_words(pi)]
            assert sorted(union) == sorted(perm_words(m))

    def test_even_targets(self):
        """Even(m) is one involution class and one fpf class."""
        for m in range(1, 5):
            for flavor, words in (("involution", involution_words),
                                  ("fpf", fpf_involution_words)):
                (target,) = {word_target(w, flavor) for w in even_words(m)}
                assert sorted(words(target)) == sorted(even_words(m))

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
                    y = wc.f_table[w].get(i)
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

    def test_outputs_evaluate_each_edge_once(self, monkeypatch):
        """DOT and then JSON of the 1,296-vertex carrier: each f_i(x) is
        evaluated once, 1,296 lifted fac_f calls at each of the labels 1..3
        and 1,296 lifted fac_fq_sp calls at 1bar; the raw pair operators
        under them run once per distinct pair of adjacent factors, 925
        times; each output validates the edges once; the f-table holds one
        row per vertex and the e-table none; and each component lists its
        carrier's vertices in the carrier's order."""
        calls = {"f": 0, "lifted": 0, "lifted_q": 0, "edges": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        for name in ("fac_f", "fac_fq_sp"):
            monkeypatch.setattr(crystals, name,
                                counted("f", getattr(crystals, name)))
        lift = crystals._lift

        def counted_lift(pair_op):
            op = lift(pair_op)
            key = {crystals.fac_f: "lifted",
                   crystals.fac_fq_sp: "lifted_q"}.get(pair_op)
            return op if key is None else counted(key, op)

        monkeypatch.setattr(crystals, "_lift", counted_lift)
        monkeypatch.setattr(Crystal, "edges", counted("edges", Crystal.edges))
        pi = FpfInvolution([(1, 4), (2, 8), (3, 7), (5, 6)])
        crys = factorization_crystal(pi, "fpf", 4)
        assert (len(crys), len(crys.indices)) == (1296, 4)
        crys.to_dot()
        assert calls["edges"] == 1
        crys.to_json()
        assert calls == {"f": 925, "lifted": 1296 * 3, "lifted_q": 1296,
                         "edges": 2}
        assert len(crys.f_table) == 1296 and not crys.e_table
        comps = crys.components()
        assert sum(map(len, comps)) == len(crys)
        for comp in comps:
            rest = iter(crys.vertices)
            assert all(v in rest for v in comp)

    def test_vertex_cap_env(self, monkeypatch):
        from queercrystals.cli import env_cap

        for text in ("123", " 123 ", "+123"):
            monkeypatch.setenv("QC_VERTEX_CAP", text)
            assert env_cap() == 123
        monkeypatch.setenv("QC_VERTEX_CAP", "abc")
        with pytest.raises(ValueError, match=r"^QC_VERTEX_CAP='abc' is not "
                                             r"an integer >= 0$"):
            env_cap()
