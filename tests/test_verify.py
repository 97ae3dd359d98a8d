"""The verification targets themselves, run at reduced bounds for speed;
the acceptance suite runs them at the full contract bounds."""

import pytest

from queercrystals.crystals import Crystal
from queercrystals.verify import (
    TARGETS,
    check_crystal_axioms,
    corpus,
    run_target,
)


def test_corpora_nonempty():
    assert len(corpus("involution", 4, (1, 4))) > 10
    assert len(corpus("fpf", 4, (1, 6))) > 5
    assert len(corpus("reduced", 4, (1, 3))) > 10


@pytest.mark.parametrize("name,bounds", [
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
])
def test_targets_pass(name, bounds):
    res = TARGETS[name](**bounds)
    assert res.ok, res.summary()
    assert res.checks > 0


def test_unknown_target():
    with pytest.raises(ValueError):
        run_target("no-such-target")


def test_mutated_operator_is_detected():
    # negative control: breaking one operator must fail the axiom suite
    def mutate(crys):
        victim = crys.edges()[0] if crys.edges() else None
        if victim is None:
            return crys

        def f(x, i):
            if (x, i) == (victim[0], victim[1]):
                return None
            return crys.f(x, i)

        return Crystal(crys.vertices, crys.n, crys.wt, f, crys.e,
                       queer=crys.queer, name=crys.name + "-mutated")

    res = check_crystal_axioms(_mutate=mutate)
    assert not res.ok
    assert res.counterexample is not None
