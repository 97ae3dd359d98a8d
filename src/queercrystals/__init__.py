"""Crystals of factorized involution words.

Insertion algorithms with recording tableaux, gl_n- and q_n-crystal
operators on words, factorizations, and shifted tableaux, Little bumping
operators, dual equivalence, Schur-P characters, and a desk-scale
verification suite for the theorems tying all of these together.
"""

from .permwords import (
    FpfInvolution,
    Permutation,
    ck,
    ck0_o,
    ck0_sp,
    descent_set,
    enumerate_words,
    equivalence_class,
    word_target,
    word_to_permutation,
)
from .tableaux import (
    ShiftedTableau,
    Tableau,
    dual_equiv,
    is_semistandard,
    is_standard,
    shword,
    star_op,
    tableau_descents,
    weight,
)
from .insertion import (
    Factorization,
    InsertionResult,
    eg_insert,
    hm_insert,
    insert,
    oeg_insert,
    speg_insert,
)
from .crystals import (
    Crystal,
    QBAR,
    axioms_report,
    dbl_map,
    factorization_crystal,
    inv_map,
    is_quasi_isomorphism,
    shifted_tableau_crystal,
    shifted_tableau_crystal_all,
    word_crystal,
)
from .bumping import (
    MarkedWord,
    bump,
    bump_chain,
    bump_factorization,
    decompose_bump,
)
from .symchar import (
    character,
    expand,
    is_supersymmetric,
    is_symmetric,
    polynomial_str,
    schur_poly,
    schurp_poly,
)

__version__ = "0.1.0"
