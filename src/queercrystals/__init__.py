"""Crystals of factorized involution words.

Insertion algorithms with recording tableaux, gl_n- and q_n-crystal
operators on words, factorizations, and shifted tableaux, Little bumping
operators, dual equivalence, Schur-P characters, and a desk-scale
verification suite for the theorems tying all of these together.
"""

__version__ = "0.1.0"
