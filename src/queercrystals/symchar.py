"""Integer polynomials in finitely many variables, Schur and Schur-P
polynomials, crystal characters, and basis expansions.

Exponent vectors are dense tuples of a fixed length n.  Schur-type
polynomials come straight from tableau enumeration, so they double as
independent oracles for crystal characters.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

from .crystals import _trim
from .tableaux import semistandard_shifted_tableaux, semistandard_tableaux, weight


class Polynomial:
    """An element of Z[x_1..x_n]; terms map exponent tuples to coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=()):
        self.n = n
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} has wrong length")
            if coeff:
                data[exps] = data.get(exps, 0) + coeff
        self.terms = {e: c for e, c in data.items() if c}

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        return cls(n, {(0,) * n: 1})

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls(len(exps), {tuple(exps): coeff})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial(self.n, out)

    def __neg__(self):
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.n, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"x{k+1}" + (f"^{p}" if p > 1 else "")
                for k, p in enumerate(e) if p
            )
            if not mono:
                bits.append(f"{c}")
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")

    def swap_variables(self, i):
        """Exchange x_i and x_{i+1} (1-based)."""
        out = {}
        for e, c in self.terms.items():
            f = list(e)
            f[i - 1], f[i] = f[i], f[i - 1]
            out[tuple(f)] = c
        return Polynomial(self.n, out)

    def to_json(self):
        return [[list(e), c] for e, c in sorted(self.terms.items())]


def is_symmetric(p):
    return all(p.swap_variables(i) == p for i in range(1, p.n))


def is_supersymmetric(p):
    """Whether substituting x_2 = -x_1 removes all x_1 dependence."""
    if p.n < 2:
        return True
    collapsed = {}
    for e, c in p.terms.items():
        sign = -1 if e[1] % 2 else 1
        key = (e[0] + e[1],) + e[2:]
        collapsed[key] = collapsed.get(key, 0) + sign * c
    return all(c == 0 for key, c in collapsed.items() if key[0] > 0)


def character(crys):
    """Sum of x^wt(b) over the crystal's vertices."""
    out = {}
    for x in crys.vertices:
        e = tuple(crys.wt(x))
        out[e] = out.get(e, 0) + 1
    return Polynomial(crys.n, out)


@lru_cache(maxsize=None)
def schur_poly(shape, n):
    """The Schur polynomial as the generating function of Tab_n(shape)."""
    shape = tuple(shape)
    if len(shape) > n:
        return Polynomial.zero(n)
    out = {}
    for t in semistandard_tableaux(shape, n):
        e = weight(t, n)
        out[e] = out.get(e, 0) + 1
    return Polynomial(n, out)


@lru_cache(maxsize=None)
def schurp_poly(shape, n):
    """The Schur P-polynomial via semistandard shifted tableaux."""
    shape = tuple(shape)
    if len(shape) > n:
        return Polynomial.zero(n)
    out = {}
    for t in semistandard_shifted_tableaux(shape, n):
        e = weight(t, n)
        out[e] = out.get(e, 0) + 1
    return Polynomial(n, out)


def stanley_poly(pi, flavor, n):
    """Character of the flavor's factorization crystal in n variables."""
    from .crystals import factorization_crystal

    return character(factorization_crystal(pi, flavor, n))


def expand(p, basis, min_n=None):
    """Coefficients of p in the Schur ("schur") or Schur-P ("schurP") basis.

    Greedy elimination on the lexicographically leading monomial, whose
    exponent must be a (strict) partition at every step; a malformed leading
    term raises ValueError.  Coefficients may come out negative; callers
    enforce positivity where a theorem provides it.
    """
    if basis not in ("schur", "schurP"):
        raise ValueError(f"unknown basis {basis!r}")
    if min_n is not None and p.n < min_n:
        warnings.warn(
            f"expanding in {p.n} variables but the identity needs at least "
            f"{min_n}; coefficients may be truncated", stacklevel=2)
    base = schur_poly if basis == "schur" else schurp_poly
    rem = p
    out = {}
    for _ in range(len(p.terms) + 1):
        if rem.is_zero():
            return out
        lead = max(rem.terms)
        lam = _trim(lead)
        decreasing = all(lam[i] > lam[i + 1] for i in range(len(lam) - 1)) \
            if basis == "schurP" else \
            all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
        if not decreasing or any(x <= 0 for x in lam):
            raise ValueError(
                f"leading exponent {lead} is not a shape; wrong basis?")
        c = rem.terms[lead]
        out[lam] = c
        rem = rem - c * base(lam, p.n)
    raise ValueError("expansion did not terminate; wrong basis?")
