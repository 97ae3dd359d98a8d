"""Integer polynomials in finitely many variables, Schur and Schur-P
polynomials, crystal characters, and basis expansions.

Exponent vectors are dense tuples of a fixed length n.  Schur-type
polynomials come straight from tableau enumeration, so they double as
independent oracles for crystal characters.
"""

from functools import lru_cache

from .tableaux import (
    is_partition,
    is_strict_partition,
    semistandard_shifted_tableaux,
    semistandard_tableaux,
    weight,
)


class Polynomial:
    """An element of Z[x_1..x_n]; terms map exponent tuples to coefficients.
    Built from a dict or (exponents, coefficient) pairs, repeats summed."""

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

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.n == other.n
                and self.terms == other.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial(self.n, out)

    def __neg__(self):
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, k):
        """Scaling by the integer k."""
        return Polynomial(self.n, {e: c * k for e, c in self.terms.items()})

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
    return Polynomial(crys.n, ((crys.wt(x), 1) for x in crys.vertices))


@lru_cache(maxsize=None)
def schur_poly(shape, n):
    """The Schur polynomial as the generating function of Tab_n(shape)."""
    shape = tuple(shape)
    if len(shape) > n:
        return Polynomial(n)
    return Polynomial(n, ((weight(t, n), 1)
                          for t in semistandard_tableaux(shape, n)))


@lru_cache(maxsize=None)
def schurp_poly(shape, n):
    """The Schur P-polynomial via semistandard shifted tableaux."""
    shape = tuple(shape)
    if len(shape) > n:
        return Polynomial(n)
    return Polynomial(n, ((weight(t, n), 1)
                          for t in semistandard_shifted_tableaux(shape, n)))


def _trim(wt):
    """The weight wt without its trailing zeros: the shape it names."""
    wt = tuple(wt)
    while wt and wt[-1] == 0:
        wt = wt[:-1]
    return wt


def expand(p, basis):
    """Coefficients of p in the Schur ("schur") or Schur-P ("schurP") basis.

    Greedy elimination on the lexicographically leading monomial, whose
    exponent must be a (strict) partition at every step; a malformed leading
    term raises ValueError.  Coefficients may come out negative; callers
    enforce positivity where a theorem provides it.
    """
    try:
        base, is_shape = {"schur": (schur_poly, is_partition),
                          "schurP": (schurp_poly, is_strict_partition)}[basis]
    except KeyError:
        raise ValueError(f"unknown basis {basis!r}") from None
    rem = p
    out = {}
    for _ in range(len(p.terms) + 1):
        if rem.is_zero():
            return out
        lead = max(rem.terms)
        lam = _trim(lead)
        if not is_shape(lam):
            raise ValueError(
                f"leading exponent {lead} is not a shape; wrong basis?")
        c = rem.terms[lead]
        out[lam] = c
        rem = rem - c * base(lam, p.n)
    raise ValueError("expansion did not terminate; wrong basis?")
