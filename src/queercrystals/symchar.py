"""Crystal characters, Schur and Schur-P polynomials, and basis expansions.

A polynomial in x_1..x_n is a mapping {exponent tuple: coefficient}, each
exponent a dense tuple of length n.  A character counts the vertices of
each weight, and a Schur-type polynomial counts the tableaux of each
weight, so the latter double as independent oracles for the former.  The
cached Schur-type polynomials are read-only views.
"""

from collections import Counter
from functools import lru_cache
from types import MappingProxyType

from .tableaux import (
    is_partition,
    is_strict_partition,
    semistandard_shifted_tableaux,
    semistandard_tableaux,
    weight,
)


def polynomial_str(p):
    """p as a sum of monomials, lexicographically largest first; "0" if empty."""
    bits = []
    for e in sorted(p, reverse=True):
        c = p[e]
        mono = "*".join(
            f"x{k+1}" + (f"^{v}" if v > 1 else "")
            for k, v in enumerate(e) if v
        )
        if not mono:
            bits.append(f"{c}")
        elif c == 1:
            bits.append(mono)
        elif c == -1:
            bits.append(f"-{mono}")
        else:
            bits.append(f"{c}*{mono}")
    return " + ".join(bits).replace("+ -", "- ") or "0"


def is_symmetric(p):
    """Whether every exchange of x_i and x_{i+1} leaves p unchanged."""
    return all(p.get(e[:i] + (e[i + 1], e[i]) + e[i + 2:], 0) == c
               for e, c in p.items() for i in range(len(e) - 1))


def is_supersymmetric(p):
    """Whether substituting x_2 = -x_1 removes all x_1 dependence."""
    collapsed = Counter()
    for e, c in p.items():
        if len(e) < 2:  # no x_2 to substitute
            return True
        collapsed[(e[0] + e[1],) + e[2:]] += -c if e[1] % 2 else c
    return all(c == 0 for key, c in collapsed.items() if key[0] > 0)


def character(crys):
    """Sum of x^wt(b) over the crystal's vertices: its weight counts."""
    return Counter(map(crys.wt, crys.vertices))


def _weight_counts(tableaux, shape, n):
    """Read-only weight counts of tableaux(shape, n); empty past n rows."""
    shape = tuple(shape)
    if len(shape) > n:
        return MappingProxyType({})
    return MappingProxyType(Counter(weight(t, n) for t in tableaux(shape, n)))


@lru_cache(maxsize=None)
def schur_poly(shape, n):
    """The Schur polynomial as the generating function of Tab_n(shape)."""
    return _weight_counts(semistandard_tableaux, shape, n)


@lru_cache(maxsize=None)
def schurp_poly(shape, n):
    """The Schur P-polynomial via semistandard shifted tableaux."""
    return _weight_counts(semistandard_shifted_tableaux, shape, n)


# basis name -> (display name, basis polynomial, shape test)
BASES = {
    "schur": ("Schur", schur_poly, is_partition),
    "schurP": ("Schur-P", schurp_poly, is_strict_partition),
}


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
    enforce positivity where a theorem provides it.  p is not changed.
    """
    try:
        _, base, is_shape = BASES[basis]
    except KeyError:
        raise ValueError(f"unknown basis {basis!r}") from None
    rem = {e: c for e, c in p.items() if c}
    out = {}
    for _ in range(len(rem) + 1):
        if not rem:
            return out
        lead = max(rem)
        lam = _trim(lead)
        if not is_shape(lam):
            raise ValueError(
                f"leading exponent {lead} is not a shape; wrong basis?")
        c = out[lam] = rem[lead]
        for e, k in base(lam, len(lead)).items():
            rem[e] = rem.get(e, 0) - c * k
            if not rem[e]:
                del rem[e]
    raise ValueError("expansion did not terminate; wrong basis?")
