"""What the command line's parser and its text formats need without the
geometry: the default tolerance a document records, the one number
formatter, and the relation polynomial expanded over the integers, as a
stream of terms, with the row each term is printed as.

The left side of the relation has 2^(n-2) terms
+-m_0^(2[n odd]) prod_{k in S} m_k, S running over the subsets of {1..n-1}
with |S| = n (mod 2) and sign (-1)^((n-2-|S|)/2); the right side
prod_{k in idx}(m_k^2 + 1) contributes the 2^floor((n-1)/2) terms
-prod_{k in T} m_k^2, T a subset of idx (the odd indices of 1..n-2 for odd
n, the even ones for even n).  The two families share only the constant
exponent vector, so no coefficient is ever summed but the constant: -1 for
odd n, -2 for n = 0 (mod 4), none for n = 2 (mod 4).

`descartes.descartes_polynomial` builds its PolynomialZZ from this stream,
and `nflower polynomial` writes it row by row.  The module imports nothing
from the package, so the command line can read its arguments and print a
report or a polynomial without loading the geometry or `dataclasses`; it
loads `heapq` only when the terms are generated.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import Iterator

# A document's tolerance when it names none, `--tol` when it is not given,
# and solve_report's `tol`.
DEFAULT_TOLERANCE = 1e-9

# The relation has 2^(n-2) + 2^floor((n-1)/2) terms, about 4.2 million at
# n = 24.  The terms are streamed, so the cap bounds output size and time,
# not memory.
MAX_POLYNOMIAL_N = 24

Term = tuple[int, tuple[int, ...]]


def _filled(template: str, values) -> str:
    """template % values, each value passed as a float; adding 0.0 turns -0
    into 0, so no "-0" is printed.  The template's % fields set the digits:
    the one number formatter of documents, SVGs and reports."""
    return template % tuple([float(v) + 0.0 for v in values])


def _term_row(nvars: int) -> str:
    """The %-template of one polynomial term in nvars variables,
    `<coefficient> <e_0> ... <e_{nvars-1}>` and a newline, filled with
    (c, *exps) in one call; "%s" prints every int, float and bool exactly
    as str() does."""
    return "%s " + " ".join(["%s"] * nvars) + "\n"


def _relation_terms(n: int) -> Iterator[Term]:
    """The terms (coefficient, exponent vector) of the relation lhs - rhs
    in m_0..m_{n-1}, in graded lexicographic order, as an iterator; n
    outside 3..MAX_POLYNOMIAL_N raises ValueError at the call, before any
    term."""
    if n < 3:
        raise ValueError("need n >= 3")
    if n > MAX_POLYNOMIAL_N:
        raise ValueError(f"subset enumeration capped at n = {MAX_POLYNOMIAL_N}")
    return _terms(n)


def _terms(n: int) -> Iterator[Term]:
    """_relation_terms(n) without the bounds check.  Each degree merges the
    two families, each already in order: combinations of an ascending range
    come in lexicographic order of index tuples, which is descending
    lexicographic order of the exponent vectors."""
    from heapq import merge

    odd = n % 2
    idx = range(1, n - 1, 2) if odd else range(2, n - 1, 2)
    for degree in range(n if odd else n - 2, 0, -1):
        size = degree - 2 * odd
        families = []
        if degree % 2 == odd and size >= 0:
            sign = -1 if (n - 2 - size) // 2 % 2 else 1
            families.append(_monomials(n, sign, 2 * odd, range(1, n), size, 1))
        if degree % 2 == 0:
            families.append(_monomials(n, -1, 0, idx, degree // 2, 2))
        yield from merge(*families, key=itemgetter(1), reverse=True)
    constant = -1 if odd else (-2 if n % 4 == 0 else 0)
    if constant:
        yield constant, (0,) * n


def _monomials(
    n: int, coeff: int, lead: int, positions: range, size: int, power: int
) -> Iterator[Term]:
    """Terms coeff * m_0^lead * prod_{k in S} m_k^power over the subsets S of
    `positions` with |S| = size, in descending lexicographic order of their
    exponent vectors."""
    for combo in combinations(positions, size):
        exps = [0] * n
        exps[0] = lead
        for k in combo:
            exps[k] = power
        yield coeff, tuple(exps)
