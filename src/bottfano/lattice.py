"""Exact integer linear algebra: vectors, and one integer elimination,
``_next_rows``, by Euclid row steps.  It serves the determinant and the
fan oracle's cone solves (``oracle._cone_coordinates``) and unimodularity
scan (``oracle._first_non_unimodular``).

Vectors are tuples of Python ints and matrices are sequences of
equal-length integer rows.  Python ints are arbitrary precision, so all
arithmetic here is exact and overflow-free.  The module also holds
``shown``, the text a refusal gives for a value, since every module that
refuses a value can import from here.
"""

from __future__ import annotations

import sys
from typing import Sequence

IntVec = tuple[int, ...]
IntMat = Sequence[Sequence[int]]


class LatticeError(ValueError):
    """Malformed input to a lattice operation."""


def shown(value, short: str | None = None) -> str:
    """A refusal's text for ``value``: its ``repr`` where that prints, as it
    does for an int of up to 4,300 digits unless PYTHONINTMAXSTRDIGITS
    lowers that limit, to as few as 640.  Past a limit of L digits, an int
    is shown as ``short``, a true short form of it, or the bound "over
    10^(L - 1)", "below -10^(L - 1)" for a negative ``value``; any other
    value, such as a tuple that holds such an int, as "a tuple holding an
    int of over L digits", after its type."""
    try:
        return repr(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if not isinstance(value, int):
            return f"a {type(value).__name__} holding an int of over {limit} digits"
        bound = f"10^{limit - 1}"
        return short or (f"over {bound}" if value > 0 else f"below -{bound}")


def mu(x: Sequence[int]) -> int:
    """min(0, x_1, ..., x_n); always <= 0."""
    if len(x) == 0:
        raise LatticeError("mu: empty vector")
    return min(0, *x)


def nu(x: Sequence[int]) -> int:
    """(x_1 + ... + x_n) - (n+1) * mu(x); always >= 0."""
    if len(x) == 0:
        raise LatticeError("nu: empty vector")
    return sum(x) - (len(x) + 1) * mu(x)


def _next_rows(rows: list[list[int]], y: list[int]) -> tuple[int, int]:
    """Integer Euclid steps on ``rows`` and y = ``rows`` times a column,
    until y[p] = g = +-gcd(y) is the one nonzero entry of y; returns (p, g),
    with g = 0 when y = 0.

    Pivots on a +-1 in y if there is one, else on its smallest nonzero
    entry; each other row loses the multiple of the pivot row that leaves
    its entry of y reduced mod the pivot (exactly 0 under a +-1 pivot).
    Every step is unimodular, so ``rows`` keeps its determinant.  The list
    ``rows`` and ``y`` change in place, but no row is written to: a changed
    row is replaced by a new list, a copy updated only at the columns where
    the pivot row is nonzero, and rows with a zero in y are kept.
    """
    while True:
        if 1 in y:
            p = y.index(1)
        elif -1 in y:
            p = y.index(-1)
        else:
            p = min((i for i, v in enumerate(y) if v), key=lambda i: abs(y[i]), default=-1)
            if p < 0:
                return 0, 0
        yp = y[p]
        y[p] = 0
        if any(y):
            pivot = [(c, b) for c, b in enumerate(rows[p]) if b]
            for i, v in enumerate(y):
                if v:
                    q = v // yp
                    row = list(rows[i])
                    for c, b in pivot:
                        row[c] -= q * b
                    rows[i] = row
                    y[i] = v - q * yp
            if yp != 1 and yp != -1 and any(y):
                y[p] = yp
                continue  # a remainder is left: pivot again on the smallest entry
        y[p] = yp
        return p, yp


def det(m: IntMat) -> int:
    """Exact determinant: ``_next_rows`` on each column of the rows not yet
    pivoted, times (-1)^p as pivot row p moves to the top of those rows."""
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise LatticeError("det: square matrix required")
    rows = [list(row) for row in m]
    d = 1
    for j in range(n):
        p, g = _next_rows(rows, [row[j] for row in rows])
        if not g:
            return 0
        d *= -g if p & 1 else g
        del rows[p]
    return d
