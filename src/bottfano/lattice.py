"""Exact integer linear algebra: vectors, Bareiss elimination, determinants.

Vectors are tuples of Python ints and matrices are sequences of
equal-length integer rows.  Python ints are arbitrary precision, so all
arithmetic here is exact and overflow-free.
"""

from __future__ import annotations

from typing import Sequence

IntVec = tuple[int, ...]
IntMat = Sequence[Sequence[int]]


class LatticeError(ValueError):
    """Malformed input to a lattice operation."""


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


def bareiss(a: list[list[int]]) -> int:
    """Bareiss fraction-free elimination, in place, over the first n columns
    of the n-row integer matrix ``a`` (n <= row length).

    Afterwards ``a`` is upper triangular in those columns, every entry is
    still an integer and the last pivot ``a[n-1][n-1]`` is the sign-adjusted
    determinant of the leading n x n block; the remaining columns have
    undergone the same row operations.  Returns the sign of the row
    permutation, or 0 (leaving ``a`` part-way) if the block is singular.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        rowk = a[k]
        piv = rowk[k]
        for i in range(k + 1, n):
            rowi = a[i]
            fac = rowi[k]
            if fac == 0 and piv == prev:
                continue  # the update below would leave the row unchanged
            # exact division: Bareiss invariant guarantees divisibility
            rowi[k + 1:] = [
                (x * piv - fac * y) // prev for x, y in zip(rowi[k + 1:], rowk[k + 1:])
            ]
            rowi[k] = 0
        prev = piv
    return sign


def det(m: IntMat) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise LatticeError("det: square matrix required")
    a = [list(row) for row in m]
    sign = bareiss(a)
    return sign * a[n - 1][n - 1] if sign else 0
