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

    Column k pivots on a row whose entry there is 1 or -1 if one exists,
    else on the first nonzero entry; a -1 pivot row is replaced by its
    negation.  Swapping and negating rows before they pivot is plain
    Bareiss on a row-permuted, row-negated matrix, so every division stays
    exact.  After a unit pivot that follows a unit pivot (or starts the
    matrix), rows with a zero in the pivot column are left alone and the
    others become ``x - fac * y``; any other step is the usual Bareiss
    update.

    Afterwards ``a`` is upper triangular in those columns, every entry is
    still an integer, and the remaining columns have undergone the same
    row operations (swaps and negations included).  Returns the sign s with
    ``s * a[n-1][n-1]`` equal to the determinant of the leading n x n block,
    counting both row swaps and row negations, or 0 (leaving ``a`` part-way)
    if the block is singular.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n):
        p = -1
        for i in range(k, n):
            e = a[i][k]
            if e == 1 or e == -1:
                p = i
                break
            if e and p < 0:
                p = i
        if p < 0:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        rowk = a[k]
        piv = rowk[k]
        if piv == -1:
            a[k] = rowk = [-y for y in rowk]
            sign = -sign
            piv = 1
        for rowi in a[k + 1:]:
            fac = rowi[k]
            if fac == 0 and piv == prev:
                continue  # the update below would leave the row unchanged
            if piv == prev == 1:
                rowi[k + 1:] = [x - fac * y for x, y in zip(rowi[k + 1:], rowk[k + 1:])]
            else:
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
