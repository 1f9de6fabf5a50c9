"""Exact integer linear algebra: vectors, and one integer elimination,
``_next_rows``, by Euclid row steps.  It serves the determinant, the cone
solves of ``fan``, and a unimodularity test that shares one elimination
across many cones.

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


def _next_rows(rows: list[list[int]], y: list[int]) -> tuple[int, int]:
    """Integer Euclid steps on ``rows`` and y = ``rows`` times a column,
    until y[p] = g = +-gcd(y) is the one nonzero entry of y; returns (p, g),
    with g = 0 when y = 0.

    Pivots on a +-1 in y if there is one, else on its smallest nonzero
    entry; each other row loses the multiple of the pivot row that leaves
    its entry of y reduced mod the pivot (exactly 0 under a +-1 pivot).
    Every step is unimodular, so ``rows`` keeps its determinant.  The list
    ``rows`` and ``y`` change in place, but no row is written to: a changed
    row is replaced by a new list, and rows with a zero in y are kept.
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
        yp, prow = y[p], rows[p]
        y[p] = 0
        if any(y):
            for i, v in enumerate(y):
                if v:
                    q = v // yp
                    rows[i] = [a - q * b for a, b in zip(rows[i], prow)]
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


def _dot(row: Sequence[int], entries: Sequence[tuple[int, int]]) -> int:
    """Sum of row[j] * e over the (j, e) nonzero entries of a sparse vector."""
    d = 0
    for j, e in entries:
        d += row[j] * e
    return d


def first_non_unimodular(rays: IntMat, cones: Sequence[Sequence[int]]) -> int | None:
    """Index of the lowest-indexed cone whose rays are not a basis of Z^n,
    or None if every cone's rays are.

    Each cone lists n indices into ``rays``, and each ray has n integer
    entries.  One exact elimination serves all the cones: they are
    taken in the order of their sorted index tuples, and a stack holds,
    for k = 0, 1, ..., n-1, the rows k..n-1 of an integer unimodular row
    transform T_k (T_0 = I) that brings the first k rays of the current cone to unit
    upper-triangular form; no later step reads rows 0..k-1.  A cone pops
    the stack back to its common prefix with the previous cone and
    eliminates only its new rays: y = T_k * ray over the ray's nonzero
    entries, then ``_next_rows``; the first k rays form part of a basis iff
    every y[k:] has gcd 1.  The one row of T_{n-1} is a primitive normal of
    the first n-1 rays, so the last ray needs no elimination: the cone is
    unimodular iff ``_dot`` of that row and the last ray is +-1.  A cone
    fails at its first column whose gcd, or whose last dot, is not +-1.
    """
    keyed = sorted((tuple(sorted(cone)), c) for c, cone in enumerate(cones))
    if not keyed:
        return None
    n = len(keyed[0][0])
    if {len(cone) for cone, _ in keyed} | {len(ray) for ray in rays} != {n}:
        raise LatticeError(f"first_non_unimodular: every cone and ray needs {n} entries")
    sparse = [[(j, e) for j, e in enumerate(ray) if e] for ray in rays]
    stack = [[[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]]
    prev: tuple[int, ...] = ()
    bad = None
    for cone, c in keyed:
        k = 0
        top = len(stack) - 1
        while k < top and cone[k] == prev[k]:
            k += 1
        del stack[k + 1:]
        while k < n - 1:
            rows = list(stack[k])
            entries = sparse[cone[k]]
            if len(entries) == 1:
                ((j, e),) = entries
                y = [row[j] * e for row in rows]
            else:
                y = [0] * len(rows)
                for j, e in entries:
                    y = [a + row[j] * e for a, row in zip(y, rows)]
            p, g = _next_rows(rows, y)
            if g != 1 and g != -1:
                break
            del rows[p]
            stack.append(rows)
            k += 1
        if k == n - 1 and _dot(stack[k][0], sparse[cone[k]]) in (1, -1):
            k = n
        if k < n and (bad is None or c < bad):
            bad = c
        prev = cone
    return bad
