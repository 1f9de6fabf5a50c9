"""Exact integer linear algebra: vectors, Bareiss elimination, determinants,
and a unimodularity test that shares one elimination across many cones.

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


def _next_rows(rows: list[list[int]], y: list[int]) -> list[list[int]] | None:
    """Rows k+1.. of T_{k+1} from rows k.. of T_k and y = those rows times
    ray k, or None if gcd(y) != 1.

    Pivots on a +-1 in y if there is one, else on its smallest nonzero
    entry; each other row loses the multiple of the pivot row that leaves
    its entry of y reduced mod the pivot (exactly 0 under a +-1 pivot).
    These are integer Euclid steps, repeated until one entry of y, the gcd,
    is left.  Rows with a zero in y are kept as they are, and no row is
    written to.
    """
    rows = list(rows)
    while True:
        if 1 in y:
            p = y.index(1)
        elif -1 in y:
            p = y.index(-1)
        else:
            p = min((i for i, v in enumerate(y) if v), key=lambda i: abs(y[i]), default=-1)
            if p < 0:
                return None  # y = 0: ray k lies in the span of the rays before it
        yp, prow = y[p], rows[p]
        y[p] = 0
        if any(y):
            for i, v in enumerate(y):
                if v:
                    q = v // yp
                    rows[i] = [a - q * b for a, b in zip(rows[i], prow)]
                    y[i] = v - q * yp
        if yp == 1 or yp == -1:
            del rows[p]
            return rows
        if not any(y):
            return None  # the gcd |yp| is at least 2
        y[p] = yp


def first_non_unimodular(rays: IntMat, cones: Sequence[Sequence[int]]) -> int | None:
    """Index of the lowest-indexed cone whose rays are not a basis of Z^n,
    or None if every cone's rays are.

    Each cone lists n indices into ``rays``, and each ray has n integer
    entries.  One exact elimination serves all the cones: they are
    taken in the order of their sorted index tuples, and a stack holds,
    for k = 0, 1, ..., the rows k..n-1 of an integer unimodular row
    transform T_k (T_0 = I) that brings the first k rays of the current cone to unit
    upper-triangular form; no later step reads rows 0..k-1.  A cone pops
    the stack back to its common prefix with the previous cone and
    eliminates only its new rays: y = T_k * ray over the ray's nonzero
    entries, then ``_next_rows``.  The rays form a basis iff every y[k:]
    has gcd 1, so a cone fails at its first column whose gcd is not 1.
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
        while k < n:
            rows = stack[k]
            y = [0] * len(rows)
            for j, e in sparse[cone[k]]:
                y = [a + row[j] * e for a, row in zip(y, rows)]
            rows = _next_rows(rows, y)
            if rows is None:
                break
            stack.append(rows)
            k += 1
        if k < n and (bad is None or c < bad):
            bad = c
        prev = cone
    return bad
