"""Exact integer linear algebra: vectors, and one integer elimination,
``_next_rows``, by Euclid row steps.  It serves the determinant, the cone
solves of the fan oracle (``oracle._cone_coordinates``), and a unimodularity
test that eliminates the matrix of all the rays once, sharing each cone
prefix's work among the cones.

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


def first_non_unimodular(rays: IntMat, cones: Sequence[Sequence[int]]) -> int | None:
    """Index of the lowest-indexed cone whose rays are not a basis of Z^n,
    or None if every cone's rays are.

    Each cone lists n indices into ``rays``, and each ray has n integer
    entries.  One exact elimination of the n x len(rays) matrix V whose
    columns are the rays serves all the cones, taken in the order of their
    index tuples or lists as given, and where both come, tuples first,
    since a tuple and a list do not compare (a cone's order of rays does
    not change whether they form a basis).  A stack holds, for k = 0, 1, ..., n-2, the rows
    k..n-1 of T_k V, where the integer unimodular row transform T_k (T_0 =
    I) brings the first k rays of the current cone to unit upper-triangular
    form; no later step reads rows 0..k-1.  A cone pops the stack back to
    its common prefix with the previous cone and eliminates only its new
    rays: a ray's y is its column of the top entry, and ``_next_rows`` on
    it gives the next entry; the first k rays form part of a basis iff
    every such y has gcd 1.  The last two rays need no elimination: the
    cone is unimodular iff the 2 x 2 determinant of their columns in the
    two rows left is +-1 (for n = 1, the one entry of the one ray).  A
    cone fails at its first column whose gcd, or at a tail determinant,
    that is not +-1.
    """
    order = sorted(range(len(cones)), key=cones.__getitem__ if len({*map(type, cones)}) < 2
                   else lambda c: (type(cones[c]) is list, cones[c]))
    if not order:
        return None
    n = len(cones[order[0]])
    if {len(cone) for cone in cones} | {len(ray) for ray in rays} != {n}:
        raise LatticeError(f"first_non_unimodular: every cone and ray needs {n} entries")
    if n == 0:
        return None
    stack = [list(zip(*rays))]
    prev: tuple[int, ...] = ()
    bad = None
    for c in order:
        cone = cones[c]
        k = 0
        top = len(stack) - 1
        while k < top and cone[k] == prev[k]:
            k += 1
        del stack[k + 1:]
        while k < n - 2:
            rows = list(stack[k])
            r = cone[k]
            p, g = _next_rows(rows, [row[r] for row in rows])
            if g != 1 and g != -1:
                break
            del rows[p]
            stack.append(rows)
            k += 1
        else:
            if n == 1:
                d = stack[0][0][cone[0]]
            else:
                s0, s1 = stack[k]
                a, b = cone[k], cone[k + 1]
                d = s0[a] * s1[b] - s1[a] * s0[b]
            if d == 1 or d == -1:
                k = n
        if k < n and (bad is None or c < bad):
            bad = c
        prev = cone
    return bad
