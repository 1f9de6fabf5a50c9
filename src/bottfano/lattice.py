"""Exact integer linear algebra: vectors, and one integer elimination,
``_next_rows``, by Euclid row steps.  It serves the determinant, the cone
solves of the fan oracle (``oracle._cone_coordinates``), and a unimodularity
test that eliminates the matrix of all the rays once, sharing each cone
prefix's work among the cones and deciding each cone's last three rays by
one 3 x 3 determinant.

Vectors are tuples of Python ints and matrices are sequences of
equal-length integer rows.  Python ints are arbitrary precision, so all
arithmetic here is exact and overflow-free.  The module also holds
``shown``, the text a refusal gives for a value, since every module that
refuses a value can import from here.
"""

from __future__ import annotations

import sys
from itertools import groupby
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


def first_non_unimodular(rays: IntMat, cones: Sequence[Sequence[int]]) -> int | None:
    """Index of the lowest-indexed cone whose rays are not a basis of Z^n,
    or None if every cone's rays are.

    Each cone lists n indices into ``rays``, and each ray has n integer
    entries.  One exact elimination of the n x len(rays) matrix V whose
    columns are the rays serves all the cones, taken in the order of their
    index tuples or lists as given, and where both come, tuples first,
    since a tuple and a list do not compare (a cone's order of rays does
    not change whether they form a basis).  A stack holds, for k = 0, 1,
    ..., n-3, the rows k..n-1 of T_k V, where the integer unimodular row
    transform T_k (T_0 = I) brings the first k rays of the current prefix
    to unit upper-triangular form; no later step reads rows 0..k-1.  The
    cones come in groups that share their first n - 3 indices, the prefix.
    Each group pops the stack back to the prefix it shares with the group
    before it and eliminates only its new rays: a ray's y is its column of
    the top entry, and ``_next_rows`` on it gives the next entry; the
    prefix's rays form part of a basis iff every such y has gcd 1.  If one
    does not, every cone of the group fails, and the group's least cone
    index stands for them.  Otherwise each cone of the group needs no more
    elimination: it is unimodular iff the 3 x 3 determinant of its last
    three rays' columns in the three rows left is +-1 (for n = 2, the
    2 x 2 determinant of the two rays; for n = 1, the one entry of the one
    ray).
    """
    order = sorted(range(len(cones)), key=cones.__getitem__ if len({*map(type, cones)}) < 2
                   else lambda c: (type(cones[c]) is list, cones[c]))
    if not order:
        return None
    n = len(cones[order[0]])
    if {*map(len, cones), *map(len, rays)} != {n}:
        raise LatticeError(f"first_non_unimodular: every cone and ray needs {n} entries")
    if n == 0:
        return None
    m = max(n - 3, 0)
    stack = [list(zip(*rays))]
    prev: Sequence[int] = ()
    bad = len(cones)
    for prefix, group in groupby(order, key=lambda c: cones[c][:m]):
        k = 0
        top = len(stack) - 1
        while k < top and prefix[k] == prev[k]:
            k += 1
        del stack[k + 1:]
        while k < m:
            rows = list(stack[k])
            r = prefix[k]
            p, g = _next_rows(rows, [row[r] for row in rows])
            if g != 1 and g != -1:
                break
            del rows[p]
            stack.append(rows)
            k += 1
        prev = prefix
        if k < m:
            bad = min(bad, *group)
        elif n >= 3:
            s0, s1, s2 = stack[m]
            for c in group:
                x, y, z = cones[c][m:]
                d = (s0[x] * (s1[y] * s2[z] - s2[y] * s1[z]) - s1[x] * (s0[y] * s2[z] - s2[y] * s0[z])
                     + s2[x] * (s0[y] * s1[z] - s1[y] * s0[z]))
                if d != 1 and d != -1 and c < bad:
                    bad = c
        elif n == 2:
            s0, s1 = stack[0]
            for c in group:
                a, b = cones[c]
                d = s0[a] * s1[b] - s1[a] * s0[b]
                if d != 1 and d != -1 and c < bad:
                    bad = c
        else:
            s0, = stack[0]
            for c in group:
                d = s0[cones[c][0]]
                if d != 1 and d != -1 and c < bad:
                    bad = c
    return bad if bad < len(cones) else None
