"""Exhaustive sweeps over coefficient ranges.

Candidates are the assignments of the coefficient slots (j, l, k), listed
in ascending lexicographic order by ``coefficient_slots``.  One engine,
shared by ``sweep`` and ``chary_compare``, decides them by a pruned
depth-first search over whole coefficient vectors, column l = m-1 down
to 1, with the closed-form nu-sum criterion, and decides every vector
from one memo of nu values, local to the search, whose entries list only
the vectors within the bound; the last two cells, a_{m-1,1} and a_{m,1},
are decided together, one memo lookup per mu value of a_{m-1,1}'s
b-vector and two bisections per vector.  It counts only the Fano and the
weak Fano candidates it keeps; not weak Fano is the rest of the
width^slots candidates.  Hits are tuples of slot values in lexicographic
order.  ``chary_compare`` runs it with a tighter bound that finds only
the Fano towers, and generates the matrices that Chary's condition
accepts instead of testing candidates against it.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import NamedTuple

from .lattice import shown
from .tower import Verdict

DEFAULT_CAP = 10**6

#: Counts longer than this (about 3,000 digits) are shown in a short form in
#: refusals, since ``str`` refuses ints past 4,300 digits; see ``shown``.
PRINTABLE_BITS = 10_000

#: Most coefficient slots a sweep takes, whatever its cap: a range of width 1
#: has one candidate however many slots it has, but each slot still costs
#: Python objects and time.  The slowest sweep admitted, chary-compare --r 447
#: over 0:0 (99,681 slots), takes 0.5-0.7 s and about 75 MB on a 2-core x86-64
#: host.
SLOT_WORK_LIMIT = 10**5

#: Coefficient triples (a_{2,1}, a_{3,1}, a_{3,2}) of the Fano 3-stage
#: Bott manifolds; the `fano` sweep over stages (1,1,1) must reproduce
#: exactly this set.
FANO_THREE_STAGE_TRIPLES = frozenset(
    {
        (0, 0, 0),
        (0, 0, 1),
        (0, 0, -1),
        (0, 1, 0),
        (0, 1, 1),
        (0, 1, -1),
        (0, -1, 0),
        (0, -1, 1),
        (0, -1, -1),
        (1, 0, 0),
        (1, 0, 1),
        (1, 0, -1),
        (-1, 0, 0),
        (-1, 1, 1),
        (-1, -1, -1),
    }
)

SWEEP_MODES = ("fano", "weak_fano", "census")


class SweepError(ValueError):
    """Invalid sweep parameters or candidate cap exceeded."""


def _check_extent(coeff_range, cap, nslots: int) -> tuple[int, int]:
    """Check the range, a tuple of two int ends, and the cap, a positive
    int, then refuse a sweep of ``nslots`` slots over ``coeff_range`` whose
    slot count exceeds ``SLOT_WORK_LIMIT``, or whose candidate count, or
    slot count, exceeds ``cap``; return the range ends.  The fixed limit
    comes first, so "raise --cap" is advised only where raising the cap can
    help."""
    if type(coeff_range) is not tuple:
        raise SweepError(f"coefficient range must be a tuple, got {type(coeff_range).__name__}")
    if len(coeff_range) != 2:
        raise SweepError(f"coefficient range must be a pair lo, hi, got {shown(coeff_range)}")
    lo, hi = coeff_range
    if type(lo) is not int or type(hi) is not int:
        raise SweepError(f"coefficient range ends must be integers, got {shown(lo)}:{shown(hi)}")
    if lo > hi:
        raise SweepError(f"empty coefficient range {shown(lo)}:{shown(hi)}")
    if type(cap) is not int:
        raise SweepError(f"cap must be an integer, got {shown(cap)}")
    if cap < 1:  # every sweep has a candidate, so no smaller cap admits one
        raise SweepError(f"cap must be a positive integer, got {shown(cap)}")
    if nslots > SLOT_WORK_LIMIT:
        raise SweepError(f"{shown(nslots)} coefficient slots exceed limit {SLOT_WORK_LIMIT}")
    width = hi - lo + 1
    # the count is width^nslots, or at least the bound shown for a width too long to show
    base = shown(width)
    power = f"{base}^{nslots}" if base.isdigit() else base
    # the count width ** nslots is at least 2 ** min_bits, so past both the
    # cap and the printable length it is refused without being computed
    min_bits = nslots * (width.bit_length() - 1)
    if min_bits >= max(cap.bit_length(), PRINTABLE_BITS):
        raise SweepError(f"{power} candidates exceed cap {shown(cap)}; raise --cap to proceed")
    total = width ** nslots
    if total > cap:
        count = power if total >> PRINTABLE_BITS else shown(total, power)
        raise SweepError(f"{count} candidates exceed cap {shown(cap)}; raise --cap to proceed")
    # a range of width 1 has one candidate however many slots it has
    if nslots > cap:
        raise SweepError(f"{nslots} coefficient slots exceed cap {cap}; raise --cap to proceed")
    return lo, hi


class SweepSpec:
    """Sweep parameters, checked when built (cap and size too), so any spec can run;
    the stage and range tuples are kept as given, and a list is refused."""

    def __init__(self, stage_dims: tuple[int, ...], coeff_range: tuple[int, int],
                 mode: str = "census", cap: int = DEFAULT_CAP):
        self.stage_dims = stage_dims
        self.coeff_range = coeff_range
        self.mode = mode
        self.cap = cap
        self.__post_init__()

    def __post_init__(self):
        dims = self.stage_dims
        if type(dims) is not tuple:
            raise SweepError(f"stage dimensions must be a tuple, got {type(dims).__name__}")
        if not dims or not all(type(n) is int and n >= 1 for n in dims):
            raise SweepError(f"stage dimensions must be positive integers, got {shown(dims)}")
        if self.mode not in SWEEP_MODES:
            raise SweepError(f"unknown mode {shown(self.mode)}; expected one of {SWEEP_MODES}")
        nslots = sum((j - 1) * n for j, n in enumerate(dims, start=1))
        _check_extent(self.coeff_range, self.cap, nslots)


class SweepReport(NamedTuple):
    total: int
    slots: tuple[tuple[int, int, int], ...]
    hits: list[tuple[int, ...]]
    counts: dict[str, int]


class CharyCompareReport(NamedTuple):
    total: int
    chary_not_fano: list[tuple[int, ...]]
    fano_not_chary: list[tuple[int, ...]]


def coefficient_slots(stage_dims) -> tuple[tuple[int, int, int], ...]:
    """All (j, l, k) coefficient indices in ascending lexicographic order."""
    return tuple(
        (j, l, k)
        for j in range(2, len(stage_dims) + 1)
        for l in range(1, j)
        for k in range(1, stage_dims[j - 1] + 1)
    )


def _rank(lo: int, hi: int, bound: int, offset: tuple[int, ...]) -> tuple[list, list, list]:
    """The vectors v of the range lo:hi with nu(v + offset) at most
    ``bound``, ascending by (nu, v): their nu and mu values, and the
    vectors.

    With b = v + offset and mu = min(0, b), nu(b) = sum(t) - mu for
    t = b - mu >= 0.  So mu runs from 0 down to -bound, and for each mu the
    t with sum(t) <= bound + mu (and an entry 0 when mu < 0) are listed by
    raising at most that much in all over each entry's least value: an
    entry costs what it keeps, not width^n.
    """
    scored = []
    for mu in range(0, -bound - 1, -1):
        low = [max(0, lo + o - mu) for o in offset]  # least t_k
        room = bound + mu - sum(low)
        if room < 0:  # bound + mu falls and low rises as mu falls
            break
        top = [hi + o - mu - t for o, t in zip(offset, low)]  # most t_k can rise
        if min(top) < 0:
            continue
        zeros = low.count(0) if mu else len(low) + 1  # at mu = 0 no t_k need be 0
        # (next entry to raise, room left, v, entries raised from t_k = 0)
        stack = [(0, room, tuple(t + mu - o for o, t in zip(offset, low)), 0)]
        while stack:
            start, left, v, lifted = stack.pop()
            if lifted < zeros:  # some t_k is still 0, so mu(v + offset) = mu
                scored.append((bound - left, v, mu))  # nu = sum(t) - mu
            for k in range(start, len(v)) if left else ():
                for e in range(1, min(top[k], left) + 1):
                    stack.append((k + 1, left - e, v[:k] + (v[k] + e,) + v[k + 1:], lifted + (low[k] == 0)))
    scored.sort()
    return [x[0] for x in scored], [x[2] for x in scored], [x[1] for x in scored]


def _search(s: SweepSpec, fano_only: bool = False) -> tuple[dict[str, int], list[tuple[int, ...]]]:
    """Census counts and sorted hits of the sweep ``s``.

    A depth-first search assigns whole coefficient vectors a_{j,p}: column
    p = m-1 down to 1, and within a column j = p+1 up to m.  Stage p's
    nu-sum reads only columns l >= p, and b_{p,q} = a_{p+q,p} + offset
    only the vectors above it in column p and in columns to its right,
    through offset = sum_{r<q} mu(b_{p,r}) a_{p+q,p+r}.  No tower is built.

    Every cell is decided from one memo, local to the call: per bound on
    stage p's sum (n_p + 1) and offset seen, the ``_rank`` entry of the
    vectors v of the range with nu(v + offset) within the bound, ascending
    by nu.  nu >= 0, so a path whose partial sum would pass the bound only
    grows: one bisection keeps the vectors that do not, and only those are
    visited, in nu order, down to the cell above the last.

    The last two cells, a_{m-1,1} and a_{m,1}, are decided together, with
    no frame for either.  Nothing later reads the vector v of a_{m-1,1}
    but nu(b_{1,m-2}), which adds to stage 1's sum, and mu(b_{1,m-2}),
    which scales a_{m,m-1} into the offset of b_{1,m-1}.  So the last
    cell's entry is looked up once per mu value of the kept v, and for
    each v two bisections split that entry into weak Fano (stage 1's sum
    at most n_1 + 1) and Fano (at most n_1, on a path Fano so far); the
    hits are a prefix of the entry's vectors.  With m = 2 the same count
    runs on one path of sum 0 above the last cell.

    Only Fano and weak Fano are counted; every other candidate is not weak
    Fano, so that count is width^slots less the two.  With ``fano_only``
    the bound is n_p: a Fano tower needs every stage's sum at most n_p, so
    the subtrees cut besides are weak Fano at best, and the hits of a
    ``fano`` run are unchanged, but the counts lump those subtrees in with
    not weak Fano.
    """
    dims = s.stage_dims
    m = len(dims)
    lo, hi = s.coeff_range
    fano, weak, not_weak = (v.value for v in Verdict)
    counts = dict.fromkeys((fano, weak, not_weak), 0)
    hits: list[tuple[int, ...]] = []
    record = s.mode != "census"
    slack = 0 if fano_only else 1
    cells = [(p + q, p) for p in range(m - 1, 0, -1) for q in range(1, m - p + 1)]
    if not cells:  # one stage: one candidate, and no stage p < m to test
        counts[fano] = 1
        return counts, [()] if record else []
    order = [(j, l) for j in range(2, m + 1) for l in range(1, j)]  # slot order
    at = order.index((m, 1))
    above = at - (m - 2)  # a_{m-1,1}, then (m-1, 2..m-2); at m = 2 all spans are empty
    a: dict[tuple[int, int], tuple[int, ...]] = {}
    # per cell entered above the pair: indices left into the memo entry, the
    # entry, partial sum, Fano so far, and the pairs (r, mu(b_{p,r})) with
    # mu != 0 above the cell in its column
    frames: list = []
    pair = len(cells) - 2  # cell (m-1, 1), decided with (m, 1)
    n_1, bound_1 = dims[0], dims[0] + slack
    # (bound, offset) -> the _rank entry
    memo: dict[tuple[int, tuple[int, ...]], tuple[list, list, list]] = {}

    def lookup(bound: int, j: int, p: int, nonzero: tuple) -> tuple[list, list, list]:
        """The memo entry of cell (j, p) under ``bound``, its offset
        sum_r mu_r a_{j,p+r} over the pairs (r, mu_r) of ``nonzero``."""
        offset = [0] * dims[j - 1]
        for r, mr in nonzero:
            offset = [o + mr * c for o, c in zip(offset, a[(j, p + r)])]
        key = (bound, tuple(offset))
        return memo.get(key) or memo.setdefault(key, _rank(lo, hi, *key))

    def enter(d: int, partial: int, ok: bool, nonzero: tuple) -> None:
        """Push a frame over the vectors of cell d within the bound, or,
        if d is the cell above the last, count them with their completions
        at once."""
        j, p = cells[d]
        bound = dims[p - 1] + slack
        entry = lookup(bound, j, p, nonzero)
        w = bisect_right(entry[0], bound - partial)
        if d < pair:
            frames.append((iter(range(w)), entry, partial, ok, nonzero))
        else:
            finish(entry, w, partial, ok, nonzero)

    def finish(entry, w: int, partial: int, ok: bool, nonzero: tuple) -> None:
        """Count the Fano and weak Fano completions by a_{m,1} of the first
        w vectors of the entry of a_{m-1,1}, stage 1's partial sum before
        them ``partial``."""
        nus, mus, vecs = entry
        last = {}  # mu(b_{1,m-2}) -> the entry of a_{m,1}
        parts = None  # the hit's slots before, between and after the two cells
        kept = fanos = 0
        for i in range(w):
            mu = mus[i]
            if mu not in last:
                last[mu] = lookup(bound_1, m, 1, nonzero + ((m - 2, mu),) if mu else nonzero)
            nus_last, _, vecs_last = last[mu]
            t = partial + nus[i]  # + nu(b_{1,m-2})
            w2 = bisect_right(nus_last, bound_1 - t)
            f2 = bisect_right(nus_last, n_1 - t) if ok else 0
            kept += w2
            fanos += f2
            if record and (n_hits := f2 if s.mode == "fano" else w2):
                parts = parts or [tuple(x for jl in span for x in a[jl])
                                  for span in (order[:above], order[above + 1:at], order[at + 1:])]
                head = parts[0] + vecs[i] + parts[1]
                hits.extend(head + u + parts[2] for u in vecs_last[:n_hits])
        counts[fano] += fanos
        counts[weak] += kept - fanos

    if pair < 0:  # m = 2: the last cell is the root, below one path of sum 0
        finish(([0], [0], [()]), 1, 0, True, ())
    else:
        enter(0, 0, True, ())
    while frames:
        d = len(frames) - 1
        cell = j, p = cells[d]
        left, (nus, mus, vecs), partial, ok, nonzero = frames[d]
        n_p = dims[p - 1]
        closes = j == m  # b_{p,m-p} completes stage p's sum
        deeper = d + 1 < pair  # enter pushes a frame for cell d + 1
        for i in left:
            a[cell] = vecs[i]
            total = partial + nus[i]  # + nu(b_{p,q})
            now_ok = ok and (total <= n_p or not closes)
            if closes:
                enter(d + 1, 0, now_ok, ())
            else:
                enter(d + 1, total, now_ok, nonzero + ((j - p, mus[i]),) if mus[i] else nonzero)
            if deeper:
                break
        else:
            frames.pop()
    hits.sort()
    # not weak Fano is the rest of the width^slots candidates; each cell holds n_j slots
    counts[not_weak] = (hi - lo + 1) ** sum(dims[j - 1] for j, _ in cells) - counts[fano] - counts[weak]
    return counts, hits


def sweep(s: SweepSpec) -> SweepReport:
    counts, hits = _search(s)
    return SweepReport(sum(counts.values()), coefficient_slots(s.stage_dims), hits, counts)


def _chary_matrices(r: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """The r x r Bott matrices that satisfy Chary's condition with every
    entry right of the diagonal in lo:hi, each as those entries in
    row-major order, in ascending lexicographic order.

    Rows are chosen from the bottom up.  Each is zero, or holds one -1, or
    one +1 at a column q whose row q is zero right of the diagonal (the
    last row always is), and is a candidate only if all its entries lie in
    lo:hi, zeros included.
    """
    inside = range(lo, hi + 1)
    tails = [()]  # the rows below the next, top first
    for w in range(1, r):  # the next row has w entries right of the diagonal
        zero = (0,) * w
        units = [(zero[:c] + (v,) + zero[c + 1:], c if v == 1 else None)
                 for c in range(w) for v in (-1, 1)]
        rows = [(row, c) for row, c in [(zero, None), *units] if all(x in inside for x in row)]
        # a +1 at entry c needs tail[c], the row of its column, to be zero;
        # entry w - 1 lies in the last column, whose row is empty
        tails = [(row,) + tail for tail in tails for row, c in rows
                 if c is None or c == w - 1 or not any(tail[c])]
    return sorted(tuple(chain.from_iterable(tail)) for tail in tails)


def chary_compare(r: int, beta_range: tuple[int, int], cap: int = DEFAULT_CAP) -> CharyCompareReport:
    """Compare Chary's sign condition against the Fano verdict over all
    upper triangular unit-diagonal matrices with off-diagonal entries in
    the given range, listed in row-major lexicographic order.  The Fano
    set comes from the sweep engine, run in ``fano`` mode on stages
    (1,)*r over the negated range, as beta_{l,j} = -a_{j,l}, and bounded
    at n_p, since the weak Fano leaves are not needed; Chary's matrices
    are generated row by row (see ``_chary_matrices``).  The work grows
    with those two sets, not with the candidate count."""
    if type(r) is not int or r < 2:
        raise SweepError(f"chary_compare requires an integer r >= 2, got {shown(r)}")
    # refuse by size before the r-tuple of stages is built
    lo, hi = _check_extent(beta_range, cap, r * (r - 1) // 2)
    dims = (1,) * r
    _, towers = _search(SweepSpec(dims, (-hi, -lo), mode="fano", cap=cap), fano_only=True)
    position = {(j, l): i for i, (j, l, _) in enumerate(coefficient_slots(dims))}
    pairs = [(l, j) for l in range(1, r + 1) for j in range(l + 1, r + 1)]  # row-major
    fano_set = {tuple(-h[position[(j, l)]] for l, j in pairs) for h in towers}
    chary = _chary_matrices(r, lo, hi)
    return CharyCompareReport(
        total=(hi - lo + 1) ** len(pairs),
        chary_not_fano=[v for v in chary if v not in fano_set],
        fano_not_chary=sorted(fano_set.difference(chary)),
    )
