"""Exhaustive sweeps over coefficient ranges.

Candidates are enumerated lexicographically over the coefficient slots
(j, l, k) in ascending order by one engine, shared by ``sweep`` and
``chary_compare``, and classified through the closed-form criterion;
hits are recorded in enumeration order as tuples of slot values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

from .tower import (
    BottMatrix,
    GeneralizedBottTower,
    Verdict,
    chary_condition,
    classify,
)

DEFAULT_CAP = 10**6

#: Candidate counts longer than this (about 3,000 digits) are shown as
#: width^slots, since ``str`` refuses ints past 4,300 digits.
PRINTABLE_BITS = 10_000

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


@dataclass
class SweepSpec:
    """Sweep parameters, checked when built (cap and size too), so any spec can run."""

    stage_dims: tuple[int, ...]
    coeff_range: tuple[int, int]
    mode: str = "census"
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        self.stage_dims = tuple(self.stage_dims)
        if not self.stage_dims or any(type(n) is not int or n < 1 for n in self.stage_dims):
            raise SweepError(f"stage dimensions must be positive integers, got {self.stage_dims!r}")
        lo, hi = self.coeff_range
        if type(lo) is not int or type(hi) is not int:
            raise SweepError(f"coefficient range ends must be integers, got {lo!r}:{hi!r}")
        if lo > hi:
            raise SweepError(f"empty coefficient range {lo}:{hi}")
        if self.mode not in SWEEP_MODES:
            raise SweepError(f"unknown mode {self.mode!r}; expected one of {SWEEP_MODES}")
        cap = self.cap
        if type(cap) is not int:
            raise SweepError(f"cap must be an integer, got {cap!r}")
        width = hi - lo + 1
        nslots = sum((j - 1) * n for j, n in enumerate(self.stage_dims, start=1))
        # the count width ** nslots is at least 2 ** min_bits, so past both the
        # cap and the printable length it is refused without being computed
        min_bits = nslots * (width.bit_length() - 1)
        if min_bits >= max(cap.bit_length(), PRINTABLE_BITS):
            raise SweepError(f"{width}^{nslots} candidates exceed cap {cap}; raise --cap to proceed")
        total = width ** nslots
        if total > cap:
            shown = total if total.bit_length() <= PRINTABLE_BITS else f"{width}^{nslots}"
            raise SweepError(f"{shown} candidates exceed cap {cap}; raise --cap to proceed")
        # a range of width 1 has one candidate however many slots it has
        if nslots > cap:
            raise SweepError(f"{nslots} coefficient slots exceed cap {cap}; raise --cap to proceed")


@dataclass
class SweepReport:
    total: int
    slots: tuple[tuple[int, int, int], ...]
    hits: list[tuple[int, ...]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class CharyCompareReport:
    total: int
    chary_not_fano: list[tuple[int, ...]] = field(default_factory=list)
    fano_not_chary: list[tuple[int, ...]] = field(default_factory=list)


def coefficient_slots(stage_dims) -> tuple[tuple[int, int, int], ...]:
    """All (j, l, k) coefficient indices in ascending lexicographic order."""
    return tuple(
        (j, l, k)
        for j in range(2, len(stage_dims) + 1)
        for l in range(1, j)
        for k in range(1, stage_dims[j - 1] + 1)
    )


def _candidates(s: SweepSpec):
    """Yield (values, tower) for every tower that ``s`` spans, values in
    ``coefficient_slots`` order and lexicographically."""
    stage_dims = s.stage_dims
    lo, hi = s.coeff_range
    slots = coefficient_slots(stage_dims)
    for values in product(range(lo, hi + 1), repeat=len(slots)):
        coeffs: dict[tuple[int, int], list[int]] = {}
        for (j, l, k), v in zip(slots, values):
            coeffs.setdefault((j, l), [0] * stage_dims[j - 1])[k - 1] = v
        yield values, GeneralizedBottTower(stage_dims, coeffs)


def sweep(s: SweepSpec) -> SweepReport:
    counts = {v.value: 0 for v in Verdict}
    hits: list[tuple[int, ...]] = []
    for values, t in _candidates(s):
        verdict = classify(t).verdict
        counts[verdict.value] += 1
        if s.mode == "fano" and verdict is Verdict.FANO:
            hits.append(values)
        elif s.mode == "weak_fano" and verdict is not Verdict.NOT_WEAK_FANO:
            hits.append(values)
    return SweepReport(sum(counts.values()), coefficient_slots(s.stage_dims), hits, counts)


def chary_compare(r: int, beta_range: tuple[int, int], cap: int = DEFAULT_CAP) -> CharyCompareReport:
    """Compare Chary's sign condition against the Fano verdict over all
    upper triangular unit-diagonal matrices with off-diagonal entries in
    the given range; it runs the sweep engine on stages (1,)*r over the
    negated range, as beta_{l,j} = -a_{j,l}, and sorts both lists back
    into row-major lexicographic order of the off-diagonal entries."""
    if type(r) is not int or r < 2:
        raise SweepError(f"chary_compare requires an integer r >= 2, got {r!r}")
    spec = SweepSpec((1,) * r, beta_range, cap=cap)
    lo, hi = spec.coeff_range
    report = CharyCompareReport(total=0)
    for _, t in _candidates(replace(spec, coeff_range=(-hi, -lo))):
        beta = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for (j, l), (a,) in t.coeffs.items():
            beta[l - 1][j - 1] = -a
        values = tuple(v for i, row in enumerate(beta) for v in row[i + 1:])
        chary = chary_condition(BottMatrix(tuple(map(tuple, beta))))
        fano = classify(t).verdict is Verdict.FANO
        report.total += 1
        if chary and not fano:
            report.chary_not_fano.append(values)
        if fano and not chary:
            report.fano_not_chary.append(values)
    report.chary_not_fano.sort()
    report.fano_not_chary.sort()
    return report
