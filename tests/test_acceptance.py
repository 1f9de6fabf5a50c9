"""End-to-end acceptance checks.

Each test prints one PASS line (visible with ``pytest -s``) and enforces
its time budget.  Criteria 5-7 share one deterministic sample of 500
random towers.
"""

import random
import time
from functools import lru_cache
from itertools import product

from bottfano import (
    BottMatrix,
    Verdict,
    batyrev_classify,
    bott_fano,
    build_fan,
    chary_compare,
    chary_condition,
    classify,
    collection_for_stage,
    compute_b,
    expected_primitive_relation,
    from_bott_matrix,
    primitive_collections,
    primitive_collections_bruteforce,
    primitive_relation,
    signed_relation,
    sweep,
    validate_smooth_complete,
    wall_relation,
)
from bottfano.enumeration import FANO_THREE_STAGE_TRIPLES, SweepSpec

from conftest import (
    fano_4stage,
    fraction_det,
    hirzebruch,
    make_tower,
    not_weak_fano_3stage,
    random_tower,
)

SAMPLE_SIZE = 500


@lru_cache(maxsize=1)
def sample():
    rng = random.Random(0xB077)
    out = []
    for _ in range(SAMPLE_SIZE):
        t = random_tower(rng, max_stages=4, max_dim=3, coeff_bound=2)
        f = build_fan(t)
        out.append((t, f, compute_b(t)))
    return out


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_fano_example():
    start = time.perf_counter()
    t = fano_4stage()
    b = compute_b(t)
    c = classify(t)
    elapsed = time.perf_counter() - start
    ok = (
        c.verdict is Verdict.FANO
        and c.nu_sums == (3, 2, 1)
        and b == {
            (1, 1): (-1, -1),
            (1, 2): (0, 1),
            (1, 3): (0, 1),
            (2, 1): (0, -1),
            (2, 2): (0, 0),
            (3, 1): (0, 1),
        }
        and elapsed < 1.0
    )
    report(1, ok, f"4-stage example is Fano with exact b-vectors ({elapsed:.3f}s)")


def test_criterion_2_not_weak_fano_example():
    start = time.perf_counter()
    c = classify(not_weak_fano_3stage())
    elapsed = time.perf_counter() - start
    ok = c.verdict is Verdict.NOT_WEAK_FANO and c.nu_sums[0] == 5 and elapsed < 1.0
    report(2, ok, f"3-stage example is not weak Fano with nu-sum 5 ({elapsed:.3f}s)")


def test_criterion_3_fano_triple_table():
    start = time.perf_counter()
    narrow = sweep(SweepSpec((1, 1, 1), (-1, 1), mode="fano"))
    wide = sweep(SweepSpec((1, 1, 1), (-2, 2), mode="fano"))
    elapsed = time.perf_counter() - start
    ok = (
        set(narrow.hits) == FANO_THREE_STAGE_TRIPLES
        and set(wide.hits) == FANO_THREE_STAGE_TRIPLES
        and elapsed < 1.0
    )
    report(3, ok, f"both sweeps yield exactly the 15 Fano triples ({elapsed:.3f}s)")


def test_criterion_4_chary_counterexample():
    start = time.perf_counter()
    b = BottMatrix(((1, 1, 1), (0, 1, 1), (0, 0, 1)))
    t = from_bott_matrix(b)
    converted = all(t.a(j, l) == (-1,) for j in range(2, 4) for l in range(1, j))
    fano = classify(t).verdict is Verdict.FANO
    chary = chary_condition(b)
    sufficiency = all(
        chary_compare(r, (-2, 2)).chary_not_fano == [] for r in (2, 3, 4)
    )
    elapsed = time.perf_counter() - start
    ok = converted and fano and not chary and sufficiency and elapsed < 10.0
    report(
        4,
        ok,
        "all-ones matrix is Fano but fails the sign condition; "
        f"no sufficiency violations for r<=4 ({elapsed:.2f}s)",
    )


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    for t, f, b in sample():
        if batyrev_classify(f).verdict is not classify(t).verdict:
            mismatches += 1
            continue
        expected_pcs = {collection_for_stage(t, p) for p in range(1, t.num_stages + 1)}
        pcs = primitive_collections(f)
        if pcs != expected_pcs or primitive_collections_bruteforce(f) != pcs:
            mismatches += 1
            continue
        for p in range(1, t.num_stages + 1):
            got = primitive_relation(f, collection_for_stage(t, p))
            want = expected_primitive_relation(t, b, p)
            if got.relation_rhs != want.relation_rhs or got.degree != want.degree:
                mismatches += 1
                break
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    report(
        5,
        ok,
        f"{SAMPLE_SIZE} towers: fan criterion, collections (search and subset scan) "
        f"and relations all agree "
        f"({mismatches} mismatches, {elapsed:.1f}s)",
    )


def test_criterion_6_fan_validity():
    failures = 0
    for t, f, _ in sample():
        try:
            validate_smooth_complete(f)
        except Exception:
            failures += 1
            continue
        if len(f.rays) != t.dim + t.num_stages:
            failures += 1
            continue
        expected_cones = 1
        for nl in t.stage_dims:
            expected_cones *= nl + 1
        if len(f.max_cones) != expected_cones:
            failures += 1
            continue
        # re-check unimodularity with the Fraction reference, not the
        # validator's own Bareiss kernel
        if any(fraction_det([f.rays[i] for i in sorted(c)]) not in (1, -1) for c in f.max_cones):
            failures += 1
    ok = failures == 0
    report(6, ok, f"{SAMPLE_SIZE} fans smooth and complete with exact counts ({failures} failures)")


def test_criterion_7_wall_relations():
    mismatches = 0
    for t, f, b in sample():
        for p in range(1, t.num_stages + 1):
            wd = wall_relation(f, t, b, p)
            pr = primitive_relation(f, collection_for_stage(t, p))
            if wd.relation != signed_relation(pr):
                mismatches += 1
    ok = mismatches == 0
    report(7, ok, f"wall relations coincide with primitive relations ({mismatches} mismatches)")


def test_criterion_8_hirzebruch_ladder_and_last_degree():
    ladder_ok = True
    for a in range(-5, 6):
        v = classify(hirzebruch(a)).verdict
        fano_expected = abs(a) <= 1
        weak_expected = abs(a) <= 2
        if (v is Verdict.FANO) != fano_expected:
            ladder_ok = False
        if (v is not Verdict.NOT_WEAK_FANO) != weak_expected:
            ladder_ok = False
    degree_ok = all(
        primitive_relation(f, collection_for_stage(t, t.num_stages)).degree
        == t.stage_dims[-1] + 1
        for t, f, _ in sample()
    )
    ok = ladder_ok and degree_ok
    report(8, ok, "Hirzebruch verdicts match |a| thresholds; last-stage degree is n_m+1")


def test_criterion_9_bott_criterion_equivalence():
    start = time.perf_counter()
    checked = 0
    mismatches = 0
    for m in (2, 3, 4):
        slots = [(j, l) for j in range(2, m + 1) for l in range(1, j)]
        for values in product(range(-2, 3), repeat=len(slots)):
            t = make_tower((1,) * m, {jl: (v,) for jl, v in zip(slots, values)})
            checked += 1
            if bott_fano(t) != (classify(t).verdict is Verdict.FANO):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = checked == 5**6 + 5**3 + 5 and mismatches == 0 and elapsed < 30.0
    report(
        9,
        ok,
        f"three-clause criterion matches the nu-sum criterion on all {checked} "
        f"single-line-fiber towers ({mismatches} mismatches, {elapsed:.1f}s)",
    )
