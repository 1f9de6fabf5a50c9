import re
import sys
import tracemalloc
from itertools import product
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from bottfano import enumeration, tower
from bottfano.enumeration import (
    FANO_THREE_STAGE_TRIPLES,
    SLOT_WORK_LIMIT,
    SWEEP_MODES,
    SweepError,
    SweepSpec,
    chary_compare,
    coefficient_slots,
    sweep,
)
from bottfano.tower import (
    BottMatrix,
    GeneralizedBottTower,
    Verdict,
    chary_condition,
    classify,
    from_bott_matrix,
    validate,
)


class TestSlots:
    def test_lexicographic_order(self):
        assert coefficient_slots((1, 2, 1)) == (
            (2, 1, 1),
            (2, 1, 2),
            (3, 1, 1),
            (3, 2, 1),
        )

    def test_single_stage_has_none(self):
        assert coefficient_slots((4,)) == ()


class TestSweep:
    def test_three_stage_fano_triples(self):
        report = sweep(SweepSpec((1, 1, 1), (-1, 1), mode="fano"))
        assert report.total == 27
        assert set(report.hits) == FANO_THREE_STAGE_TRIPLES

    def test_wider_range_adds_nothing(self):
        report = sweep(SweepSpec((1, 1, 1), (-2, 2), mode="fano"))
        assert report.total == 125
        assert set(report.hits) == FANO_THREE_STAGE_TRIPLES

    def test_hirzebruch_thresholds(self):
        fano = sweep(SweepSpec((1, 1), (-2, 2), mode="fano"))
        assert fano.hits == [(-1,), (0,), (1,)]
        weak = sweep(SweepSpec((1, 1), (-2, 2), mode="weak_fano"))
        assert weak.hits == [(-2,), (-1,), (0,), (1,), (2,)]

    def test_census_counts_sum_to_total(self):
        report = sweep(SweepSpec((1, 1), (-2, 2), mode="census"))
        assert report.counts == {
            "fano": 3,
            "weak_fano_not_fano": 2,
            "not_weak_fano": 0,
        }
        assert sum(report.counts.values()) == report.total

    def test_cap_refused_with_count(self):
        with pytest.raises(SweepError, match="729 candidates exceed cap 100"):
            sweep(SweepSpec((1, 1, 1, 1), (-1, 1), mode="census", cap=100))

    def test_deterministic_rerun(self):
        spec = SweepSpec((1, 1, 1), (-1, 1), mode="fano")
        assert sweep(spec).hits == sweep(spec).hits

    def test_bad_mode_rejected(self):
        with pytest.raises(SweepError, match="unknown mode"):
            SweepSpec((1, 1), (-1, 1), mode="everything")

    def test_empty_range_rejected(self):
        with pytest.raises(SweepError, match="empty"):
            SweepSpec((1, 1), (2, -2))

    @pytest.mark.parametrize("dims", [(1, 1.0), (True, 1), ("1", 1), (1, 0), ()])
    def test_bad_stage_dims_rejected(self, dims):
        message = f"stage dimensions must be positive integers, got {dims!r}"
        with pytest.raises(SweepError, match=f"^{re.escape(message)}$"):
            SweepSpec(dims, (-1, 1))

    # a list is refused, not converted: the command line hands the spec tuples
    @pytest.mark.parametrize("dims, kind", [([1, 1], "list"), (5, "int"), (None, "NoneType")])
    def test_stage_dims_not_a_tuple_refused(self, dims, kind):
        with pytest.raises(SweepError, match=f"^stage dimensions must be a tuple, got {kind}$"):
            SweepSpec(dims, (-1, 1))

    @pytest.mark.parametrize("bounds", [(-1.5, 1), (-1, 1.0), (False, 1), ("-1", "1")])
    def test_non_int_range_rejected(self, bounds):
        with pytest.raises(SweepError, match="range ends must be integers"):
            SweepSpec((1, 1), bounds)

    def test_keeps_its_tuples(self):
        dims, rng = (1, 2), (-1, 1)
        spec = SweepSpec(dims, rng)
        assert spec.stage_dims is dims and spec.coeff_range is rng

    def test_range_not_a_pair_rejected(self):
        with pytest.raises(SweepError, match=r"^coefficient range must be a pair lo, hi, got \(1, 2, 3\)$"):
            SweepSpec((1, 1), (1, 2, 3))

    @pytest.mark.parametrize("bounds, kind", [([-1, 1], "list"), (None, "NoneType"), (range(-1, 2), "range")])
    def test_range_not_a_tuple_refused(self, bounds, kind):
        with pytest.raises(SweepError, match=f"^coefficient range must be a tuple, got {kind}$"):
            SweepSpec((1, 1), bounds)

    @pytest.mark.parametrize("cap", [1e6, True])
    def test_non_int_cap_rejected(self, cap):
        with pytest.raises(SweepError, match="cap must be an integer"):
            SweepSpec((1, 1), (-1, 1), cap=cap)

    @pytest.mark.parametrize("cap, text", [
        (0, "0"),
        (-5, "-5"),
        # past the int-to-str limit, shown as a bound
        (-10**5000, f"below -10^{sys.get_int_max_str_digits() - 1}"),
    ], ids=["0", "-5", "unprintable"])
    def test_cap_below_one_refused(self, cap, text):
        # every sweep has a candidate; the cap is checked before the slot limit
        message = f"^{re.escape(f'cap must be a positive integer, got {text}')}$"
        with pytest.raises(SweepError, match=message):
            SweepSpec((1, SLOT_WORK_LIMIT + 1), (-1, 1), cap=cap)
        with pytest.raises(SweepError, match=message):
            chary_compare(3, (-1, 1), cap=cap)
        assert SweepSpec((1, 1), (0, 0), cap=1).cap == 1

    def test_unprintable_cap_shown_as_a_bound(self):
        # 10^5000 has 5,001 digits, past the int-to-str limit; 3^10585 has 16,777 bits, past the
        # cap's 16,610, and is shown as a power
        with pytest.raises(SweepError) as excinfo:
            SweepSpec((1,) * 146, (-1, 1), cap=10**5000)
        assert str(excinfo.value) == (
            f"3^10585 candidates exceed cap over 10^{sys.get_int_max_str_digits() - 1}; "
            "raise --cap to proceed"
        )

    def test_unprintable_range_end_shown_as_a_bound(self):
        # 10^5000 has 5,001 digits, past the int-to-str limit, on either side of zero
        bound = f"10^{sys.get_int_max_str_digits() - 1}"
        with pytest.raises(SweepError) as excinfo:
            SweepSpec((1, 1), (10**5000, 0))
        assert str(excinfo.value) == f"empty coefficient range over {bound}:0"
        with pytest.raises(SweepError) as excinfo:
            chary_compare(3, (0, -10**5000))
        assert str(excinfo.value) == f"empty coefficient range 0:below -{bound}"

    @pytest.mark.parametrize("stage_dims, bounds, mode, message", [
        ((-10**5000,), (-1, 1), "census",
         "stage dimensions must be positive integers, got a tuple holding an int of over {L} digits"),
        ((1, 1), (10**5000, 0, 1), "census",
         "coefficient range must be a pair lo, hi, got a tuple holding an int of over {L} digits"),
        ((1, 1), (-1, 1), 10**5000,
         "unknown mode over 10^{L1}; expected one of ('fano', 'weak_fano', 'census')"),
    ], ids=["stage", "range", "mode"])
    def test_unprintable_refusal_value_shown_in_short(self, stage_dims, bounds, mode, message):
        # each value holds 10^5000, of 5,001 digits, which neither str nor repr prints
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SweepError) as excinfo:
            SweepSpec(stage_dims, bounds, mode=mode)
        assert str(excinfo.value) == message.format(L=limit, L1=limit - 1)

    @pytest.mark.parametrize("bounds, cap, message", [
        (([10**5000], 1), 10, "coefficient range ends must be integers, got a list holding an int of over {L} digits:1"),
        ((-1, 1), [10**5000], "cap must be an integer, got a list holding an int of over {L} digits"),
    ], ids=["range-end", "cap"])
    def test_unprintable_non_int_shown_by_its_type(self, int_limit, bounds, cap, message):
        with pytest.raises(SweepError) as excinfo:
            SweepSpec((1, 1), bounds, cap=cap)
        assert str(excinfo.value) == message.format(L=int_limit)

    def test_slot_count_refused_on_a_single_candidate(self):
        # 100 line stages have 4,950 slots and, over 0:0, one candidate
        with pytest.raises(SweepError, match="^4950 coefficient slots exceed cap 4949;"):
            SweepSpec((1,) * 100, (0, 0), cap=4949)
        assert SweepSpec((1,) * 100, (0, 0), cap=4950).cap == 4950

    def test_slot_count_past_the_work_limit_refused_whatever_the_cap(self):
        # the stages (1, N) have N slots and, over 0:0, one candidate, which is Fano
        report = sweep(SweepSpec((1, SLOT_WORK_LIMIT), (0, 0), mode="fano"))
        assert report.total == report.counts["fano"] == 1
        assert report.hits == [(0,) * SLOT_WORK_LIMIT] and len(report.slots) == SLOT_WORK_LIMIT
        with pytest.raises(SweepError, match="^100001 coefficient slots exceed limit 100000$"):
            SweepSpec((1, SLOT_WORK_LIMIT + 1), (0, 0), cap=10**9)
        # r = 448 has 100,128 slots, r = 447 has 99,681
        with pytest.raises(SweepError, match="^100128 coefficient slots exceed limit 100000$"):
            chary_compare(448, (0, 0), cap=10**9)
        assert 447 * 446 // 2 <= SLOT_WORK_LIMIT < 448 * 447 // 2


class TestCharyCompare:
    def test_r3_counterexamples(self):
        report = chary_compare(3, (-1, 1))
        assert report.chary_not_fano == []
        assert report.fano_not_chary != []
        assert (1, 1, 1) in report.fano_not_chary  # all-ones upper triangle

    def test_r2_exact(self):
        report = chary_compare(2, (-1, 1))
        assert report.chary_not_fano == []
        assert report.fano_not_chary == []

    def test_zero_range_product_case(self):
        report = chary_compare(3, (0, 0))
        assert report.total == 1
        assert report.chary_not_fano == [] and report.fano_not_chary == []

    def test_small_r_rejected(self):
        with pytest.raises(SweepError):
            chary_compare(1, (-1, 1))

    def test_cap(self):
        with pytest.raises(SweepError, match="exceed cap"):
            chary_compare(4, (-2, 2), cap=100)

    @pytest.mark.parametrize("r, beta_range, message", [
        (3.0, (-1, 1), "requires an integer r >= 2, got 3.0"),
        (-10**5000, (-1, 1), r"requires an integer r >= 2, got below -10\^\d+$"),
        (3, (-1.5, 1), "range ends must be integers"),
        (3, ("-1", "1"), "range ends must be integers"),
        (3, (1, -1), "empty coefficient range 1:-1"),
        (3, (0,), r"coefficient range must be a pair lo, hi, got \(0,\)"),
        (3, [-1, 1], "^coefficient range must be a tuple, got list$"),
    ], ids=["float-r", "unprintable-r", "float-end", "str-ends", "empty", "not-a-pair", "list-range"])
    def test_arguments_checked_as_a_sweep_spec(self, r, beta_range, message):
        with pytest.raises(SweepError, match=message):
            chary_compare(r, beta_range)


def reference_sweep(stage_dims, lo, hi, mode):
    """The original sweep loop, kept as the oracle for the shared engine."""
    slots = coefficient_slots(stage_dims)
    counts = {v.value: 0 for v in Verdict}
    hits = []
    for values in product(range(lo, hi + 1), repeat=len(slots)):
        coeffs = {}
        for (j, l, k), v in zip(slots, values):
            coeffs.setdefault((j, l), [0] * stage_dims[j - 1])[k - 1] = v
        t = GeneralizedBottTower(stage_dims, {jl: tuple(v) for jl, v in coeffs.items()})
        verdict = classify(t).verdict
        counts[verdict.value] += 1
        if mode == "fano" and verdict is Verdict.FANO:
            hits.append(values)
        elif mode == "weak_fano" and verdict is not Verdict.NOT_WEAK_FANO:
            hits.append(values)
    return (hi - lo + 1) ** len(slots), slots, hits, counts


def reference_chary_compare(r, lo, hi):
    """The original Chary loop over row-major off-diagonal beta entries."""
    slots = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    chary_not_fano, fano_not_chary = [], []
    for values in product(range(lo, hi + 1), repeat=len(slots)):
        beta = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for (i, j), v in zip(slots, values):
            beta[i - 1][j - 1] = v
        bm = BottMatrix(tuple(tuple(row) for row in beta))
        chary = chary_condition(bm)
        fano = classify(from_bott_matrix(bm)).verdict is Verdict.FANO
        if chary and not fano:
            chary_not_fano.append(values)
        if fano and not chary:
            fano_not_chary.append(values)
    return (hi - lo + 1) ** len(slots), chary_not_fano, fano_not_chary


def reference_chary_matrices(r, lo, hi):
    """The row-major off-diagonal entries, in product order, of the matrices
    that satisfy ``chary_condition``.  Past 10**5 candidates the product
    runs over rows with at most one nonzero entry, as a row with two fails
    both of Chary's clauses; that keeps the product's order."""
    inside = range(lo, hi + 1)
    rows = [list(product(inside, repeat=w)) for w in range(r - 1, 0, -1)]
    if len(inside) ** (r * (r - 1) // 2) > 10**5:
        rows = [[t for t in ts if sum(map(bool, t)) <= 1] for ts in rows]
    found = []
    for upper in product(*rows):
        beta = [(0,) * i + (1,) + row for i, row in enumerate(upper)] + [(0,) * (r - 1) + (1,)]
        if chary_condition(BottMatrix(beta)):
            found.append(sum(upper, ()))
    return found


def reference_rank(lo, hi, bound, offset):
    """The memo entry by product and filter: every vector v of the range
    scored, those with nu(v + offset) <= bound kept, stably sorted by nu."""
    n = len(offset)
    scored = []
    for v in product(range(lo, hi + 1), repeat=n):
        b = [x + o for x, o in zip(v, offset)]
        mn = min(0, *b)
        nu_b = sum(b) - (n + 1) * mn
        if nu_b <= bound:
            scored.append((nu_b, mn, v))
    scored.sort(key=itemgetter(0))
    return [x[0] for x in scored], [x[1] for x in scored], [x[2] for x in scored]


#: inputs whose fano_not_chary is not empty, so the comparison pins sign and order
PINNING_CHARY_INPUTS = [(3, -2, 1), (3, -2, 2), (4, -1, 1), (3, 1, 2), (4, 0, 1)]


class TestEngineMatchesReferenceLoops:
    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_sweep(self, mode):
        report = sweep(SweepSpec((1, 2, 1), (-1, 1), mode=mode))
        expected = reference_sweep((1, 2, 1), -1, 1, mode)
        assert (report.total, report.slots, report.hits, report.counts) == expected

    @pytest.mark.parametrize("stage_dims, lo, hi", [
        ((1, 1, 1, 1), -2, 2),
        ((2, 1, 2, 1), -1, 1),
        ((3, 3, 2), -1, 1),
        ((1, 1), -2, 2),
        ((4,), -1, 1),
        # the last cell (m, 1) is counted by two bisections of its memo entry: a wide last stage,
        # ranges without 0, and m = 2, where the root is that cell
        ((2, 1, 3), -1, 1),
        ((1, 3), -2, 2),
        ((1, 1, 2), 1, 3),
        ((1, 1, 2), -3, -1),
        ((2, 2), -2, 2),
        # a_{m-1,1} is decided with a_{m,1}, one memo lookup per mu value of its vectors: a wide
        # stage m-1, m = 3 over ranges without 0, and a bound that cuts whole mu values (at
        # a_{3,1}, after b_{1,1} of nu 1, the vectors of mu = -2 lie past the bound)
        ((1, 3, 1), -1, 1),
        ((2, 2, 1), -1, 1),
        ((1, 1, 3, 2), -1, 0),
        ((1, 2, 1), 1, 2),
        ((1, 2, 1), -2, -1),
        ((1, 1, 1, 1), -2, 1),
    ])
    def test_pruned_search_in_every_mode(self, stage_dims, lo, hi):
        for mode in SWEEP_MODES:
            report = sweep(SweepSpec(stage_dims, (lo, hi), mode=mode))
            expected = reference_sweep(stage_dims, lo, hi, mode)
            assert (report.total, report.slots, report.hits, report.counts) == expected, mode
        spec = SweepSpec(stage_dims, (lo, hi), mode="fano")
        report = sweep(spec)
        counts, hits = enumeration._search(spec, fano_only=True)
        assert hits == report.hits
        # the bound n_p cuts every weak Fano subtree, so those count as not weak Fano
        assert counts == {
            "fano": len(hits), "weak_fano_not_fano": 0, "not_weak_fano": report.total - len(hits),
        }

    @pytest.mark.parametrize("r, lo, hi", [
        *PINNING_CHARY_INPUTS, (2, -1, 1), (3, -2, -1), (4, 0, 0),
    ])
    def test_chary_compare(self, r, lo, hi):
        report = chary_compare(r, (lo, hi))
        expected = reference_chary_compare(r, lo, hi)
        assert (report.total, report.chary_not_fano, report.fano_not_chary) == expected
        if (r, lo, hi) in PINNING_CHARY_INPUTS:
            assert report.fano_not_chary  # an empty list would pin no sign or order

    def test_chary_matrices_generated_not_tested(self, monkeypatch):
        calls = []

        def counting_chary_condition(b):
            calls.append(b)
            return chary_condition(b)

        def counting_post_init(b):
            calls.append(b)
            return bott_post_init(b)

        bott_post_init = BottMatrix.__post_init__
        monkeypatch.setattr(BottMatrix, "__post_init__", counting_post_init)
        monkeypatch.setattr(tower, "chary_condition", counting_chary_condition)
        monkeypatch.setattr(enumeration, "chary_condition", counting_chary_condition, raising=False)
        report = chary_compare(4, (-1, 1))
        assert report.total == 729 and len(report.fano_not_chary) == 32
        assert calls == []
        assert chary_condition(BottMatrix(((1, 0), (0, 1))))
        assert len(calls) == 1  # the counter sees a matrix that is built

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("lo, hi", [
        # 0:0 and 1:1 test that a zero row, and the zeros around a lone
        # entry in a row of width >= 2, are kept only when 0 is in range
        (-1, 1), (-2, 2), (0, 1), (-1, 0), (0, 0), (1, 3), (-3, -1), (1, 1),
    ])
    def test_chary_matrices_match_the_condition(self, r, lo, hi):
        assert enumeration._chary_matrices(r, lo, hi) == reference_chary_matrices(r, lo, hi)

    @settings(max_examples=400, deadline=None)
    @given(lo=st.integers(-4, 3), width=st.integers(1, 4), bound=st.integers(0, 6),
           offset=st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    def test_rank_matches_product_and_filter(self, lo, width, bound, offset):
        # ranges with and without 0, of widths 1 to 4, and offsets that push b past either end
        hi = lo + width - 1
        offset = tuple(offset)
        assert enumeration._rank(lo, hi, bound, offset) == reference_rank(lo, hi, bound, offset)

    def test_rank_keeps_one_vector_of_many_entries(self):
        # a range of width 1: one vector, listed without scoring width^n of them
        assert enumeration._rank(0, 0, 2, (0,) * 10**5) == ([0], [0], [(0,) * 10**5])
        assert enumeration._rank(0, 0, 2, (-3,) * 10**5)[2] == []

    def test_cap_refused_before_any_candidate(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("candidates generated past the cap")

        monkeypatch.setattr(enumeration, "_rank", fail)
        with pytest.raises(SweepError, match="81 candidates exceed cap 80"):
            sweep(SweepSpec((1, 2, 1), (-1, 1), cap=80))
        with pytest.raises(SweepError, match="729 candidates exceed cap 728"):
            chary_compare(4, (-1, 1), cap=728)


class TestPrunedSearch:
    @pytest.mark.parametrize("m, lo, hi, fano", [
        (3, -1, 1, 15), (4, -1, 1, 105), (5, -1, 1, 945), (4, -2, 2, 105),
    ])
    def test_fano_bott_manifold_counts(self, m, lo, hi, fano):
        # bott_fano's clauses, column p = m-1 down to 1: (1) gives one column,
        # (2) gives m - p (the place of the single 1) and (3) gives m - p (the
        # place q of the -1; column p + q fixes the entries after it).  They
        # differ in the sign of the first nonzero entry, so they never overlap,
        # and every entry stays in -1:1.  Any range holding -1:1 therefore
        # gives prod_{p<m} (2(m - p) + 1) = (2m - 1)!! Fano towers.
        report = sweep(SweepSpec((1,) * m, (lo, hi), mode="fano"))
        assert report.counts["fano"] == len(report.hits) == fano
        assert report.total == sum(report.counts.values()) == (hi - lo + 1) ** (m * (m - 1) // 2)

    @pytest.mark.parametrize("r, fano", [(2, 3), (3, 15), (4, 105), (5, 945), (6, 10395)])
    @pytest.mark.parametrize("lo, hi", [(-1, 1), (-2, 2)])
    def test_fano_only_bound_keeps_every_fano_tower(self, r, fano, lo, hi):
        """(1,)^r has (2r - 1)!! Fano towers over any range holding -1:1.

        By bott_fano's three clauses, column p = r-1 down to 1 has one
        choice from (1), r - p from (2) (the place of the single 1) and
        r - p from (3) (the place q of the -1; column p + q fixes the
        entries after it): 2(r - p) + 1 in all, every entry in -1:1.
        """
        spec = SweepSpec((1,) * r, (lo, hi), mode="fano", cap=(hi - lo + 1) ** (r * (r - 1) // 2))
        _, hits = enumeration._search(spec, fano_only=True)
        assert len(hits) == fano
        if r <= 5:
            assert hits == sweep(spec).hits

    @pytest.mark.parametrize("m", [4, 5])
    def test_fano_set_is_built_from_the_three_clauses(self, m):
        towers = [{}]
        for p in range(m - 1, 0, -1):
            length = m - p
            extended = []
            for a in towers:
                columns = [(0,) * length]  # (1)
                for q in range(1, length + 1):
                    before = (0,) * (q - 1)
                    columns.append(before + (1,) + (0,) * (length - q))  # (2)
                    columns.append(before + (-1,) + tuple(  # (3)
                        a[p + r, p + q] for r in range(q + 1, length + 1)))
                for col in columns:
                    extended.append({**a, **{(p + r, p): c for r, c in enumerate(col, start=1)}})
            towers = extended
        built = {tuple(a[j, l] for j, l, _ in coefficient_slots((1,) * m)) for a in towers}
        assert len(built) == len(towers) == {4: 105, 5: 945}[m]
        assert set(sweep(SweepSpec((1,) * m, (-1, 1), mode="fano")).hits) == built

    def test_builds_no_tower(self, monkeypatch):
        calls = []

        def counting_validate(t):
            calls.append(t)
            return validate(t)

        monkeypatch.setattr(tower, "validate", counting_validate)
        for mode in SWEEP_MODES:
            sweep(SweepSpec((2, 1, 2, 1), (-1, 1), mode=mode))
        chary_compare(3, (-1, 1))
        assert calls == []
        GeneralizedBottTower((1, 1), {(2, 1): (0,)})
        assert len(calls) == 1  # the counter sees a tower that is built

    @staticmethod
    def count_ranks(monkeypatch) -> list:
        """The vector length of every memo entry the engine ranks from now on."""
        calls = []

        def counting_rank(lo, hi, bound, offset):
            calls.append(len(offset))
            return rank(lo, hi, bound, offset)

        rank = enumeration._rank
        monkeypatch.setattr(enumeration, "_rank", counting_rank)
        return calls

    def test_last_cell_counted_from_its_memo(self, monkeypatch):
        # 5^15 candidates; every cell reads one memo keyed by (bound, offset),
        # so the last stage's vectors (n_4 = 4) are ranked once per distinct
        # offset, not once per parent of cell (4, 1) (9,457 times); the
        # census makes 233 memo entries in all
        calls = self.count_ranks(monkeypatch)
        tracemalloc.start()
        try:
            report = sweep(SweepSpec((1, 1, 1, 4), (-2, 2), mode="census", cap=5**15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.total == 5**15
        assert report.counts == {
            "fano": 480, "weak_fano_not_fano": 37_128, "not_weak_fano": 30_517_540_517,
        }
        assert calls.count(4) < 1000
        assert peak < 4 * 2**20

    def test_every_cell_decided_from_the_memo(self, monkeypatch):
        # 3^12 candidates; scoring each vector of a cell once per parent made
        # 3,717 scans of the range, where a memo entry per (bound, offset) makes 36
        calls = self.count_ranks(monkeypatch)
        report = sweep(SweepSpec((2, 2, 2, 2), (-1, 1), mode="census"))
        assert report.counts == {
            "fano": 6357, "weak_fano_not_fano": 34_236, "not_weak_fano": 490_848,
        }
        assert len(calls) <= 36

    @staticmethod
    def count_enters(spec: SweepSpec) -> tuple[int, tuple]:
        """The calls of ``_search``'s inner ``enter``, seen by a profile
        hook, and the result of the search."""
        enter = next(c for c in enumeration._search.__code__.co_consts
                     if getattr(c, "co_name", None) == "enter")
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is enter:
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            result = enumeration._search(spec)
        finally:
            sys.setprofile(previous)
        return calls, result

    def test_cell_above_the_last_decided_with_it(self):
        # one enter call per parent of a_{m-1,1} and a_{m,1}: a frame per kept
        # vector of a_{m-1,1} made 8,065 calls on the census and 1,131 on the fano sweep
        calls, (counts, hits) = self.count_enters(SweepSpec((1, 3, 3, 1), (-1, 1), mode="census"))
        assert counts == {"fano": 1254, "weak_fano_not_fano": 7511, "not_weak_fano": 522_676}
        assert hits == [] and calls <= 2092
        calls, (counts, hits) = self.count_enters(SweepSpec((2, 1, 2, 1), (-1, 1), mode="fano"))
        assert counts == {"fano": 455, "weak_fano_not_fano": 1527, "not_weak_fano": 4579}
        assert hits == reference_sweep((2, 1, 2, 1), -1, 1, "fano")[2] and calls <= 197

    def test_width_one_range_on_many_stages(self):
        # 4,950 vectors deep: the search keeps its own stack, not Python's
        report = sweep(SweepSpec((1,) * 100, (0, 0), mode="fano", cap=4950))
        assert report.counts == {"fano": 1, "weak_fano_not_fano": 0, "not_weak_fano": 0}
        assert report.hits == [(0,) * 4950]
