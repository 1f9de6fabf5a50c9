import re
from itertools import product
from math import comb

import pytest

from bottfano import (
    BottMatrix,
    GeneralizedBottTower,
    TowerError,
    Verdict,
    bott_fano,
    chary_condition,
    classify,
    compute_b,
    from_bott_matrix,
    validate,
)

from bottfano.tower import B_WORK_LIMIT

from conftest import fano_4stage, hirzebruch, make_tower, not_weak_fano_3stage, random_tower


class TestValidate:
    def test_projective_space_needs_no_coeffs(self):
        validate(make_tower((2,)))

    def test_wrong_length_names_the_pair(self):
        with pytest.raises(TowerError, match=r"a\[2,1\]"):
            make_tower((1, 1), {(2, 1): (0, 0)})

    def test_missing_vector_named(self):
        with pytest.raises(TowerError, match=r"missing.*a\[3,2\]"):
            make_tower((1, 1, 1), {(2, 1): (0,), (3, 1): (0,)})

    def test_extra_vector_named(self):
        with pytest.raises(TowerError, match=r"unexpected.*a\[2,1\]"):
            make_tower((2,), {(2, 1): (0,)})

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(TowerError):
            validate(make_tower((2, 0), {(2, 1): ()}))

    def test_worked_example_is_valid(self):
        validate(fano_4stage())

    @pytest.mark.parametrize("bad", [2.7, 1.0, True, "2"])
    def test_non_int_coefficient_refused(self, bad):
        # int() used to read (2.7,) as a = 2
        with pytest.raises(TowerError, match=r"coefficients\[j=2\]\[l=1\]\[k=1\] must be an integer"):
            make_tower((1, 1), {(2, 1): (bad,)})

    @pytest.mark.parametrize("bad", [2.0, True, "2"])
    def test_non_int_stage_dimension_refused(self, bad):
        with pytest.raises(TowerError, match="n_1 must be a positive integer"):
            make_tower((bad,))

    @pytest.mark.parametrize("key, coeffs", [
        # (2.0, True) == (2, 1), so it stands in for that key, not next to it
        ((2.0, True), {(2.0, True): (1,)}),
        ((2, 1, 0), {(2, 1): (1,), (2, 1, 0): (1,)}),
        (5, {(2, 1): (1,), 5: (1,)}),
        # a bad key is named before a missing vector
        (5, {5: (1,)}),
    ], ids=["float-bool", "triple", "int", "int-and-missing"])
    def test_key_not_a_pair_of_ints_refused(self, key, coeffs):
        with pytest.raises(TowerError, match=rf"coefficient key {re.escape(repr(key))} must be a pair"):
            GeneralizedBottTower((1, 1), coeffs)

    @pytest.mark.parametrize("vec, kind", [([0], "list"), (5, "int"), (None, "NoneType")])
    def test_vector_not_a_tuple_refused(self, vec, kind):
        # a list is refused, not converted: cli.parse_document hands the tower tuples
        message = f"coefficient vector a[2,1] (coefficients[j=2][l=1]) must be a tuple, got {kind}"
        with pytest.raises(TowerError, match=f"^{re.escape(message)}$"):
            GeneralizedBottTower((1, 1), {(2, 1): vec})

    @pytest.mark.parametrize("coeffs", [[(1,)], None])
    def test_coefficients_not_a_dict_refused(self, coeffs):
        with pytest.raises(TowerError, match=r"^coefficients must be a dict keyed by \(j, l\)"):
            GeneralizedBottTower((1, 1), coeffs)

    @pytest.mark.parametrize("dims, kind", [([1, 1], "list"), (3, "int"), (None, "NoneType")])
    def test_stage_dims_not_a_tuple_refused(self, dims, kind):
        with pytest.raises(TowerError, match=f"^stage dimensions must be a tuple, got {kind}$"):
            GeneralizedBottTower(dims, {(2, 1): (0,)})

    def test_keeps_what_it_is_given(self):
        dims, vec = (1, 2), (3, -1)
        coeffs = {(2, 1): vec}
        t = GeneralizedBottTower(dims, coeffs)
        assert t.stage_dims is dims and t.coeffs is coeffs and t.a(2, 1) is vec

    def test_no_stage_refused(self):
        with pytest.raises(TowerError, match="^at least one stage required$"):
            GeneralizedBottTower((), {})


class TestComputeB:
    def test_worked_fano_example(self):
        assert compute_b(fano_4stage()) == {
            (1, 1): (-1, -1),
            (1, 2): (0, 1),
            (1, 3): (0, 1),
            (2, 1): (0, -1),
            (2, 2): (0, 0),
            (3, 1): (0, 1),
        }

    def test_worked_non_weak_fano_example(self):
        assert compute_b(not_weak_fano_3stage()) == {
            (1, 1): (0, -1, -1),
            (1, 2): (-2, -1),
            (2, 1): (-2, -1),
        }

    def test_zero_coefficients_give_zero_b(self):
        dims = (2, 1, 3)
        coeffs = {
            (j, l): (0,) * dims[j - 1] for j in range(2, 4) for l in range(1, j)
        }
        b = compute_b(make_tower(dims, coeffs))
        assert all(all(e == 0 for e in vec) for vec in b.values())

    def test_first_vector_copies_coefficients(self):
        t = make_tower((1, 2), {(2, 1): (5, -7)})
        assert compute_b(t)[(1, 1)] == (5, -7)

    def test_matches_the_recursion_on_random_towers(self, rng):
        # the recursion as written, with every r < q; compute_b adds only the r with mu != 0
        for _ in range(200):
            t = random_tower(rng, max_stages=6, coeff_bound=rng.choice((1, 2)))
            m, b = t.num_stages, {}
            for p in range(1, m):
                for q in range(1, m - p + 1):
                    vec = list(t.a(p + q, p))
                    for r in range(1, q):
                        mr = min(0, *b[(p, r)])
                        vec = [v + mr * c for v, c in zip(vec, t.a(p + q, p + r))]
                    b[(p, q)] = tuple(vec)
            assert compute_b(t) == b

    def test_work_limit(self):
        # (1,)^m can update sum_j C(j-1, 2) = C(m, 3) entries: 1,499,784 at m = 209,
        # 1,521,520 at m = 210; a stage of n lines counts n times, so (1,)^150 with a
        # last stage of 84 lines updates 551,300 + 84 * 11,175 = 1,490,000, and of 85 lines
        # 1,501,175
        assert comb(209, 3) <= B_WORK_LIMIT < comb(210, 3)
        for dims, work in [((1,) * 209, None), ((1,) * 210, 1_521_520),
                           ((1,) * 150 + (84,), None), ((1,) * 150 + (85,), 1_501_175)]:
            t = make_tower(dims, {(j, l): (0,) * dims[j - 1]
                                  for j in range(2, len(dims) + 1) for l in range(1, j)})
            if work is None:
                assert len(compute_b(t)) == len(dims) * (len(dims) - 1) // 2
                continue
            message = (f"b-vectors refused: {work} entry updates exceed limit {B_WORK_LIMIT} "
                       f"on sum_j n_j*C(j-1,2)")
            with pytest.raises(TowerError, match=f"^{re.escape(message)}$"):
                compute_b(t)


@pytest.mark.parametrize("degrees, verdict", [
    ((), Verdict.FANO),
    ((1, 3), Verdict.FANO),
    ((2, 0, 1), Verdict.WEAK_FANO_NOT_FANO),
    ((0, -1, 5), Verdict.NOT_WEAK_FANO),
])
def test_verdict_from_degrees(degrees, verdict):
    assert Verdict.from_degrees(degrees) is verdict
    assert Verdict.from_degrees(iter(degrees)) is verdict


class TestClassify:
    def test_worked_fano_example(self):
        c = classify(fano_4stage())
        assert c.verdict is Verdict.FANO
        assert c.nu_sums == (3, 2, 1)
        assert c.thresholds == ((3, 4), (2, 3), (2, 3))

    def test_worked_non_weak_fano_example(self):
        c = classify(not_weak_fano_3stage())
        assert c.verdict is Verdict.NOT_WEAK_FANO
        assert c.nu_sums[0] == 5

    def test_weak_fano_boundary(self):
        c = classify(hirzebruch(2))
        assert c.verdict is Verdict.WEAK_FANO_NOT_FANO

    def test_single_stage_is_fano(self):
        c = classify(make_tower((3,)))
        assert c.verdict is Verdict.FANO
        assert c.nu_sums == ()

    def test_products_of_projective_spaces_are_fano(self):
        for dims in [(1, 1), (2, 3), (1, 2, 1), (3, 1, 2, 2)]:
            coeffs = {
                (j, l): (0,) * dims[j - 1]
                for j in range(2, len(dims) + 1)
                for l in range(1, j)
            }
            assert classify(make_tower(dims, coeffs)).verdict is Verdict.FANO

    @pytest.mark.parametrize("a", range(-5, 6))
    def test_hirzebruch_ladder(self, a):
        v = classify(hirzebruch(a)).verdict
        if abs(a) <= 1:
            assert v is Verdict.FANO
        elif abs(a) == 2:
            assert v is Verdict.WEAK_FANO_NOT_FANO
        else:
            assert v is Verdict.NOT_WEAK_FANO


class TestClassifyPicardTwo:
    def test_product_of_lines(self):
        assert classify(GeneralizedBottTower((1, 1), {(2, 1): (0,)})).verdict is Verdict.FANO

    def test_positive_pair(self):
        assert classify(GeneralizedBottTower((3, 2), {(2, 1): (0, 2)})).verdict is Verdict.FANO

    def test_degree_three_surface(self):
        assert classify(GeneralizedBottTower((1, 1), {(2, 1): (3,)})).verdict is Verdict.NOT_WEAK_FANO

    def test_length_mismatch(self):
        with pytest.raises(TowerError):
            classify(GeneralizedBottTower((1, 2), {(2, 1): (1,)}))

    @pytest.mark.parametrize(
        "n1, n2, a",
        [(1, 1, (0.5,)), (1, 1, (True,)), (1, 1, ("0",)), (1.0, 1, (0,)), (1, True, (0,))],
    )
    def test_non_int_input_refused(self, n1, n2, a):
        # (1, 1, (0.5,)) used to be truncated to a = 0 and answer fano
        with pytest.raises(TowerError, match="must be a.*integer"):
            classify(GeneralizedBottTower((n1, n2), {(2, 1): a}))

    def test_follows_the_picard_two_rule_exhaustively(self):
        # with two stages, b_{1,1} = a: Fano iff nu(a) <= n_1, weak Fano iff nu(a) <= n_1 + 1
        for n1 in range(1, 4):
            for n2 in range(1, 4):
                for a in product(range(-3, 4), repeat=n2):
                    nu_a = sum(a) - (n2 + 1) * min(0, *a)
                    if nu_a <= n1:
                        expected = Verdict.FANO
                    elif nu_a <= n1 + 1:
                        expected = Verdict.WEAK_FANO_NOT_FANO
                    else:
                        expected = Verdict.NOT_WEAK_FANO
                    cls = classify(GeneralizedBottTower((n1, n2), {(2, 1): a}))
                    assert cls.verdict is expected
                    assert cls.nu_sums == (nu_a,)


def bott_tower(scalars: dict[tuple[int, int], int], m: int) -> GeneralizedBottTower:
    return make_tower((1,) * m, {jl: (v,) for jl, v in scalars.items()})


class TestBottFano:
    def test_table_row(self):
        t = bott_tower({(2, 1): -1, (3, 1): 1, (3, 2): 1}, 3)
        assert bott_fano(t)

    def test_zero_tail(self):
        t = bott_tower({(2, 1): 0, (3, 1): 0, (3, 2): 0}, 3)
        assert bott_fano(t)

    def test_fails_all_clauses(self):
        t = bott_tower({(2, 1): 0, (3, 1): 0, (3, 2): 2}, 3)
        assert not bott_fano(t)
        assert classify(t).verdict is not Verdict.FANO

    def test_requires_line_fibers(self):
        with pytest.raises(TowerError):
            bott_fano(make_tower((2, 1), {(2, 1): (0,)}))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_nu_sum_criterion_exhaustively(self, m):
        slots = [(j, l) for j in range(2, m + 1) for l in range(1, j)]
        for values in product(range(-2, 3), repeat=len(slots)):
            t = bott_tower(dict(zip(slots, values)), m)
            assert bott_fano(t) == (classify(t).verdict is Verdict.FANO)


class TestBottMatrix:
    def test_rejects_bad_diagonal(self):
        with pytest.raises(TowerError):
            BottMatrix(((2, 0), (0, 1)))

    def test_short_row_refused(self):
        with pytest.raises(TowerError, match="^row 2 has length 1, expected 2$"):
            BottMatrix(((1, 0), (0,)))

    def test_rejects_lower_triangle(self):
        with pytest.raises(TowerError):
            BottMatrix(((1, 0), (3, 1)))

    @pytest.mark.parametrize("beta", [5, [[1, 2], 3]])
    def test_not_a_sequence_of_rows_refused(self, beta):
        with pytest.raises(TowerError, match="^a Bott matrix must be a sequence of rows, got "):
            BottMatrix(beta)

    @pytest.mark.parametrize("row", [(1, 0.9), (1, 0.0), (1, False), (1, "0"), (1.0, 0)])
    def test_non_int_entry_refused(self, row):
        # ((1, 0.9), (0, 1)) used to become the identity
        with pytest.raises(TowerError, match="row 1 must hold integers"):
            BottMatrix((row, (0, 1)))

    def test_all_ones_conversion(self):
        b = BottMatrix(((1, 1, 1), (0, 1, 1), (0, 0, 1)))
        t = from_bott_matrix(b)
        assert t.stage_dims == (1, 1, 1)
        assert t.coeffs == {(2, 1): (-1,), (3, 1): (-1,), (3, 2): (-1,)}

    def test_identity_gives_product(self):
        b = BottMatrix(((1, 0), (0, 1)))
        assert from_bott_matrix(b).coeffs == {(2, 1): (0,)}

    @pytest.mark.parametrize("a", [-2, 0, 3])
    def test_hirzebruch_dictionary(self, a):
        b = BottMatrix(((1, -a), (0, 1)))
        assert from_bott_matrix(b).coeffs == {(2, 1): (a,)}


def reference_chary_condition(b: BottMatrix) -> bool:
    """The original eta^+ / eta^- loop, kept as the oracle for chary_condition."""
    r = b.size
    beta = b.beta
    for i in range(1, r + 1):
        plus = [j for j in range(i + 1, r + 1) if beta[i - 1][j - 1] > 0]
        minus = [j for j in range(i + 1, r + 1) if beta[i - 1][j - 1] < 0]
        cond1 = not plus and len(minus) <= 1 and all(beta[i - 1][l - 1] == -1 for l in minus)
        cond2 = (
            not minus
            and len(plus) <= 1
            and all(
                beta[i - 1][q - 1] == 1
                and all(beta[q - 1][k - 1] == 0 for k in range(q + 1, r + 1))
                for q in plus
            )
        )
        if not (cond1 or cond2):
            return False
    return True


class TestCharyCondition:
    def test_all_ones_counterexample(self):
        b = BottMatrix(((1, 1, 1), (0, 1, 1), (0, 0, 1)))
        assert not chary_condition(b)
        assert classify(from_bott_matrix(b)).verdict is Verdict.FANO

    def test_identity_satisfies(self):
        assert chary_condition(BottMatrix(((1, 0), (0, 1))))

    def test_single_positive_entry(self):
        assert chary_condition(BottMatrix(((1, 1), (0, 1))))

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matches_reference_exhaustively(self, r):
        slots = [(i, j) for i in range(r) for j in range(i + 1, r)]
        for values in product(range(-2, 3), repeat=len(slots)):
            beta = [[int(i == j) for j in range(r)] for i in range(r)]
            for (i, j), v in zip(slots, values):
                beta[i][j] = v
            b = BottMatrix(beta)
            assert chary_condition(b) == reference_chary_condition(b), beta

    def test_chary_implies_fano_on_small_sweep(self, rng):
        for r in (2, 3, 4):
            slots = [(i, j) for i in range(r) for j in range(i + 1, r)]
            for _ in range(300):
                beta = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
                for i, j in slots:
                    beta[i][j] = rng.randint(-2, 2)
                b = BottMatrix(tuple(tuple(row) for row in beta))
                if chary_condition(b):
                    assert classify(from_bott_matrix(b)).verdict is Verdict.FANO


def test_fano_implies_weak_fano_thresholds(rng):
    for _ in range(200):
        t = random_tower(rng)
        c = classify(t)
        if c.verdict is Verdict.FANO:
            assert all(s <= hi for s, (_, hi) in zip(c.nu_sums, c.thresholds))
