import random
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bottfano.fan import FanError, _cone_coordinates, build_fan
from bottfano import lattice
from bottfano.lattice import LatticeError, bareiss, det, first_non_unimodular, mu, nu

from conftest import fraction_det, make_tower

ints = st.integers(min_value=-50, max_value=50)
vectors = st.lists(ints, min_size=1, max_size=6).map(tuple)


class TestMuNu:
    def test_paper_values(self):
        assert mu((-1, -1)) == -1
        assert mu((0, 1)) == 0
        assert mu((0, 0)) == 0
        assert nu((0, -1, -1)) == 2
        assert nu((-2, -1)) == 3
        assert nu((0, 0, 0, 0)) == 0

    def test_empty_rejected(self):
        with pytest.raises(LatticeError):
            mu(())
        with pytest.raises(LatticeError):
            nu(())

    @given(vectors)
    def test_signs(self, x):
        assert mu(x) <= 0
        assert nu(x) >= 0

    @given(ints)
    def test_nu_is_abs_in_dimension_one(self, x):
        assert nu((x,)) == abs(x)


def cofactor_det(m):
    """Independent oracle: Leibniz expansion."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += sign * term
    return total


class TestDet:
    def test_identity(self):
        assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    @pytest.mark.parametrize("a", [-3, 0, 7])
    def test_triangular(self, a):
        assert det([[1, 0], [a, -1]]) == -1

    @pytest.mark.parametrize("a", [-2, 0, 1, 5])
    def test_hirzebruch_cone(self, a):
        # generators u_1^0 = (-1, a), u_2^0 = (0, -1)
        assert det([[-1, a], [0, -1]]) == 1

    def test_non_square_rejected(self):
        with pytest.raises(LatticeError):
            det([[1, 2, 3], [4, 5, 6]])

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0

    def test_matches_leibniz_on_random_small_matrices(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 3)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det(m) == cofactor_det(m)

    def test_matches_leibniz_4x4(self):
        rng = random.Random(11)
        for _ in range(50):
            m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            assert det(m) == cofactor_det(m)

    def test_matches_leibniz_on_sparse_matrices(self):
        # zero entries below the pivot take the row-skipping path
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(1, 4)
            m = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
            assert det(m) == cofactor_det(m)


class TestBareiss:
    def test_augmented_column_keeps_the_solution(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            x = [rng.randint(-5, 5) for _ in range(n)]
            a = [row + [sum(c * e for c, e in zip(row, x))] for row in m]
            sign = bareiss(a)
            if not sign:
                assert det(m) == 0
                continue
            assert sign * a[n - 1][n - 1] == det(m)
            for i, row in enumerate(a):
                assert all(e == 0 for e in row[:i])
                assert sum(c * e for c, e in zip(row[:n], x)) == row[n]


    def test_minus_one_pivot_row_is_negated(self):
        a = [[-1, 2, 5], [3, 1, 4]]
        sign = bareiss(a)
        assert a[0] == [1, -2, -5]
        assert sign * a[1][1] == det([[-1, 2], [3, 1]]) == -7

    def test_unit_pivot_below_a_non_unit_diagonal(self):
        a = [[2, 1], [1, 1]]
        sign = bareiss(a)
        # one swap and one negation (of the -1 left in the last row)
        assert a == [[1, 1], [0, 1]] and sign == 1
        assert sign * a[1][1] == det([[2, 1], [1, 1]]) == 1

    @pytest.mark.parametrize("m", [
        [[2, 3], [3, 5]],
        [[5, 3], [3, 2]],
        [[2, 3, 0], [3, 5, 0], [0, 0, 1]],
        [[3, 0, 2], [0, 1, 0], [4, 0, 3]],
    ])
    def test_unimodular_with_no_unit_entry_in_a_column(self, m):
        assert det(m) == fraction_det(m) in (1, -1)

    @pytest.mark.parametrize("target", [(1, 0), (0, 1), (-4, 7)])
    def test_cone_coordinates_with_no_unit_entry_in_a_column(self, target):
        cols = [(2, 3), (3, 5)]
        x = _cone_coordinates(cols, target)
        assert all(type(c) is int for c in x)
        assert tuple(sum(c * col[i] for c, col in zip(x, cols)) for i in range(2)) == target

    def test_cone_coordinates_refuse_a_non_unimodular_cone(self):
        with pytest.raises(FanError, match="non-integral"):
            _cone_coordinates([(2, 4), (3, 5)], (1, 0))

    def test_matches_fraction_reference_up_to_7x7(self):
        # mostly 0 and +-1 entries, so unit and non-unit pivots mix
        rng = random.Random(19)
        entries = (0, 0, 0, 1, 1, -1, -1, 2, -2, 3)
        for _ in range(2000):
            n = rng.randint(1, 7)
            m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            d = det(m)
            assert type(d) is int and d == fraction_det(m)

    def test_unimodular_cones_rewrite_no_row_with_a_zero_pivot_column(self):
        class RecordingRow(list):
            # a rewrite at step k writes row[k + 1:] while row[k] still
            # holds the factor it eliminates
            factors = []

            def __setitem__(self, key, value):
                if isinstance(key, slice):
                    RecordingRow.factors.append(self[key.start - 1])
                super().__setitem__(key, value)

        # the all-zero (3,)^6 tower mixes u_l^0 = -(e_l^1 + e_l^2 + e_l^3)
        # with unit vectors, so its cones alternate 1 and -1 entries
        t = make_tower((3,) * 6, {(j, l): (0, 0, 0) for j in range(2, 7) for l in range(1, j)})
        f = build_fan(t)
        for cone in f.max_cones:
            a = [RecordingRow(f.rays[i]) for i in sorted(cone)]
            sign = bareiss(a)
            assert sign * a[-1][-1] in (1, -1)
        assert RecordingRow.factors and 0 not in RecordingRow.factors


class TestFirstNonUnimodular:
    def test_unit_and_euclid_pivots(self):
        # (2,3) and (3,5) hold no entry +-1, so their first column takes Euclid steps
        assert first_non_unimodular([(2, 3), (3, 5)], [(0, 1)]) is None
        assert first_non_unimodular([(2, 3), (3, 5), (2, 4)], [(0, 1), (2, 1), (1, 0)]) == 1
        # gcd 2 in the first column; a zero column; a repeated ray
        assert first_non_unimodular([(2, 4), (1, 0)], [(1, 0)]) == 0
        assert first_non_unimodular([(1, 0), (0, 0)], [(0, 1)]) == 0
        assert first_non_unimodular([(1, 0), (0, 1)], [(0, 1), (1, 1)]) == 1

    def test_no_cones(self):
        assert first_non_unimodular([(1, 0), (0, 1)], []) is None

    def test_mismatched_sizes_refused(self):
        with pytest.raises(LatticeError):
            first_non_unimodular([(1, 0), (0, 1)], [(0, 1), (0,)])
        with pytest.raises(LatticeError):
            first_non_unimodular([(1, 0), (0, 1, 0)], [(0, 1)])

    def test_matches_per_cone_fraction_det(self):
        # few rays in few dimensions, so cones share prefixes and the stack is reused
        rng = random.Random(1811)
        entries = (0, 0, 0, 1, 1, -1, -1, 2, -2, 3, 5)
        for _ in range(1500):
            n = rng.randint(1, 5)
            rays = [tuple(rng.choice(entries) for _ in range(n))
                    for _ in range(rng.randint(n, n + 4))]
            cones = [tuple(rng.sample(range(len(rays)), n)) for _ in range(rng.randint(1, 16))]
            unimodular = [fraction_det([rays[i] for i in cone]) in (1, -1) for cone in cones]
            assert first_non_unimodular(rays, cones) == next(
                (c for c, u in enumerate(unimodular) if not u), None)
            # most random cones fail, so also check the unimodular ones alone and with one
            # failing cone at a random index
            good = [cone for cone, u in zip(cones, unimodular) if u]
            assert first_non_unimodular(rays, good) is None
            if len(good) < len(cones):
                at = rng.randint(0, len(good))
                failing = cones[unimodular.index(False)]
                assert first_non_unimodular(rays, good[:at] + [failing] + good[at:]) == at

    def test_each_cone_prefix_is_eliminated_once(self, monkeypatch):
        steps = 0

        def counting(rows, y):
            nonlocal steps
            steps += 1
            return next_rows(rows, y)

        next_rows = lattice._next_rows
        monkeypatch.setattr(lattice, "_next_rows", counting)
        # the all-zero (1,)^12 fan: 4,096 cones of 12 rays, one column step per distinct
        # prefix, where a determinant per cone would take 49,152
        t = make_tower((1,) * 12, {(j, l): (0,) for j in range(2, 13) for l in range(1, j)})
        f = build_fan(t)
        assert first_non_unimodular(f.rays, f.max_cones) is None
        prefixes = {tuple(sorted(c))[:k] for c in f.max_cones for k in range(1, f.dim + 1)}
        assert steps == len(prefixes) == 8190
