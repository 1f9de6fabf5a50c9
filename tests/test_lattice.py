import random
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bottfano.fan import build_fan
from bottfano.oracle import FanError, _cone_coordinates
from bottfano import lattice
from bottfano.lattice import LatticeError, det, first_non_unimodular, mu, nu

from conftest import fraction_det, make_tower, tail_determinants

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
        assert det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
        assert det([[2, -3, 5], [4, 1, 7], [6, -2, 12]]) == 0

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
        # rows with a zero in the pivot column are left alone
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(1, 4)
            m = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
            assert det(m) == cofactor_det(m)

    def test_matches_fraction_reference_on_large_entries(self):
        # Euclid steps can make entries grow, so start them large
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 6)
            m = [[rng.randint(-10**12, 10**12) for _ in range(n)] for _ in range(n)]
            d = det(m)
            assert type(d) is int and d == fraction_det(m)

    def test_row_permutations_of_the_identity(self):
        signs = set()
        for perm in permutations(range(4)):
            inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
            sign = -1 if inversions % 2 else 1
            assert det([[int(j == i) for j in range(4)] for i in perm]) == sign
            signs.add(sign)
        assert signs == {1, -1}


def random_unimodular_columns(rng, n):
    """The n columns of the identity under random integer column additions,
    swaps and negations: a unimodular cone, often with no +-1 in a column."""
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.choice((-3, -2, -1, 1, 2, 3))
            cols[i] = [a + q * b for a, b in zip(cols[i], cols[j])]
        if rng.random() < 0.5:
            cols[i], cols[j] = cols[j], cols[i]
        if rng.random() < 0.5:
            cols[i] = [-e for e in cols[i]]
    return [tuple(col) for col in cols]


class TestBareiss:
    """Elimination on columns with no +-1 entry, and with unit and non-unit
    pivots mixed."""

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
        # the cone {(2,3), (3,5)}, then random unimodular cones of 1 to 6 rays with random
        # targets, drawn from a seed per target
        cases = [([(2, 3), (3, 5)], target)]
        rng = random.Random(str(target))
        for _ in range(200):
            n = rng.randint(1, 6)
            cases.append((random_unimodular_columns(rng, n),
                          tuple(rng.randint(-50, 50) for _ in range(n))))
        assert sum(any(1 not in col and -1 not in col for col in cols) for cols, _ in cases) > 100
        for cols, t in cases:
            assert fraction_det(cols) in (1, -1)
            x = _cone_coordinates(cols, t)
            assert all(type(c) is int for c in x)
            assert tuple(sum(c * col[i] for c, col in zip(x, cols)) for i in range(len(t))) == t

    def test_cone_coordinates_refuse_a_non_unimodular_cone(self):
        with pytest.raises(FanError, match="non-integral"):
            _cone_coordinates([(2, 4), (3, 5)], (1, 0))
        # determinant 2, though (2,2) = (1,0) + (1,2) has integral coordinates
        with pytest.raises(FanError, match="non-integral"):
            _cone_coordinates([(1, 0), (1, 2)], (2, 2))
        # random cones: a singular one is named as such, any other that is not unimodular
        # is refused even where the target's coordinates happen to be integral
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 4)
            cols = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
            d = fraction_det(cols)
            if d in (1, -1):
                continue
            x = [rng.randint(-5, 5) for _ in range(n)]
            target = tuple(sum(c * col[i] for c, col in zip(x, cols)) for i in range(n))
            with pytest.raises(FanError, match="singular" if d == 0 else "non-integral"):
                _cone_coordinates(cols, target)

    @pytest.mark.parametrize("cols, message", [
        # three columns once gave [5, 7], the solve for (5,7) and not for the target
        ([(1, 0), (0, 1), (5, 7)], "maximal cone has 3 rays, expected 2"),
        ([(1, 0)], "maximal cone has 1 rays, expected 2"),
    ], ids=["one-column-too-many", "one-column-too-few"])
    def test_cone_coordinates_refuse_a_wrongly_sized_cone(self, cols, message):
        with pytest.raises(FanError) as excinfo:
            _cone_coordinates(cols, (1, 1))
        assert str(excinfo.value) == message

    def test_matches_fraction_reference_up_to_7x7(self):
        # mostly 0 and +-1 entries, so unit and non-unit pivots mix
        rng = random.Random(19)
        entries = (0, 0, 0, 1, 1, -1, -1, 2, -2, 3)
        for _ in range(2000):
            n = rng.randint(1, 7)
            m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            d = det(m)
            assert type(d) is int and d == fraction_det(m)


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
        # few rays in few dimensions, so cones share prefixes and the stack is reused; up to
        # n = 3 a cone is decided by its tail alone, and from n = 4 it reaches the tail after
        # steps
        rng = random.Random(1811)
        entries = (0, 0, 0, 1, 1, -1, -1, 2, -2, 3, 5)
        for _ in range(1500):
            n = rng.randint(1, 7)
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
            # rows with a zero in y are left as the same objects
            kept = [row for row, v in zip(rows, y) if not v]
            result = next_rows(rows, y)
            assert all(any(row is r for r in rows) for row in kept)
            return result

        next_rows = lattice._next_rows
        monkeypatch.setattr(lattice, "_next_rows", counting)
        # the all-zero (1,)^12 fan: 4,096 cones of 12 rays, one step per distinct prefix of
        # 1 to 9 rays, where a determinant per cone would take 49,152; no step eliminates a
        # 10th ray, so each of the 4,096 cones, all unimodular, is passed by its 3 x 3 tail
        t = make_tower((1,) * 12, {(j, l): (0,) for j in range(2, 13) for l in range(1, j)})
        f = build_fan(t)
        assert first_non_unimodular(f.rays, f.max_cones) is None
        prefixes = {c[:k] for c in f.max_cones for k in range(1, f.dim + 1)}
        assert steps == sum(len(p) <= f.dim - 3 for p in prefixes) == 1022
        tails = tail_determinants(f.rays, f.max_cones)
        assert tails.count(1) == tails.count(-1) == len(f.max_cones) // 2 == 2048

    @pytest.mark.parametrize("last_dot, bad", [(0, 1), (2, 1), (-2, 1), (-1, None)],
                             ids=["dot-0", "dot-2", "dot-minus-2", "dot-minus-1"])
    def test_last_ray_is_checked_by_its_dot(self, last_dot, bad):
        # three rays are decided by their 3 x 3 tail alone: the second cone's has determinant
        # last_dot, the dot of (last_dot, 0, 0) with the normal (1, -1, 1) of rays 0 and 1
        rays = [(1, 1, 0), (0, 1, 1), (0, 0, 1), (last_dot, 0, 0)]
        assert first_non_unimodular(rays, [(0, 1, 2), (0, 1, 3)]) == bad
        assert first_non_unimodular(rays, [(0, 1, 3), (0, 1, 2)]) == (None if bad is None else 0)

    @pytest.mark.parametrize("n", [3, 4, 7])
    @pytest.mark.parametrize("tail", [2, 0], ids=["det-2", "det-0"])
    def test_only_the_tail_fails(self, monkeypatch, n, tail):
        # e_1, ..., e_n, then three rays that add s = e_1 + ... + e_(n-3) to the columns
        # (1, 0, 1), (0, 1, 0) and (0, 1, tail) in the last three coordinates: each cone's
        # first n - 3 rays are e_1, ..., e_(n-3) and pivot on +1, and only the cone of the three
        # fails, by its tail determinant
        gs = []

        def recording(rows, y):
            p, g = next_rows(rows, y)
            gs.append(g)
            return p, g

        next_rows = lattice._next_rows
        monkeypatch.setattr(lattice, "_next_rows", recording)
        rays = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        s = (1,) * (n - 3)
        rays += [s + (1, 0, 1), s + (0, 1, 0), s + (0, 1, tail)]
        head = tuple(range(n - 3))
        cones = [tuple(range(n)), head + (n, n + 1, n + 2), head + (n, n + 1, n - 1)]
        assert [fraction_det([rays[i] for i in cone]) for cone in cones] == [1, tail, 1]
        # the failing cone comes last in the order of the cones, but has index 1
        assert first_non_unimodular(rays, cones) == 1
        assert first_non_unimodular(rays, cones[::2]) is None
        assert gs == [1] * 2 * (n - 3)

    def test_a_failed_shared_prefix_fails_its_least_cone(self, monkeypatch):
        # n = 6: e_1, ..., e_6, then 2 e_2 as ray 6; three cones share the prefix (0, 6, 2),
        # whose second ray meets gcd 2, and the least of their indices, 1, is the second of
        # them in sorted order; the prefix is eliminated once for the three
        gs = []

        def recording(rows, y):
            p, g = next_rows(rows, y)
            gs.append(g)
            return p, g

        next_rows = lattice._next_rows
        monkeypatch.setattr(lattice, "_next_rows", recording)
        n = 6
        rays = [tuple(int(i == j) for i in range(n)) for j in range(n)] + [(0, 2, 0, 0, 0, 0)]
        cones = [(0, 1, 2, 3, 4, 5), (0, 6, 2, 4, 3, 5), (0, 6, 2, 5, 4, 3), (0, 6, 2, 3, 4, 5)]
        assert [fraction_det([rays[i] for i in cone]) for cone in cones] == [1, -2, -2, 2]
        assert sorted(range(4), key=cones.__getitem__) == [0, 3, 1, 2]
        assert first_non_unimodular(rays, cones) == 1
        assert gs == [1, 1, 1, 2]
        assert first_non_unimodular(rays, cones[:1] + cones[2:]) == 1

    def test_cones_of_no_rays_pass(self):
        assert first_non_unimodular([(), ()], [(), ()]) is None
        assert first_non_unimodular([], [()]) is None

    @pytest.mark.parametrize("rays, cones, bad", [
        ([(1,), (-1,), (2,), (0,)], [(0,), (1,)], None),
        ([(1,), (-1,), (2,), (0,)], [(1,), (2,), (0,)], 1),
        ([(1,), (-1,), (2,), (0,)], [(3,), (0,)], 0),
        ([(1, 0), (0, 1), (-1, -1), (2, 1)], [(0, 1), (1, 2), (2, 0), (3, 0)], None),
        ([(1, 0), (0, 1), (-1, -1), (2, 1)], [(0, 1), (3, 1), (0, 3)], 1),
        ([(1, 0), (0, 1), (-1, -1), (2, 1)], [(2, 1), (2, 2)], 1),
    ], ids=["1d-units", "1d-two", "1d-zero", "2d-units", "2d-two", "2d-repeated"])
    def test_one_and_two_rays_are_decided_by_the_tail_alone(self, monkeypatch, rays, cones, bad):
        def fail(rows, y):
            raise AssertionError("a cone of at most two rays reached an elimination step")

        monkeypatch.setattr(lattice, "_next_rows", fail)
        assert first_non_unimodular(rays, cones) == bad == next(
            (c for c, cone in enumerate(cones)
             if fraction_det([rays[i] for i in cone]) not in (1, -1)), None)

    def test_cone_order_and_type_do_not_change_the_result(self):
        # random cone systems in their sorted form, then with each cone's indices shuffled
        # (as lists), reversed, and with one cone naming a ray twice (a list among tuples)
        rng = random.Random(1912)
        entries = (0, 0, 0, 1, 1, -1, -1, 2, -2)
        unimodular = repeated = 0
        for _ in range(400):
            n = rng.randint(1, 5)
            rays = [tuple(rng.choice(entries) for _ in range(n)) for _ in range(n + 3)]
            cones = [tuple(sorted(rng.sample(range(len(rays)), n))) for _ in range(12)]
            good = [cone for cone in cones if fraction_det([rays[i] for i in cone]) in (1, -1)]
            unimodular += len(good)
            for system in (cones, good):
                expected = next((c for c, cone in enumerate(system) if cone not in good), None)
                assert first_non_unimodular(rays, system) == expected
                assert first_non_unimodular(rays, [rng.sample(cone, n) for cone in system]) == expected
                assert first_non_unimodular(rays, [cone[::-1] for cone in system]) == expected
            if n > 1 and good:
                twice = list(good[0])
                twice[rng.randrange(n)] = twice[rng.randrange(n)]
                if len(set(twice)) < n:
                    repeated += 1
                    at = rng.randint(0, len(good))
                    for cone in (twice, sorted(twice)):
                        assert first_non_unimodular(rays, good[:at] + [cone] + good[at:]) == at
        assert unimodular > 1000 and repeated > 100

    def test_entries_near_10_to_the_30_match_fraction_det(self):
        # a unimodular basis grown by column additions with multipliers near 10^5, until an
        # entry passes 10^29; the rays are its columns, two sums of them (unimodular with
        # the rest), one column doubled and one random vector of the same size
        rng = random.Random(1030)
        results = set()
        for _ in range(150):
            n = rng.randint(2, 5)
            cols = [[int(i == j) for i in range(n)] for j in range(n)]
            while max(abs(e) for col in cols for e in col) < 10**29:
                i, j = rng.sample(range(n), 2)
                q = rng.choice((-1, 1)) * rng.randint(10**4, 10**5)
                cols[i] = [a + q * b for a, b in zip(cols[i], cols[j])]
            rays = [tuple(col) for col in cols]
            rays += [tuple(map(sum, zip(rays[0], rays[1]))), tuple(map(sum, zip(rays[0], rays[-1]))),
                     tuple(2 * e for e in rays[1]), tuple(rng.randint(-10**30, 10**30) for _ in range(n))]
            cones = [tuple(rng.sample(range(len(rays)), n)) for _ in range(8)]
            cones.insert(rng.randint(0, 8), tuple(rng.sample(range(n), n)))
            dets = [fraction_det([rays[i] for i in cone]) for cone in cones]
            good = [cone for cone, d in zip(cones, dets) if d in (1, -1)]
            assert first_non_unimodular(rays, cones) == next(
                (c for c, d in enumerate(dets) if d not in (1, -1)), None)
            assert first_non_unimodular(rays, good) is None
            results.update(d in (1, -1) for d in dets)
        assert results == {True, False}
