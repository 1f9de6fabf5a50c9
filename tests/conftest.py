import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bottfano import GeneralizedBottTower, PrimitiveCollectionData
from bottfano.oracle import FanError, _cone_coordinates
from bottfano.lattice import _next_rows

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fraction_det(m) -> int:
    """Determinant by Gaussian elimination over ``Fraction``: a reference
    that shares no code with ``bottfano.lattice``."""
    a = [[Fraction(e) for e in row] for row in m]
    n = len(a)
    d = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            d = -d
        d *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[k])]
    assert d.denominator == 1
    return int(d)


def tail_determinants(rays, cones) -> list[int | None]:
    """Per cone, the value that ``lattice.first_non_unimodular`` tests
    against +-1: the 3 x 3 determinant of the cone's last three columns in
    the three rows of the ray matrix that ``_next_rows`` leaves after its
    first n - 3 rays (for n <= 2, the determinant of the cone's own n x n
    matrix), or None where one of those rays meets a gcd other than 1.
    Each cone is eliminated on its own, with no prefix shared, so the steps
    are the same as there; the tail is taken by ``fraction_det``."""
    tails: list[int | None] = []
    for cone in cones:
        rows = list(zip(*rays))
        for r in cone[:-3]:
            p, g = _next_rows(rows, [row[r] for row in rows])
            if g != 1 and g != -1:
                tails.append(None)
                break
            del rows[p]
        else:
            tails.append(fraction_det([[row[i] for i in cone[-3:]] for row in rows]))
    return tails


def scan_primitive_relation(f, p) -> PrimitiveCollectionData:
    """Relation of a primitive collection by the index-order scan: the first
    maximal cone in which the ray sum has coordinates all >= 0.  A
    reference for the walk of ``bottfano.oracle.primitive_relation``; it
    assumes ``p`` is a primitive collection of ``f``."""
    members = frozenset(p)
    target = tuple(map(sum, zip(*(f.ray(lab) for lab in members))))
    if not any(target):
        return PrimitiveCollectionData(members=members, relation_rhs={})
    for cone in f.max_cones:
        idx = sorted(cone)
        coords = _cone_coordinates([f.rays[i] for i in idx], target)
        if min(coords) >= 0:
            rhs = {f.labels[i]: c for i, c in zip(idx, coords) if c > 0}
            return PrimitiveCollectionData(members=members, relation_rhs=rhs)
    raise FanError("no maximal cone contains the ray sum; fan is not complete")


def wall_degrees(f) -> dict[frozenset, int]:
    """-K . V(tau) on every wall tau of a smooth complete fan, keyed by the
    labels of tau: the toric Kleiman reference for Batyrev's criterion
    (Reid, "Decomposition of toric morphisms", 1983; Cox, Little and
    Schenck, *Toric Varieties*, Thm. 6.3.12-6.3.13).  -K is ample iff every
    degree is > 0 and nef iff every degree is >= 0, and it needs no
    primitive collection.  At the wall tau = sigma less its d-th ray, the
    other cone's extra ray solved in sigma's basis is x, with x_d = -1, and
    -K . V(tau) = 2 - sum_{k != d} x_k.  One solve per wall."""
    cones = [sorted(cone) for cone in f.max_cones]
    around: dict[frozenset, list[int]] = {}
    for ci, cone in enumerate(cones):
        for d in range(len(cone)):
            around.setdefault(frozenset(cone[:d] + cone[d + 1:]), []).append(ci)
    degrees = {}
    for wall, (ci, cj) in around.items():
        (w,) = set(cones[cj]) - wall
        x = _cone_coordinates([f.rays[i] for i in cones[ci]], f.rays[w])
        d = next(k for k, i in enumerate(cones[ci]) if i not in wall)
        assert x[d] == -1, (f.to_labels(wall), x)
        degrees[f.to_labels(wall)] = 2 - (sum(x) - x[d])
    return degrees


def make_tower(stage_dims, coeffs=None) -> GeneralizedBottTower:
    return GeneralizedBottTower(tuple(stage_dims), dict(coeffs or {}))


def hirzebruch(a: int) -> GeneralizedBottTower:
    return make_tower((1, 1), {(2, 1): (a,)})


def fano_4stage() -> GeneralizedBottTower:
    return make_tower(
        (3, 2, 2, 2),
        {
            (2, 1): (-1, -1),
            (3, 1): (0, 0),
            (3, 2): (0, -1),
            (4, 1): (0, 2),
            (4, 2): (0, 1),
            (4, 3): (0, 1),
        },
    )


def not_weak_fano_3stage() -> GeneralizedBottTower:
    return make_tower(
        (3, 3, 2),
        {(2, 1): (0, -1, -1), (3, 1): (-4, -2), (3, 2): (-2, -1)},
    )


def random_tower(rng: random.Random, max_stages=4, max_dim=3, coeff_bound=2):
    m = rng.randint(1, max_stages)
    dims = tuple(rng.randint(1, max_dim) for _ in range(m))
    coeffs = {
        (j, l): tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(dims[j - 1]))
        for j in range(2, m + 1)
        for l in range(1, j)
    }
    return make_tower(dims, coeffs)


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture(params=[None, 640], ids=["limit-in-force", "limit-640"])
def int_limit(request):
    """The int-to-str limit in force, then the lowest one, 640 digits, until
    the test ends; gives the limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param or limit)
    yield sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
