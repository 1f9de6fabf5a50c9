"""Generalized Bott towers and their closed-form Fano classification.

An m-stage tower is given by fiber dimensions (n_1, ..., n_m) and, for
each 2 <= j <= m and 1 <= l <= j-1, a coefficient vector a_{j,l} of
length n_j.  The auxiliary vectors b_{p,q} are computed by the recursion

    b_{p,1} = a_{p+1,p}
    b_{p,q} = a_{p+q,p} + sum_{r<q} mu(b_{p,r}) * a_{p+q,p+r}

and the manifold is Fano (resp. weak Fano) exactly when the stage degree
n_p + 1 - sum_q nu(b_{p,q}) is > 0 (resp. >= 0) for every p < m.
"""

from __future__ import annotations

from enum import Enum
from math import comb
from typing import NamedTuple

from .lattice import IntVec, mu, nu, shown


class TowerError(ValueError):
    """Invalid tower data."""


class Verdict(Enum):
    FANO = "fano"
    WEAK_FANO_NOT_FANO = "weak_fano_not_fano"
    NOT_WEAK_FANO = "not_weak_fano"

    @classmethod
    def from_degrees(cls, degrees) -> Verdict:
        """Batyrev's rule on primitive-collection degrees: Fano iff every degree
        is > 0 (or there are none), weak Fano iff every degree is >= 0."""
        low = min(degrees, default=1)
        return cls.FANO if low > 0 else cls.WEAK_FANO_NOT_FANO if low == 0 else cls.NOT_WEAK_FANO


#: The default of ``GeneralizedBottTower``'s ``coeffs``, which stands for a fresh empty dict,
#: so that an explicit None is still refused.
_NO_COEFFS = object()


class GeneralizedBottTower:
    """Stage dimensions plus the coefficient vectors a_{j,l}.

    ``coeffs`` maps (j, l) with 2 <= j <= m, 1 <= l <= j-1 to an integer
    tuple of length n_j.  Checked by ``validate`` when it is built, so
    every tower in hand is valid; the tuples and the dict are kept as
    given, not copied, and treated as immutable after that.
    """

    def __init__(self, stage_dims: tuple[int, ...],
                 coeffs: dict[tuple[int, int], IntVec] = _NO_COEFFS):
        self.stage_dims = stage_dims
        self.coeffs = {} if coeffs is _NO_COEFFS else coeffs
        # the checks stay in their own hook, which perfbench/tracing.py wraps to time them
        self.__post_init__()

    def __post_init__(self):
        validate(self)

    @property
    def num_stages(self) -> int:
        return len(self.stage_dims)

    @property
    def dim(self) -> int:
        return sum(self.stage_dims)

    def a(self, j: int, l: int) -> IntVec:
        return self.coeffs[(j, l)]


class Classification(NamedTuple):
    """Tri-state verdict with the witnesses that produced it.

    ``nu_sums``, ``thresholds`` and ``b_vectors`` (the b_{p,q} keyed by
    (p, q)) are populated by the closed-form classifier; ``degrees``
    (primitive-collection degrees) by the fan route.
    """

    verdict: Verdict
    nu_sums: tuple[int, ...] = ()
    thresholds: tuple[tuple[int, int], ...] = ()
    degrees: dict | None = None
    b_vectors: dict[tuple[int, int], IntVec] | None = None


class BottMatrix:
    """Upper triangular integer matrix with unit diagonal.

    Unlike a tower, it takes any sequence of rows and stores them as
    tuples: ``perfbench/workloads.py`` builds it from lists of lists.
    """

    def __init__(self, beta: tuple[tuple[int, ...], ...]):
        self.beta = beta
        self.__post_init__()  # wrapped by perfbench/tracing.py, as for a tower

    def __post_init__(self):
        try:
            self.beta = tuple(tuple(row) for row in self.beta)
        except TypeError:
            raise TowerError(f"a Bott matrix must be a sequence of rows, got {shown(self.beta)}") from None
        r = len(self.beta)
        for i, row in enumerate(self.beta):
            if len(row) != r:
                raise TowerError(f"row {i + 1} has length {len(row)}, expected {r}")
            if any(type(e) is not int for e in row):
                raise TowerError(f"row {i + 1} must hold integers, got {shown(row)}")
            if row[i] != 1:
                raise TowerError(f"diagonal entry ({i + 1},{i + 1}) must be 1")
            for j in range(i):
                if row[j] != 0:
                    raise TowerError(f"entry ({i + 1},{j + 1}) below diagonal must be 0")

    @property
    def size(self) -> int:
        return len(self.beta)


def validate(t: GeneralizedBottTower) -> None:
    """Check that the stage dimensions are a tuple, the coefficients a dict
    and each vector a tuple (a list is refused, not converted), then index
    ranges, that every key is a pair of ints, coefficient-vector lengths and
    that every entry is an int (a bool or a float is refused, not
    truncated), naming (j, l) and the path in a tower document."""
    dims = t.stage_dims
    if type(dims) is not tuple:
        raise TowerError(f"stage dimensions must be a tuple, got {type(dims).__name__}")
    m = len(dims)
    if m < 1:
        raise TowerError("at least one stage required")
    for j, n in enumerate(dims, start=1):
        if type(n) is not int or n < 1:
            raise TowerError(
                f"stage dimension n_{j} must be a positive integer, got {shown(n)} (stages[j={j}])"
            )
    if not isinstance(t.coeffs, dict):
        raise TowerError(f"coefficients must be a dict keyed by (j, l), got {shown(t.coeffs)}")
    for key in t.coeffs:
        if type(key) is not tuple or len(key) != 2 or not all(type(i) is int for i in key):
            raise TowerError(f"coefficient key {shown(key)} must be a pair of integers (j, l)")
    expected = {(j, l) for j in range(2, m + 1) for l in range(1, j)}
    for j, l in sorted(expected - t.coeffs.keys()):
        raise TowerError(f"missing coefficient vector a[{j},{l}]")
    for j, l in sorted(t.coeffs.keys() - expected):
        raise TowerError(f"unexpected coefficient vector a[{shown(j)},{shown(l)}]")
    for (j, l), vec in sorted(t.coeffs.items()):
        if type(vec) is not tuple:
            raise TowerError(f"coefficient vector a[{j},{l}] (coefficients[j={j}][l={l}]) must be "
                             f"a tuple, got {type(vec).__name__}")
        nj = dims[j - 1]
        if len(vec) != nj:
            raise TowerError(
                f"coefficient vector a[{j},{l}] (coefficients[j={j}][l={l}]) has length "
                f"{len(vec)}, expected n_{j}={shown(nj)}"
            )
        for k, c in enumerate(vec, start=1):
            if type(c) is not int:
                raise TowerError(f"coefficients[j={j}][l={l}][k={k}] must be an integer, got {shown(c)}")


#: Largest sum over stages j of n_j * C(j-1, 2), the most vector entries ``compute_b`` can
#: update, that it accepts.  The slowest tower admitted, (1,)^209 at 1,499,784, takes about
#: 0.75-0.9 s in check on a 2-core x86-64 host, with coefficients drawn from -1:1.
B_WORK_LIMIT = 1_500_000


def compute_b(t: GeneralizedBottTower) -> dict[tuple[int, int], IntVec]:
    """Run the b_{p,q} recursion, returning the vectors keyed by (p, q);
    first refuses the tower if sum_j n_j * C(j-1, 2) exceeds B_WORK_LIMIT.
    Each b_{p,q} adds only the terms r < q with mu(b_{p,r}) != 0."""
    work = sum(n * comb(j - 1, 2) for j, n in enumerate(t.stage_dims, start=1))
    if work > B_WORK_LIMIT:
        raise TowerError(f"b-vectors refused: {shown(work)} entry updates exceed limit {B_WORK_LIMIT} "
                         f"on sum_j n_j*C(j-1,2)")
    m = t.num_stages
    b: dict[tuple[int, int], IntVec] = {}
    for p in range(1, m):
        terms: list[tuple[int, int]] = []  # (r, mu(b_{p,r})) with mu != 0
        for q in range(1, m - p + 1):
            vec = t.a(p + q, p)
            for r, mr in terms:
                vec = [v + mr * c for v, c in zip(vec, t.a(p + q, p + r))]
            bpq = tuple(vec)
            b[(p, q)] = bpq
            mn = mu(bpq)
            if mn:
                terms.append((q, mn))
    return b


def classify(t: GeneralizedBottTower) -> Classification:
    """Tri-state verdict from the nu-sum criterion: ``Verdict.from_degrees``
    of the stage degrees n_p + 1 - sum_q nu(b_{p,q}) for p < m."""
    b = compute_b(t)
    m = t.num_stages
    nu_sums = tuple(
        sum(nu(b[(p, q)]) for q in range(1, m - p + 1)) for p in range(1, m)
    )
    return Classification(
        verdict=Verdict.from_degrees(n + 1 - s for n, s in zip(t.stage_dims, nu_sums)),
        nu_sums=nu_sums,
        thresholds=tuple((n, n + 1) for n in t.stage_dims[:-1]),
        b_vectors=b,
    )


def bott_fano(t: GeneralizedBottTower) -> bool:
    """Fano test for Bott manifolds (all n_j = 1) via the three-clause criterion.

    For each p < m, with the scalar column (a_{p+1,p}, ..., a_{m,p}), one of:
    (1) the whole column is zero;
    (2) a single entry equals 1 and the rest are zero;
    (3) a single entry a_{p+q,p} equals -1, entries before it are zero, and
        a_{p+r,p} = a_{p+r,p+q} for every r > q.
    """
    m = t.num_stages
    if any(n != 1 for n in t.stage_dims):
        raise TowerError("bott_fano requires all stage dimensions equal to 1")

    def a(j, l):
        return t.a(j, l)[0]

    for p in range(1, m):
        col = [a(p + r, p) for r in range(1, m - p + 1)]
        q = next((r for r, c in enumerate(col, start=1) if c), None)
        if q is None:  # (1)
            continue
        if col[q - 1] == 1 and not any(col[q:]):  # (2)
            continue
        if col[q - 1] == -1 and all(  # (3)
            col[r - 1] == a(p + r, p + q) for r in range(q + 1, m - p + 1)
        ):
            continue
        return False
    return True


def from_bott_matrix(b: BottMatrix) -> GeneralizedBottTower:
    """Tower with m = r, all n_j = 1 and a_{j,l}^{(1)} = -beta_{lj}."""
    r = b.size
    coeffs = {
        (j, l): (-b.beta[l - 1][j - 1],)
        for j in range(2, r + 1)
        for l in range(1, j)
    }
    return GeneralizedBottTower(stage_dims=(1,) * r, coeffs=coeffs)


def chary_condition(b: BottMatrix) -> bool:
    """Sign-pattern condition on beta rows; sufficient for Fano, not necessary.

    For each i, with eta_i^+ = {j > i : beta_ij > 0} and
    eta_i^- = {j > i : beta_ij < 0}, require one of:
    (1) eta_i^+ empty, |eta_i^-| <= 1, and the negative entry (if any) is -1;
    (2) eta_i^- empty, |eta_i^+| <= 1, and the positive entry (if any) is 1
        at some column q with beta_qk = 0 for all k > q.
    """
    beta = b.beta
    for i, row in enumerate(beta):
        entries = [(q, v) for q, v in enumerate(row[i + 1:], start=i + 1) if v]
        if not entries:
            continue
        if len(entries) > 1:
            return False
        (q, v), = entries
        if not (v == -1 or (v == 1 and not any(beta[q][q + 1:]))):
            return False
    return True
