"""The toric fan of a generalized Bott tower and Batyrev's degree criterion.

Rays are labelled by pairs (l, k) with 1 <= l <= m and 0 <= k <= n_l:
u_l^k is the standard basis vector e_l^k for k >= 1, and

    u_l^0 = -sum_k e_l^k + sum_{j>l} sum_k a_{j,l}^{(k)} e_j^k.

Maximal cones are obtained by omitting one ray per stage.  Primitive
collections, their relations and degrees, and the wall relations around
the distinguished codimension-one cones are all computed exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd, prod
from operator import mul

from .enumeration import PRINTABLE_BITS, shown
from .lattice import IntVec, _next_rows, first_non_unimodular, mu
from .tower import Classification, GeneralizedBottTower, Verdict

RayLabel = tuple[int, int]

BRUTE_FORCE_RAY_LIMIT = 24

#: Largest cones * dim^2 that ``build_fan`` builds.  The slowest tower admitted, (1,)^15 at
#: 7.4M, takes 0.8-1.3 s and about 44 MB in check --verify, with every coefficient 0 or every
#: coefficient -1, and 0.4-1.0 s in fan (machine or human output), on a shared 2-core x86-64
#: host.
FAN_WORK_LIMIT = 10**7


class FanError(ValueError):
    """Invalid fan data or a failed fan-level check."""


@dataclass
class Fan:
    """Rays and maximal cones of a tower fan in Z^n.

    ``labels[i]`` is the (l, k) pair of ray i; ``max_cones[c]`` holds cone
    c's ray indices as an ascending tuple, whatever iterable of ints was
    given, in the order given.  Two bitmask indexes come from ``max_cones``
    alone: bit i of ``cone_masks[c]``, built with the fan, and bit c of
    ``ray_cones[i]``, built on its first read, are set iff ``max_cones[c]``
    contains ray i.  So a fan that is only validated and printed never
    builds ``ray_cones``.
    """

    dim: int
    rays: tuple[IntVec, ...]
    labels: tuple[RayLabel, ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.labels) != len(self.rays):
            raise FanError(f"{len(self.labels)} labels for {len(self.rays)} rays")
        self.index = {}
        for i, (lab, ray) in enumerate(zip(self.labels, self.rays)):
            # exactly tuples: a list label or ray is unhashable, and the index and the
            # validator hash them
            if (type(lab) is not tuple or len(lab) != 2
                    or type(lab[0]) is not int or type(lab[1]) is not int):
                raise FanError(f"ray {i} has label {lab!r}, not a pair of ints")
            if type(ray) is not tuple:
                raise FanError(f"ray {lab} is {ray!r}, not a tuple")
            if len(ray) != self.dim:
                raise FanError(f"ray {lab} has {len(ray)} entries, expected dim {self.dim}")
            for e in ray:
                if type(e) is not int:
                    raise FanError(f"ray {lab} has entry {e!r}, not an int")
            if self.index.setdefault(lab, i) != i:
                raise FanError(f"label {lab} names rays {self.index[lab]} and {i}")
        bits = [1 << i for i in range(len(self.rays))]
        cones = []
        self.cone_masks = []
        for c, given in enumerate(self.max_cones):
            try:
                given = tuple(given)
            except TypeError:
                raise FanError(f"maximal cone #{c} is {given!r}, not an iterable of ints") from None
            for i in given:
                # exactly int: 1.0 and True would pass the range test as ray 1
                if type(i) is not int:
                    raise FanError(f"maximal cone #{c} names ray index {i!r}, not an int")
            cone = tuple(sorted(given))
            if cone and (cone[0] < 0 or cone[-1] >= len(self.rays)):
                raise FanError(
                    f"maximal cone #{c} {list(cone)} names a ray outside 0..{len(self.rays) - 1}"
                )
            mask = 0
            for i in cone:
                mask |= bits[i]
            cones.append(cone)
            self.cone_masks.append(mask)
        self.max_cones = tuple(cones)

    @cached_property
    def ray_cones(self) -> list[int]:
        # ray i's mask in base 2, one byte per digit: b"1" at n - c for cone c, and a leading
        # b"0" so that a ray in no cone parses as 0; one linear pass, then one parse per ray
        n = len(self.max_cones)
        digits = [bytearray(b"0" * (n + 1)) for _ in self.rays]
        for c, cone in enumerate(self.max_cones):
            for i in cone:
                digits[i][n - c] = 49  # ord("1")
        return [int(d, 2) for d in digits]

    def ray(self, label: RayLabel) -> IntVec:
        return self.rays[self.index[label]]

    def to_labels(self, indices) -> frozenset[RayLabel]:
        return frozenset(self.labels[i] for i in indices)

    def cones_containing(self, indices) -> int:
        """Bitmask of the maximal cones that contain all the rays ``indices``."""
        mask = (1 << len(self.max_cones)) - 1
        for i in indices:
            mask &= self.ray_cones[i]
        return mask


@dataclass
class PrimitiveCollectionData:
    """A primitive collection and its relation.

    ``relation_rhs`` maps ray labels to the positive integer coefficients
    on the right-hand side of the primitive relation.  The degree is read
    off the relation, as |members| minus their sum, so it cannot disagree
    with it.
    """

    members: frozenset[RayLabel]
    relation_rhs: dict[RayLabel, int]

    @property
    def degree(self) -> int:
        return len(self.members) - sum(self.relation_rhs.values())


@dataclass
class WallData:
    """A codimension-one cone and the signed relation among the n+1 rays
    of its two adjacent maximal cones (zero coefficients omitted)."""

    wall: frozenset[RayLabel]
    relation: dict[RayLabel, int]


def check_fan_size(t: GeneralizedBottTower) -> None:
    """Refuse the tower's fan if prod(n_l + 1) * dim^2 exceeds FAN_WORK_LIMIT."""
    n = t.dim
    cones = prod(nl + 1 for nl in t.stage_dims)
    if cones * n * n > FAN_WORK_LIMIT:
        size = "over 10^3000" if cones >> PRINTABLE_BITS else shown(cones)
        size = f"{size} cones of dimension {n}" if size.isdigit() else f"{size} cones"
        raise FanError(f"fan refused: {size} exceed limit {FAN_WORK_LIMIT} on cones*dim^2")


def _joined(parts: list[list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """Every concatenation of one tuple from each of the nonempty lists
    ``parts``, in lexicographic order of the choices, the last list fastest.

    The first half of the lists and the second are joined on their own,
    then each head is joined to each tail.  Every result tuple is made by
    one concatenation of two, and only about the square root of their number
    of shorter tuples is made on the way, and freed; joining one list at a
    time makes as many shorter tuples as results, and CPython's per-size
    free lists keep up to 2,000 of each size once they are freed.
    """
    if len(parts) == 1:
        return parts[0]
    h = len(parts) // 2
    head, tail = _joined(parts[:h]), _joined(parts[h:])
    return [a + b for a in head for b in tail]


def build_fan(t: GeneralizedBottTower) -> Fan:
    """The tower's fan; first refuses it as ``check_fan_size`` does."""
    check_fan_size(t)
    m = t.num_stages
    dims = t.stage_dims
    n = t.dim
    offsets = [0]
    for nl in dims:
        offsets.append(offsets[-1] + nl)

    labels: list[RayLabel] = []
    rays: list[IntVec] = []
    for l in range(1, m + 1):
        nl = dims[l - 1]
        u0 = [0] * n
        for k in range(1, nl + 1):
            u0[offsets[l - 1] + k - 1] = -1
        for j in range(l + 1, m + 1):
            ajl = t.a(j, l)
            for k in range(1, dims[j - 1] + 1):
                u0[offsets[j - 1] + k - 1] = ajl[k - 1]
        labels.append((l, 0))
        rays.append(tuple(u0))
        for k in range(1, nl + 1):
            ek = [0] * n
            ek[offsets[l - 1] + k - 1] = 1
            labels.append((l, k))
            rays.append(tuple(ek))

    # ray (l, k) follows n_i + 1 rays for each stage i < l, then k more; kept[l - 1][k] is
    # stage l's rays less (l, k), so the cones come in the lexicographic order of the omitted
    # rays, the last stage fastest; stage slices ascend one after another, so each cone does
    kept = []
    for l, nl in enumerate(dims, start=1):
        stage = tuple(range(offsets[l - 1] + l - 1, offsets[l] + l))
        kept.append([stage[:k] + stage[k + 1:] for k in range(nl + 1)])
    max_cones = _joined(kept)
    return Fan(
        dim=n,
        rays=tuple(rays),
        labels=tuple(labels),
        max_cones=tuple(max_cones),
    )


def validate_smooth_complete(f: Fan) -> None:
    """Check distinct primitive rays, unimodular maximal cones and two
    cones per facet, naming the first failure.

    Rays are checked first, then cones (the lowest-indexed cone that has
    the wrong number of rays or is not unimodular), then facets (in the
    order they first appear).  Unimodularity comes from one exact integer
    elimination of the ray matrix shared by all the cones, each decided by
    a 2 x 2 determinant at the end, ``lattice.first_non_unimodular``;
    facets are counted as ``Fan.cone_masks`` entries with one ray cleared,
    one dict entry per facet.

    These are necessary for a smooth complete fan, not sufficient: nothing
    here proves completeness, and a cycle of cones that winds twice round
    the plane passes every check."""
    seen: dict[IntVec, RayLabel] = {}
    for lab, ray in zip(f.labels, f.rays):
        if ray in seen:
            raise FanError(f"duplicate ray u[{lab[0]},{lab[1]}] = u[{seen[ray][0]},{seen[ray][1]}]")
        seen[ray] = lab
        if gcd(*ray) != 1:
            raise FanError(f"ray u[{lab[0]},{lab[1]}] is not primitive")
    cones = f.max_cones
    sized = next((ci for ci, cone in enumerate(cones) if len(cone) != f.dim), len(cones))
    bad = first_non_unimodular(f.rays, cones[:sized])
    if bad is not None:
        raise FanError(f"maximal cone #{bad} is not unimodular")
    if sized < len(cones):
        raise FanError(f"maximal cone #{sized} has {len(cones[sized])} rays, expected {f.dim}")
    # every cone has dim rays, so a facet lies in a cone iff it is that cone less one ray
    bits = [1 << i for i in range(len(f.rays))]
    facets = Counter(mask ^ bits[i] for mask, cone in zip(f.cone_masks, cones) for i in cone)
    for key, count in facets.items():
        if count != 2:
            facet = sorted(lab for lab, bit in zip(f.labels, bits) if key & bit)
            raise FanError(f"facet {facet} lies in {count} maximal cones, expected 2")


def primitive_collections(f: Fan) -> set[frozenset[RayLabel]]:
    """All minimal ray sets not contained in any maximal cone, as the
    minimal transversals of the cone complements (Murakami and Uno's MMCS).

    A ray set is a non-face iff it meets the complement of every maximal
    cone, i.e. iff ``face``, the AND of its members' ``Fan.ray_cones``
    masks, is 0.  ``crit[d]`` holds the cones that contain every member
    but ``members[d]`` and not ``members[d]``; the set is minimal iff each
    of them is nonzero.  While ``face`` is nonzero the search branches only
    on the candidate rays outside its lowest cone, ``cand & ~cone_masks[c]``,
    since one of them must join; where ``face`` is 0 (the root of a fan
    with no cones) it branches on every candidate.  The branch rays are
    taken lowest first.  They leave the candidates first, and each comes
    back once its own branch is done, so every collection is found once: in
    the branch of the last of its rays among them.  The recursion is at
    most as deep as the largest collection (dim + 1).  Reads the fan only
    through ``ray_cones``, ``cone_masks`` and ``cones_containing``.
    """
    ray_cones = f.ray_cones
    cone_masks = f.cone_masks
    found: list[tuple[int, ...]] = []

    def search(members: tuple[int, ...], face: int, crit: list[int], cand: int) -> None:
        # the empty set is never recorded, so a fan with no cones gives every ray
        if not face and members:
            found.append(members)
            return
        branch = cand & ~cone_masks[(face & -face).bit_length() - 1] if face else cand
        cand ^= branch
        while branch:
            bit = branch & -branch
            branch ^= bit
            j = bit.bit_length() - 1
            mask = ray_cones[j]
            # all() stops at the first member the new ray makes redundant, where a full pass
            # would AND every mask, each as wide as the fan's cone count
            if all(map(mask.__and__, crit)):
                search((*members, j), face & mask, [*map(mask.__and__, crit), face & ~mask], cand)
            cand |= bit

    search((), f.cones_containing(()), [], (1 << len(f.rays)) - 1)
    # search refers to itself through its closure: break that cycle, so that its masks are
    # freed now and not at the collector's next full pass
    del search
    return {f.to_labels(idx) for idx in found}


def primitive_collections_bruteforce(f: Fan) -> set[frozenset[RayLabel]]:
    """All minimal ray sets not contained in any maximal cone, by subset scan.

    The reference for ``primitive_collections`` in the tests: checks set
    inclusion against ``Fan.cone_masks`` over subsets of increasing
    size.  Refuses fans with more than BRUTE_FORCE_RAY_LIMIT
    rays.
    """
    nrays = len(f.rays)
    if nrays > BRUTE_FORCE_RAY_LIMIT:
        raise FanError(f"subset scan refused: {nrays} rays > limit {BRUTE_FORCE_RAY_LIMIT}")
    cone_masks = f.cone_masks
    full = (1 << nrays) - 1
    found: list[tuple[int, frozenset[int]]] = []
    # a minimal non-face has every proper subset a face, so size <= dim + 1
    for size in range(1, min(nrays, f.dim + 1) + 1):
        for combo in combinations(range(nrays), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if any(mask & pm == pm for pm, _ in found):
                continue
            if any(mask & ~cm & full == 0 for cm in cone_masks):
                continue
            found.append((mask, frozenset(combo)))
    return {f.to_labels(idx) for _, idx in found}


def _cone_coordinates(cols: list[IntVec], target: IntVec) -> list[int]:
    """Integer x with sum_j x_j * cols[j] = target.

    ``lattice._next_rows`` eliminates the rows of [cols | target] one
    column at a time and each column keeps its pivot row, whose pivot g is
    +-1 when the cone is unimodular; back-substitution from the last
    coordinate then needs no division.  A pivot g = 0 means the cone is
    singular, and is named first; |g| >= 2 means it is not unimodular, even
    where the target's coordinates happen to be integral.  A cone of other
    than ``len(target)`` rays is refused before any elimination.
    """
    n = len(target)
    if len(cols) != n:
        raise FanError(f"maximal cone has {len(cols)} rays, expected {n}")
    rows = [[col[i] for col in cols] + [target[i]] for i in range(n)]
    pivots = []
    for j in range(n):
        p, g = _next_rows(rows, [row[j] for row in rows])
        if not g:
            raise FanError("singular maximal cone encountered")
        pivots.append(rows.pop(p))
    if any(row[j] != 1 and row[j] != -1 for j, row in enumerate(pivots)):
        raise FanError("non-integral relation coefficient in a smooth fan")
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = pivots[i]
        x[i] = row[i] * (row[n] - sum(map(mul, row[i + 1:n], x[i + 1:])))
    return x


def primitive_relation(f: Fan, p: frozenset[RayLabel]) -> PrimitiveCollectionData:
    """Relation and degree of a primitive collection.

    Sums the member rays and walks the maximal cones toward the sum
    (Devillers, Pion and Teillaud, "Walking in a triangulation", 2002).
    The walk starts at cone 0 and solves the sum in each cone it reaches
    with ``_cone_coordinates``.  Once every coordinate is >= 0 the strictly
    positive ones are the relation coefficients.  Otherwise it steps across
    the facet opposite the most negative coordinate (the first on ties) to
    an unvisited cone on that facet; when there is none, as in a fan that
    is not complete or a walk that turns back on itself, it goes on at the
    lowest-indexed unvisited cone.  So no cone is solved twice, and at
    worst every cone is solved once, as in a scan in index order.

    Which cone holds the sum does not change the result: in a simplicial
    unimodular fan every maximal cone that holds it gives it the same
    positive coordinates, those of the one face that has it in its
    relative interior.  Every cone reached is solved, so a singular or
    non-unimodular cone on the way raises FanError, even one in which the
    sum has integral coordinates.
    """
    members = frozenset(p)
    for lab in members:
        if lab not in f.index:
            raise FanError(f"{lab} is not a ray label of the fan")
    idx = [f.index[lab] for lab in members]
    if f.cones_containing(idx):
        raise FanError(f"{sorted(members)} spans a cone of the fan; not a primitive collection")
    for d in range(len(idx)):
        if not f.cones_containing(idx[:d] + idx[d + 1:]):
            raise FanError(f"{sorted(members)} is not minimal; not a primitive collection")
    s = [0] * f.dim
    for lab in members:
        s = [a + b for a, b in zip(s, f.ray(lab))]
    target = tuple(s)
    if all(e == 0 for e in target):
        return PrimitiveCollectionData(members, {})
    unvisited = (1 << len(f.max_cones)) - 1
    c = 0
    while unvisited:
        unvisited ^= 1 << c
        idx = f.max_cones[c]
        coords = _cone_coordinates([f.rays[i] for i in idx], target)
        low = min(coords)
        if low >= 0:
            rhs = {f.labels[i]: x for i, x in zip(idx, coords) if x > 0}
            return PrimitiveCollectionData(members, rhs)
        d = coords.index(low)
        step = f.cones_containing(idx[:d] + idx[d + 1:]) & unvisited or unvisited
        c = (step & -step).bit_length() - 1
    raise FanError("no maximal cone contains the ray sum; fan is not complete")


def batyrev_classify(f: Fan) -> Classification:
    """The degree of every primitive collection, keyed by the collection,
    and the verdict that ``Verdict.from_degrees`` reads from them."""
    degrees = {pc: primitive_relation(f, pc).degree for pc in primitive_collections(f)}
    return Classification(verdict=Verdict.from_degrees(degrees.values()), degrees=degrees)


def collection_for_stage(t: GeneralizedBottTower, p: int) -> frozenset[RayLabel]:
    """The stage-p collection {u_p^0, ..., u_p^{n_p}}."""
    return frozenset((p, k) for k in range(0, t.stage_dims[p - 1] + 1))


def expected_primitive_relation(
    t: GeneralizedBottTower, b: dict[tuple[int, int], IntVec], p: int
) -> PrimitiveCollectionData:
    """Closed-form relation for the stage-p collection, from the b-vectors
    of ``compute_b``.

    With z = (0, b_{p,q}^{(1)}, ..., b_{p,q}^{(n)}) for each q, the
    right-hand side puts z_k - mu(b_{p,q}) on u_{p+q}^k wherever that is
    positive, k = 0 included, so the degree is (n_p + 1) - sum_q
    nu(b_{p,q}); for p = m there is no q, the sum of the members is zero
    and the degree is n_m + 1.
    """
    m = t.num_stages
    if not 1 <= p <= m:
        raise FanError(f"stage index {p} out of range 1..{m}")
    rhs: dict[RayLabel, int] = {}
    for q in range(1, m - p + 1):
        bpq = b[(p, q)]
        mn = mu(bpq)
        for k, zk in enumerate((0, *bpq)):
            if zk > mn:
                rhs[(p + q, k)] = zk - mn
    return PrimitiveCollectionData(collection_for_stage(t, p), rhs)


def signed_relation(pr: PrimitiveCollectionData) -> dict[RayLabel, int]:
    """Primitive relation as one signed map: +1 on members, minus the
    right-hand-side coefficients elsewhere."""
    rel = {lab: 1 for lab in pr.members}
    for lab, c in pr.relation_rhs.items():
        rel[lab] = rel.get(lab, 0) - c
    return {lab: c for lab, c in rel.items() if c != 0}


def wall_relation(
    f: Fan, t: GeneralizedBottTower, b: dict[tuple[int, int], IntVec], p: int
) -> WallData:
    """Wall relation for the distinguished (n-1)-cone tau_p.

    tau_p consists of u_l^k (l < p, k >= 1), u_p^1 ... u_p^{n_p - 1} and,
    for each q, every u_{p+q}^k with k != i_{p,q}.  With z = (0,
    b_{p,q}^{(1)}, ..., b_{p,q}^{(n)}), as in ``expected_primitive_relation``,
    i_{p,q} is the first k with z_k = min(z) = mu(b_{p,q}).  A fan that
    lacks one of these labels is refused, naming the first in that order.

    The ray of the second adjacent maximal cone that is not in the first
    is solved in the first cone's basis by ``_cone_coordinates``, as in
    ``primitive_relation``, so a first cone that is singular or not
    unimodular raises FanError.  The relation is +1 on that ray and minus
    its coordinates on the first cone's rays.  It is checked to sum to
    zero, and to be +1 on the first cone's ray outside the wall (the two
    cones lie on opposite sides of it), before it is returned.
    """
    m = t.num_stages
    if not 1 <= p <= m:
        raise FanError(f"stage index {p} out of range 1..{m}")
    wall = [(l, k) for l in range(1, p) for k in range(1, t.stage_dims[l - 1] + 1)]
    wall += [(p, k) for k in range(1, t.stage_dims[p - 1])]
    for q in range(1, m - p + 1):
        z = (0, *b[(p, q)])
        ipq = z.index(min(z))
        wall += [(p + q, k) for k in range(len(z)) if k != ipq]
    for lab in wall:
        if lab not in f.index:
            raise FanError(f"{lab} is not a ray label of the fan")
    wall_idx = {f.index[lab] for lab in wall}
    if len(wall_idx) != f.dim - 1:
        raise FanError(f"tau_{p} has {len(wall_idx)} rays, expected {f.dim - 1}")
    around = f.cones_containing(wall_idx)
    if around.bit_count() != 2:
        raise FanError(f"tau_{p} lies in {around.bit_count()} maximal cones, expected 2")
    c0, c1 = (around & -around).bit_length() - 1, around.bit_length() - 1
    extra = f.cone_masks[c1] & ~f.cone_masks[c0]
    if extra.bit_count() != 1:
        raise FanError(f"the cones at tau_{p} differ by {extra.bit_count()} rays, expected 1")
    j = extra.bit_length() - 1
    first = f.max_cones[c0]
    coords = _cone_coordinates([f.rays[i] for i in first], f.rays[j])
    coeffs = {i: -x for i, x in zip(first, coords)}
    coeffs[j] = 1
    total = [0] * f.dim
    for i, c in coeffs.items():
        total = [s + c * e for s, e in zip(total, f.rays[i])]
    if any(total):
        raise FanError(f"internal error: wall relation for tau_{p} does not sum to zero")
    for i in first:
        if i not in wall_idx and coeffs[i] != 1:
            raise FanError(f"the cones at tau_{p} lie on one side of it: coefficient {coeffs[i]}")
    if coeffs.get(f.index[(p, 0)], 0) == 0:
        raise FanError(f"wall relation for tau_{p} has zero coefficient on u[{p},0]")
    relation = {f.labels[i]: c for i, c in coeffs.items() if c != 0}
    return WallData(wall=frozenset(wall), relation=relation)
