"""The fan oracle: Batyrev's degree criterion on a fan given by its rays and cones.

``Fan`` holds labelled rays in Z^n and maximal cones, with two bitmask
indexes built from the cones.  ``validate_smooth_complete`` checks the
fan, ``primitive_collections`` finds the minimal non-faces (against the
subset scan ``primitive_collections_bruteforce``), ``primitive_relation``
walks the cones to each one's relation, and ``batyrev_classify`` reads the
verdict off their degrees.  Nothing here reads the stage structure of a
tower: from the package this module imports only the exact elimination
of ``lattice``, with its refusal text ``shown``, and the verdict types of
``tower``, so it checks the closed form independently.  The validator's
unimodularity scan, ``_first_non_unimodular``, is built on that
elimination here, for the cones of a ``Fan`` alone.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import combinations, groupby
from math import gcd
from operator import mul
from typing import NamedTuple

from .lattice import IntVec, _next_rows, shown
from .tower import Classification, Verdict

RayLabel = tuple[int, int]

BRUTE_FORCE_RAY_LIMIT = 24


class FanError(ValueError):
    """Invalid fan data or a failed fan-level check."""


class Fan:
    """Rays and maximal cones of a fan in Z^n.

    ``labels[i]`` is the (l, k) pair of ray i; ``max_cones[c]`` is the
    tuple of cone c's ray indices, kept as given: nothing here reads the
    order of a cone's rays.  Two bitmask indexes come from ``max_cones``
    alone: bit i of ``cone_masks[c]``, built with the fan, and bit c of
    ``ray_cones[i]``, built on its first read, are set iff ``max_cones[c]``
    contains ray i.  So a fan that is only validated and printed never
    builds ``ray_cones``.  ``dim`` must be a non-negative int, and is
    checked before anything else.
    """

    def __init__(self, dim: int, rays: tuple[IntVec, ...], labels: tuple[RayLabel, ...],
                 max_cones: tuple[tuple[int, ...], ...]):
        # exactly int: a float or a bool passes every later check, then breaks the oracle
        if type(dim) is not int or dim < 0:
            raise FanError(f"dim must be a non-negative int, got {shown(dim)}")
        self.dim = dim
        self.rays = rays
        self.labels = labels
        self.max_cones = max_cones
        for name, value in (("rays", self.rays), ("labels", self.labels), ("max_cones", self.max_cones)):
            if type(value) is not tuple:
                raise FanError(f"{name} must be a tuple, got {type(value).__name__}")
        if len(self.labels) != len(self.rays):
            raise FanError(f"{len(self.labels)} labels for {len(self.rays)} rays")
        self.index = {}
        for i, (lab, ray) in enumerate(zip(self.labels, self.rays)):
            # exactly tuples: a list label or ray is unhashable, and the index and the
            # validator hash them
            if (type(lab) is not tuple or len(lab) != 2
                    or type(lab[0]) is not int or type(lab[1]) is not int):
                raise FanError(f"ray {i} has label {shown(lab)}, not a pair of ints")
            if type(ray) is not tuple:
                raise FanError(f"ray {shown(lab)} is {shown(ray)}, not a tuple")
            if len(ray) != self.dim:
                raise FanError(f"ray {shown(lab)} has {len(ray)} entries, expected dim {shown(self.dim)}")
            for e in ray:
                if type(e) is not int:
                    raise FanError(f"ray {shown(lab)} has entry {shown(e)}, not an int")
            if self.index.setdefault(lab, i) != i:
                raise FanError(f"label {shown(lab)} names rays {self.index[lab]} and {i}")
        nrays = len(self.rays)
        bits = [1 << i for i in range(nrays)]
        self.cone_masks = []
        for c, cone in enumerate(self.max_cones):
            if type(cone) is not tuple:
                raise FanError(f"maximal cone #{c} is {shown(cone)}, not a tuple")
            mask = 0
            for i in cone:
                # exactly int: 1.0 and True would pass the range test as ray 1
                if type(i) is not int:
                    raise FanError(f"maximal cone #{c} names ray index {shown(i)}, not an int")
                # an index outside the rays leaves mask at -1 for good; it is refused only
                # once every index of the cone is known to be an int
                mask |= bits[i] if 0 <= i < nrays else -1
            if mask < 0:
                raise FanError(
                    f"maximal cone #{c} {shown(sorted(cone))} names a ray outside 0..{nrays - 1}"
                )
            self.cone_masks.append(mask)

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


class PrimitiveCollectionData(NamedTuple):
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


def _first_non_unimodular(f: Fan, cones: tuple[tuple[int, ...], ...]) -> int | None:
    """Index of the lowest-indexed of ``cones`` whose rays are not a basis
    of Z^n, n = ``f.dim``, or None if every cone's rays are.

    ``cones`` is a prefix of ``f.max_cones`` in which every cone has n
    indices into ``f.rays``, each ray of n entries, as ``Fan`` and the
    validator check.  One exact elimination of the n x len(f.rays) matrix V
    whose columns are the rays serves all the cones, taken in the order of
    their index tuples (a cone's order of rays does not change whether
    they form a basis).  The cones come in groups that share their first m
    indices, the prefix, where m = n - 3 for n >= 3 and m = n otherwise.  A
    stack holds, for k = 0, 1, ..., m, the rows k..n-1 of T_k V, where the
    integer unimodular row transform T_k (T_0 = I) brings the first k rays
    of the current prefix to unit upper-triangular form; no later step
    reads rows 0..k-1.  Each group pops the stack back to the prefix it
    shares with the group before it and eliminates only its new rays: a
    ray's y is its column of the top entry, and ``_next_rows`` on it gives
    the next entry; the prefix's rays form part of a basis iff every such y
    has gcd 1.  If one does not, every cone of the group fails, and the
    group's least cone index stands for them.  Otherwise, for n < 3, the
    prefix is the whole cone, which passes; for n >= 3 each cone of the
    group needs no more elimination: it is unimodular iff the 3 x 3
    determinant of its last three rays' columns in the three rows left is
    +-1.
    """
    n = f.dim
    m = n - 3 if n >= 3 else n
    order = sorted(range(len(cones)), key=cones.__getitem__)
    stack = [list(zip(*f.rays))]
    prev: tuple[int, ...] = ()
    bad = len(cones)
    for prefix, group in groupby(order, key=lambda c: cones[c][:m]):
        k = 0
        top = len(stack) - 1
        while k < top and prefix[k] == prev[k]:
            k += 1
        del stack[k + 1:]
        while k < m:
            rows = list(stack[k])
            r = prefix[k]
            p, g = _next_rows(rows, [row[r] for row in rows])
            if g != 1 and g != -1:
                break
            del rows[p]
            stack.append(rows)
            k += 1
        prev = prefix
        if k < m:
            bad = min(bad, *group)
        elif m < n:
            s0, s1, s2 = stack[m]
            for c in group:
                x, y, z = cones[c][m:]
                d = (s0[x] * (s1[y] * s2[z] - s2[y] * s1[z]) - s1[x] * (s0[y] * s2[z] - s2[y] * s0[z])
                     + s2[x] * (s0[y] * s1[z] - s1[y] * s0[z]))
                if d != 1 and d != -1 and c < bad:
                    bad = c
    return bad if bad < len(cones) else None


def validate_smooth_complete(f: Fan) -> None:
    """Check distinct primitive rays, unimodular maximal cones and two
    cones per facet, naming the first failure.

    Rays are checked first, then cones (the lowest-indexed cone that has
    the wrong number of rays or is not unimodular), then facets (in the
    order they first appear).  Unimodularity comes from one exact integer
    elimination of the ray matrix shared by all the cones, in dimension 3
    and up each decided by a 3 x 3 determinant at the end,
    ``_first_non_unimodular``; facets are counted as ``Fan.cone_masks``
    entries with one ray cleared, one dict entry per facet.

    These are necessary for a smooth complete fan, not sufficient: nothing
    here proves completeness, and a cycle of cones that winds twice round
    the plane passes every check."""
    seen: dict[IntVec, RayLabel] = {}
    for lab, ray in zip(f.labels, f.rays):
        if ray in seen:
            first = seen[ray]
            raise FanError(f"duplicate ray u[{shown(lab[0])},{shown(lab[1])}] = "
                           f"u[{shown(first[0])},{shown(first[1])}]")
        seen[ray] = lab
        if gcd(*ray) != 1:
            raise FanError(f"ray u[{shown(lab[0])},{shown(lab[1])}] is not primitive")
    cones = f.max_cones
    sized = next((ci for ci, cone in enumerate(cones) if len(cone) != f.dim), len(cones))
    bad = _first_non_unimodular(f, cones[:sized])
    if bad is not None:
        raise FanError(f"maximal cone #{bad} is not unimodular")
    if sized < len(cones):
        raise FanError(f"maximal cone #{sized} has {len(cones[sized])} rays, expected {shown(f.dim)}")
    # every cone has dim rays, so a facet lies in a cone iff it is that cone less one ray
    bits = [1 << i for i in range(len(f.rays))]
    facets = Counter(mask ^ bits[i] for mask, cone in zip(f.cone_masks, cones) for i in cone)
    for key, count in facets.items():
        if count != 2:
            facet = sorted(lab for lab, bit in zip(f.labels, bits) if key & bit)
            raise FanError(f"facet {shown(facet)} lies in {count} maximal cones, expected 2")


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
    try:
        members = frozenset(p)
    except TypeError:  # not iterable, or holding an unhashable label
        raise FanError(f"collection {shown(p)} is not a set of ray labels") from None
    for lab in members:
        if lab not in f.index:
            raise FanError(f"{shown(lab)} is not a ray label of the fan")
    idx = [f.index[lab] for lab in members]
    if f.cones_containing(idx):
        raise FanError(f"{shown(sorted(members))} spans a cone of the fan; not a primitive collection")
    for d in range(len(idx)):
        if not f.cones_containing(idx[:d] + idx[d + 1:]):
            raise FanError(f"{shown(sorted(members))} is not minimal; not a primitive collection")
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
