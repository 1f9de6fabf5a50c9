"""The toric fan of a generalized Bott tower, and its closed-form relations.

Rays are labelled by pairs (l, k) with 1 <= l <= m and 0 <= k <= n_l:
u_l^k is the standard basis vector e_l^k for k >= 1, and

    u_l^0 = -sum_k e_l^k + sum_{j>l} sum_k a_{j,l}^{(k)} e_j^k.

Maximal cones are obtained by omitting one ray per stage.  ``build_fan``
builds the fan that the oracle of ``oracle`` checks; the stage
collections' relations and degrees, from the b-vectors, and the wall
relations around the distinguished codimension-one cones are computed
here exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .enumeration import PRINTABLE_BITS
from .lattice import IntVec, mu, shown
from .oracle import Fan, FanError, PrimitiveCollectionData, RayLabel, _cone_coordinates
# perfbench/tracing.py (SPANNED["fan"]) looks up these four traced oracle functions here
from .oracle import (batyrev_classify, primitive_collections_bruteforce, primitive_relation,
                     validate_smooth_complete)
from .tower import GeneralizedBottTower

#: Largest cones * dim^2 that ``build_fan`` builds.  The slowest tower admitted, (1,)^15 at
#: 7.4M, takes 0.8-1.3 s and about 44 MB in check --verify, with every coefficient 0 or every
#: coefficient -1, and 0.4-1.0 s in fan (machine or human output), on a shared 2-core x86-64
#: host.
FAN_WORK_LIMIT = 10**7


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
    # rays, the last stage fastest; stage slices ascend one after another, so each cone's tuple
    # comes out strictly ascending with no sort, which Fan does not check again
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
