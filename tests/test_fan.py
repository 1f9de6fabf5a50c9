import re
import tracemalloc
from functools import cached_property
from itertools import chain, product
from operator import mul

import pytest

from bottfano import (
    Fan,
    FanError,
    Verdict,
    batyrev_classify,
    build_fan,
    classify,
    collection_for_stage,
    compute_b,
    expected_primitive_relation,
    primitive_collections,
    primitive_collections_bruteforce,
    primitive_relation,
    signed_relation,
    validate_smooth_complete,
    wall_relation,
)
from bottfano import cli
from bottfano import oracle
from bottfano.fan import FAN_WORK_LIMIT
from bottfano.lattice import det

from conftest import (
    FIXTURES,
    fano_4stage,
    hirzebruch,
    make_tower,
    not_weak_fano_3stage,
    random_tower,
    scan_primitive_relation,
    tail_determinants,
    wall_degrees,
)


def hand_fan(rays, cones) -> Fan:
    """A 2-D fan with no tower behind it: ray i is labelled (0, i)."""
    return Fan(
        dim=2,
        rays=tuple(rays),
        labels=tuple((0, i) for i in range(len(rays))),
        max_cones=tuple(map(tuple, cones)),
    )


def log_solves(monkeypatch) -> list:
    """Patch ``oracle._cone_coordinates`` to log the columns of each cone it solves."""
    solved = []
    solve = oracle._cone_coordinates
    monkeypatch.setattr(oracle, "_cone_coordinates",
                        lambda cols, target: solved.append(cols) or solve(cols, target))
    return solved


def pentagon_fan() -> Fan:
    """P^2 blown up in two points: five rays, cones between neighbours."""
    return hand_fan([(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)],
                    [(i, (i + 1) % 5) for i in range(5)])


class TestBuildFan:
    @pytest.mark.parametrize("a", [-2, 0, 1, 3])
    def test_hirzebruch_rays(self, a):
        f = build_fan(hirzebruch(a))
        assert dict(zip(f.labels, f.rays)) == {
            (1, 0): (-1, a),
            (1, 1): (1, 0),
            (2, 0): (0, -1),
            (2, 1): (0, 1),
        }
        assert len(f.max_cones) == 4

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_projective_space(self, n):
        f = build_fan(make_tower((n,)))
        assert len(f.rays) == n + 1
        assert len(f.max_cones) == n + 1
        assert f.ray((1, 0)) == (-1,) * n

    def test_worked_example_counts(self):
        f = build_fan(fano_4stage())
        assert f.dim == 9
        assert len(f.rays) == 13
        assert len(f.max_cones) == 4 * 3 * 3 * 3

    def test_cone_size_equals_dimension(self):
        f = build_fan(not_weak_fano_3stage())
        assert all(len(c) == f.dim for c in f.max_cones)


class TestValidateSmoothComplete:
    @pytest.mark.parametrize("a", [-3, 0, 2])
    def test_hirzebruch_passes(self, a):
        validate_smooth_complete(build_fan(hirzebruch(a)))

    def test_worked_example_passes(self):
        validate_smooth_complete(build_fan(not_weak_fano_3stage()))

    def test_duplicated_ray_fails(self):
        f = build_fan(hirzebruch(0))
        rays = list(f.rays)
        rays[3] = rays[1]
        corrupted = Fan(f.dim, tuple(rays), f.labels, f.max_cones)
        with pytest.raises(FanError, match="duplicate ray"):
            validate_smooth_complete(corrupted)

    def test_imprimitive_ray_fails(self):
        f = build_fan(hirzebruch(0))
        rays = list(f.rays)
        rays[1] = (2, 0)
        with pytest.raises(FanError, match="not primitive"):
            validate_smooth_complete(Fan(f.dim, tuple(rays), f.labels, f.max_cones))

    @pytest.mark.parametrize("rays, cones, message", [
        ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)],
         "facet [(0, 0)] lies in 1 maximal cones, expected 2"),
        ([(1, 0), (0, 1), (-1, 0), (1, 1)], [(0, 1), (1, 2), (1, 3)],
         "facet [(0, 1)] lies in 3 maximal cones, expected 2"),
        ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2,)],
         "maximal cone #2 has 1 rays, expected 2"),
        # the cycle through (1,0), (1,2), (-1,0), (0,-1): its first two cones have determinant 2
        ([(1, 0), (1, 2), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)],
         "maximal cone #0 is not unimodular"),
        # cone #2 holds (1,0) and (-1,0)
        ([(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (0, 2), (2, 3), (3, 0)],
         "maximal cone #2 is not unimodular"),
        # (0, 1) comes first in sorted-ray order, but cone #0 is (1, 2)
        ([(1, 0), (1, 2), (-1, 0), (0, -1)], [(1, 2), (2, 3), (0, 1), (3, 0)],
         "maximal cone #0 is not unimodular"),
        # a cone that is not unimodular comes before a one-ray cone, and after one
        ([(1, 0), (1, 2), (-1, 0), (0, -1)], [(2, 3), (0, 1), (1,), (3, 0)],
         "maximal cone #1 is not unimodular"),
        ([(1, 0), (1, 2), (-1, 0), (0, -1)], [(2, 3), (1,), (0, 1), (3, 0)],
         "maximal cone #1 has 1 rays, expected 2"),
        # a cone that is not unimodular is named before a facet in one cone
        ([(1, 0), (1, 2), (-1, 0), (0, -1)], [(2, 3), (3, 0), (0, 1)],
         "maximal cone #2 is not unimodular"),
    ], ids=["facet-in-one-cone", "facet-in-three-cones", "one-ray-cone", "determinant-two",
            "singular", "lowest-index-not-first-in-order", "unimodularity-before-a-later-size",
            "size-before-a-later-unimodularity", "cones-before-facets"])
    def test_first_bad_cone_or_facet_named(self, rays, cones, message):
        with pytest.raises(FanError) as excinfo:
            validate_smooth_complete(hand_fan(rays, cones))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("rays, labels, cones, message", [
        (((1,), (1,)), ((10**5000, 0), (10**5000, 1)), (),
         "duplicate ray u[over 10^{L1},1] = u[over 10^{L1},0]"),
        (((2,),), ((10**5000, 0),), (), "ray u[over 10^{L1},0] is not primitive"),
        (((1, 0), (0, 1)), ((10**5000, 0), (10**5000, 1)), ((0, 1),),
         "facet a list holding an int of over {L} digits lies in 1 maximal cones, expected 2"),
        # a label that prints reads as before
        (((1,), (1,)), ((2, 0), (-3, 1)), (), "duplicate ray u[-3,1] = u[2,0]"),
    ], ids=["duplicate-ray", "not-primitive", "facet", "printable-duplicate-ray"])
    def test_unprintable_label_shown_in_short(self, int_limit, rays, labels, cones, message):
        # 10^5000, of 5,001 digits, passes Fan as a label, and only the validator prints it
        with pytest.raises(FanError) as excinfo:
            validate_smooth_complete(Fan(len(rays[0]), rays, labels, cones))
        assert str(excinfo.value) == message.format(L=int_limit, L1=int_limit - 1)

    def test_unprintable_dim_shown_in_short(self, int_limit):
        # a fan of no rays passes Fan whatever its dim, and the validator prints the dim
        with pytest.raises(FanError) as excinfo:
            validate_smooth_complete(Fan(10**5000, (), (), ((),)))
        assert str(excinfo.value) == f"maximal cone #0 has 0 rays, expected over 10^{int_limit - 1}"

    def test_cones_with_no_unit_entry_pass(self):
        # the cone {(2,3), (3,5)} has determinant 1 and no entry +-1
        rays = [(1, 0), (1, 1), (2, 3), (3, 5), (1, 2), (0, 1), (-1, 0), (0, -1)]
        validate_smooth_complete(hand_fan(rays, [(i, (i + 1) % 8) for i in range(8)]))


def test_ray_cone_masks_match_the_or_loop(rng):
    fans = [build_fan(random_tower(rng)) for _ in range(30)]
    fans.append(build_fan(make_tower((1,) * 12, {
        (j, l): (0,) for j in range(2, 13) for l in range(1, j)})))
    for f in fans:
        masks = [0] * len(f.rays)
        cone_masks = [0] * len(f.max_cones)
        for c, cone in enumerate(f.max_cones):
            for i in cone:
                masks[i] |= 1 << c
                cone_masks[c] |= 1 << i
        assert f.ray_cones == masks
        assert f.cone_masks == cone_masks


def test_tower_cones_come_in_the_order_of_the_stage_choices(rng):
    # cone indices reach the output and the "maximal cone #c" messages, so the order is pinned:
    # the product over the stages, last stage fastest, of the stage's rays less one ray
    towers = [random_tower(rng, max_stages=6) for _ in range(50)]
    towers += [make_tower((n,) * m, {(j, l): (0,) * n for j in range(2, m + 1) for l in range(1, j)})
               for n, m in ((1, 12), (3, 6))]
    for t in towers:
        f = build_fan(t)
        stages = [[i for i, lab in enumerate(f.labels) if lab[0] == l]
                  for l in range(1, t.num_stages + 1)]
        kept = [[tuple(i for i in stage if i != left_out) for left_out in stage] for stage in stages]
        assert f.max_cones == tuple((*chain.from_iterable(p),) for p in product(*kept))


@pytest.fixture
def ray_cones_built(monkeypatch) -> list:
    """Patch ``Fan.ray_cones`` to log each fan whose index it builds."""
    built = []
    build = Fan.ray_cones.func
    logged = cached_property(lambda f: built.append(f) or build(f))
    logged.__set_name__(Fan, "ray_cones")
    monkeypatch.setattr(Fan, "ray_cones", logged)
    return built


def test_ray_cones_built_on_first_read_only(ray_cones_built):
    t = make_tower((3,) * 6, {(j, l): (0, 0, 0) for j in range(2, 7) for l in range(1, j)})
    f = build_fan(t)
    validate_smooth_complete(f)
    assert "ray_cones" not in f.__dict__ and ray_cones_built == []
    assert primitive_collections(f) == {collection_for_stage(t, p) for p in range(1, 7)}
    masks = f.ray_cones
    assert f.cones_containing([0]) and primitive_collections(f)
    assert f.ray_cones is masks and ray_cones_built == [f]


@pytest.mark.parametrize("argv, builds", [
    (["fan"], 0), (["relations"], 0), (["check", "--verify"], 1),
], ids=["fan", "relations", "check-verify"])
def test_only_the_collection_search_builds_ray_cones(capsys, ray_cones_built, argv, builds):
    assert cli.main([*argv, "--input", str(FIXTURES / "fano_4stage.json")]) == 0
    capsys.readouterr()
    assert len(ray_cones_built) == builds


@pytest.mark.parametrize("rays, labels, cones, message", [
    ([(1, 0), (0, 1)], [(0, 0), (0, 1)], [(0, 2)],
     r"^maximal cone #0 \[0, 2\] names a ray outside 0..1$"),
    ([(1, 0), (0, 1), (-1, -1)], [(0, 0), (0, 1)], [(0, 1), (1, 2), (2, 0)],
     "^2 labels for 3 rays$"),
    ([(1, 0), (0, 1), (-1, -1, 0)], [(0, 0), (0, 1), (0, 2)], [(0, 1), (1, 2), (2, 0)],
     r"^ray \(0, 2\) has 3 entries, expected dim 2$"),
    ([(1, 0), (0, 1), (-1, -1)], [(0, 0), (0, 1), (0, 2)], [(0, 1), (1, 2), (2, -1)],
     r"^maximal cone #2 \[-1, 2\] names a ray outside 0..2$"),
    ([(1, 0), (0, 1), (-1, -1)], [(0, 0), (0, 1), (0, 2)], [(0, 1.0), (1, 2), (2, 0)],
     r"^maximal cone #0 names ray index 1\.0, not an int$"),
    ([(1, 0), (0, 1), (-1, -1)], [(0, 0), (0, 1), (0, 2)], [(0, 1), (1, 2), (2, True)],
     "^maximal cone #2 names ray index True, not an int$"),
    ([(1, 0), (0, 1), (-1, -1)], [(0, 0), (0, 1), (0, 2)], [(0, 1), (1, 2), (5, "2")],
     "^maximal cone #2 names ray index '2', not an int$"),
    ([(1, 0), (0, 1), (-1, -1)], [(0, 0), (0, 0), (0, 2)], [(0, 1), (1, 2), (2, 0)],
     r"^label \(0, 0\) names rays 0 and 1$"),
    ([(1.0, 0), (0, 1), (-1, -1)], [(0, 0), (0, 1), (0, 2)], [(0, 1), (1, 2), (2, 0)],
     r"^ray \(0, 0\) has entry 1\.0, not an int$"),
    ([(1, 0), (0, 1), (-1, -1)], [[0, 0], [0, 1], [0, 2]], [(0, 1), (1, 2), (2, 0)],
     r"^ray 0 has label \[0, 0\], not a pair of ints$"),
    ([(1, 0), (0, 1), (-1, -1)], [(0, 0), (0, [1]), (0, 2)], [(0, 1), (1, 2), (2, 0)],
     r"^ray 1 has label \(0, \[1\]\), not a pair of ints$"),
    ([[1, 0], [0, 1], [-1, -1]], [(0, 0), (0, 1), (0, 2)], [(0, 1), (1, 2), (2, 0)],
     r"^ray \(0, 0\) is \[1, 0\], not a tuple$"),
    ([(1, 0), (0, 1), (-1, -1)], [(0, 0), (0, 1), (0, 2)], [5],
     "^maximal cone #0 is 5, not a tuple$"),
    ([(1, 0), (0, 1), (-1, -1)], [(0, 0), (0, 1), (0, 2)], [None],
     "^maximal cone #0 is None, not a tuple$"),
    # a cone must be a tuple: no other container is converted
    ([(1, 0), (0, 1), (-1, -1)], [(0, 0), (0, 1), (0, 2)], [(0, 1), frozenset({1, 2})],
     r"^maximal cone #1 is frozenset\(\{1, 2\}\), not a tuple$"),
    ([(1, 0), (0, 1), (-1, -1)], [(0, 0), (0, 1), (0, 2)], [[0, 1]],
     r"^maximal cone #0 is \[0, 1\], not a tuple$"),
    ([(1, 0), (0, 1), (-1, -1)], [(0, 0), (0, 1), (0, 2)], [(0, 1), (1, 2), iter((2, 0))],
     "^maximal cone #2 is <tuple_iterator object at 0x[0-9a-f]+>, not a tuple$"),
], ids=["index-past-the-rays", "too-few-labels", "long-ray", "negative-index", "float-index",
        "bool-index", "str-index", "duplicate-label", "float-ray-entry", "list-label",
        "list-in-label", "list-ray", "int-cone", "none-cone", "frozenset-cone", "list-cone",
        "iterator-cone"])
def test_malformed_fan_refused_when_built(rays, labels, cones, message):
    with pytest.raises(FanError, match=message) as excinfo:
        Fan(dim=2, rays=tuple(rays), labels=tuple(labels), max_cones=tuple(cones))
    assert "\n" not in str(excinfo.value)


@pytest.mark.parametrize("dim, rays, labels, cones, message", [
    (10**5000, ((1,),), ((1, 0),), (), "ray (1, 0) has 1 entries, expected dim over 10^{L1}"),
    (1, ((1,),), ((10**5000, [0]),), (), "ray 0 has label a tuple holding an int of over {L} digits, not a pair of ints"),
    (1, ((1, 0),), ((10**5000, 0),), (), "ray a tuple holding an int of over {L} digits has 2 entries, expected dim 1"),
    (1, ([10**5000],), ((0, 0),), (), "ray (0, 0) is a list holding an int of over {L} digits, not a tuple"),
    (1, (([10**5000],),), ((0, 0),), (), "ray (0, 0) has entry a list holding an int of over {L} digits, not an int"),
    (1, ((1,), (-1,)), ((10**5000, 0), (10**5000, 0)), (),
     "label a tuple holding an int of over {L} digits names rays 0 and 1"),
    (1, ((1,),), ((0, 0),), ([10**5000],), "maximal cone #0 is a list holding an int of over {L} digits, not a tuple"),
    (1, ((1,),), ((0, 0),), (([10**5000],),),
     "maximal cone #0 names ray index a list holding an int of over {L} digits, not an int"),
    (1, ((1,),), ((0, 0),), ((10**5000,),),
     "maximal cone #0 a list holding an int of over {L} digits names a ray outside 0..0"),
    (-10**5000, ((1,),), ((1, 0),), (), "dim must be a non-negative int, got below -10^{L1}"),
], ids=["dim", "label", "label-of-a-long-ray", "ray", "ray-entry", "duplicate-label", "cone",
        "cone-index", "cone-index-past-the-rays", "negative-dim"])
def test_unprintable_refusal_value_shown_in_short(int_limit, dim, rays, labels, cones, message):
    # each value holds 10^5000, of 5,001 digits, which neither str nor repr prints
    with pytest.raises(FanError) as excinfo:
        Fan(dim, rays, labels, cones)
    assert str(excinfo.value) == message.format(L=int_limit, L1=int_limit - 1)


@pytest.mark.parametrize("rays, labels, cones, message", [
    (5, (), (), "rays must be a tuple, got int"),
    (((1,),), [(0, 0)], (), "labels must be a tuple, got list"),
    (((1,),), ((0, 0),), [(0,)], "max_cones must be a tuple, got list"),
    (None, None, None, "rays must be a tuple, got NoneType"),
], ids=["int-rays", "list-labels", "list-cones", "none"])
def test_fan_fields_not_tuples_refused(rays, labels, cones, message):
    # a list is refused, not converted, as it is for each ray, label and cone
    with pytest.raises(FanError, match=f"^{re.escape(message)}$"):
        Fan(1, rays, labels, cones)


@pytest.mark.parametrize("dim", [2.0, True, -1, "2", None], ids=["float", "bool", "negative", "str", "none"])
def test_fan_dim_not_a_non_negative_int_refused(dim):
    # a float dim of 2.0 passed every check, then broke the oracle with a bare TypeError
    message = f"^dim must be a non-negative int, got {re.escape(repr(dim))}$"
    with pytest.raises(FanError, match=message):
        Fan(dim, ((1, 0), (0, 1), (-1, -1)), ((1, 0), (1, 1), (1, 2)), ((0, 1), (1, 2), (0, 2)))
    # refused before any other field is looked at
    with pytest.raises(FanError, match=message):
        Fan(dim, None, None, None)


def test_fan_of_dim_zero_built():
    assert Fan(0, ((),), ((1, 0),), ((),)).cone_masks == [0]


def test_build_fan_gives_strictly_ascending_int_cones(rng):
    for _ in range(30):
        f = build_fan(random_tower(rng))
        assert all(type(c) is tuple and all(type(i) is int for i in c)
                   and all(map(int.__lt__, c, c[1:])) for c in f.max_cones)


def test_fan_keeps_each_given_cone_whatever_the_order_of_its_rays(rng):
    for _ in range(30):
        f = build_fan(random_tower(rng))
        given = tuple(tuple(rng.sample(c, len(c))) for c in f.max_cones)
        g = Fan(f.dim, f.rays, f.labels, given)
        assert g.max_cones is given
        assert g.cone_masks == f.cone_masks and g.ray_cones == f.ray_cones


def test_widest_line_tower_fan_holds_under_2_mb():
    # 4,096 cones of 12 rays: 3.2 MB when each cone was a frozenset
    t = make_tower((1,) * 12, {(j, l): (0,) for j in range(2, 13) for l in range(1, j)})
    tracemalloc.start()
    try:
        f = build_fan(t)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(f.max_cones) == 4096
    assert held < 2_000_000


def test_cone_naming_a_ray_twice_is_not_unimodular():
    f = Fan(dim=2, rays=((1, 0), (0, 1), (-1, -1)), labels=((0, 0), (0, 1), (0, 2)),
            max_cones=((0, 0), (1, 2), (2, 0)))
    with pytest.raises(FanError, match=r"^maximal cone #0 is not unimodular$"):
        validate_smooth_complete(f)


def test_cones_containing_matches_subset_scan(rng):
    for _ in range(30):
        f = build_fan(random_tower(rng))
        nrays = len(f.rays)
        subsets = [()]
        subsets += [rng.sample(range(nrays), rng.randint(1, nrays)) for _ in range(5)]
        # subsets of a maximal cone are faces, so most of these masks are nonzero
        subsets += [rng.sample(sorted(rng.choice(f.max_cones)), rng.randint(1, f.dim))
                    for _ in range(5)]
        for s in subsets:
            mask = f.cones_containing(s)
            assert {c for c in range(len(f.max_cones)) if mask >> c & 1} == {
                c for c, cone in enumerate(f.max_cones) if set(s) <= set(cone)
            }


class TestPrimitiveCollections:
    def test_hirzebruch(self):
        f = build_fan(hirzebruch(1))
        assert primitive_collections(f) == primitive_collections_bruteforce(f) == {
            frozenset({(1, 0), (1, 1)}),
            frozenset({(2, 0), (2, 1)}),
        }

    def test_projective_space_single_collection(self):
        f = build_fan(make_tower((3,)))
        assert primitive_collections(f) == primitive_collections_bruteforce(f) == {
            frozenset({(1, 0), (1, 1), (1, 2), (1, 3)})
        }

    def test_tower_fan_collections_are_the_stage_sets(self):
        t = fano_4stage()
        f = build_fan(t)
        assert primitive_collections(f) == primitive_collections_bruteforce(f) == {
            collection_for_stage(t, p) for p in range(1, 5)
        }

    def test_search_matches_subset_scan_on_random_cone_systems(self, rng):
        # cone systems with no fan behind them: no cones, rays in no cone, nested cones
        for _ in range(2000):
            nrays, dim = rng.randint(1, 12), rng.randint(1, 6)
            cones = [rng.sample(range(nrays), rng.randint(1, min(dim, nrays)))
                     for _ in range(rng.randint(0, 12))]
            f = Fan(dim=dim, rays=((0,) * dim,) * nrays,
                    labels=tuple((0, i) for i in range(nrays)),
                    max_cones=tuple(map(tuple, cones)))
            assert primitive_collections(f) == primitive_collections_bruteforce(f)

    def test_fan_with_no_cones_gives_every_ray_alone(self):
        f = hand_fan([(1, 0), (0, 1), (-1, -1)], [])
        assert f.cone_masks == []
        assert primitive_collections(f) == primitive_collections_bruteforce(f) == {
            frozenset({(0, i)}) for i in range(3)
        }

    def test_search_reads_few_cone_masks_on_the_widest_tower(self):
        class CountingList(list):
            reads = 0

            def count(self):
                CountingList.reads += 1
                # a search that visits every face reads the masks 15,458,704 times
                # here; stop it at the bound rather than wait for it
                assert CountingList.reads <= 1_000_000, "over 1,000,000 mask reads"

            def __getitem__(self, i):
                self.count()
                return super().__getitem__(i)

            def __iter__(self):
                self.count()
                return super().__iter__()

        # (3,)^6 has 24 rays, the most the subset scan accepts, and 4^6 = 4,096 cones
        t = make_tower((3,) * 6, {(j, l): (0, 0, 0) for j in range(2, 7) for l in range(1, j)})
        f = build_fan(t)
        f.ray_cones = CountingList(f.ray_cones)
        f.cone_masks = CountingList(f.cone_masks)
        assert primitive_collections(f) == {collection_for_stage(t, p) for p in range(1, 7)}

    def test_guard_on_large_fans(self):
        t = make_tower((5,) * 5, {
            (j, l): (0,) * 5 for j in range(2, 6) for l in range(1, j)
        })
        with pytest.raises(FanError, match="refused"):
            primitive_collections_bruteforce(build_fan(t))

    def test_search_admits_fans_the_subset_scan_refuses(self):
        t = make_tower((12, 12), {(2, 1): (0,) * 12})
        f = build_fan(t)
        assert primitive_collections(f) == {collection_for_stage(t, 1), collection_for_stage(t, 2)}
        with pytest.raises(FanError, match="refused: 26 rays > limit 24"):
            primitive_collections_bruteforce(f)

    def test_largest_one_stage_fan_is_built_and_the_next_refused(self):
        # the largest n with (n + 1) * n^2 within the limit: 215 for 10^7
        n = 1
        while (n + 2) * (n + 1) ** 2 <= FAN_WORK_LIMIT:
            n += 1
        with pytest.raises(FanError, match=f"^fan refused: {n + 2} cones of dimension {n + 1} "):
            build_fan(make_tower((n + 1,)))
        t = make_tower((n,))
        f = build_fan(t)
        assert len(f.max_cones) == n + 1
        # one collection of all n + 1 rays: the deepest search the limit allows
        assert primitive_collections(f) == {collection_for_stage(t, 1)}

    def test_non_tower_fan_collections_are_the_non_adjacent_pairs(self):
        f = pentagon_fan()
        validate_smooth_complete(f)
        expected = {frozenset({(0, i), (0, (i + 2) % 5)}) for i in range(5)}
        assert len(expected) == 5
        assert primitive_collections(f) == expected
        assert primitive_collections_bruteforce(f) == expected

    def test_non_tower_fan_degrees(self):
        c = batyrev_classify(pentagon_fan())
        assert c.verdict is Verdict.FANO
        assert sorted(c.degrees.values()) == [1, 1, 1, 2, 2]

    def test_ray_in_no_cone_is_a_collection(self):
        f = hand_fan([(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (2, 0)])
        assert primitive_collections(f) == primitive_collections_bruteforce(f) == {
            frozenset({(0, 3)}),
            frozenset({(0, 0), (0, 1), (0, 2)}),
        }


class TestPrimitiveRelation:
    def test_last_stage_sum_is_zero(self):
        t = fano_4stage()
        f = build_fan(t)
        pr = primitive_relation(f, collection_for_stage(t, 4))
        assert pr.relation_rhs == {}
        assert pr.degree == 3

    def test_degree_minus_one(self):
        t = not_weak_fano_3stage()
        f = build_fan(t)
        pr = primitive_relation(f, collection_for_stage(t, 1))
        assert pr.degree == -1

    def test_hirzebruch_weak_fano_boundary(self):
        t = hirzebruch(2)
        f = build_fan(t)
        pr = primitive_relation(f, frozenset({(1, 0), (1, 1)}))
        assert pr.relation_rhs == {(2, 1): 2}
        assert pr.degree == 0

    def test_rejects_a_face(self):
        f = build_fan(hirzebruch(0))
        with pytest.raises(FanError, match="not a primitive collection"):
            primitive_relation(f, frozenset({(1, 1), (2, 1)}))

    def test_coefficients_are_ints(self, rng):
        for _ in range(30):
            t = random_tower(rng)
            f = build_fan(t)
            for p in range(1, t.num_stages + 1):
                pr = primitive_relation(f, collection_for_stage(t, p))
                assert all(type(c) is int for c in pr.relation_rhs.values())
                assert type(pr.degree) is int

    def test_cone_of_determinant_two(self):
        # the cone {(1,0), (1,2)} comes first and holds (1,1) = (1/2)(1,0) + (1/2)(1,2)
        f = hand_fan([(1, 0), (1, 2), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert det([f.rays[0], f.rays[1]]) == 2
        with pytest.raises(FanError, match="non-integral|singular"):
            primitive_relation(f, frozenset({(0, 1), (0, 3)}))
        # here the sum (0,2) = -(1,0) + (1,2) has integral coordinates in that first cone,
        # which is still refused; the cone {(1,2), (0,1)} after it would give degree 0
        f = hand_fan([(1, 0), (1, 2), (-1, 0), (0, -1), (0, 1)],
                     [(0, 1), (1, 4), (4, 2), (2, 3), (3, 0)])
        with pytest.raises(FanError, match="non-integral"):
            primitive_relation(f, frozenset({(0, 1), (0, 2)}))

    def test_singular_cone(self):
        f = hand_fan([(1, 0), (-1, 0), (0, 1), (1, -1)],
                     [(0, 1), (2, 0), (2, 1), (3, 0), (3, 1)])
        with pytest.raises(FanError, match="singular"):
            primitive_relation(f, frozenset({(0, 2), (0, 3)}))

    def test_unknown_label_named(self):
        f = build_fan(hirzebruch(0))
        with pytest.raises(FanError, match=r"^\(3, 3\) is not a ray label of the fan$"):
            primitive_relation(f, frozenset({(1, 0), (3, 3)}))

    def test_rejects_non_minimal_set(self):
        f = build_fan(hirzebruch(0))
        with pytest.raises(FanError, match="not minimal"):
            primitive_relation(f, frozenset({(1, 0), (1, 1), (2, 0), (2, 1)}))

    @pytest.mark.parametrize("keys, message", [
        ((0, 2), "a list holding an int of over {L} digits is not minimal; not a primitive collection"),
        ((0,), "a list holding an int of over {L} digits spans a cone of the fan; not a primitive collection"),
        ((3,), "a tuple holding an int of over {L} digits is not a ray label of the fan"),
    ], ids=["not-minimal", "a-cone", "unknown-label"])
    def test_unprintable_label_shown_in_short(self, int_limit, keys, message):
        # labels holding 10^5000, of 5,001 digits, on the line with ray 2 in no cone: so {2} is
        # a non-face and {0, 2} not a minimal one
        big = 10**5000
        f = Fan(1, ((1,), (-1,), (2,)), ((big, 0), (big, 1), (big, 2)), ((0,), (1,)))
        with pytest.raises(FanError) as excinfo:
            primitive_relation(f, frozenset((big, k) for k in keys))
        assert str(excinfo.value) == message.format(L=int_limit)

    @pytest.mark.parametrize("collection, message", [
        (5, "collection 5 is not a set of ray labels"),
        ([[1, 0]], "collection [[1, 0]] is not a set of ray labels"),
        (10**5000, "collection over 10^{L1} is not a set of ray labels"),
    ], ids=["int", "unhashable-label", "unprintable-int"])
    def test_collection_not_a_set_of_labels_refused(self, int_limit, collection, message):
        with pytest.raises(FanError) as excinfo:
            primitive_relation(build_fan(hirzebruch(0)), collection)
        assert str(excinfo.value) == message.format(L1=int_limit - 1)

    @pytest.mark.parametrize("coeff_bound", [2, 4])
    def test_walk_matches_the_scan_on_random_towers(self, rng, coeff_bound):
        for _ in range(40):
            f = build_fan(random_tower(rng, coeff_bound=coeff_bound))
            validate_smooth_complete(f)
            for pc in primitive_collections(f):
                assert primitive_relation(f, pc) == scan_primitive_relation(f, pc)

    def test_walk_matches_the_scan_on_hand_fans(self, monkeypatch):
        rays = [(1, 0), (1, 1), (2, 3), (3, 5), (1, 2), (0, 1), (-1, 0), (0, -1)]
        fans = [
            pentagon_fan(),
            hand_fan(rays, [(i, (i + 1) % 8) for i in range(8)]),
            # the pentagon with its cones out of angular order
            hand_fan(pentagon_fan().rays, [(0, 1), (3, 4), (4, 0), (2, 3), (1, 2)]),
        ]
        for f in fans:
            validate_smooth_complete(f)
            for pc in primitive_collections(f):
                assert primitive_relation(f, pc) == scan_primitive_relation(f, pc)
        # in the reordered pentagon the sum (0,1) of (1,1) and (-1,0) is the ray (0,1),
        # held by the cones {(1,1), (0,1)} and {(0,1), (-1,0)}: the scan reaches the second
        # one first, and the walk steps from cone #0 across (1,1) to the first
        f = fans[2]
        pc = frozenset({(0, 1), (0, 3)})
        solved = log_solves(monkeypatch)
        pr = primitive_relation(f, pc)
        assert solved[-1] == [(1, 1), (0, 1)]
        assert pr == scan_primitive_relation(f, pc)
        assert pr.relation_rhs == {(0, 2): 1} and pr.degree == 1

    def test_solves_few_cones_on_the_all_minus_one_line_tower(self, monkeypatch):
        # the index-order scan made 2,058 solves here, the walk makes 22
        m = 12
        t = make_tower((1,) * m, {(j, l): (-1,) for j in range(2, m + 1) for l in range(1, j)})
        f = build_fan(t)
        solved = log_solves(monkeypatch)
        assert batyrev_classify(f).verdict is classify(t).verdict
        assert len(solved) <= 40

    def test_sum_in_no_cone_visits_every_cone(self, monkeypatch):
        # the cone {(0,-1), (1,0)} is missing, so the sum (1,-1) lies in no cone; from cone #0
        # and from cone #2 the step across the negative coordinate leads to no unvisited cone
        f = hand_fan([(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3)])
        solved = log_solves(monkeypatch)
        with pytest.raises(FanError) as excinfo:
            primitive_relation(f, frozenset({(0, 0), (0, 3)}))
        assert str(excinfo.value) == "no maximal cone contains the ray sum; fan is not complete"
        assert solved == [[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)]]

    def test_wrongly_sized_cone_named(self):
        # the first cone has three rays: its solve once returned the coordinates of the
        # third ray, not of the sum (0,1)
        f = hand_fan([(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)],
                     [(0, 1, 2), (2, 3), (3, 4), (4, 0)])
        with pytest.raises(FanError) as excinfo:
            primitive_relation(f, frozenset({(0, 1), (0, 3)}))
        assert str(excinfo.value) == "maximal cone has 3 rays, expected 2"


class TestExpectedPrimitiveRelation:
    def test_worked_example_stage_one(self):
        t = fano_4stage()
        b = compute_b(t)
        pr = expected_primitive_relation(t, b, 1)
        assert pr.degree == 1
        # b_{1,1}=(-1,-1): mu=-1 puts 1 on u_2^0 and b^{(k)}-mu on u_2^k
        assert pr.relation_rhs[(2, 0)] == 1
        assert (2, 1) not in pr.relation_rhs and (2, 2) not in pr.relation_rhs
        # b_{1,2}=b_{1,3}=(0,1): mu=0, coefficient 1 on the k=2 entries
        assert pr.relation_rhs[(3, 2)] == 1 and pr.relation_rhs[(4, 2)] == 1

    def test_last_stage(self):
        t = fano_4stage()
        pr = expected_primitive_relation(t, compute_b(t), 4)
        assert pr.relation_rhs == {} and pr.degree == 3

    def test_all_zero_tower(self):
        t = make_tower((2, 3), {(2, 1): (0, 0, 0)})
        pr = expected_primitive_relation(t, compute_b(t), 1)
        assert pr.relation_rhs == {} and pr.degree == 3

    def test_out_of_range(self):
        t = hirzebruch(0)
        with pytest.raises(FanError):
            expected_primitive_relation(t, compute_b(t), 3)

    def test_telescoping_identity(self, rng):
        # members plus the signed right-hand side sum to zero in Z^n
        for _ in range(50):
            t = random_tower(rng)
            f = build_fan(t)
            b = compute_b(t)
            for p in range(1, t.num_stages + 1):
                pr = expected_primitive_relation(t, b, p)
                total = [0] * f.dim
                for lab in pr.members:
                    total = [x + y for x, y in zip(total, f.ray(lab))]
                for lab, c in pr.relation_rhs.items():
                    total = [x - c * y for x, y in zip(total, f.ray(lab))]
                assert all(e == 0 for e in total)

    def test_vanishing_argmin_coefficient(self, rng):
        for _ in range(50):
            t = random_tower(rng)
            b = compute_b(t)
            for p in range(1, t.num_stages):
                pr = expected_primitive_relation(t, b, p)
                for q in range(1, t.num_stages - p + 1):
                    # i_{p,q}: 0 when mu(b_{p,q}) = 0, else the first k >= 1 attaining it
                    bpq = b[(p, q)]
                    mn = min(0, *bpq)
                    assert (p + q, bpq.index(mn) + 1 if mn else 0) not in pr.relation_rhs


@pytest.mark.parametrize("p, message", [
    (10**5000, "stage index over 10^{L1} out of range 1..2"),
    (-10**5000, "stage index below -10^{L1} out of range 1..2"),
    (1.5, "stage index 1.5 is not an int"),
    (True, "stage index True is not an int"),
    ("1", "stage index '1' is not an int"),
    (0, "stage index 0 out of range 1..2"),
    (3, "stage index 3 out of range 1..2"),
], ids=["huge", "huge-negative", "float", "bool", "str", "zero", "past-the-last"])
@pytest.mark.parametrize("relation", [
    lambda t, p: expected_primitive_relation(t, compute_b(t), p),
    lambda t, p: wall_relation(build_fan(t), t, compute_b(t), p),
    collection_for_stage,
], ids=["expected_primitive_relation", "wall_relation", "collection_for_stage"])
def test_stage_index_not_an_int_in_range_refused(int_limit, relation, p, message):
    with pytest.raises(FanError) as excinfo:
        relation(hirzebruch(1), p)
    assert str(excinfo.value) == message.format(L1=int_limit - 1)


class TestBatyrevClassify:
    def test_worked_fano_example(self):
        assert batyrev_classify(build_fan(fano_4stage())).verdict is Verdict.FANO

    def test_worked_non_weak_fano_example(self):
        c = batyrev_classify(build_fan(not_weak_fano_3stage()))
        assert c.verdict is Verdict.NOT_WEAK_FANO
        assert min(c.degrees.values()) == -1

    def test_hirzebruch_boundary(self):
        assert (
            batyrev_classify(build_fan(hirzebruch(2))).verdict
            is Verdict.WEAK_FANO_NOT_FANO
        )

    def test_agrees_with_closed_form_on_random_sample(self, rng):
        for _ in range(60):
            t = random_tower(rng)
            assert batyrev_classify(build_fan(t)).verdict is classify(t).verdict

    def test_agrees_with_the_wall_degrees(self, rng):
        # the toric Kleiman degrees need no collection search, so a search that dropped
        # the one collection of negative degree would disagree here; the wall tau_p
        # carries the stage-p degree
        for _ in range(200):
            t = random_tower(rng)
            f = build_fan(t)
            assert len(f.rays) <= 16
            walls = wall_degrees(f)
            assert Verdict.from_degrees(walls.values()) is batyrev_classify(f).verdict
            b = compute_b(t)
            for p in range(1, t.num_stages + 1):
                want = expected_primitive_relation(t, b, p).degree
                assert walls[wall_relation(f, t, b, p).wall] == want


def scrambled(f: Fan, rng) -> Fan:
    """``f`` with its rays and cones renumbered at random, each cone's rays
    in a random order, and its rays mapped by a random matrix in GL_n(Z);
    each ray keeps its label."""
    n = f.dim
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    m = [[-e for e in row] if rng.random() < 0.5 else row for row in m]
    order = rng.sample(range(len(f.rays)), len(f.rays))
    new_index = {old: new for new, old in enumerate(order)}
    cones = [tuple(rng.sample([new_index[i] for i in cone], len(cone))) for cone in f.max_cones]
    rng.shuffle(cones)
    return Fan(
        dim=n,
        rays=tuple(tuple(sum(map(mul, row, f.rays[old])) for row in m) for old in order),
        labels=tuple(f.labels[old] for old in order),
        max_cones=tuple(cones),
    )


def test_oracle_is_invariant_under_renumbering_and_change_of_basis(rng, monkeypatch):
    # tower fans of at most 16 rays, each scrambled once; the validator and the classifier
    # then meet Euclid steps with no +-1 in y, and the validator tail determinants of -1
    euclid = tail_minus_one = 0
    next_rows = oracle._next_rows

    def counting(rows, y):
        nonlocal euclid
        euclid += any(y) and 1 not in y and -1 not in y
        return next_rows(rows, y)

    monkeypatch.setattr(oracle, "_next_rows", counting)
    for _ in range(200):
        t = random_tower(rng)
        f = build_fan(t)
        assert len(f.rays) <= 16
        expected = batyrev_classify(f)
        g = scrambled(f, rng)
        validate_smooth_complete(g)
        tails = tail_determinants(g.rays, g.max_cones)
        assert set(tails) <= {1, -1}
        tail_minus_one += tails.count(-1)
        got = batyrev_classify(g)
        assert got.verdict is expected.verdict
        assert got.degrees == expected.degrees
    assert euclid > 0 and tail_minus_one > 0


def assert_hirzebruch_wall(a):
    t = hirzebruch(a)
    f = build_fan(t)
    wd = wall_relation(f, t, compute_b(t), 1)
    expected = {(1, 0): 1, (1, 1): 1}
    if a != 0:
        expected[(2, 1) if a > 0 else (2, 0)] = -abs(a)
    assert wd.relation == expected


def assert_simplex_wall(n):
    t = make_tower((n,))
    f = build_fan(t)
    wd = wall_relation(f, t, compute_b(t), 1)
    assert wd.relation == {(1, k): 1 for k in range(n + 1)}
    assert len(wd.wall) == n - 1


class TestWallRelation:
    @pytest.mark.parametrize("a", [0, 1, 3])
    def test_hirzebruch(self, a):
        assert_hirzebruch_wall(a)

    @pytest.mark.parametrize("a", [-3, -1, 0, 2])
    def test_hirzebruch_relation(self, a):
        assert_hirzebruch_wall(a)

    def test_projective_space(self):
        assert_simplex_wall(3)

    def test_wall_omits_the_ray_at_i_pq(self):
        # i_{p,q} is 0 when mu(b_{p,q}) = 0, else the smallest k >= 1 attaining mu:
        # b_{1,1} = (-1, -1) gives 1, not 2; b_{1,2} = b_{1,3} = (0, 1) give 0;
        # b_{2,1} = (0, -1) gives 2; b_{2,2} = (0, 0) gives 0
        t = fano_4stage()
        f = build_fan(t)
        b = compute_b(t)
        assert wall_relation(f, t, b, 1).wall == {
            (1, 1), (1, 2), (2, 0), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2),
        }
        assert wall_relation(f, t, b, 2).wall == {
            (1, 1), (1, 2), (1, 3), (2, 1), (3, 0), (3, 1), (4, 1), (4, 2),
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_simplex_relation(self, n):
        assert_simplex_wall(n)

    def test_relations_sum_to_zero_with_unit_ends(self, rng):
        for _ in range(40):
            t = random_tower(rng)
            f = build_fan(t)
            b = compute_b(t)
            for p in range(1, t.num_stages + 1):
                wd = wall_relation(f, t, b, p)
                total = [0] * f.dim
                for lab, c in wd.relation.items():
                    total = [x + c * y for x, y in zip(total, f.ray(lab))]
                assert all(e == 0 for e in total)
                wall_idx = {f.index[lab] for lab in wd.wall}
                around = set().union(*(c for c in f.max_cones if wall_idx <= set(c)))
                ends = f.to_labels(around - wall_idx)
                assert len(ends) == 2
                assert all(wd.relation.get(lab) in (1, -1) for lab in ends)

    def test_doubled_ray_raises(self):
        # tau_1 = {u_1^1}; its first adjacent cone {u_1^1, u_1^2} becomes singular
        t = make_tower((2,))
        f = build_fan(t)
        rays = list(f.rays)
        rays[f.index[(1, 2)]] = f.ray((1, 1))
        with pytest.raises(FanError, match="singular"):
            wall_relation(Fan(f.dim, tuple(rays), f.labels, f.max_cones), t, compute_b(t), 1)

    def test_cones_on_one_side_raise(self):
        # u_1^0 = u_1^2: tau_1 = {u_1^1} lies in {u_1^1, u_1^2} and {u_1^0, u_1^1},
        # two unimodular cones on the same side of it
        t = make_tower((2,))
        f = build_fan(t)
        rays = list(f.rays)
        rays[f.index[(1, 0)]] = f.ray((1, 2))
        with pytest.raises(FanError, match="one side of it: coefficient -1"):
            wall_relation(Fan(f.dim, tuple(rays), f.labels, f.max_cones), t, compute_b(t), 1)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_wall_in_one_cone_raises(self, p):
        t = fano_4stage()
        f = build_fan(t)
        b = compute_b(t)
        wall_idx = {f.index[lab] for lab in wall_relation(f, t, b, p).wall}
        drop = next(c for c, cone in enumerate(f.max_cones) if wall_idx <= set(cone))
        cones = f.max_cones[:drop] + f.max_cones[drop + 1:]
        with pytest.raises(FanError) as excinfo:
            wall_relation(Fan(f.dim, f.rays, f.labels, cones), t, b, p)
        assert str(excinfo.value) == f"tau_{p} lies in 1 maximal cones, expected 2"

    @pytest.mark.parametrize("p", [0, 3])
    def test_stage_out_of_range_raises(self, p):
        t = hirzebruch(1)
        with pytest.raises(FanError, match=rf"^stage index {p} out of range 1\.\.2$"):
            wall_relation(build_fan(t), t, compute_b(t), p)

    def test_fan_without_a_wall_label_raises(self):
        # tau_1 of the all-zero (1, 1, 1) tower is {u_2^1, u_3^1}; the (1, 1) fan has no stage 3
        t = make_tower((1, 1, 1), dict.fromkeys([(2, 1), (3, 1), (3, 2)], (0,)))
        with pytest.raises(FanError) as excinfo:
            wall_relation(build_fan(hirzebruch(0)), t, compute_b(t), 1)
        assert str(excinfo.value) == "(3, 1) is not a ray label of the fan"

    def test_fan_of_another_dimension_raises(self):
        # the (1, 1, 1) fan holds tau_1 = {u_2^1} of the (1, 1) tower, but has dimension 3
        t = hirzebruch(0)
        f = build_fan(make_tower((1, 1, 1), dict.fromkeys([(2, 1), (3, 1), (3, 2)], (0,))))
        with pytest.raises(FanError) as excinfo:
            wall_relation(f, t, compute_b(t), 1)
        assert str(excinfo.value) == "tau_1 has 1 rays, expected 2"

    def test_unprintable_values_shown_in_short(self, int_limit):
        # tau_1 = {u_2^1}; the cones at it, {u_1^1, u_2^1} and {u_2^1, u_1^0} with
        # u_1^0 = (10^5000, 1), lie on one side of it, and u_1^1's coefficient is -10^5000
        t = hirzebruch(0)
        f = Fan(2, ((1, 0), (0, 1), (10**5000, 1), (0, -1)), ((1, 1), (2, 1), (1, 0), (2, 0)),
                ((0, 1), (1, 2), (2, 3), (3, 0)))
        with pytest.raises(FanError) as excinfo:
            wall_relation(f, t, compute_b(t), 1)
        assert str(excinfo.value) == (
            f"the cones at tau_1 lie on one side of it: coefficient below -10^{int_limit - 1}")
        # tau_1 of a one-stage (1,) tower has no rays; a fan of no rays passes Fan whatever its dim
        t = make_tower((1,))
        with pytest.raises(FanError) as excinfo:
            wall_relation(Fan(10**5000, (), (), ()), t, compute_b(t), 1)
        assert str(excinfo.value) == f"tau_1 has 0 rays, expected over 10^{int_limit - 1}"

    def test_cones_not_differing_by_one_ray_raise(self):
        t = make_tower((2,))
        f = build_fan(t)
        cones = (tuple(range(3)),) + f.max_cones[1:]
        with pytest.raises(FanError, match="differ by 0 rays"):
            wall_relation(Fan(f.dim, f.rays, f.labels, cones), t, compute_b(t), 1)

    def test_coincides_with_primitive_relation(self, rng):
        for _ in range(40):
            t = random_tower(rng)
            f = build_fan(t)
            b = compute_b(t)
            for p in range(1, t.num_stages + 1):
                wd = wall_relation(f, t, b, p)
                pr = primitive_relation(f, collection_for_stage(t, p))
                assert wd.relation == signed_relation(pr)


def test_maximal_cone_determinants_are_unimodular(rng):
    for _ in range(30):
        f = build_fan(random_tower(rng))
        for cone in f.max_cones:
            assert det([f.rays[i] for i in sorted(cone)]) in (1, -1)
