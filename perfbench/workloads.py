"""Seeded inputs, the operations of each workload and their output checks.

An operation is one call of the ``bottfano`` command line, given as an
argument list.  Each operation carries a check that reads the command's
machine output (parsed JSON) and returns an error string, or ``None`` when
the output is right.  Checks compare fields, not raw bytes, so an output
field added later does not count as a failure.

Expected values come from three places:

* values pinned from the program as it stood when the benchmark was
  written (census counts, hit-list digests, Chary comparison lists);
* a small closed-form reference in this file (the b-vector recursion and
  the nu-sums), which gives verdicts, nu-sums, b-vectors and the degrees
  of the stage relations for any seeded tower;
* cross-checks that do not depend on either: ``check --verify`` exits 0
  only when the fan oracle agrees with the closed form, Chary's condition
  never holds for a non-Fano Bott manifold, and Fano hits among Bott
  manifolds satisfy the three-clause criterion ``bott_fano``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

WORKLOADS = ("sweep", "verify", "large")

#: The seed that workload reasons and first baselines refer to, and a
#: held-out seed kept for confirming later claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20181115

#: Towers per shape in the ``verify`` workload, by number of stages m.
#: Under the acceptance distribution (m uniform in 1..4, each n_j uniform
#: in 1..3) a shape with m stages has probability 1 / (4 * 3^m); these
#: counts match it exactly, 81 towers per m and 324 in all.
VERIFY_PER_SHAPE = {1: 27, 2: 9, 3: 3, 4: 1}
LARGE_FAN_STAGES = 12
LARGE_VERIFY_SHAPES = ((1,) * 8, (3, 3, 2, 2), (2,) * 5)
VERDICTS = ("fano", "weak_fano_not_fano", "not_weak_fano")


@dataclass
class Op:
    """One command-line call: ``group`` names it in the detail metrics."""

    group: str
    argv: list[str]
    check: Callable[[dict], str | None]
    work: int = 1  # candidates or towers the call handles


# --- towers and the closed-form reference ---------------------------------


@dataclass(frozen=True)
class Tower:
    stages: tuple[int, ...]
    coeffs: dict  # (j, l) -> tuple of n_j ints

    def document(self) -> dict:
        m = len(self.stages)
        return {
            "stages": list(self.stages),
            "coefficients": [
                [list(self.coeffs[(j, l)]) for l in range(1, j)] for j in range(2, m + 1)
            ],
        }


def _nu(vec) -> int:
    return sum(vec) - (len(vec) + 1) * min(0, *vec)


def reference(t: Tower) -> dict:
    """Verdict, nu-sums, b-vectors and stage-relation degrees, computed
    from the b_{p,q} recursion without the program."""
    m = len(t.stages)
    b = {}
    sums = []
    for p in range(1, m):
        total = 0
        for q in range(1, m - p + 1):
            vec = list(t.coeffs[(p + q, p)])
            for r in range(1, q):
                mr = min(0, *b[(p, r)])
                vec = [v + mr * c for v, c in zip(vec, t.coeffs[(p + q, p + r)])]
            b[(p, q)] = vec
            total += _nu(vec)
        sums.append(total)
    lows = t.stages[:-1]
    if all(s <= n for s, n in zip(sums, lows)):
        verdict = "fano"
    elif all(s <= n + 1 for s, n in zip(sums, lows)):
        verdict = "weak_fano_not_fano"
    else:
        verdict = "not_weak_fano"
    degrees = [n + 1 - s for n, s in zip(lows, sums)] + [t.stages[-1] + 1]
    return {
        "verdict": verdict,
        "nu_sums": sums,
        "b_vectors": {f"{p},{q}": vec for (p, q), vec in sorted(b.items())},
        "degrees": degrees,
    }


def random_tower(stages, draw: Callable[[], int]) -> Tower:
    m = len(stages)
    coeffs = {
        (j, l): tuple(draw() for _ in range(stages[j - 1]))
        for j in range(2, m + 1)
        for l in range(1, j)
    }
    return Tower(tuple(stages), coeffs)


def acceptance_sample(rng: random.Random) -> list[Tower]:
    """A stratified sample of the repository's acceptance distribution: up
    to 4 stages, n_j <= 3, coefficients in -2..2.  The shapes are the same
    for every seed, in a seeded order; the seed draws the coefficients."""
    shapes = [
        stages
        for m, count in VERIFY_PER_SHAPE.items()
        for stages in product(range(1, 4), repeat=m)
        for _ in range(count)
    ]
    rng.shuffle(shapes)
    return [random_tower(stages, lambda: rng.randint(-2, 2)) for stages in shapes]


def one_per_verdict(rng: random.Random, stages) -> list[Tower]:
    """A seeded draw of one tower per verdict for the given shape.

    Each attempt picks a density d and makes each coefficient nonzero
    (one of -2, -1, 1, 2) with probability d, so that sparse Fano towers
    and dense non-weak-Fano towers are both found quickly.
    """
    found: dict[str, Tower] = {}
    while len(found) < len(VERDICTS):
        d = rng.random()
        t = random_tower(stages, lambda: rng.choice((-2, -1, 1, 2)) if rng.random() < d else 0)
        found.setdefault(reference(t)["verdict"], t)
    return [found[v] for v in VERDICTS]


# --- checks ------------------------------------------------------------------


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _expect(out: dict, **fields) -> str | None:
    for key, want in fields.items():
        if out.get(key) != want:
            return f"{key}: got {str(out.get(key))[:80]}, expected {str(want)[:80]}"
    return None


def check_tower(t: Tower, verified: bool) -> Callable[[dict], str | None]:
    ref = reference(t)

    def check(out: dict) -> str | None:
        fields = {
            "command": "check",
            "stages": list(t.stages),
            "verdict": ref["verdict"],
            "nu_sums": ref["nu_sums"],
            "b_vectors": ref["b_vectors"],
        }
        if verified:
            fields["verified"] = True
        return _expect(out, **fields)

    return check


def check_fan(t: Tower) -> Callable[[dict], str | None]:
    ref = reference(t)
    cones = 1
    for n in t.stages:
        cones *= n + 1

    def check(out: dict) -> str | None:
        relations = out.get("relations") or []
        got = {
            "command": out.get("command"),
            "rays": len(out.get("rays") or []),
            "max_cones": len(out.get("max_cones") or []),
            "collections": [r["collection"] for r in relations],
            "degrees": [r["degree"] for r in relations],
        }
        want = {
            "command": "fan",
            "rays": sum(t.stages) + len(t.stages),
            "max_cones": cones,
            "collections": [
                [[p, k] for k in range(n + 1)] for p, n in enumerate(t.stages, start=1)
            ],
            "degrees": ref["degrees"],
        }
        return _expect(got, **want)

    return check


def _bott_rows(beta: list[int], r: int) -> list[list[int]]:
    """The r x r Bott matrix whose strict upper triangle, row by row, is
    ``beta``."""
    rows = [[int(i == j) for j in range(r)] for i in range(r)]
    slots = [(i, j) for i in range(r) for j in range(i + 1, r)]
    for (i, j), v in zip(slots, beta):
        rows[i][j] = v
    return rows


def _bott_tower(rows: list[list[int]]) -> Tower:
    """a_{j,l} = -beta_{l,j}."""
    r = len(rows)
    return Tower(
        (1,) * r,
        {(j, l): (-rows[l - 1][j - 1],) for j in range(2, r + 1) for l in range(1, j)},
    )


def _line_stage_fano(towers: list[Tower]) -> str | None:
    """Re-check Bott-manifold Fano hits with the three-clause criterion."""
    from bottfano import GeneralizedBottTower, bott_fano

    for t in towers:
        if not bott_fano(GeneralizedBottTower(t.stages, t.coeffs)):
            return f"Fano hit {t.document()} fails the three-clause criterion"
    return None


def check_sweep(stages, mode, counts, hits, hits_sha) -> Callable[[dict], str | None]:
    total = sum(counts.values())

    def check(out: dict) -> str | None:
        got_hits = out.get("hits")
        err = _expect(
            {**out, "hits": len(got_hits or []), "hits_sha": _digest(got_hits)},
            command="enumerate", stages=list(stages), mode=mode, total=total,
            counts=counts, hits=hits, hits_sha=hits_sha,
        )
        if err or mode != "fano" or set(stages) != {1}:
            return err
        m = len(stages)
        slots = [(j, l) for j in range(2, m + 1) for l in range(1, j)]
        return _line_stage_fano(
            [Tower(tuple(stages), {jl: (v,) for jl, v in zip(slots, h)}) for h in got_hits]
        )

    return check


def check_chary(r, total, fano_not_chary, fano_not_chary_sha) -> Callable[[dict], str | None]:
    def check(out: dict) -> str | None:
        listed = out.get("fano_not_chary") or []
        err = _expect(
            {**out, "fano_not_chary": len(listed), "fano_not_chary_sha": _digest(listed)},
            command="chary_compare", r=r, total=total,
            # Chary's condition is sufficient for Fano: no counterexamples.
            chary_not_fano=[],
            fano_not_chary=fano_not_chary, fano_not_chary_sha=fano_not_chary_sha,
        )
        if err:
            return err
        from bottfano import BottMatrix, chary_condition

        rows = [_bott_rows(beta, r) for beta in listed]
        for beta, bm in zip(listed, rows):
            if chary_condition(BottMatrix(bm)):
                return f"beta {beta} is listed as failing Chary's condition but satisfies it"
        return _line_stage_fano([_bott_tower(bm) for bm in rows])

    return check


# --- workloads -----------------------------------------------------------------

#: Towers from the paper's worked examples, used by the coverage round.
FANO_4STAGE = Tower(
    (3, 2, 2, 2),
    {(2, 1): (-1, -1), (3, 1): (0, 0), (3, 2): (0, -1),
     (4, 1): (0, 2), (4, 2): (0, 1), (4, 3): (0, 1)},
)
NOT_WEAK_FANO_3STAGE = Tower(
    (3, 3, 2), {(2, 1): (0, -1, -1), (3, 1): (-4, -2), (3, 2): (-2, -1)}
)
HIRZEBRUCH_1 = Tower((1, 1), {(2, 1): (1,)})


def _machine(*argv: str) -> list[str]:
    return [*argv, "--format", "machine"]


def _write(workdir: Path, name: str, t: Tower) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(t.document()))
    return str(path)


def coverage_ops(workdir: Path) -> list[Op]:
    """A few small calls that reach every traced function once per pass, on
    every workload, and re-check Table 1 of the paper.  They are run and
    checked but kept out of the end-to-end metrics."""
    fano = _write(workdir, "cov_fano_4stage", FANO_4STAGE)
    nwf = _write(workdir, "cov_not_weak_fano_3stage", NOT_WEAK_FANO_3STAGE)
    hirz = _write(workdir, "cov_hirzebruch_1", HIRZEBRUCH_1)
    return [
        Op("coverage", _machine("check", "--verify", "--input", fano),
           check_tower(FANO_4STAGE, verified=True)),
        Op("coverage", _machine("check", "--input", nwf), check_tower(NOT_WEAK_FANO_3STAGE, False)),
        Op("coverage", _machine("fan", "--input", hirz), check_fan(HIRZEBRUCH_1)),
        Op("coverage",
           _machine("enumerate", "--stages", "1,1,1", "--range=-1:1", "--mode", "fano",
                    "--expect-table1"),
           check_sweep((1, 1, 1), "fano",
                       {"fano": 15, "not_weak_fano": 2, "weak_fano_not_fano": 10}, 15,
                       "bc42fb1018059f116a0008ae85cdb6b86f904c6c120ea3037a7cb92ac9a690c5")),
        Op("coverage", _machine("chary-compare", "--r", "3", "--range=-1:1"),
           check_chary(3, 27, 2,
                       "9bcd538598e3ec9e98a27f611c2fc1ad93826e377d02ff59f9ee13331fc51a70")),
    ]


def sweep_ops(workdir: Path, seed: int) -> list[Op]:
    """Fixed inputs: the seed changes nothing here."""
    return [
        Op("census",
           _machine("enumerate", "--stages", "1,1,2,1", "--range=-1:1", "--mode", "census"),
           check_sweep((1, 1, 2, 1), "census",
                       {"fano": 144, "not_weak_fano": 5497, "weak_fano_not_fano": 920}, 0,
                       _digest([])),
           work=3**8),
        Op("fano",
           _machine("enumerate", "--stages", "2,1,2,1", "--range=-1:1", "--mode", "fano"),
           check_sweep((2, 1, 2, 1), "fano",
                       {"fano": 455, "not_weak_fano": 4579, "weak_fano_not_fano": 1527}, 455,
                       "f4d1a6190c94b851ae606005ed8373cf7936766eb3d575bdbfd1df3ac60b2030"),
           work=3**8),
        Op("chary", _machine("chary-compare", "--r", "4", "--range=-1:1"),
           check_chary(4, 3**6, 32,
                       "de28bb839f6cdacf8cedd8cd980c5b3f72c6e5e547f562b0804bdec5ab7024d4"),
           work=3**6),
    ]


def verify_ops(workdir: Path, seed: int) -> list[Op]:
    rng = random.Random(f"verify:{seed}")
    ops = []
    for i, t in enumerate(acceptance_sample(rng)):
        path = _write(workdir, f"verify_{i:03d}", t)
        ops.append(Op("verify", _machine("check", "--verify", "--input", path),
                      check_tower(t, verified=True)))
    return ops


def large_ops(workdir: Path, seed: int) -> list[Op]:
    rng = random.Random(f"large:{seed}")
    big = random_tower((1,) * LARGE_FAN_STAGES, lambda: rng.randint(-1, 1))
    ops = [Op("large_fan", _machine("fan", "--input", _write(workdir, "large_fan", big)),
              check_fan(big))]
    for shape in LARGE_VERIFY_SHAPES:
        for t in one_per_verdict(rng, shape):
            name = f"large_verify_{'x'.join(map(str, shape))}_{reference(t)['verdict']}"
            ops.append(Op("large_verify",
                          _machine("check", "--verify", "--input", _write(workdir, name, t)),
                          check_tower(t, verified=True)))
    return ops


BUILDERS = {"sweep": sweep_ops, "verify": verify_ops, "large": large_ops}
