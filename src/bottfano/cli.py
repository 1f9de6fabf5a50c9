"""Command-line front end.

Tower documents are JSON::

    {"stages": [n_1, ..., n_m],
     "coefficients": [ [a_{2,1}], [a_{3,1}, a_{3,2}], ... ]}

where ``coefficients[j-2][l-1]`` is the list of the n_j integers of
a_{j,l}.  Exit codes: 0 command succeeded (whatever the verdict),
1 usage/parse error, 2 validation error, 3 expectation or oracle failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain

from . import enumeration, fan as fanmod, oracle as oraclemod, tower as towermod
from .enumeration import FANO_THREE_STAGE_TRIPLES, SweepError, SweepSpec
from .oracle import FanError
from .tower import GeneralizedBottTower, TowerError, Verdict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_EXPECTATION = 3


class UsageError(Exception):
    pass


class ExpectationError(Exception):
    pass


def parse_document(text: str) -> GeneralizedBottTower:
    """Parse a JSON tower document and check its shape, citing (j,l) paths;
    the tower checks stage values, vector lengths and entries."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        # a JSONDecodeError, an integer literal longer than the interpreter's
        # int-string conversion limit, or nesting past the recursion limit
        raise UsageError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise UsageError("document must be a JSON object")
    stages = doc.get("stages")
    if not isinstance(stages, list) or not stages:
        raise TowerError("'stages' must be a nonempty array of positive integers")
    m = len(stages)
    coefficients = doc.get("coefficients", [])
    if not isinstance(coefficients, list):
        raise TowerError("'coefficients' must be an array")
    if len(coefficients) != m - 1:
        raise TowerError(
            f"'coefficients' must have {m - 1} entries (j=2..{m}), got {len(coefficients)}"
        )
    coeffs: dict[tuple[int, int], tuple[int, ...]] = {}
    for j in range(2, m + 1):
        row = coefficients[j - 2]
        if not isinstance(row, list) or len(row) != j - 1:
            raise TowerError(
                f"coefficients[j={j}] must be an array of {j - 1} vectors (l=1..{j - 1})"
            )
        for l in range(1, j):
            vec = row[l - 1]
            if not isinstance(vec, list):
                raise TowerError(f"coefficients[j={j}][l={l}] must be an array of n_{j} integers")
            coeffs[(j, l)] = tuple(vec)
    return GeneralizedBottTower(tuple(stages), coeffs)


def _read_input(args) -> str:
    try:
        if args.input != "-":  # only "-" means stdin: an empty path is a path
            with open(args.input, encoding="utf-8") as fh:
                return fh.read()
        return sys.stdin.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {args.input}: {e}") from e


def _label(lab) -> str:
    return f"u[{lab[0]},{lab[1]}]"


def _relation_to_json(pr: oraclemod.PrimitiveCollectionData) -> dict:
    return {
        "collection": [list(lab) for lab in sorted(pr.members)],
        "rhs": [[list(lab), c] for lab, c in sorted(pr.relation_rhs.items())],
        "degree": pr.degree,
    }


def _emit(report: dict, args, human_lines) -> None:
    if args.format == "machine":
        # every report is a fresh tree, so no reference cycle need be looked for
        print(json.dumps(report, sort_keys=True, check_circular=False))
    else:
        for line in human_lines:
            print(line)


def _require_printable(numbers) -> None:
    """Refuse, before anything is printed, output holding an int that
    ``str`` refuses: parsing bounds the input integers, but the b-vectors
    and nu-sums computed from them can be far longer."""
    try:
        str(max(map(abs, numbers), default=0))
    except ValueError:
        raise TowerError(f"this tower's output would hold an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits, too long to print") from None


def cmd_check(args) -> int:
    t = parse_document(_read_input(args))
    cls = towermod.classify(t)
    _require_printable(chain(cls.nu_sums, chain.from_iterable(cls.thresholds),
                             chain.from_iterable(cls.b_vectors.values())))
    b_vectors = sorted(cls.b_vectors.items())
    report = {
        "command": "check",
        "stages": t.stage_dims,
        "verdict": cls.verdict.value,
        "nu_sums": cls.nu_sums,
        "thresholds": cls.thresholds,
        "b_vectors": {f"{p},{q}": vec for (p, q), vec in b_vectors},
    }
    lines = _check_lines(cls, b_vectors)
    if args.verify:
        f = fanmod.build_fan(t)
        oraclemod.validate_smooth_complete(f)
        oracle = oraclemod.batyrev_classify(f)
        # the closed form's stage degrees (n_m + 1 at p = m): equal maps give equal verdicts
        closed = {
            fanmod.collection_for_stage(t, p): n + 1 - s
            for p, (n, s) in enumerate(zip(t.stage_dims, cls.nu_sums + (0,)), start=1)
        }
        report["verified"] = closed == oracle.degrees
        if not report["verified"]:
            pc = min((pc for pc in closed.keys() | oracle.degrees.keys()
                      if closed.get(pc) != oracle.degrees.get(pc)), key=sorted)
            want, got = closed.get(pc), oracle.degrees.get(pc)
            # null in the machine output, None in the text, for a side that lacks pc
            report["mismatch"] = {"collection": [list(lab) for lab in sorted(pc)],
                                  "closed_form": want, "fan_criterion": got}
            mismatch = (f"degrees disagree on {{{', '.join(map(_label, sorted(pc)))}}}: "
                        f"closed form {want}, fan criterion {got}")
            _emit(report, args, chain(lines, [
                f"VERIFY FAILED: fan criterion says {oracle.verdict.value}; {mismatch}"
            ]))
            raise ExpectationError(mismatch)
        lines = chain(lines, ["verify: fan criterion agrees"])
    _emit(report, args, lines)
    return EXIT_OK


def _check_lines(cls: towermod.Classification, b_vectors):
    """Human output of ``check``, formatted only as it is printed."""
    yield f"verdict: {cls.verdict.value}"
    for p, (s, (lo, hi)) in enumerate(zip(cls.nu_sums, cls.thresholds), start=1):
        yield f"  p={p}: sum of nu(b[{p},q]) = {s}  (Fano <= {lo}, weak Fano <= {hi})"
    for (p, q), vec in b_vectors:
        yield f"  b[{p},{q}] = {list(vec)}"


def cmd_fan(args) -> int:
    t = parse_document(_read_input(args))
    # the size check first: a stage past the fan limit can be too wide to list its collection
    fanmod.check_fan_size(t)
    b = towermod.compute_b(t)
    relations = [
        fanmod.expected_primitive_relation(t, b, p) for p in range(1, t.num_stages + 1)
    ]
    _require_printable(chain.from_iterable((*pr.relation_rhs.values(), pr.degree) for pr in relations))
    f = fanmod.build_fan(t)
    oraclemod.validate_smooth_complete(f)
    report = {
        "command": "fan",
        "stages": list(t.stage_dims),
        "relations": [_relation_to_json(pr) for pr in relations],
    }
    if not args.relations_only:
        report["rays"] = [[list(lab), list(vec)] for lab, vec in zip(f.labels, f.rays)]
        report["max_cones"] = f.max_cones
    _emit(report, args, _fan_lines(f, relations, args.relations_only))
    return EXIT_OK


def _fan_lines(f: oraclemod.Fan, relations, relations_only: bool):
    """Human output of ``fan``, formatted only as it is printed."""
    if not relations_only:
        labels = [_label(lab) for lab in f.labels]
        yield f"rays ({len(f.rays)}):"
        for lab, vec in zip(labels, f.rays):
            yield f"  {lab} = {list(vec)}"
        yield f"maximal cones ({len(f.max_cones)}):"
        for cone in f.max_cones:
            yield "  {" + ", ".join(map(labels.__getitem__, cone)) + "}"
    yield f"primitive collections ({len(relations)}):"
    for pr in relations:
        lhs = " + ".join(_label(lab) for lab in sorted(pr.members))
        rhs = " + ".join(
            f"{c}*{_label(lab)}" for lab, c in sorted(pr.relation_rhs.items())
        ) or "0"
        yield f"  {lhs} = {rhs}   (degree {pr.degree})"


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as e:
        raise UsageError(f"invalid range {text!r}; expected lo:hi") from e


def _parse_stages(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError as e:
        raise UsageError(f"invalid stages {text!r}; expected comma-separated integers") from e


def cmd_enumerate(args) -> int:
    stages = _parse_stages(args.stages)
    rng = _parse_range(args.range)
    if args.expect_table1 and (stages != (1, 1, 1) or args.mode != "fano"):
        raise UsageError("--expect-table1 requires --stages 1,1,1 --mode fano")
    spec = SweepSpec(stage_dims=stages, coeff_range=rng, mode=args.mode, cap=args.cap)
    result = enumeration.sweep(spec)
    report = {
        "command": "enumerate",
        "stages": stages,
        "range": rng,
        "mode": args.mode,
        "total": result.total,
        "counts": result.counts,
        "slots": result.slots,
        "hits": result.hits,
    }
    _emit(report, args, _enumerate_lines(result, args.mode))
    if args.expect_table1 and set(result.hits) != FANO_THREE_STAGE_TRIPLES:
        raise ExpectationError(
            f"Fano hit set has {len(result.hits)} triples, "
            f"expected the {len(FANO_THREE_STAGE_TRIPLES)} known ones"
        )
    return EXIT_OK


def cmd_chary_compare(args) -> int:
    rng = _parse_range(args.range)
    result = enumeration.chary_compare(args.r, rng, cap=args.cap)
    report = {
        "command": "chary_compare",
        "r": args.r,
        "range": rng,
        "total": result.total,
        "chary_not_fano": result.chary_not_fano,
        "fano_not_chary": result.fano_not_chary,
    }
    _emit(report, args, _chary_lines(result))
    return EXIT_OK


def _enumerate_lines(result: enumeration.SweepReport, mode: str):
    """Human output of ``enumerate``, formatted only as it is printed."""
    yield f"candidates: {result.total}"
    yield "counts: " + ", ".join(f"{k}={v}" for k, v in sorted(result.counts.items()))
    if mode != "census":
        yield f"hits ({len(result.hits)}), slots (j,l,k) = {list(result.slots)}:"
        for h in result.hits:
            yield f"  {list(h)}"


def _chary_lines(result: enumeration.CharyCompareReport):
    """Human output of ``chary-compare``, formatted only as it is printed."""
    yield f"candidates: {result.total}"
    yield f"Chary holds but not Fano: {len(result.chary_not_fano)}"
    yield f"Fano but Chary fails: {len(result.fano_not_chary)}"
    for v in result.fano_not_chary:
        yield f"  beta = {list(v)}"


@functools.cache
def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by name, built
    on first use and reused: building them costs more than a small
    ``check``."""
    parser = argparse.ArgumentParser(
        prog="bottfano",
        description="Decide whether a generalized Bott manifold is Fano or weak Fano.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", default="-", help="tower document path, or - for stdin")
        p.add_argument("--format", choices=("human", "machine"), default="human")

    p_check = sub.add_parser("check", help="classify a tower document")
    add_io(p_check)
    p_check.add_argument(
        "--verify", action="store_true",
        help="also run the fan-based degree criterion and require agreement",
    )
    p_check.set_defaults(func=cmd_check)

    p_fan = sub.add_parser("fan", help="print rays, maximal cones and primitive relations")
    add_io(p_fan)
    p_fan.add_argument("--relations-only", action="store_true")
    p_fan.set_defaults(func=cmd_fan)

    p_rel = sub.add_parser("relations", help="print primitive relations only")
    add_io(p_rel)
    p_rel.set_defaults(func=cmd_fan, relations_only=True)

    p_enum = sub.add_parser("enumerate", help="sweep coefficient ranges exhaustively")
    p_enum.add_argument("--stages", required=True, help="comma-separated n_1,...,n_m")
    p_enum.add_argument("--range", required=True, help="inclusive coefficient range lo:hi")
    p_enum.add_argument("--mode", choices=enumeration.SWEEP_MODES, default="census")
    p_enum.add_argument("--cap", type=int, default=enumeration.DEFAULT_CAP)
    p_enum.add_argument("--format", choices=("human", "machine"), default="human")
    p_enum.add_argument(
        "--expect-table1", action="store_true",
        help="fail unless the Fano hits for stages 1,1,1 are exactly the 15 known triples",
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_chary = sub.add_parser("chary-compare", help="compare Chary's condition with the Fano verdict")
    p_chary.add_argument("--r", type=int, required=True, help="matrix size / number of stages")
    p_chary.add_argument("--range", required=True, help="inclusive off-diagonal range lo:hi")
    p_chary.add_argument("--cap", type=int, default=enumeration.DEFAULT_CAP)
    p_chary.add_argument("--format", choices=("human", "machine"), default="human")
    p_chary.set_defaults(func=cmd_chary_compare)

    return parser, sub.choices


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as the top-level parser parses it, with the same
    output and ``SystemExit``.  A call that starts with a command goes
    straight to that command's parser, which the top-level parser would
    hand the rest of the arguments to; every other call, and one that
    leaves arguments over, goes to the top-level parser, so that its usage
    and error text stay those of the top level."""
    parser, commands = build_parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (TowerError, FanError, SweepError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ExpectationError as e:
        print(f"expectation failed: {e}", file=sys.stderr)
        return EXIT_EXPECTATION


if __name__ == "__main__":
    sys.exit(main())
