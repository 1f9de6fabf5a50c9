"""Property tests of ``main()``: every input ends in a documented exit
code, never in a traceback.

Sizes are bounded so that each call stays small: at most 4 stages, stage
dimensions at most 3, and sweeps under a small ``--cap``.
"""

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings, strategies as st

from bottfano.cli import main
from bottfano.enumeration import SWEEP_MODES

EXIT_CODES = {0, 1, 2, 3}

small_ints = st.integers(-3, 3)

# Any JSON value; integers stay small, since a stage dimension read from
# such a document sizes the fan that `check --verify` and `fan` build.
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)

# JSON objects with the two keys present but their contents arbitrary.
near_documents = st.fixed_dictionaries({"stages": json_values, "coefficients": json_values})


@st.composite
def towers(draw):
    """Well-formed tower documents."""
    stages = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    coefficients = [
        [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(j)]
        for j, n in enumerate(stages[1:], start=1)
    ]
    return {"stages": stages, "coefficients": coefficients}


document_commands = st.sampled_from(
    [["check"], ["check", "--verify"], ["fan"], ["fan", "--relations-only"], ["relations"]]
)
formats = st.sampled_from(["human", "machine"])


def call(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented(argv, code, out, err):
    assert code in EXIT_CODES, (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code in (2, 3):
        assert err.count("\n") == 1, (argv, err)
    if code == 0 and "machine" in argv:
        assert isinstance(json.loads(out), dict), (argv, out)


@settings(max_examples=150, deadline=None)
@given(doc=json_values | near_documents, command=document_commands, fmt=formats)
def test_arbitrary_documents(doc, command, fmt):
    argv = [*command, "--format", fmt]
    assert_documented(argv, *call(argv, json.dumps(doc)))


@settings(max_examples=60, deadline=None)
@given(doc=towers(), command=document_commands, fmt=formats)
def test_well_formed_towers(doc, command, fmt):
    argv = [*command, "--format", fmt]
    code, out, err = call(argv, json.dumps(doc))
    assert_documented(argv, code, out, err)
    assert code == 0, (doc, argv, err)


def mostly(good, junk):
    """Values from ``good`` four times in five, else from ``junk``."""
    return st.integers(0, 4).flatmap(lambda i: good if i else junk)


ranges = mostly(
    st.tuples(small_ints, small_ints).map(lambda r: f"{r[0]}:{r[1]}"), st.text(max_size=4)
)
caps = mostly(st.integers(-2, 300).map(str), st.text(max_size=3))


@st.composite
def options(draw, choices):
    """Each option present or not (a required one nine times in ten), in
    any order, then sometimes a stray token."""
    argv = []
    for flag, values, required in choices:
        present = st.integers(0, 9).map(bool) if required else st.booleans()
        if draw(present):
            argv.append(flag if values is None else f"{flag}={draw(values)}")
    argv = draw(st.permutations(argv))
    return argv + draw(st.sampled_from([[], [], [], ["--bogus"], ["x"], ["-"]]))


stage_lists = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(
    lambda s: ",".join(map(str, s))
)
bad_stages = st.sampled_from(["", "0", "1,-1", "1;1"]) | st.text(max_size=4)

enumerate_options = options([
    ("--stages", mostly(stage_lists, bad_stages), True),
    ("--range", ranges, True),
    ("--mode", mostly(st.sampled_from(SWEEP_MODES), st.just("all")), False),
    ("--cap", caps, False),
    ("--format", formats, False),
    ("--expect-table1", None, False),
])

chary_options = options([
    ("--r", mostly(st.integers(-1, 5).map(str), st.sampled_from(["", "x", "2.5", "0x3"])), True),
    ("--range", ranges, True),
    ("--cap", caps, False),
    ("--format", formats, False),
])


@settings(max_examples=150, deadline=None)
@given(argv=st.one_of(
    enumerate_options.map(lambda a: ["enumerate", *a]),
    chary_options.map(lambda a: ["chary-compare", *a]),
))
def test_sweep_arguments(argv):
    assert_documented(argv, *call(argv))
