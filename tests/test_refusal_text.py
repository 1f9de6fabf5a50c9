"""Every refusal shows its values through ``lattice.shown``.

``str`` refuses an int of more than 4,300 digits (as few as 640 under
PYTHONINTMAXSTRDIGITS), so a refusal that formats such an int raw ends in
a bare ``ValueError`` in place of its own error.  Parses each module of
``src/bottfano`` and fails on a value formatted into an f-string of a
``raise`` other than by a ``shown(...)`` call.  Also allowed are values
that are small by construction: ``len(...)``, ``.bit_count()``,
``type(...).__name__`` and module constants in capitals, and the entries
of ``BOUNDED``, each with the reason its value always prints.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bottfano").glob("*.py"))

#: (module, enclosing function, formatted expression) -> why the value always prints
BOUNDED = {
    ("cli.py", "parse_document", "e"): "the text of json's own error",
    ("cli.py", "parse_document", "m"): "m = len(stages)",
    ("cli.py", "parse_document", "m - 1"): "m = len(stages)",
    ("cli.py", "parse_document", "j"): "loop index over 2..m",
    ("cli.py", "parse_document", "j - 1"): "loop index over 2..m",
    ("cli.py", "parse_document", "l"): "loop index over 1..j-1",
    ("cli.py", "_read_input", "args.input"): "a path given on the command line",
    ("cli.py", "_read_input", "e"): "the text of an OSError or UnicodeDecodeError",
    ("enumeration.py", "_check_extent", "power"): "built from shown(width) and nslots <= SLOT_WORK_LIMIT",
    ("enumeration.py", "_check_extent", "count"): "power, or built by shown",
    ("fan.py", "check_fan_size", "size"): "built by shown, with dim <= FAN_WORK_LIMIT",
    ("fan.py", "_check_stage", "m"): "a tower's stage count, len(stage_dims)",
    ("fan.py", "wall_relation", "p"): "checked by _check_stage to lie in 1..m",
    ("oracle.py", "__init__", "name"): "one of the three field names looped over",
    ("oracle.py", "__init__", "i"): "loop index over the rays",
    ("oracle.py", "__init__", "self.index[lab]"): "an index of the rays",
    ("oracle.py", "__init__", "c"): "loop index over the maximal cones",
    ("oracle.py", "__init__", "nrays - 1"): "nrays = len(self.rays)",
    ("oracle.py", "validate_smooth_complete", "bad"): "an index of the maximal cones",
    ("oracle.py", "validate_smooth_complete", "sized"): "an index of the maximal cones",
    ("oracle.py", "validate_smooth_complete", "count"): "at most the number of maximal cones",
    ("oracle.py", "primitive_collections_bruteforce", "nrays"): "nrays = len(f.rays)",
    ("oracle.py", "_cone_coordinates", "n"): "n = len(target)",
    ("tower.py", "__post_init__", "r"): "r = len(self.beta)",
    ("tower.py", "__post_init__", "i + 1"): "loop index over the rows",
    ("tower.py", "__post_init__", "j + 1"): "loop index over the columns left of the diagonal",
    ("tower.py", "validate", "j"): "a stage index in 1..m: enumerate's, or a checked key's",
    ("tower.py", "validate", "l"): "a checked key's column in 1..j-1",
    ("tower.py", "validate", "k"): "loop index over a coefficient vector",
}


def _small(value: ast.expr) -> bool:
    """``shown(...)``, ``len(...)``, ``x.bit_count()``, ``type(x).__name__``
    or a name in capitals."""
    if isinstance(value, ast.Call):
        func = value.func
        return ((isinstance(func, ast.Name) and func.id in ("shown", "len"))
                or (isinstance(func, ast.Attribute) and func.attr == "bit_count" and not value.args))
    if isinstance(value, ast.Attribute):
        inner = value.value
        return (value.attr == "__name__" and isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name) and inner.func.id == "type")
    return isinstance(value, ast.Name) and value.id.isupper()


def raw_values(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(enclosing function, expression, line) of every value formatted into
    a raised f-string that ``_small`` does not admit."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, ast.Raise):
                found.extend((function, ast.unparse(sub.value), child.lineno)
                             for sub in ast.walk(child)
                             if isinstance(sub, ast.FormattedValue) and not _small(sub.value))
            else:
                visit(child, function)

    visit(tree, "<module>")
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"lattice.py", "tower.py", "fan.py", "oracle.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_refusals_format_values_through_shown(path):
    found = raw_values(ast.parse(path.read_text(), str(path)))
    assert [(f, e, line) for f, e, line in found if (path.name, f, e) not in BOUNDED] == []


def test_every_bounded_entry_is_used():
    used = {(p.name, f, e) for p in SOURCES for f, e, _ in raw_values(ast.parse(p.read_text()))}
    assert set(BOUNDED) - used == set()


@pytest.mark.parametrize("snippet, raw", [
    ("raise E(f'{x}')", ["x"]),
    ("raise E(f'{x!r} and {y + 1}')", ["x", "y + 1"]),
    ("raise E(f'{x:>{w}}')", ["x", "w"]),
    ("raise E('a' f'{x[0]}') from None", ["x[0]"]),
    ("def g():\n    raise E(f'{shown(x)} {len(x)} {m.bit_count()} {type(x).__name__} {LIMIT}')", []),
    ("raise E(f'{str(x)}')", ["str(x)"]),
    ("raise E(f'{type(x)}')", ["type(x)"]),
    ("y = f'{x}'", []),
])
def test_guard_catches(snippet, raw):
    assert [e for _, e, _ in raw_values(ast.parse(snippet))] == raw
