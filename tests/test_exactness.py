"""Every verdict is exact: the package uses Python ints only.

Parses each module of ``src/bottfano`` and fails on true division
(``/`` or ``/=``), a float literal, any use of the name ``float``, or an
import of ``fractions``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bottfano").glob("*.py"))


def inexact_nodes(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: use of float")
        elif isinstance(node, ast.Import) and any(
            a.name.split(".")[0] == "fractions" for a in node.names
        ):
            found.append(f"{where}: import of fractions")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
            found.append(f"{where}: import from fractions")
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"lattice.py", "tower.py", "fan.py", "enumeration.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_is_integer_only(path):
    assert inexact_nodes(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("snippet", [
    "x = a / b",
    "x /= 2",
    "x = 0.5",
    "x = 1e3",
    "x = float(y)",
    "from fractions import Fraction",
    "import fractions",
])
def test_guard_catches(snippet):
    assert inexact_nodes(ast.parse(snippet))
