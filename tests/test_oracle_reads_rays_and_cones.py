"""The fan oracle reads rays and cones, never the stage structure.

Parses ``oracle.py`` and ``lattice.py``.  Every top-level statement of
``oracle.py`` is walked, nested functions included, and so are the two
definitions of ``lattice.py`` that the oracle uses.  The walk fails on a
use of the tower side (the tower type, the fan builder, the closed-form
relations, the b-vectors and nu-sums) or of a tower's stage attributes.
``oracle.py`` may import from the package only the exact elimination and
the refusal text ``shown`` of ``lattice`` and the verdict types of
``tower``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bottfano"

#: the definitions of ``lattice.py`` that the oracle uses; the rest serve the closed form
LATTICE_ORACLE = {"first_non_unimodular", "_next_rows", "shown"}

#: every package import ``oracle.py`` may make, as ``package_imports`` lists them
ORACLE_IMPORTS = [
    "lattice: IntVec", "lattice: _next_rows", "lattice: first_non_unimodular", "lattice: shown",
    "tower: Classification", "tower: Verdict",
]

TOWER_NAMES = {
    "GeneralizedBottTower", "build_fan", "check_fan_size", "collection_for_stage",
    "expected_primitive_relation", "wall_relation", "signed_relation", "WallData",
    "compute_b", "classify", "mu", "nu",
}

STAGE_ATTRIBUTES = {"stage_dims", "num_stages", "coeffs"}


def tower_references(tree: ast.AST) -> list[str]:
    """Each use, under ``tree``, of a tower-side name or stage attribute."""
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Name) and node.id in TOWER_NAMES:
            found.append(f"{where}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in TOWER_NAMES | STAGE_ATTRIBUTES:
            found.append(f"{where}: .{node.attr}")
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in TOWER_NAMES:
            found.append(f"{where}: import of {node.name}")
    return found


def package_imports(tree: ast.AST) -> list[str]:
    """Each import of the package under ``tree``, sorted: ``module: name``
    for ``from .module import name``, ``.: name`` for ``from . import
    name``, and the dotted name for an absolute import of ``bottfano``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found += [f"{node.module or '.'}: {a.name}" for a in node.names]
            elif (node.module or "").split(".")[0] == "bottfano":
                found += [f"{node.module}: {a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "bottfano"]
    return sorted(found)


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / module).read_text(), module)


def top_level(module: str) -> dict[str, ast.stmt]:
    """The module's top-level statements but its docstring and imports,
    keyed by the name each defines, or by its line."""
    found = {}
    for node in parse(module).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            found[node.targets[0].id] = node
        else:
            found[f"line {node.lineno}"] = node
    return found


ORACLE = {
    "oracle.py": top_level("oracle.py"),
    "lattice.py": {k: v for k, v in top_level("lattice.py").items() if k in LATTICE_ORACLE},
}


def test_every_oracle_definition_found():
    # a renamed or moved lattice definition would otherwise pass unchecked; oracle.py is
    # walked whole
    assert set(ORACLE["lattice.py"]) == LATTICE_ORACLE


@pytest.mark.parametrize("module, name", sorted((m, n) for m, defs in ORACLE.items() for n in defs))
def test_oracle_reads_rays_and_cones(module, name):
    assert tower_references(ORACLE[module][name]) == []


def test_oracle_imports_only_elimination_and_verdicts():
    assert package_imports(parse("oracle.py")) == ORACLE_IMPORTS


@pytest.mark.parametrize("snippet", [
    "def f(t):\n    return GeneralizedBottTower(t.dims, {})",
    "def f(t):\n    return fanmod.build_fan(t)",
    "def f(rays):\n    def g(x):\n        return nu(x) + mu(x)\n    return g",
    "def f(t):\n    return len(t.stage_dims)",
    "def f(t):\n    return t.num_stages",
    "def f(t):\n    return t.coeffs[(2, 1)]",
    "def f(t, p):\n    from .tower import compute_b\n    return compute_b(t)",
    "class C:\n    def degree(self, t):\n        return classify(t).verdict",
    "def f(pr):\n    return signed_relation(pr) or WallData",
])
def test_checker_flags_tower_references(snippet):
    assert tower_references(ast.parse(snippet))


@pytest.mark.parametrize("snippet", [
    "from .fan import build_fan",
    "from .enumeration import shown",
    "from . import tower",
    "from .tower import GeneralizedBottTower",
    "import bottfano.fan",
    "from bottfano.lattice import IntVec",
    "def f(t):\n    from .tower import classify\n    return classify(t)",
])
def test_checker_flags_other_package_imports(snippet):
    assert not set(package_imports(ast.parse(snippet))) <= set(ORACLE_IMPORTS)


def test_checker_passes_the_allowed_imports():
    snippet = "from .lattice import IntVec, first_non_unimodular\nfrom .tower import Verdict"
    assert package_imports(ast.parse(snippet)) == ["lattice: IntVec", "lattice: first_non_unimodular",
                                                     "tower: Verdict"]
