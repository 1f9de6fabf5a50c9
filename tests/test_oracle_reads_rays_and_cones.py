"""The fan oracle reads rays and cones, never the stage structure.

Parses ``fan.py`` and ``lattice.py`` and walks each definition of the
oracle, nested functions included.  It fails on a use of the tower side
(the tower type, the fan builder, the closed-form relations, the b-vectors
and nu-sums) or of a tower's stage attributes.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bottfano"

ORACLE = {
    "fan.py": {
        "Fan", "PrimitiveCollectionData", "validate_smooth_complete", "primitive_collections",
        "primitive_collections_bruteforce", "_cone_coordinates", "primitive_relation",
        "batyrev_classify",
    },
    "lattice.py": {"first_non_unimodular", "_next_rows"},
}

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


def oracle_definitions(module: str) -> dict[str, ast.AST]:
    """The module's top-level definitions that belong to the oracle, by name."""
    tree = ast.parse((PACKAGE / module).read_text(), module)
    return {
        node.name: node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in ORACLE[module]
    }


@pytest.mark.parametrize("module", sorted(ORACLE))
def test_every_oracle_definition_found(module):
    # a renamed or moved definition would otherwise pass unchecked
    assert set(oracle_definitions(module)) == ORACLE[module]


@pytest.mark.parametrize("module, name", sorted((m, n) for m, names in ORACLE.items() for n in names))
def test_oracle_reads_rays_and_cones(module, name):
    assert tower_references(oracle_definitions(module)[name]) == []


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
