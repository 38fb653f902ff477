"""The package ships only what the program runs: every public module-level
function or class in src/slmatch is named by some module other than
__init__, so no name exists just for the exports and the tests."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "slmatch"

# driven from outside the package: the benchmark's tracer and the console
# script
ENTRY_POINTS = {"generate.all_connected", "generate.sample_connected", "cli.run"}


def test_every_public_name_is_used_by_the_program():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for module, tree in trees.items()
        if module != "__init__"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    defined = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert len(defined) > 40 and ENTRY_POINTS <= set(defined)
    unused = [
        name for name in defined if name.split(".")[1] not in used and name not in ENTRY_POINTS
    ]
    assert unused == []
