"""Code with no caller is deleted: every public module-level function and
class of the package is named somewhere in the package or its scripts
outside its own definition. A name that only tests use belongs in the
tests."""

import ast
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "harmonizer"


def _names(tree: ast.AST) -> Counter:
    """How often each name is read or written in `tree` as an `ast.Name`
    or an `ast.Attribute`."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_definition_has_a_caller():
    modules = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    scripts = [ast.parse(path.read_text(encoding="utf-8"), str(path))
               for path in sorted((REPO / "scripts").glob("*.py"))]
    named = sum(map(_names, [*modules.values(), *scripts]), Counter())
    uncalled = [f"{path.stem}.{node.name}"
                for path, tree in modules.items() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
                and not node.name.startswith("_")
                and named[node.name] == _names(node)[node.name]]
    assert uncalled == []
