"""Guard on the library surface: nothing module-level in ``src/qromlab``
exists only for the tests.

A module-level function or class, and a private (``_``-prefixed)
module-level constant, passes only when its own module uses it outside
its own definition or another module of the package (the package
``__init__`` aside) refers to it. An ``__all__`` entry does not count:
an export that nothing in the library calls is test-only API too.
Anything else belongs in a tests reference module.
"""

import ast
from pathlib import Path

import qromlab

PACKAGE = Path(qromlab.__file__).parent


def _names_used(nodes) -> set[str]:
    """Identifiers read, attribute names and imported names under ``nodes``."""
    used = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def _defined_names(node) -> list[str]:
    """The names one module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _unused_definitions() -> tuple[list[str], list[str]]:
    """(public, private) module-level definitions without a library user."""
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    public, private = [], []
    for module, tree in trees.items():
        elsewhere = set().union(
            *(_names_used(t.body) for m, t in trees.items() if m != module)
        )
        for node in tree.body:
            own = _names_used(n for n in tree.body if n is not node)
            for name in _defined_names(node):
                if name.startswith("__") or name in own | elsewhere:
                    continue
                if name.startswith("_"):
                    private.append(f"{module}.{name}")
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    public.append(f"{module}.{name}")
    return public, private


def test_every_public_definition_has_a_library_caller():
    assert _unused_definitions()[0] == []


def test_every_private_definition_has_a_library_caller():
    assert _unused_definitions()[1] == []
