"""Guard on the library surface: no public function or class in
``src/qromlab`` exists only for the tests.

A public module-level function or class passes when its own module uses
it outside its own definition, when another module of the package (the
package ``__init__`` aside) refers to it, or when ``qromlab.__all__``
exports it. Anything else is test-only API and belongs in a tests
reference module.
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


def _unused_public_definitions() -> list[str]:
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    exported = set(qromlab.__all__)
    unused = []
    for module, tree in trees.items():
        elsewhere = set().union(
            *(_names_used(t.body) for m, t in trees.items() if m != module)
        )
        defs = (ast.FunctionDef, ast.ClassDef)
        for node in tree.body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            own = _names_used(n for n in tree.body if n is not node)
            if node.name not in own | elsewhere | exported:
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_definition_has_a_library_caller():
    assert _unused_public_definitions() == []
