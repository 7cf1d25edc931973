"""Guard on the library surface: nothing module-level in ``src/qromlab``
exists only for the tests.

A module-level function or class, and a private (``_``-prefixed)
module-level constant, passes only when its own module uses it outside
its own definition or another module of the package (the package
``__init__`` aside) refers to it. An ``__all__`` entry does not count:
an export that nothing in the library calls is test-only API too.
Anything else belongs in a tests reference module.

The same holds for the methods and properties of every class: one
passes only when library code outside its own definition reads its
name. Dunders are exempt, and so is ``eval`` on the two hash families:
it is the per-key definition of a family, which the tests check
``_base_values`` and the independence claims against. A step type must
be built by library code: reading its name in an ``isinstance`` check
does not count.

Every field of a library dataclass or ``NamedTuple`` must be read as an
attribute somewhere in library code. The exemptions are result-record
fields that only callers and the tests read.
"""

import ast
import typing
from collections import Counter
from pathlib import Path

import qromlab
from qromlab import adversary

PACKAGE = Path(qromlab.__file__).parent


def _name_counts(node) -> Counter:
    """How often each identifier, attribute or imported name is read under
    ``node``."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            counts.update(alias.name for alias in sub.names)
    return counts


def _names_used(nodes) -> set[str]:
    """Identifiers read, attribute names and imported names under ``nodes``."""
    return set().union(*(_name_counts(top) for top in nodes))


def _defined_names(node) -> list[str]:
    """The names one module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _library_trees() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


# the per-key definition of each hash family, kept as the tests' reference
METHOD_EXEMPTIONS = {"hashfam.TableFamily.eval", "hashfam.PolynomialFamily.eval"}


def _unused_methods() -> list[str]:
    """Methods and properties of library classes whose name no library
    code reads outside their own definition; dunders are skipped."""
    trees = _library_trees()
    total = sum((_name_counts(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if total[name] - _name_counts(node)[name] <= 0:
                    unused.append(f"{module}.{cls.name}.{name}")
    return unused


# result-record fields that only callers and the tests read
FIELD_EXEMPTIONS = {
    "transforms.MarOutcome.points",
    "transforms.MarOutcome.consistent",
    "transforms.MarReport.schedules",
    "qsim.DensityOnRegister.register",
    "hashfam.AdjustingUnitary.target_transcript",
    "hashfam.AdjustingUnitary.variant",
}


def _is_record(cls: ast.ClassDef) -> bool:
    """A class decorated ``@dataclass`` (called or not) or built on
    ``NamedTuple``."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    marks += cls.bases
    return any(
        (isinstance(m, ast.Name) and m.id in ("dataclass", "NamedTuple"))
        or (isinstance(m, ast.Attribute) and m.attr in ("dataclass", "NamedTuple"))
        for m in marks
    )


def _unused_fields() -> list[str]:
    """Fields of library dataclasses and ``NamedTuple``s that no library
    code reads as an attribute."""
    trees = _library_trees()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unused = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_record(cls)):
                continue
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                        and node.target.id not in read):
                    unused.append(f"{module}.{cls.name}.{node.target.id}")
    return unused


def _unused_definitions() -> tuple[list[str], list[str]]:
    """(public, private) module-level definitions without a library user."""
    trees = _library_trees()
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


def test_every_method_has_a_library_reader():
    assert sorted(set(_unused_methods()) - METHOD_EXEMPTIONS) == []
    assert METHOD_EXEMPTIONS <= set(_unused_methods())  # drop an exemption once read


def test_every_field_has_a_library_reader():
    assert sorted(set(_unused_fields()) - FIELD_EXEMPTIONS) == []
    assert FIELD_EXEMPTIONS <= set(_unused_fields())  # drop an exemption once read


def test_every_step_type_is_built_by_library_code():
    """Each member of ``adversary.Step`` is constructed, as a call,
    somewhere in the library: a step type that only ``isinstance`` reads
    is dead, since no library run can meet it."""
    built = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for tree in _library_trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    members = {step.__name__ for step in typing.get_args(adversary.Step)}
    assert len(members) > 1
    assert sorted(members - built) == []
