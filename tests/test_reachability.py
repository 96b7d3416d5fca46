"""Every top-level definition of the library is reached from what runs.

The roots are the names that the command line (``cli.py``), the package
exports (``__init__.py``), the acceptance criteria and the benchmark
scripts use.  From them the scan follows names, through the syntax tree,
to the top-level definitions of ``src/matstab/*.py``: a definition is
reached when a reached definition uses its name.  Names are matched
without their module, which can only over-count what is reached.

A definition that nothing reaches either gets a check-table row or is
deleted; the few kept on purpose are listed in ``KEEP`` with a reason.

The shared test helpers in ``tests/conftest.py`` follow the same rule,
with the test modules as roots: a helper that no test uses, by name or
as a fixture argument, fails the suite.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "matstab"
TESTS = ROOT / "tests"
ROOT_FILES = [LIBRARY / "cli.py", LIBRARY / "__init__.py",
              TESTS / "test_acceptance.py",
              *sorted((ROOT / "perfbench").glob("*.py"))]

KEEP = {
    "sample_g": "public one-draw sampler; the class tests draw through it",
    "hadamard_p_test": "waits for the dual witness of diagonal stability",
    "_p_matrix_violation": "reached only from hadamard_p_test",
    "HADAMARD_P_CAP": "reached only from hadamard_p_test",
}


def names_used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def top_level_definitions(paths):
    """Map each defined name to the nodes that define it, in any module."""
    defs = {}
    for path in paths:
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in targets:
                if name != "__all__":
                    defs.setdefault(name, []).append(node)
    return defs


def unreached_from(defs, todo):
    """The names of ``defs`` that the names in ``todo`` do not reach."""
    reached = set()
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for node in defs[name]:
            todo |= names_used(node)
    return set(defs) - reached


def unreached():
    todo = set()
    for path in ROOT_FILES:
        todo |= names_used(parse(path))
    return unreached_from(top_level_definitions(sorted(LIBRARY.glob("*.py"))),
                          todo)


def unused_test_helpers():
    """conftest definitions that no test module reaches; pytest hooks
    are called by pytest itself."""
    todo = set()
    for path in sorted(TESTS.glob("test_*.py")):
        tree = parse(path)
        # a fixture is used as an argument name
        todo |= names_used(tree) | {node.arg for node in ast.walk(tree)
                                    if isinstance(node, ast.arg)}
    unused = unreached_from(top_level_definitions([TESTS / "conftest.py"]),
                            todo)
    return {name for name in unused if not name.startswith("pytest_")}


def test_every_definition_is_reached_or_kept():
    assert sorted(unreached() - set(KEEP)) == []


def test_keep_list_names_only_unreached_definitions():
    assert sorted(set(KEEP) - unreached()) == []


def test_every_test_helper_is_used():
    assert sorted(unused_test_helpers()) == []
