"""Every top-level definition of the library is reached from what runs.

The roots are the names that the command line (``cli.py``), the package
exports (``__init__.py``), the acceptance criteria and the benchmark
scripts use.  From them the scan follows names, through the syntax tree,
to the top-level definitions of ``src/matstab/*.py``: a definition is
reached when a reached definition uses its name.  Names are matched
without their module, which can only over-count what is reached.

A definition that nothing reaches either gets a check-table row or is
deleted; the few kept on purpose are listed in ``KEEP`` with a reason.

Parameters follow the same rule.  A defaulted parameter of a library
function or method, or a defaulted init field of a library dataclass,
that no call in the root files or in the library passes, by position or
by keyword, is a constant in disguise: it gets a caller or becomes a
constant.  Calls are matched by name, like
definitions, and a call that unpacks ``*`` or ``**`` counts as passing
every parameter; both can only over-count what is passed.  The few kept
on purpose are listed in ``KEEP_PARAMS`` with a reason.

The shared test helpers in ``tests/conftest.py`` follow the same rule,
with the test modules as roots: a helper that no test uses, by name or
as a fixture argument, fails the suite.

A deletion leaves no trace behind: each library module's ``__all__``
names only its public top-level names and every public function and
class, so ``import *`` cannot fail on a stale entry, and no library
module but ``__init__`` imports a name it does not use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "matstab"
TESTS = ROOT / "tests"
ROOT_FILES = [LIBRARY / "cli.py", LIBRARY / "__init__.py",
              TESTS / "test_acceptance.py",
              *sorted((ROOT / "perfbench").glob("*.py"))]

KEEP = {}


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


def defaulted_parameters(paths):
    """Map each function or method name to its defaulted parameters.

    A parameter is listed as ``(position, name, label)``.  Its position
    counts the arguments a call passes positionally, so a method's
    ``self`` is not counted and a keyword-only parameter has position
    None; its label is ``function(name)``, with a method's class in
    front.  A class with an ``__init__`` is also listed under its own
    name, and so is a dataclass without one, with its defaulted init
    fields.
    """
    params = {}

    def add_fields(cls):
        # the __init__ a dataclass generates, from its own annotated
        # fields only: fields of a base class would shift the positions
        position = 0
        for node in cls.body:
            if not (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)):
                continue
            value = node.value
            keywords = ({k.arg: k.value for k in value.keywords}
                        if isinstance(value, ast.Call)
                        and getattr(value.func, "id", None) == "field"
                        else None)
            if keywords is not None:
                init = keywords.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                defaulted = ("default" in keywords
                             or "default_factory" in keywords)
            else:
                defaulted = value is not None
            if defaulted:
                p = node.target.id
                params.setdefault(cls.name, []).append(
                    (position, p, f"{cls.name}({p})"))
            position += 1

    def is_dataclass(cls):
        for dec in cls.decorator_list:
            dec = dec.func if isinstance(dec, ast.Call) else dec
            if (getattr(dec, "id", None) or getattr(dec, "attr", None)) \
                    == "dataclass":
                return True
        return False

    def add(name, fn, owner=None):
        a = fn.args
        # a method's first parameter is bound, never passed
        positional = (a.posonlyargs + a.args)[owner is not None:]
        first = len(positional) - len(a.defaults)
        where = fn.name if owner is None else f"{owner}.{fn.name}"
        found = [(i, arg.arg) for i, arg in enumerate(positional)
                 if i >= first]
        found += [(None, arg.arg) for arg, default
                  in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
        found = [(i, p, f"{where}({p})") for i, p in found]
        if found:
            params.setdefault(name, []).extend(found)

    for path in paths:
        tree = parse(path)
        methods = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef):
                        methods.add(fn)
                        add(fn.name, fn, cls.name)
                        if fn.name == "__init__":
                            add(cls.name, fn, cls.name)
                if is_dataclass(cls) and not any(
                        isinstance(fn, ast.FunctionDef)
                        and fn.name == "__init__" for fn in cls.body):
                    add_fields(cls)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn not in methods:
                add(fn.name, fn)
    return params


def passed_arguments(paths):
    """Map each called name to what its calls pass: the largest number of
    positional arguments and the keyword names, or None when some call
    unpacks ``*`` or ``**`` and so may pass anything."""
    passed = {}
    for path in paths:
        for node in ast.walk(parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None or name in passed and passed[name] is None:
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                passed[name] = None
                continue
            count, keywords = passed.get(name, (0, set()))
            passed[name] = (max(count, len(node.args)),
                            keywords | {k.arg for k in node.keywords})
    return passed


def unpassed_parameters():
    """The label of every defaulted parameter of a library function or
    method that no call in the root files or the library passes, by
    position or by keyword."""
    params = defaulted_parameters(sorted(LIBRARY.glob("*.py")))
    passed = passed_arguments(sorted(set(ROOT_FILES)
                                     | set(LIBRARY.glob("*.py"))))
    out = set()
    for name, found in params.items():
        calls = passed.get(name, (0, set()))
        if calls is None:
            continue
        count, keywords = calls
        out |= {label for i, p, label in found
                if p not in keywords and (i is None or i >= count)}
    return out


# a default that no caller overrides is a constant; these wait for one
KEEP_PARAMS = {
    "main(argv)": "None parses sys.argv, as the console entry point does; "
                  "tests pass a list",
}


def test_every_definition_is_reached_or_kept():
    assert sorted(unreached() - set(KEEP)) == []


def test_keep_list_names_only_unreached_definitions():
    assert sorted(set(KEEP) - unreached()) == []


def test_every_keyword_parameter_is_passed():
    assert sorted(unpassed_parameters() - set(KEEP_PARAMS)) == []


def test_keep_params_names_only_unpassed_parameters():
    assert sorted(set(KEEP_PARAMS) - unpassed_parameters()) == []


def test_every_test_helper_is_used():
    assert sorted(unused_test_helpers()) == []


def library_modules():
    """Each library module but ``__init__``, with its syntax tree."""
    return [(path.name, parse(path)) for path in sorted(LIBRARY.glob("*.py"))
            if path.name != "__init__.py"]


def export_mismatches(tree):
    """``__all__`` against the public top-level names of a module: the
    entries that name none of them, and the public functions and classes
    it leaves out.  Public constants may be left out.  None without an
    ``__all__``."""
    exported, public, defined = None, set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
        else:
            continue
        public |= {name for name in names if not name.startswith("_")}
    if exported is None:
        return None
    return (sorted(set(exported) - public),
            sorted(n for n in defined - set(exported)
                   if not n.startswith("_")))


def unused_imports(tree):
    """The names that a module's imports bind and nothing in it reads."""
    bound = {alias.asname or alias.name.partition(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    return bound - {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}


def test_all_names_exactly_the_public_definitions():
    found = {name: export_mismatches(tree)
             for name, tree in library_modules()}
    assert {name: got for name, got in found.items()
            if got is not None and got != ([], [])} == {}


def test_no_library_module_imports_an_unused_name():
    found = {name: sorted(unused_imports(tree))
             for name, tree in library_modules()}
    assert {name: got for name, got in found.items() if got} == {}
