"""The package keeps no public code that only tests reach, no table that
nothing reads, and no module imports a name it never uses.

No linter is installed, so these tests parse the sources instead: every
public top-level function or class of ensemble_hdg must be referenced by
some module of the library or of the benchmark, other than by its own
definition and the package's re-exports; every public method of a class
of the library must be read as an attribute or named in a string there;
every attribute a class of the library sets on self must be read by a
static attribute access there, and none may be named like a public
ndarray attribute, whose reads such an access cannot tell apart; no
module of the library sets a private attribute on an object other than
self, nor reads one there unless a class of that module sets or defines
it; no module of the library reads an attribute named autonomous outside
ProblemSpec; every name a module of the library, the tests or the
benchmark imports must be used in that module or listed in its __all__;
every import of the library sits at module level, with problems
importing nothing from solver; and no function of the library mutates a
module-level container, except problems' table of generated factors,
which is keyed by source only.
"""

import ast
from pathlib import Path

import sympy

import numpy as np

import ensemble_hdg
from ensemble_hdg import problems

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ensemble_hdg"

# names the library keeps although only tests reference them
ALLOWED = {
    # reads the convergence-table CSV that write_convergence_csv writes
    "read_convergence_csv",
    # writes the mesh text format that read_mesh_text reads
    "write_mesh_text",
}


def public_definitions():
    """(module file, name) of every public top-level function and class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    not node.name.startswith("_"):
                yield path.name, node.name


def library_and_bench():
    return sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def referenced_names():
    """Every identifier used as a name, attribute or import in the library
    and the benchmark, apart from the re-exports in __init__.py."""
    names = set()
    for path in library_and_bench():
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_definition_is_used():
    used = referenced_names()
    unused = [f"{module}:{name}" for module, name in public_definitions()
              if name not in used and name not in ALLOWED]
    assert not unused, f"referenced only by tests or by nothing: {unused}"


# fields the library keeps although only tests read them
UNREAD_FIELDS = {
    # the step's trace output, which the dense-oracle tests compare
    "EnsembleState.uhat",
}


def class_attributes():
    """(class, attribute) of every attribute a class of the library
    assigns on self."""
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Store) and \
                        isinstance(node.value, ast.Name) and \
                        node.value.id == "self":
                    yield cls.name, node.attr


def attribute_reads():
    """Every attribute name read by a static access (obj.name) in the
    library and the benchmark; getattr with a computed name is not one."""
    return {node.attr for path in library_and_bench()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and
            isinstance(node.ctx, ast.Load)}


def test_every_discretization_table_is_read():
    """Every field a class of the library stores is read, the
    Discretization's tables among them."""
    reads = attribute_reads()
    fields = set(class_attributes())
    assert UNREAD_FIELDS <= {f"{cls}.{attr}" for cls, attr in fields}
    unread = sorted({f"{cls}.{attr}" for cls, attr in fields
                     if attr not in reads} - UNREAD_FIELDS)
    assert not unread, f"set on self but nothing reads: {unread}"


def public_methods():
    """(class, method) of every public method, properties included, that a
    class of the library defines."""
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and \
                            not node.name.startswith("_"):
                        yield cls.name, node.name


def string_constants():
    """Every string constant in the library and the benchmark: the
    benchmark's tracer names the methods it patches as strings."""
    return {node.value for path in library_and_bench()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_public_method_is_used():
    used = attribute_reads() | string_constants()
    unused = sorted(f"{cls}.{name}" for cls, name in public_methods()
                    if name not in used)
    assert not unused, f"methods nothing reads or names: {unused}"


def test_no_field_is_named_like_an_ndarray_attribute():
    """attribute_reads counts `a.T` on any array as a read of every field
    named T, so a field named like a public ndarray attribute would pass
    the unread-field guard unread."""
    shadowed = {name for name in dir(np.ndarray) if not name.startswith("_")}
    found = sorted({f"{cls}.{attr}" for cls, attr in class_attributes()
                    if attr in shadowed})
    assert not found, f"fields named like ndarray attributes: {found}"


def foreign_private_assignments(path):
    """Private attributes the module at path sets on any object other than
    self, as `obj._name = ...` or `setattr(obj, "_name", ...)`: hidden
    caches hung on objects the module does not own."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            owner, name = node.value, node.attr
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id == "setattr" and len(node.args) >= 2 and \
                isinstance(node.args[1], ast.Constant):
            owner, name = node.args[0], node.args[1].value
        else:
            continue
        if str(name).startswith("_") and not (
                isinstance(owner, ast.Name) and owner.id == "self"):
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_no_private_attribute_set_on_other_objects():
    found = [entry for path in sorted(SRC.glob("*.py"))
             for entry in foreign_private_assignments(path)]
    assert not found, f"private attributes set on other objects: {found}"


def foreign_private_reads(path):
    """Private attributes the module at path reads on an object other than
    self, as `obj._name`, that no class of the module sets on self or
    defines: another module's internals."""
    tree = ast.parse(path.read_text())
    own = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            own.update(node.name for node in cls.body
                       if isinstance(node, ast.FunctionDef))
            own.update(node.attr for node in ast.walk(cls)
                       if isinstance(node, ast.Attribute) and
                       isinstance(node.ctx, ast.Store) and
                       isinstance(node.value, ast.Name) and
                       node.value.id == "self")
    return [f"{path.name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and
            isinstance(node.ctx, ast.Load) and node.attr.startswith("_") and
            not node.attr.endswith("__") and node.attr not in own and
            not (isinstance(node.value, ast.Name) and node.value.id == "self")]


def test_no_private_attribute_read_on_other_objects():
    found = [entry for path in sorted(SRC.glob("*.py"))
             for entry in foreign_private_reads(path)]
    assert not found, f"private attributes of other modules read: {found}"


def autonomy_reads(path):
    """Reads of an attribute named autonomous, as `obj.autonomous` or
    `getattr(obj, "autonomous")`, in the module at path outside the class
    ProblemSpec."""
    tree = ast.parse(path.read_text())
    inside = {id(node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name == "ProblemSpec"
              for node in ast.walk(cls)}
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if id(node) not in inside and (
                isinstance(node, ast.Attribute) and
                isinstance(node.ctx, ast.Load) and
                node.attr == "autonomous" or
                isinstance(node, ast.Call) and
                isinstance(node.func, ast.Name) and
                node.func.id == "getattr" and len(node.args) >= 2 and
                isinstance(node.args[1], ast.Constant) and
                node.args[1].value == "autonomous")]


def test_library_does_not_read_the_autonomous_flag():
    """The solver reads c and β at every level and keeps what their
    weights show to stay, so the spec's autonomous flag selects nothing:
    no module may branch on it again."""
    found = [entry for path in sorted(SRC.glob("*.py"))
             for entry in autonomy_reads(path)]
    assert not found, f"autonomous read outside ProblemSpec: {found}"


def test_allowlist_names_exist():
    defined = {name for _, name in public_definitions()}
    assert ALLOWED <= defined


def unused_imports(path):
    """Names imported by the module at path that it never reads."""
    tree = ast.parse(path.read_text())
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; `import a.b as c` and
                # `from a import b as c` bind c
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = [p for folder in ("src", "tests", "bench")
             for p in sorted((ROOT / folder).rglob("*.py"))]
    unused = [entry for path in paths for entry in unused_imports(path)]
    assert not unused, f"imported but never used: {unused}"


def test_every_library_import_is_at_module_level():
    """An import inside a function hides a cycle between modules until
    the function runs; the library has none."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and
                  id(node) not in top]
    assert not found, f"imports below module level: {found}"


def test_problems_imports_nothing_from_solver():
    """The member model and FieldStack, its gate, live in problems, which
    solver builds on: an import back would make the two a cycle."""
    modules = []
    for node in ast.walk(ast.parse((SRC / "problems.py").read_text())):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules += [f"{node.module or ''}.{alias.name}"
                        for alias in node.names]
    found = [name for name in modules if "solver" in name.split(".")]
    assert not found, f"problems imports from solver: {found}"


def test_all_names_resolve():
    missing = [name for name in ensemble_hdg.__all__
               if not hasattr(ensemble_hdg, name)]
    assert not missing


def test_defaulted_parameter_budget():
    """Every defaulted parameter is a knob someone may set and every
    branch it selects is code to keep: their number in the library's
    function definitions (lambdas aside) may not grow past 11."""
    count = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                count += len(args.defaults) + sum(
                    d is not None for d in args.kw_defaults)
    assert count <= 11, f"{count} defaulted parameters, budget 11"


# module-level containers a function of the library may mutate: the
# process-wide table of generated factor functions
MEMOS = {"problems.py:_FACTORS"}
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove",
            "clear", "update", "setdefault", "add", "discard", "sort",
            "reverse"}


def mutated_module_containers(path):
    """Module-level names of the module at path bound to a dict, list or
    set display or to a dict(), list() or set() call, that a function of
    the module mutates: by item assignment or deletion, augmented
    assignment, or a call of a mutating method."""
    tree = ast.parse(path.read_text())
    containers = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and (
                isinstance(node.value, (ast.Dict, ast.List, ast.Set)) or
                isinstance(node.value, ast.Call) and
                isinstance(node.value.func, ast.Name) and
                node.value.func.id in ("dict", "list", "set")):
            containers.update(t.id for t in node.targets
                              if isinstance(t, ast.Name))
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.AugAssign):
                target = node.target
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in MUTATORS:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Name) and target.id in containers:
                found.add(f"{path.name}:{target.id}")
    return found


def test_no_function_mutates_a_module_level_container():
    """A container at module level that functions fill is a memo shared
    by every caller in the process; the library keeps one, the table of
    generated factor functions."""
    found = set().union(*(mutated_module_containers(path)
                          for path in sorted(SRC.glob("*.py"))))
    assert found == MEMOS, f"module-level containers mutated: {found}"


def test_the_factor_table_is_keyed_by_source():
    """Every key of problems' table is generated source text or the
    (arguments, expression) it was printed from, never data such as
    arrays, points or ids, and every value is a function."""
    problems.example1()
    problems.example3()
    assert problems._FACTORS
    for key, fn in problems._FACTORS.items():
        assert isinstance(key, str) or (
            isinstance(key, tuple) and len(key) == 2 and
            isinstance(key[0], str) and isinstance(key[1], sympy.Basic)), key
        assert callable(fn), key
