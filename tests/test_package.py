"""The package keeps no public code that only tests reach.

No linter is installed, so this test parses the sources instead: every
public top-level function or class of ensemble_hdg must be referenced by
some module of the library or of the benchmark, other than by its own
definition and the package's re-exports.
"""

import ast
from pathlib import Path

import ensemble_hdg

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


def referenced_names():
    """Every identifier used as a name, attribute or import in the library
    and the benchmark, apart from the re-exports in __init__.py."""
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    names = set()
    for path in paths:
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


def test_allowlist_names_exist():
    defined = {name for _, name in public_definitions()}
    assert ALLOWED <= defined


def test_all_names_resolve():
    missing = [name for name in ensemble_hdg.__all__
               if not hasattr(ensemble_hdg, name)]
    assert not missing
