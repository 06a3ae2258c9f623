"""Every public top-level function and class of the package has a caller in it.

A public name that only tests reach is a second model of the program that
can drift from the one the pipeline runs; this guard fails when one
appears.  A name counts as used when some module of ``planar_init``
(``__init__.py`` aside) refers to it outside its own definition.
"""

import ast
from pathlib import Path

import planar_init

PACKAGE = Path(planar_init.__file__).parent

# kept without a caller until it is wired into the velocity fit or deleted
# (ROADMAP item 1)
ALLOWED = {"temporal_deviation"}


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _definitions(modules) -> dict[str, str]:
    """Public top-level function and class names -> their module file."""
    return {node.name: name
            for name, tree in modules.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _referenced(modules, defined) -> set[str]:
    """Defined names that some module uses outside their own definition."""
    used = set()
    for name, tree in modules.items():
        for node in tree.body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    ref = sub.id
                elif isinstance(sub, ast.Attribute):  # module.function
                    ref = sub.attr
                else:
                    continue
                if ref in defined and not (ref == own and defined[ref] == name):
                    used.add(ref)
    return used


def test_every_public_name_has_a_caller_in_the_package():
    modules = _modules()
    defined = _definitions(modules)
    unused = sorted(set(defined) - _referenced(modules, defined) - ALLOWED)
    assert not unused, (
        "public names no module of planar_init uses: "
        + ", ".join(f"{defined[n]}:{n}" for n in unused))


def test_allowlist_names_exist_and_are_unused():
    # an allowlisted name that gains a caller, or is deleted, leaves the list
    modules = _modules()
    defined = _definitions(modules)
    assert ALLOWED <= set(defined)
    assert not ALLOWED & _referenced(modules, defined)
