"""Every public name has a reader.

A name in a module's __all__ is a promise to library users that later
changes must keep.  It is kept only where something reads it besides its
own definition, the __all__ lists and the package's __init__.py: code
elsewhere in the package, the benchmark (perfbench/, whose tracing names
its targets in strings such as "forward.solve_general", so string
literals count there) or the acceptance suite.  A function that only its
own unit tests call belongs with them, in tests/conftest.py.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fleet_inverse"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _names_read(node: ast.AST, strings: bool = False) -> set[str]:
    """The names read under node, as a bare name or as an attribute; with
    `strings`, also each dot-separated part of every string literal."""
    out = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            out.add(child.id)
        elif isinstance(child, ast.Attribute):
            out.add(child.attr)
        elif strings and isinstance(child, ast.Constant) and isinstance(child.value, str):
            out.update(child.value.split("."))
    return out


def _statements(path: Path) -> list[tuple[str | None, set[str]]]:
    """(name defined, names read) for each top-level statement of the module
    at path; the name is None unless the statement defines a function or
    a class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None, _names_read(node))
        for node in tree.body
    ]


STATEMENTS = {module: _statements(PACKAGE / f"{module}.py") for module in MODULES}
OUTSIDE = set().union(
    *(_names_read(ast.parse(p.read_text()), strings=True) for p in sorted((ROOT / "perfbench").glob("*.py"))),
    _names_read(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())),
)
PUBLIC = [(module, name) for module in MODULES
          for name in getattr(importlib.import_module(f"fleet_inverse.{module}"), "__all__", ())]


@pytest.mark.parametrize("module, name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_public_name_has_a_reader(module, name):
    readers = [
        other for other, statements in STATEMENTS.items()
        if any(name in read for defined, read in statements if not (other == module and defined == name))
    ]
    assert readers or name in OUTSIDE, (
        f"{module}.{name} is read only by its own tests: move it to tests/conftest.py"
    )
