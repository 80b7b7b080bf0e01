"""The library imports nothing at run time but the standard library and numpy, and exports
nothing that only the tests or the benchmark use."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "scra"
ALLOWED = {"numpy", "scra", "__future__"}


def absolute_imports(path: Path) -> list[str]:
    """The top-level package of every absolute import in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.partition(".")[0] for name in names]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_the_stdlib_and_numpy(path):
    """numpy is the one declared runtime dependency; a package that is merely installed
    here, such as scipy, would pass every other test and fail on a user's install."""
    bad = [m for m in absolute_imports(path) if m not in sys.stdlib_module_names and m not in ALLOWED]
    assert not bad, f"{path.name} imports {bad}, which is neither the standard library nor numpy"


def used_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, as a name or an attribute, outside the top-level
    definition or assignment of that same name."""
    used = set()
    for stmt in tree.body:
        own = {getattr(stmt, "name", None)} | {t.id for t in getattr(stmt, "targets", []) if isinstance(t, ast.Name)}
        used |= {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
                 if isinstance(node, (ast.Name, ast.Attribute))} - own
    return used


def test_every_export_is_used_in_the_library():
    """A name that scra/__init__.py exports serves the library itself; a helper that only the
    tests call belongs in tests/oracles.py."""
    exported = [alias.asname or alias.name for node in ast.parse((SRC / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set().union(*(used_names(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))
                         if path.name != "__init__.py"))
    assert [name for name in exported if name not in used] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_reports_bad_input_by_refusal_not_warning(path):
    """Bad input is refused with an error, which the command line turns into exit 2; a
    warning would let the run go on, and under -W error exit 3 after partial work."""
    assert "warnings" not in absolute_imports(path), f"{path.name} imports warnings"
