"""The library imports nothing at run time but the standard library and numpy."""

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
