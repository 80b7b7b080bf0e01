"""The library opens files for writing in one place, construct._write_text."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "scra"
WRITER = "construct._write_text"


def open_mode(call: ast.Call) -> ast.expr:
    """The expression that gives an open() call its mode; a * or ** argument may hold it."""
    for kw in call.keywords:
        if kw.arg in ("mode", None):
            return kw.value
    for i, arg in enumerate(call.args[:2]):
        if i == 1 or isinstance(arg, ast.Starred):
            return arg
    return ast.Constant("r")


def writing_opens(source: str, module: str) -> list[tuple[str, int]]:
    """(enclosing module.class.function, line) of every open() call in the source whose
    mode can write: a literal holding w, a, x or +, or a mode that is not a literal."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "open":
                mode = open_mode(child)
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax+"):
                    found.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), module)
    return found


@pytest.mark.parametrize("call,writes", [
    ("open(p)", False),
    ("open(p, 'rb')", False),
    ("open(p, mode='r')", False),
    ("open(p, 'w')", True),
    ("open(p, mode='a')", True),
    ("open(p, 'xb')", True),
    ("open(p, 'r+')", True),
    ("open(p, m)", True),
    ("open(*args)", True),
    ("open(p, **kw)", True),
])
def test_writing_opens_reads_the_mode(call, writes):
    found = writing_opens(f"class C:\n    def f(p, m, args, kw):\n        return {call}\n", "mod")
    assert found == ([("mod.C.f", 3)] if writes else [])


def test_only_write_text_opens_files_for_writing():
    """Every file the library writes goes through one path-or-handle writer."""
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in writing_opens(path.read_text(), path.stem)]
    assert [where for where, _ in found] == [WRITER], f"open() that can write outside {WRITER}: {found}"
