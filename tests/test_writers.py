"""The library opens files for writing in one place, construct._write_text, and
records each run in one place, the _write_config call in cli.main."""

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


def calls(source: str, module: str, name: str, keep=lambda call: True) -> list[tuple[str, int]]:
    """(enclosing module.class.function, line) of every call of the bare name in the
    source that keep accepts."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == name and keep(child):
                found.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def can_write(call: ast.Call) -> bool:
    """Whether an open() call's mode can write: a literal holding w, a, x or +, or a mode
    that is not a literal."""
    mode = open_mode(call)
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(set(mode.value) & set("wax+"))


def writing_opens(source: str, module: str) -> list[tuple[str, int]]:
    return calls(source, module, "open", can_write)


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


def test_only_main_writes_the_config():
    """Every command's .config.json is written by one call, after its handler returns."""
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in calls(path.read_text(), path.stem, "_write_config")]
    assert [where for where, _ in found] == ["cli.main"], f"_write_config called outside cli.main: {found}"
