"""The library opens files for writing in one place, construct._write_text,
records each run in one place, the _write_config call in cli.main, computes
check parities in one place, codec.syndrome, which codec.encode accumulates, and
draws erasures in one place, codec.transmit_bec, on each trial's own stream."""

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


def call_nodes(source: str, module: str) -> list[tuple[str, ast.Call]]:
    """(enclosing module.class.function, node) of every call in the source."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                found.append((where, child))
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def calls(source: str, module: str, name: str, keep=lambda call: True) -> list[tuple[str, int]]:
    """(enclosing module.class.function, line) of every call of the bare name in the
    source that keep accepts."""
    return [(where, call.lineno) for where, call in call_nodes(source, module)
            if isinstance(call.func, ast.Name) and call.func.id == name and keep(call)]


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


def test_encode_accumulates_the_syndrome():
    """codec.encode takes its check parities from syndrome and tallies none itself."""
    source = (SRC / "codec.py").read_text()
    assert "codec.encode" in [where for where, _ in calls(source, "codec", "syndrome")]
    encode = next(node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef) and node.name == "encode")
    tallies = [node.lineno for node in ast.walk(encode) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", getattr(node.func, "id", None)) == "bincount"]
    assert tallies == [], f"codec.encode calls bincount at lines {tallies}"


def named(node, name: str):
    """The function or class definition called name, anywhere under node."""
    return next(child for child in ast.walk(node)
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name)


def test_transmit_bec_is_the_only_draw():
    """Every random draw in the library is codec.transmit_bec's, and the lane kernel makes each
    trial's through the simulate name transmit_bec, which perfbench wraps, on the task's one
    generator, built and re-keyed, before every draw, from the keys of one trial_keys call;
    numpy's SeedSequence is built once, in trial_keys, and read only for its pool."""
    found = [(where, call.lineno) for path in sorted(SRC.glob("*.py"))
             for where, call in call_nodes(path.read_text(), path.stem)
             if isinstance(call.func, ast.Attribute) and call.func.attr in ("random", "random_raw")]
    assert {where for where, _ in found} == {"codec.transmit_bec"}, f"draws outside transmit_bec: {found}"
    source = (SRC / "simulate.py").read_text()
    nodes = call_nodes(source, "simulate")
    draws = [(where, call) for where, call in nodes
             if "transmit_bec" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))]
    assert draws and all(
        where == "simulate._trial_rows.take_trial" and isinstance(call.func, ast.Name)
        and isinstance(call.args[-1], ast.Name) and call.args[-1].id == "stream"
        for where, call in draws
    ), f"transmit_bec calls in simulate: {[(where, call.lineno) for where, call in draws]}"
    # every stream in the library is built on trial_keys: one call per task, one per cell stream
    streams = [(where, call.func.attr) for path in sorted(SRC.glob("*.py"))
               for where, call in call_nodes(path.read_text(), path.stem)
               if getattr(call.func, "attr", None) in ("Generator", "Philox", "SeedSequence")]
    built = [(where, name) for where in ("simulate._trial_rows", "simulate.trial_stream")
             for name in ("Generator", "Philox")]
    assert sorted(streams) == sorted([*built, ("simulate.trial_keys", "SeedSequence")]), streams
    # trial_keys reads numpy's SeedSequence only for the pool the seed's words mix into
    read = [node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Call) and getattr(node.value.func, "attr", None) == "SeedSequence"]
    assert read == ["pool"], read
    assert sorted(where for where, call in nodes if getattr(call.func, "id", None) == "trial_keys") == [
        "simulate._trial_rows", "simulate.trial_stream"]
    rows = named(ast.parse(source), "_trial_rows")
    assigned = {}  # name -> the values assigned to it in _trial_rows
    for node in ast.walk(rows):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(name, ast.Name):
                        assigned.setdefault(name.id, []).append(node.value)
    [built] = assigned["stream"]
    philox = built.args[0]
    assert built.func.attr == "Generator" and philox.func.attr == "Philox"
    assert [kw.arg for kw in philox.keywords] == ["key"] and philox.keywords[0].value.value.id == "keys"
    [keys] = assigned["keys"]
    assert keys.func.id == "trial_keys"
    # take_trial sets the stream's state, keyed from keys, before it draws
    take = named(rows, "take_trial")
    rekeys = [node for node in ast.walk(take) if isinstance(node, ast.Assign)
              and ast.unparse(node.targets[0]) == "stream.bit_generator.state"]
    assert len(rekeys) == 1 and all(rekeys[0].lineno < call.lineno for _, call in draws)
    keyed = [node for node in ast.walk(take) if isinstance(node, ast.Assign)
             and any(ast.unparse(t) == "state['state']['key']" for t in ast.walk(node.targets[0]))]
    assert len(keyed) == 1 and keyed[0].lineno < rekeys[0].lineno
    assert ast.unparse(keyed[0].value) == "next(draws)"
    [draws_value] = assigned["draws"]
    assert "keys.tolist()" in [ast.unparse(arg) for arg in draws_value.args]
