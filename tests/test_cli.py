"""End-to-end command line checks, run in process through main()."""

import json
import os
import re

import numpy as np
import pytest

from scra.cli import main
from scra.codec import encode
from scra.construct import build_sc_ra, load_descriptor
from scra.density_evolution import sweep_fig4
from scra.ensembles import ScRaParams

TOY = ["--family", "ra", "--q", "3", "--a", "3", "--L", "1", "--M", "2"]


def construct_toy(tmp_path, seed="6"):
    base = tmp_path / "code"
    rc = main(["construct", *TOY, "--seed", seed, "--out", str(base)])
    assert rc == 0
    return base


def read_csv_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("eps,"):
            continue
        rows.append(line.split(","))
    return rows


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("scra ")


def test_construct_writes_descriptor_alist_config(tmp_path, capsys):
    base = construct_toy(tmp_path)
    out = capsys.readouterr().out
    assert "n=16 k=6" in out and "rate=0.3750" in out
    for suffix in (".json", ".alist", ".config.json"):
        assert (tmp_path / ("code" + suffix)).exists()
    stored = load_descriptor(str(base) + ".json")
    direct = build_sc_ra(ScRaParams(3, 3, 1, 2), 6)
    assert stored == direct
    cfg = json.loads((tmp_path / "code.config.json").read_text())
    assert cfg["command"] == "construct"
    assert cfg["args"]["seed"] == 6 and cfg["args"]["family"] == "ra"


def test_construct_reports_reference_code_sizes(tmp_path, capsys):
    for flags, line in (
        (["--family", "ra", "--q", "6", "--a", "6", "--M", "100"],
         "n=7100 k=3300 rate=0.4648 mean_var_degree=3.8590"),
        (["--family", "ldpc", "--dl", "4", "--dr", "8", "--M", "220"],
         "n=7260 k=3300 rate=0.4545 mean_var_degree=4.0000"),
    ):
        rc = main(["construct", *flags, "--L", "16", "--seed", "0", "--out", str(tmp_path / "big")])
        assert rc == 0
        assert capsys.readouterr().out == line + "\n"


def test_encode_zero_message_gives_zero_word(tmp_path, capsys):
    base = construct_toy(tmp_path)
    out = tmp_path / "zero.txt"
    rc = main(["encode", "--code", str(base) + ".json", "--message", "0x00",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().strip() == "0" * 16


def test_construct_missing_out(capsys):
    assert main(["construct", *TOY]) == 2
    assert "error:" in capsys.readouterr().err


def test_construct_rejects_bad_parameters(tmp_path, capsys):
    argv = ["construct", "--family", "ra", "--q", "3", "--a", "4",
            "--L", "1", "--M", "2", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_construct_incomplete_family_flags(tmp_path, capsys):
    argv = ["construct", "--family", "ldpc", "--dl", "3", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    # a flag the family has no field for is refused, not dropped and recorded
    for argv, flag in [
        ([*TOY, "--dl", "4"], "--dl"),
        ([*TOY, "--dr", "6"], "--dr"),
        (["--family", "ldpc", "--dl", "3", "--dr", "6", "--L", "1", "--M", "2", "--q", "3"], "--q"),
        (["--family", "ldpc", "--dl", "3", "--dr", "6", "--L", "1", "--M", "2", "--a", "3"], "--a"),
    ]:
        capsys.readouterr()
        assert main(["construct", *argv, "--out", str(tmp_path / "x")]) == 2
        assert f"error: {flag} " in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


def test_construct_unknown_family_is_parser_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", "turbo", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_construct_seed_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("SCRA_SEED", "9")
    base = tmp_path / "envcode"
    assert main(["construct", *TOY, "--out", str(base)]) == 0
    cfg = json.loads((tmp_path / "envcode.config.json").read_text())
    assert cfg["args"]["seed"] == 9
    assert load_descriptor(str(base) + ".json") == build_sc_ra(ScRaParams(3, 3, 1, 2), 9)


@pytest.mark.parametrize("value", ["x", "-2", ""])
def test_construct_refuses_bad_seed_from_environment(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("SCRA_SEED", value)
    assert main(["construct", *TOY, "--out", str(tmp_path / "envcode")]) == 2
    assert "error: SCRA_SEED " in capsys.readouterr().err
    assert not (tmp_path / "envcode.json").exists()


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    base = construct_toy(tmp_path)
    assert main(["construct", *TOY, "--seed", "-1", "--out", str(tmp_path / "neg")]) == 2
    assert "error: seed " in capsys.readouterr().err
    assert main(["simulate", "--code", str(base) + ".json", "--eps", "0.4", "--trials", "5",
                 "--seed", "-1", "--out", str(tmp_path / "neg.csv")]) == 2
    assert "error: seed " in capsys.readouterr().err
    assert main(["simulate", "--preset", "fig5", "--eps", "0.4", "--trials", "1",
                 "--seed", "-1", "--out", str(tmp_path / "neg_fig5")]) == 2
    assert "error: seed " in capsys.readouterr().err
    assert not (tmp_path / "neg_fig5").exists()


def test_preset_refusing_jobs_leaves_no_directory(tmp_path, capsys):
    out = tmp_path / "jobs0"
    assert main(["simulate", "--preset", "fig5", "--eps", "0.4", "--trials", "1",
                 "--jobs", "0", "--out", str(out)]) == 2
    assert "error: jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def _no_work(*args, **kwargs):
    raise AssertionError("a code was built or loaded for a refused plan")


@pytest.mark.parametrize("mode", ["preset", "code"])
def test_simulate_refuses_jobs_before_any_work(tmp_path, monkeypatch, capsys, mode):
    """--jobs and every value of the sweep plan are checked before any code is built or
    loaded, in both modes, and a refused value creates nothing."""
    base = construct_toy(tmp_path)
    monkeypatch.setattr("scra.cli._build", _no_work)
    monkeypatch.setattr("scra.cli.load_descriptor", _no_work)
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.rglob("*"))
    argv, out = (["--preset", "fig5"], "runs") if mode == "preset" else (["--code", str(base) + ".json"], "x.csv")
    for flags, message in [
        (["--eps", "0.4", "--trials", "1", "--jobs", "0"], "jobs must be >= 1"),
        (["--eps", "0.4,oops"], "bad eps value in '0.4,oops'"),
        (["--eps", "0.4,1.5"], "every eps must lie in [0, 1]"),
        (["--eps", "0.4:inf:0.1"], "eps range 0.4:inf:0.1 needs a finite start, stop, step and count"),
        (["--eps", "0.4:1e300:1e-300"], "eps range 0.4:1e+300:1e-300 needs a finite start, stop, step and count"),
        (["--eps", "0.4", "--trials", "0"], "max_trials must be >= 1"),
        (["--eps", "0.4", "--word-errors", "0"], "max_word_errors must be >= 1 or None"),
        (["--eps", "0.4", "--max-iters", "0"], "max_iters must be >= 1, got 0"),
        (["--eps", "0.4", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
    ]:
        assert main(["simulate", *argv, *flags, "--out", out]) == 2, flags
        assert f"error: {message}\n" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == before


@pytest.mark.parametrize("mode", ["preset", "code"])
def test_simulate_refuses_plans_past_the_stream_keys(tmp_path, monkeypatch, capsys, mode):
    """An --eps range leaving [0, 1] or stepping below the CSV's eps resolution, and --trials
    past 2**32, the trial indices one spawn-key word holds, exit 2 from the plan's numbers
    alone: nothing is built, loaded or created, and no grid point is made."""
    base = construct_toy(tmp_path)
    monkeypatch.setattr("scra.cli._build", _no_work)
    monkeypatch.setattr("scra.cli.load_descriptor", _no_work)
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.rglob("*"))
    argv, out = (["--preset", "fig5"], "runs") if mode == "preset" else (["--code", str(base) + ".json"], "x.csv")
    for flags, message in [
        (["--eps", "0.4:1e20:1"], "eps range 0.4:1e+20:1.0 has points outside [0, 1]"),
        (["--eps", "0.4:0.5:1e-300"], "eps range 0.4:0.5:1e-300 steps finer than the CSV's eps 1e-06"),
        (["--eps", "0.4", "--trials", str(2**32 + 1)], "max_trials must be at most 2**32, got 4294967297"),
    ]:
        assert main(["simulate", *argv, *flags, "--out", out]) == 2, flags
        assert f"error: {message}\n" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == before


def _no_sweep(*args, **kwargs):
    raise AssertionError("run_sweep called for an --out that cannot be written")


@pytest.mark.parametrize("mode", ["preset", "code"])
def test_simulate_refuses_unwritable_out_before_any_work(tmp_path, monkeypatch, capsys, mode):
    base = construct_toy(tmp_path)
    (tmp_path / "afile").write_text("")
    monkeypatch.setattr("scra.cli.run_sweep", _no_sweep)
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.rglob("*"))
    if mode == "preset":
        argv, out, parent = ["--preset", "fig5"], "afile/sub", "afile"
    else:
        argv, out, parent = ["--code", str(base) + ".json", "--eps", "0.4"], "missing_dir/x.csv", "missing_dir"
    assert main(["simulate", *argv, "--out", out]) == 2
    assert f"error: --out {out}: {parent} is not a writable directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv", [
    ["de", "sweep", "--figure", "4b", "--L-values", "2", "--degrees", "3"],
    ["de", "threshold", "--ensemble", "ra-uncoupled", "--q", "3", "--a", "3"],
], ids=["sweep", "threshold"])
def test_de_refuses_unwritable_out_before_any_work(tmp_path, monkeypatch, capsys, argv):
    def no_search(*args, **kwargs):
        raise AssertionError("DE ran for an --out that cannot be written")

    monkeypatch.setattr("scra.cli.sweep_fig4", no_search)
    monkeypatch.setattr("scra.cli.threshold", no_search)
    out = tmp_path / "missing_dir" / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert "is not a writable directory" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("argv", [
    ["construct", *TOY],
    ["encode", "--code", "code.json", "--message", "0x2A"],
], ids=["construct", "encode"])
def test_construct_and_encode_refuse_unwritable_out_before_any_work(tmp_path, monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a code was built or loaded for an --out that cannot be written")

    monkeypatch.setattr("scra.cli._build", no_work)
    monkeypatch.setattr("scra.cli.load_descriptor", no_work)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "missing_dir/x"]) == 2
    assert "error: --out missing_dir/x: missing_dir is not a writable directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,out", [
    (["construct", *TOY], "adir/"),
    (["construct", *TOY], "adir"),
    (["encode", "--code", "code.json", "--message", "0x2A"], "adir"),
    (["simulate", "--code", "code.json", "--eps", "0.4", "--trials", "5"], "adir"),
    (["de", "threshold", "--ensemble", "ra-uncoupled", "--q", "3", "--a", "3"], "adir"),
    (["de", "sweep", "--figure", "4b", "--L-values", "2", "--degrees", "3"], "adir"),
], ids=["construct-slash", "construct", "encode", "simulate", "de-threshold", "de-sweep"])
def test_out_naming_a_directory_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv, out):
    """A file --out that is a directory, or a prefix with no file name, would write into
    or beside the directory (adir/.json) or fail only after the work; it is refused first."""
    def no_work(*args, **kwargs):
        raise AssertionError("work ran for an --out that names a directory")

    for name in ("_build", "load_descriptor", "run_sweep", "threshold", "sweep_fig4"):
        monkeypatch.setattr(f"scra.cli.{name}", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    assert main([*argv, "--out", out]) == 2
    assert f"error: --out {out}: names a directory, not a file" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["adir"]


def test_encode_hex_and_file_agree(tmp_path, capsys):
    base = construct_toy(tmp_path)
    capsys.readouterr()
    out_hex = tmp_path / "word_hex.txt"
    rc = main(["encode", "--code", str(base) + ".json", "--message", "0x2A",
               "--out", str(out_hex)])
    assert rc == 0
    schedule = capsys.readouterr().out.splitlines()
    assert len(schedule) == 5
    assert all(re.fullmatch(r"parity position \d: ready after message position \d", ln)
               for ln in schedule)
    assert schedule[-1] == "parity position 4: ready after message position 2"

    msg_file = tmp_path / "msg.txt"
    msg_file.write_text("101\n010\n")
    out_file = tmp_path / "word_file.txt"
    rc = main(["encode", "--code", str(base) + ".json", "--message", str(msg_file),
               "--out", str(out_file)])
    assert rc == 0
    assert out_hex.read_text() == out_file.read_text()

    code = load_descriptor(str(base) + ".json")
    bits = np.array([1, 0, 1, 0, 1, 0], dtype=np.int8)
    expected = "".join(str(int(b)) for b in encode(code, bits)) + "\n"
    assert out_hex.read_text() == expected


@pytest.mark.parametrize(
    "message",
    ["0xZZ", "0x40", "@short", "@binary"],
)
def test_encode_rejects_bad_messages(tmp_path, message, capsys):
    base = construct_toy(tmp_path)
    if message == "@short":
        path = tmp_path / "short.txt"
        path.write_text("10101\n")
        message = str(path)
    elif message == "@binary":
        path = tmp_path / "bad.txt"
        path.write_text("10x101\n")
        message = str(path)
    rc = main(["encode", "--code", str(base) + ".json", "--message", message,
               "--out", str(tmp_path / "w.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("message", ["0x-1", "0x+1f", "0x 1f", "0x1_f", "0x1f ", "0x", "0x\u0661"])
def test_encode_takes_only_hex_digits_after_0x(tmp_path, message, capsys):
    """int(..., 16) would take a sign, spaces, underscores and non-ASCII digits; the message
    takes none of them, and a refused message writes no word."""
    base = construct_toy(tmp_path)
    capsys.readouterr()
    word = tmp_path / "w.txt"
    assert main(["encode", "--code", str(base) + ".json", "--message", message, "--out", str(word)]) == 2
    assert f"error: bad hex message {message!r}\n" in capsys.readouterr().err
    assert not word.exists()


def test_encode_missing_flags(tmp_path):
    assert main(["encode", "--message", "0x00"]) == 2


def test_encode_nonexistent_code(tmp_path):
    rc = main(["encode", "--code", str(tmp_path / "nope.json"),
               "--message", "0x00", "--out", str(tmp_path / "w.txt")])
    assert rc == 2


def test_encode_rejects_broken_descriptor(tmp_path, capsys):
    construct_toy(tmp_path)
    path = tmp_path / "code.json"
    doc = json.loads(path.read_text())
    c = load_descriptor(str(path))
    doc["checks"][5].remove(c.k + 4)  # drop one accumulator edge
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["encode", "--code", str(path), "--message", "0x00", "--out", str(tmp_path / "w.txt")])
    assert rc == 2
    assert "field 'checks'" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("params", None), ("seed", None), ("seed", -7)],
                         ids=["null_params", "null_seed", "negative_seed"])
def test_simulate_refuses_descriptor_without_params_or_seed(tmp_path, capsys, field, value):
    """A descriptor holds the parameters and the non-negative seed it was built from."""
    construct_toy(tmp_path)
    path = tmp_path / "code.json"
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    capsys.readouterr()
    rc = main(["simulate", "--code", str(path), "--eps", "0.4", "--trials", "5", "--out", str(out)])
    assert rc == 2
    assert f"field '{field}'" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "sweep.csv.config.json").exists()


def test_simulate_single_run(tmp_path, capsys):
    base = construct_toy(tmp_path)
    out = tmp_path / "sweep.csv"
    rc = main(["simulate", "--code", str(base) + ".json", "--eps", "0.3,0.5",
               "--trials", "40", "--seed", "4", "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    rows = read_csv_rows(out)
    assert [float(r[0]) for r in rows] == [0.3, 0.5]
    assert all(int(r[1]) == 40 for r in rows)
    assert (tmp_path / "sweep.csv.config.json").exists()


def test_simulate_worker_count_does_not_change_csv(tmp_path):
    base = construct_toy(tmp_path)
    args = ["simulate", "--code", str(base) + ".json", "--eps", "0.4:0.5:0.05",
            "--trials", "60", "--seed", "8"]
    out1, out2 = tmp_path / "j1.csv", tmp_path / "j2.csv"
    assert main([*args, "--jobs", "1", "--out", str(out1)]) == 0
    assert main([*args, "--jobs", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_config_reruns_byte_identical(tmp_path):
    base = construct_toy(tmp_path)
    out1 = tmp_path / "first.csv"
    rc = main(["simulate", "--code", str(base) + ".json", "--eps", "0.35,0.45",
               "--trials", "25", "--word-errors", "7", "--seed", "3",
               "--out", str(out1)])
    assert rc == 0
    out2 = tmp_path / "second.csv"
    rc = main(["simulate", "--config", str(out1) + ".config.json", "--out", str(out2)])
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    cfg = json.loads((tmp_path / "first.csv.config.json").read_text())
    assert cfg["args"]["trials"] == 25 and cfg["args"]["word_errors"] == 7


@pytest.mark.parametrize("command,argv,outputs", [
    ("construct", [*TOY, "--seed", "6"], (".json", ".alist")),
    ("encode", ["--code", "code.json", "--message", "0x2A"], ("",)),
    ("simulate", ["--code", "code.json", "--eps", "0.3:0.5:0.1", "--trials", "20",
                  "--word-errors", "3", "--jobs", "2"], ("",)),
    ("simulate", ["--code", "code.json", "--eps", "1.0", "--trials", "20",
                  "--word-errors", "none"], ("",)),
    ("de threshold", ["--ensemble", "ra-proto", "--q", "3", "--a", "3", "--L", "2",
                      "--precision", "1e-2"], ("",)),
    ("de threshold", ["--ensemble", "ra-uncoupled", "--q", "6", "--a", "6",
                      "--precision", "1e-2"], ("",)),
    ("de sweep", ["--figure", "4a", "--L-values", "2", "--degrees", "3",
                  "--precision", "5e-3"], ("",)),
], ids=["construct", "encode", "simulate", "simulate-no-stop", "de-threshold",
        "de-threshold-uncoupled", "de-sweep"])
def test_config_reruns_byte_identical(tmp_path, monkeypatch, command, argv, outputs):
    """Every command run again from its .config.json writes the same bytes and config."""
    monkeypatch.chdir(tmp_path)
    construct_toy(tmp_path)
    assert main([*command.split(), *argv, "--out", "first"]) == 0
    first = json.loads((tmp_path / "first.config.json").read_text())
    assert main([*command.split(), "--config", "first.config.json", "--out", "second"]) == 0
    for suffix in outputs:
        assert (tmp_path / ("first" + suffix)).read_bytes() == (tmp_path / ("second" + suffix)).read_bytes()
    second = json.loads((tmp_path / "second.config.json").read_text())
    assert second == {**first, "args": {**first["args"], "out": "second"}}
    if "--word-errors" in argv:
        assert first["args"]["word_errors"] == (None if "none" in argv else 3)


FIG5_CSVS = ["ldpc_M220.csv", "ldpc_M660.csv", "ra_M100.csv", "ra_M300.csv"]


def test_preset_config_reruns_byte_identical(tmp_path, monkeypatch, capsys):
    """The preset's fig5.config.json, fed back through --config, writes the same four CSVs."""
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--preset", "fig5", "--eps", "0.45", "--trials", "1", "--out", "a"]) == 0
    assert sorted(capsys.readouterr().out.splitlines()) == [f"wrote a/{name} (1 rates)" for name in FIG5_CSVS]
    assert main(["simulate", "--config", "a/fig5.config.json", "--out", "b"]) == 0
    assert sorted(os.listdir("a")) == sorted(os.listdir("b")) == sorted([*FIG5_CSVS, "fig5.config.json"])
    for name in FIG5_CSVS:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    first = json.loads((tmp_path / "a" / "fig5.config.json").read_text())
    second = json.loads((tmp_path / "b" / "fig5.config.json").read_text())
    assert second == {**first, "args": {**first["args"], "out": "b"}}
    assert first["args"]["trials"] == 1 and first["args"]["preset"] == "fig5"


def test_simulate_word_error_stop_controls(tmp_path):
    base = construct_toy(tmp_path)
    stop = tmp_path / "stop.csv"
    rc = main(["simulate", "--code", str(base) + ".json", "--eps", "1.0",
               "--trials", "30", "--word-errors", "5", "--seed", "1",
               "--out", str(stop)])
    assert rc == 0
    assert int(read_csv_rows(stop)[0][1]) == 5
    full = tmp_path / "full.csv"
    rc = main(["simulate", "--code", str(base) + ".json", "--eps", "1.0",
               "--trials", "30", "--word-errors", "none", "--seed", "1",
               "--out", str(full)])
    assert rc == 0
    assert int(read_csv_rows(full)[0][1]) == 30
    rc = main(["simulate", "--code", str(base) + ".json", "--eps", "1.0",
               "--word-errors", "many", "--out", str(tmp_path / "bad.csv")])
    assert rc == 2


def test_simulate_requires_code_and_eps(tmp_path):
    assert main(["simulate", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["simulate", "--eps", "0.4", "--out", str(tmp_path / "x.csv")]) == 2


def test_simulate_preset_refuses_code(tmp_path, capsys):
    """The preset runs its own codes; a --code beside it is refused, not dropped and recorded."""
    out = tmp_path / "fig5"
    assert main(["simulate", "--preset", "fig5", "--code", "x.json", "--eps", "0.45",
                 "--trials", "2", "--out", str(out)]) == 2
    assert "error: --code " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_simulate_refuses_max_iters_below_one(tmp_path, capsys, value):
    """With no peeling sweep every trial counted as a word error, and the run exited 0."""
    base = construct_toy(tmp_path)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--code", str(base) + ".json", "--eps", "0.4", "--trials", "5",
                 "--max-iters", value, "--out", str(out)]) == 2
    assert "error: max_iters " in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_malformed_eps(tmp_path, capsys):
    base = construct_toy(tmp_path)
    rc = main(["simulate", "--code", str(base) + ".json", "--eps", "0.4,oops",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_runtime_failures_exit_three(tmp_path, monkeypatch, capsys):
    base = construct_toy(tmp_path)

    def boom(*args, **kwargs):
        raise RuntimeError("induced")

    monkeypatch.setattr("scra.cli.run_sweep", boom)
    rc = main(["simulate", "--code", str(base) + ".json", "--eps", "0.4",
               "--trials", "5", "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "runtime failure: RuntimeError" in capsys.readouterr().err


def test_de_threshold_stdout_and_csv(tmp_path, capsys):
    out = tmp_path / "thr.csv"
    rc = main(["de", "threshold", "--ensemble", "ra-w", "--q", "3", "--a", "3",
               "--L", "4", "--precision", "1e-2", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    match = re.search(r"threshold_lo=([0-9.]+) threshold_hi=([0-9.]+)", text)
    lo, hi = float(match.group(1)), float(match.group(2))
    assert 0.3 < lo < hi < 0.7
    assert hi - lo <= 1e-2 + 1e-9
    lines = out.read_text().splitlines()
    assert lines[0] == "ensemble,threshold_lo,threshold_hi,probes,iters"
    assert lines[1].startswith("ra-w,")
    assert (tmp_path / "thr.csv.config.json").exists()


def test_de_threshold_reports_capped_probes_on_stderr(tmp_path, capsys):
    """Probes that ran out of iterations are counted on stderr, never in the CSV or config."""
    argv = ["de", "threshold", "--ensemble", "ra-w", "--q", "3", "--a", "3", "--L", "4",
            "--precision", "1e-2"]
    assert main([*argv, "--out", str(tmp_path / "full.csv")]) == 0
    assert capsys.readouterr().err == "capped=0 front_stalled=0 wave_converged=0\n"
    assert main([*argv, "--max-iters", "20", "--out", str(tmp_path / "cut.csv")]) == 0
    captured = capsys.readouterr()
    capped = int(re.fullmatch(r"capped=(\d+) front_stalled=0 wave_converged=0\n", captured.err).group(1))
    assert capped > 0
    assert "capped" not in captured.out
    assert "capped" not in (tmp_path / "cut.csv").read_text()
    assert "capped" not in (tmp_path / "cut.csv.config.json").read_text()


def test_de_threshold_reports_front_stalled_probes_on_stderr(tmp_path, capsys):
    """Probes that failed by their front are counted on stderr after capped=, never in
    stdout, the CSV or the config."""
    out = tmp_path / "thr.csv"
    assert main(["de", "threshold", "--ensemble", "ra-w", "--q", "6", "--a", "6", "--L", "4",
                 "--precision", "1e-3", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "capped=0 front_stalled=1 wave_converged=0\n"
    for text in (captured.out, out.read_text(), (tmp_path / "thr.csv.config.json").read_text()):
        assert "front" not in text


def test_de_threshold_reports_wave_converged_probes_on_stderr(tmp_path, capsys):
    """Probes that succeeded by their wave are counted on stderr after front_stalled=, never
    in stdout, the CSV or the config."""
    out = tmp_path / "thr.csv"
    assert main(["de", "threshold", "--ensemble", "ra-w", "--q", "6", "--a", "6", "--L", "16",
                 "--precision", "1e-3", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "capped=0 front_stalled=1 wave_converged=1\n"
    for text in (captured.out, out.read_text(), (tmp_path / "thr.csv.config.json").read_text()):
        assert "wave_converged" not in text


def test_de_threshold_breakdown_warns_nothing(capsys):
    """ra-proto with a < q raises 0 to a negative power at eps=1; that probe ends as a stall,
    and the search exits 0 without a numpy warning, which the suite turns into an error."""
    assert main(["de", "threshold", "--ensemble", "ra-proto", "--q", "4", "--a", "2", "--L", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "ensemble=ra-proto threshold_lo=0.706177 threshold_hi=0.706238 probes=16 iters=8035\n"
    assert "Warning" not in captured.err


@pytest.mark.parametrize("command,args,key", [
    ("construct", {"family": "ra", "q": 3, "a": 3, "L": 1, "M": 2, "seed": True}, "seed"),
    ("construct", {"family": "ra", "q": 3, "a": True, "L": 1, "M": 2, "seed": 0}, "a"),
    ("construct", {"family": "ra", "q": "3", "a": 3, "L": 1, "M": 2, "seed": 0}, "q"),
    ("construct", {"family": "ra", "q": 3, "a": 3, "L": 1, "M": 2, "seed": None}, "seed"),
    ("de threshold", {"ensemble": "ra-w", "q": 3, "a": 3, "L": 4, "max_iters": True}, "max_iters"),
    ("de threshold", {"ensemble": "ra-w", "q": 3, "a": 3, "L": 4, "precision": "x"}, "precision"),
    ("de threshold", {"ensemble": 7, "q": 3, "a": 3, "L": 4}, "ensemble"),
    # misspelt keys name no flag; dropped, they would let the run go on at the defaults
    ("de threshold", {"ensemble": "ra-w", "q": 3, "a": 3, "L": 4, "max_iter": 5}, "max_iter"),
    ("de threshold", {"ensemble": "ra-w", "q": 3, "a": 3, "L": 4, "precison": 0.1}, "precison"),
    ("construct", {"family": "ra", "q": 3, "a": 3, "L": 1, "M": 2, "preset": "fig5"}, "preset"),
    # a value outside the flag's choices
    ("de sweep", {"figure": "4c", "L_values": "2", "degrees": "3"}, "figure"),
    ("construct", {"family": "turbo", "q": 3, "a": 3, "L": 1, "M": 2}, "family"),
    ("simulate", {"code": "c.json", "eps": "0.4", "word_errors": True}, "word_errors"),
])
def test_config_values_hold_to_flag_types(tmp_path, capsys, command, args, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"args": args}))
    out = tmp_path / "x"
    assert main([*command.split(), "--config", str(cfg), "--out", str(out)]) == 2
    assert f"--config key '{key}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


def test_config_must_be_a_json_object(tmp_path, capsys):
    for text in ("{not json", "[1, 2]", '{"args": 3}', '{"format": "sc-code-descriptor", "n": 16}'):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["construct", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "--config" in capsys.readouterr().err


def test_de_threshold_uncoupled_needs_no_L(capsys):
    rc = main(["de", "threshold", "--ensemble", "ra-uncoupled", "--q", "6",
               "--a", "6", "--precision", "1e-2"])
    assert rc == 0
    match = re.search(r"threshold_lo=([0-9.]+) threshold_hi=([0-9.]+)",
                      capsys.readouterr().out)
    assert float(match.group(1)) <= 0.4125 <= float(match.group(2))


def test_de_threshold_flag_errors(capsys):
    assert main(["de", "threshold", "--q", "3", "--a", "3", "--L", "4"]) == 2
    assert main(["de", "threshold", "--ensemble", "ra-w", "--q", "3", "--a", "3"]) == 2
    assert main(["de", "threshold", "--ensemble", "ldpc-w", "--dl", "3", "--L", "4"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["de", "threshold", "--ensemble", "mystery"])
    assert exc.value.code == 2
    # a flag the ensemble does not use is refused, not dropped and recorded
    ra, ldpc = ["--q", "3", "--a", "3"], ["--dl", "3", "--dr", "6"]
    for kind, argv, flag in [
        ("ra-proto", [*ra, "--L", "2", "--w", "5"], "--w"),
        ("ldpc-proto", [*ldpc, "--L", "2", "--w", "3"], "--w"),
        ("ra-uncoupled", [*ra, "--w", "3"], "--w"),
        ("ra-uncoupled", [*ra, "--L", "2"], "--L"),
        ("ra-w", [*ra, "--L", "2", "--dl", "3"], "--dl"),
        ("ra-proto", [*ra, "--L", "2", "--dr", "6"], "--dr"),
        ("ra-uncoupled", [*ra, "--dl", "3"], "--dl"),
        ("ldpc-w", [*ldpc, "--L", "2", "--q", "3"], "--q"),
        ("ldpc-proto", [*ldpc, "--L", "2", "--a", "3"], "--a"),
    ]:
        capsys.readouterr()
        assert main(["de", "threshold", "--ensemble", kind, *argv, "--precision", "1e-2"]) == 2
        assert f"error: {flag} " in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,key", [
    ("--precision", "0", "precision"),
    ("--precision", "-1", "precision"),
    ("--precision", "nan", "precision"),
    ("--max-iters", "0", "max_iters"),
])
def test_de_refuses_bad_bisection_flags(tmp_path, capsys, flag, value, key):
    """A precision that is not > 0 would bisect forever (or, as NaN, not at all), and a
    budget below one fails every probe; each is a usage error naming its key."""
    threshold_argv = ["de", "threshold", "--ensemble", "ra-uncoupled", "--q", "6", "--a", "6"]
    sweep_argv = ["de", "sweep", "--figure", "4b", "--L-values", "2", "--degrees", "3",
                  "--out", str(tmp_path / "sweep.csv")]
    for argv in (threshold_argv, sweep_argv):
        capsys.readouterr()
        assert main([*argv, flag, value]) == 2
        assert f"error: {key} " in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_de_sweep_writes_table(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    rc = main(["de", "sweep", "--figure", "4b", "--L-values", "2", "--degrees", "3",
               "--precision", "5e-3", "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "# scra-de-sweep v1"
    assert sum(1 for ln in lines if ln and not ln.startswith("#")) >= 2


def _no_search(*args, **kwargs):
    raise AssertionError("a threshold search ran for a refused grid")


@pytest.mark.parametrize("figure", ["4a", "4b"])
def test_de_sweep_refuses_bad_grid_before_any_search(tmp_path, monkeypatch, capsys, figure):
    """Every point of the grid is checked before the first threshold search, so a bad
    degree or L after good ones exits 2, naming it, and writes nothing."""
    monkeypatch.setattr("scra.density_evolution.threshold", _no_search)
    out = tmp_path / "s.csv"
    for grid, message in [
        (["--degrees", "3,1", "--L-values", "4,8"], "dl must be an integer >= 2, got 1"),
        (["--degrees", "3", "--L-values", "4,-1"], "L must be an integer >= 0, got -1"),
    ]:
        assert main(["de", "sweep", "--figure", figure, *grid, "--out", str(out)]) == 2, grid
        assert f"error: {message}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,named", [
    (["de", "sweep", "--figure", "4b", "--L-values", "4,0", "--degrees", "3"],
     "ldpc ensemble dl=3 dr=6 L=0 has rate -0.5"),
    (["de", "threshold", "--ensemble", "ldpc-w", "--dl", "3", "--dr", "6", "--L", "0", "--w", "3"],
     "ldpc ensemble dl=3 dr=6 L=0 w=3 has rate -0.410837"),
], ids=["sweep", "threshold"])
def test_de_refuses_a_degenerate_ensemble_before_any_probe(tmp_path, monkeypatch, capsys, argv, named):
    """A point whose rate is not positive has no threshold to search: it exits 2, naming its
    parameters, before any probe and writing nothing."""
    monkeypatch.setattr("scra.density_evolution.threshold", _no_search)
    monkeypatch.setattr("scra.cli.threshold", _no_search)
    assert main([*argv, "--out", str(tmp_path / "t.csv")]) == 2
    assert f"error: {named}, not positive\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


DEGENERATE = "ldpc ensemble dl=3 dr=3 L=1 has rate -0.666667, not positive"


def test_construct_refuses_a_degenerate_ldpc_ensemble(tmp_path, capsys):
    """A (3,3) chain of length 3 would have k = -6: construct exits 2, naming the parameters,
    and writes no descriptor, alist or config."""
    argv = ["construct", "--family", "ldpc", "--dl", "3", "--dr", "3", "--L", "1", "--M", "3"]
    assert main([*argv, "--out", str(tmp_path / "code")]) == 2
    assert f"error: {DEGENERATE}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_descriptor_of_a_degenerate_ldpc_ensemble_is_refused(tmp_path, capsys):
    """load_descriptor builds its parameters through the same type, so a stored code whose
    rate is not positive exits 2, naming field 'params', and nothing is written."""
    base = tmp_path / "code"
    assert main(["construct", "--family", "ldpc", "--dl", "3", "--dr", "6", "--L", "1", "--M", "2",
                 "--out", str(base)]) == 0
    doc = json.loads((tmp_path / "code.json").read_text())
    doc["params"]["dr"] = 3  # n is that of the (3,6) code, so only the rate is wrong
    (tmp_path / "code.json").write_text(json.dumps(doc))
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(["encode", "--code", str(tmp_path / "code.json"), "--message", "0x0",
                 "--out", str(tmp_path / "w.txt")]) == 2
    assert f"error: field 'params': {DEGENERATE}\n" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_de_threshold_takes_the_rate_of_the_smoothed_view(tmp_path):
    """ldpc-w (4,5) at L=5 has design rate -1/55 but smoothed rate +0.021 at its window w=dl:
    the parameters DE searches are built once, with their window, and they are not refused."""
    assert main(["de", "threshold", "--ensemble", "ldpc-w", "--dl", "4", "--dr", "5", "--L", "5",
                 "--out", str(tmp_path / "t.csv")]) == 0


def test_de_sweep_reports_capped_probes(tmp_path, capsys):
    """At a budget of 10 iterations every failure in the brackets is a capped probe: each row's
    counts go to stderr, one line per row, and the CSV columns stay as they were."""
    out = tmp_path / "fig.csv"
    assert main(["de", "sweep", "--figure", "4a", "--L-values", "4", "--degrees", "3",
                 "--max-iters", "10", "--out", str(out)]) == 0
    rows = sweep_fig4("4a", Ls=(4,), ldpc_degrees=(3,), max_iters=10)
    assert all(r.capped > 0 for _, r in rows)
    assert capsys.readouterr().err.splitlines() == [
        f"family={p.family} degree={p.width} L=4 w={p.w} capped={r.capped} front_stalled={r.front_stalled} "
        f"wave_converged={r.wave_converged}"
        for p, r in rows
    ]
    assert out.read_text().splitlines()[3] == "family,degree,L,w,rate,threshold_lo,threshold_hi,iters"


def test_de_sweep_flag_errors(tmp_path):
    assert main(["de", "sweep", "--L-values", "2", "--out", str(tmp_path / "x")]) == 2
    assert main(["de", "sweep", "--figure", "4b"]) == 2
    assert main(["de", "sweep", "--figure", "4b", "--L-values", "2,zap",
                 "--out", str(tmp_path / "x")]) == 2
