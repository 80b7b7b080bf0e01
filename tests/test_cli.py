"""End-to-end command line checks, run in process through main()."""

import json
import re

import numpy as np
import pytest

from scra.cli import main
from scra.codec import encode
from scra.construct import build_sc_ra, load_descriptor
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
    raise AssertionError("a code was built or loaded for a refused --jobs")


@pytest.mark.parametrize("mode", ["preset", "code"])
def test_simulate_refuses_jobs_before_any_work(tmp_path, monkeypatch, capsys, mode):
    base = construct_toy(tmp_path)
    monkeypatch.setattr("scra.cli._build", _no_work)
    monkeypatch.setattr("scra.cli.load_descriptor", _no_work)
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.rglob("*"))
    if mode == "preset":
        argv, out = ["--preset", "fig5", "--eps", "0.4", "--trials", "1"], "runs"
    else:
        argv, out = ["--code", str(base) + ".json", "--eps", "0.4"], "x.csv"
    assert main(["simulate", *argv, "--jobs", "0", "--out", out]) == 2
    assert "error: jobs must be >= 1" in capsys.readouterr().err
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
    assert capsys.readouterr().err == "capped=0\n"
    assert main([*argv, "--max-iters", "20", "--out", str(tmp_path / "cut.csv")]) == 0
    captured = capsys.readouterr()
    capped = int(re.fullmatch(r"capped=(\d+)\n", captured.err).group(1))
    assert capped > 0
    assert "capped" not in captured.out
    assert "capped" not in (tmp_path / "cut.csv").read_text()
    assert "capped" not in (tmp_path / "cut.csv.config.json").read_text()


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


def test_de_sweep_flag_errors(tmp_path):
    assert main(["de", "sweep", "--L-values", "2", "--out", str(tmp_path / "x")]) == 2
    assert main(["de", "sweep", "--figure", "4b"]) == 2
    assert main(["de", "sweep", "--figure", "4b", "--L-values", "2,zap",
                 "--out", str(tmp_path / "x")]) == 2
