"""Command line front end.

Every run is a pure function of its resolved flag set (seed included);
runs that write results also write the resolved configuration next to
them, and feeding that file back through --config reproduces the outputs
byte for byte.  Exit codes: 0 success, 2 parameter or usage error, 3
runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import string
import sys
from dataclasses import fields
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from scra import __version__
from scra.codec import CodecError, encode
from scra.construct import (
    ConstructionError,
    DescriptorError,
    build_sc_ldpc,
    build_sc_ra,
    export_alist,
    load_descriptor,
    save_descriptor,
    _write_text,
)
from scra.density_evolution import (
    BISECT_PRECISION,
    FIG4_DEGREES,
    FIG4_LS,
    MAX_ITERS,
    MODELS,
    make_de_model,
    sweep_fig4,
    threshold,
    write_fig4_csv,
)
from scra.ensembles import (
    FAMILY_PARAMS,
    ParameterError,
    ScLdpcParams,
    ScRaParams,
    design_rate,
)
from scra.simulate import SimulationError, SweepPlan, eps_range, run_sweep

SEED_ENV = "SCRA_SEED"

USAGE_ERRORS = (
    ParameterError,
    CodecError,
    ConstructionError,
    DescriptorError,
    SimulationError,
    OSError,
)


def _default_seed() -> int:
    text = os.environ.get(SEED_ENV, "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ParameterError(f"{SEED_ENV} must be a non-negative integer, got {text!r}")
    return seed


def _stop_count(text: str) -> int | None:
    """--word-errors: a word-error count, or 'none' for no stop."""
    if text.lower() == "none":
        return None
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"--word-errors must be an integer or 'none', got {text!r}") from None


class Flag(NamedTuple):
    """One flag of a command.  type reads the flag's text: argparse applies int
    and float, _resolve any other, so that its errors exit 2.  A callable
    default is called at resolve time.  A required flag must be set by the
    command line or by --config."""

    type: Callable = str
    default: object = None
    choices: tuple | None = None
    required: bool = False
    help: str | None = None


# The JSON types a --config value may take, by flag type; JSON true is no int (bool
# is an int subclass), and null is also taken where the default is None.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), _stop_count: (int, str, type(None))}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read_config(path: str) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"--config {path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("args"), dict):
        raise ParameterError(f"--config {path}: expected an object with an 'args' object")
    return doc["args"]


def _resolve(ns: argparse.Namespace, command: str) -> dict:
    """Merge flags over --config values over defaults.

    Both sources are held to the flag's type, choices and need, and every
    --config key must name a flag of the command.
    """
    flags = _COMMANDS[command][2]
    stored = _read_config(ns.config) if "config" in ns else {}
    unknown = sorted(stored.keys() - flags.keys())
    if unknown:
        raise ParameterError(f"--config key {unknown[0]!r}: {command} has no such flag")
    cfg = {}
    for key, f in flags.items():
        if key in ns:
            value = getattr(ns, key)
        elif key in stored:
            value = stored[key]
            types = _JSON_TYPES[f.type] + ((type(None),) if f.default is None else ())
            if isinstance(value, bool) or not isinstance(value, types) or (
                f.choices and value is not None and value not in f.choices
            ):
                want = " or ".join(f.choices or ["null" if t is type(None) else t.__name__ for t in types])
                raise ParameterError(f"--config key {key!r}: expected {want}, got {json.dumps(value)}")
        else:
            value = f.default() if callable(f.default) else f.default
        if isinstance(value, str):
            value = f.type(value)
        if f.required and value is None:
            raise ParameterError(f"{_flag(key)} is required")
        cfg[key] = value
    return cfg


# every flag that names a field of a parameter class: q, a, L, M, w, dl and dr
_PARAM_FLAGS = {f.name for cls in FAMILY_PARAMS.values() for f in fields(cls)}


def _params(cfg: dict, cls, user: str, skip=(), optional=()) -> dict:
    """The entries of parameter class cls that cfg sets.  A flag naming a field
    of cls (and not skipped) is required unless optional; every other
    parameter flag must be unset."""
    names = [f.name for f in fields(cls) if f.name in cfg and f.name not in skip]
    unused = [key for key in cfg if key in _PARAM_FLAGS and key not in names and cfg[key] is not None]
    if unused:
        raise ParameterError(f"{_flag(unused[0])} is not used by {user}")
    missing = [key for key in names if cfg[key] is None and key not in optional]
    if missing:
        raise ParameterError(f"{_flag(missing[0])} is required for {user}")
    return {key: cfg[key] for key in names if cfg[key] is not None}


def _write_config(command: str, cfg: dict, out_path: str) -> None:
    doc = {"tool": "scra", "version": __version__, "command": command, "args": cfg}
    _write_text(out_path + ".config.json", json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _parse_eps(spec: str) -> tuple[float, ...]:
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise SimulationError(f"eps range must be start:stop:step, got {spec!r}")
            return eps_range(float(parts[0]), float(parts[1]), float(parts[2]))
        return tuple(float(tok) for tok in spec.split(","))
    except ValueError:
        raise SimulationError(f"bad eps value in {spec!r}") from None


def _refuse_unwritable(out: str, creates: bool) -> None:
    """Refuse an --out that cannot be written, before any work and creating nothing.

    With creates, out is a directory made on demand, so its nearest existing
    ancestor must be a writable directory; otherwise out is a file, or a file
    prefix, whose directory must already be one and which names no directory.
    """
    if not creates and (os.path.isdir(out) or not os.path.basename(out)):
        raise ParameterError(f"--out {out}: names a directory, not a file")
    d = out if creates else os.path.dirname(out) or "."
    while creates and not os.path.exists(d):
        d = os.path.dirname(d) or "."
    if not (os.path.isdir(d) and os.access(d, os.W_OK)):
        raise ParameterError(f"--out {out}: {d} is not a writable directory")


def _build(p: ScRaParams | ScLdpcParams, seed: int):
    return (build_sc_ra if p.family == "ra" else build_sc_ldpc)(p, seed)


def _cmd_construct(cfg: dict) -> str:
    cls = FAMILY_PARAMS[cfg["family"]]
    code = _build(cls(**_params(cfg, cls, f"the {cfg['family']} family")), cfg["seed"])
    save_descriptor(code, cfg["out"] + ".json")
    export_alist(code, cfg["out"] + ".alist")
    mean_degree = len(code.check_vars) / code.n  # edges per variable
    print(f"n={code.n} k={code.k} rate={float(design_rate(code.params)):.4f} mean_var_degree={mean_degree:.4f}")
    return cfg["out"]


def _cmd_encode(cfg: dict) -> str:
    code = load_descriptor(cfg["code"])
    bits = _read_message(cfg["message"], code.k)
    word = encode(code, bits)
    _write_text(cfg["out"], "".join(str(int(b)) for b in word) + "\n")
    last_msg_pos = code.params.span - 1
    for j in range(code.params.n_chk_pos):
        print(f"parity position {j}: ready after message position {min(j, last_msg_pos)}")
    return cfg["out"]


def _read_message(spec: str, k: int) -> np.ndarray:
    if spec.startswith("0x") or spec.startswith("0X"):
        digits = spec[2:]
        if not digits or not set(digits) <= set(string.hexdigits):  # int() would take a sign, spaces or "_"
            raise CodecError(f"bad hex message {spec!r}")
        value = int(digits, 16)
        if value >> k:
            raise CodecError(f"hex message needs more than k={k} bits")
        return np.array([(value >> (k - 1 - i)) & 1 for i in range(k)], dtype=np.int8)
    with open(spec) as fh:
        text = "".join(fh.read().split())
    if not set(text) <= {"0", "1"}:
        raise CodecError("message file must contain only 0/1 characters")
    if len(text) != k:
        raise CodecError(f"message file holds {len(text)} bits, code needs k={k}")
    return np.array([int(ch) for ch in text], dtype=np.int8)


_FIG5_CODES = (
    ("ra_M100", ScRaParams(6, 6, 16, M=100)),
    ("ra_M300", ScRaParams(6, 6, 16, M=300)),
    ("ldpc_M220", ScLdpcParams(4, 8, 16, M=220)),
    ("ldpc_M660", ScLdpcParams(4, 8, 16, M=660)),
)


def _cmd_simulate(cfg: dict) -> str:
    if cfg["jobs"] < 1:  # before any code is built or loaded
        raise ParameterError("jobs must be >= 1")
    if cfg["preset"] and cfg["code"] is not None:
        raise ParameterError(f"--code is not used by --preset {cfg['preset']}")
    if not cfg["preset"] and (cfg["code"] is None or cfg["eps"] is None):
        raise ParameterError("--code and --eps are required without a preset")
    if cfg["trials"] is None:
        cfg["trials"] = 1000 if cfg["preset"] else SweepPlan.max_trials
    eps = eps_range(0.43, 0.50, 0.005) if cfg["preset"] and not cfg["eps"] else _parse_eps(cfg["eps"])
    plan = SweepPlan(eps, cfg["trials"], cfg["word_errors"], cfg["max_iters"], cfg["seed"])
    runs = ([(os.path.join(cfg["out"], name + ".csv"), partial(_build, p, cfg["seed"])) for name, p in _FIG5_CODES]
            if cfg["preset"] else [(cfg["out"], partial(load_descriptor, cfg["code"]))])
    for path, code in runs:
        result = run_sweep(code(), plan, jobs=cfg["jobs"])
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)  # after run_sweep: a failed run leaves no directory
        result.to_csv(path)
        print(f"wrote {path} ({len(plan.eps_grid)} rates)")
    return os.path.join(cfg["out"], "fig5") if cfg["preset"] else cfg["out"]


def _de_model(cfg: dict):
    """The DE driver of --ensemble; the flags it takes follow from its MODELS entry."""
    kind = cfg["ensemble"]
    cls, windowed, _ = MODELS[kind]
    skip = {True: (), False: ("w",), None: ("L", "w")}[windowed]
    entries = _params(cfg, cls, f"ensemble {kind}", skip, optional=("w",))
    # DE reads no M: M equal to the second field, a (or dr), keeps the check count whole;
    # a smoothed view without --w takes the first, q (or dl), as its window
    width, combine = (entries[f.name] for f in fields(cls)[:2])
    return make_de_model(kind, cls(**{"L": 0, "w": width if windowed else None, **entries, "M": combine}))


def _cmd_de_threshold(cfg: dict) -> str | None:
    res = threshold(_de_model(cfg), precision=cfg["precision"], max_iters=cfg["max_iters"])
    print(
        f"ensemble={cfg['ensemble']} threshold_lo={res.lo:.6f} threshold_hi={res.hi:.6f} "
        f"probes={len(res.probes)} iters={res.iters}"
    )
    print(f"capped={res.capped} front_stalled={res.front_stalled}", file=sys.stderr)
    if cfg["out"] is not None:
        _write_text(
            cfg["out"],
            "ensemble,threshold_lo,threshold_hi,probes,iters\n"
            f"{cfg['ensemble']},{res.lo:.10g},{res.hi:.10g},{len(res.probes)},{res.iters}\n",
        )
    return cfg["out"]


def _cmd_de_sweep(cfg: dict) -> str:
    try:
        Ls = tuple(int(tok) for tok in cfg["L_values"].split(","))
        degrees = tuple(int(tok) for tok in cfg["degrees"].split(","))
    except ValueError:
        raise ParameterError("--L-values and --degrees must be comma lists of integers") from None
    rows = sweep_fig4(cfg["figure"], Ls=Ls, ldpc_degrees=degrees,
                      precision=cfg["precision"], max_iters=cfg["max_iters"])
    write_fig4_csv(rows, cfg["out"], {"figure": cfg["figure"], "precision": cfg["precision"]})
    for r in rows:
        print(f"family={r.family} degree={r.degree} L={r.L} w={'' if r.w is None else r.w} "
              f"capped={r.capped} front_stalled={r.front_stalled}", file=sys.stderr)
    print(f"wrote {cfg['out']} ({len(rows)} rows)")
    return cfg["out"]


# command -> (handler, help, flags).  Each flag is declared here once; the parser,
# the --config checks and the written .config.json follow from it.
_COMMANDS = {
    "construct": (_cmd_construct, "build an instance and write descriptor + alist", {
        "family": Flag(choices=tuple(FAMILY_PARAMS), required=True),
        **dict.fromkeys(("q", "a", "L", "M", "dl", "dr"), Flag(int)),
        "seed": Flag(int, _default_seed),
        "out": Flag(required=True),
    }),
    "encode": (_cmd_encode, "encode a message on a stored RA instance", {
        "code": Flag(required=True),
        "message": Flag(required=True, help="path to a 0/1 text file, or 0xHEX"),
        "out": Flag(required=True),
    }),
    "simulate": (_cmd_simulate, "Monte Carlo sweep over erasure rates", {
        "code": Flag(),
        "preset": Flag(choices=("fig5",)),
        "eps": Flag(help="start:stop:step or comma list"),
        "trials": Flag(int),
        "word_errors": Flag(_stop_count, SweepPlan.max_word_errors,
                            help="stop after this many word errors per point; 'none' disables"),
        "max_iters": Flag(int, SweepPlan.max_iters),
        "seed": Flag(int, _default_seed),
        "jobs": Flag(int, 1),
        "out": Flag(required=True),
    }),
    "de-threshold": (_cmd_de_threshold, "bisect one ensemble threshold", {
        "ensemble": Flag(choices=tuple(MODELS), required=True),
        **dict.fromkeys(("q", "a", "dl", "dr", "L", "w"), Flag(int)),
        "precision": Flag(float, BISECT_PRECISION),
        "max_iters": Flag(int, MAX_ITERS),
        "out": Flag(),
    }),
    "de-sweep": (_cmd_de_sweep, "threshold table over degree families", {
        "figure": Flag(choices=("4a", "4b"), required=True),
        "L_values": Flag(default=",".join(map(str, FIG4_LS))),
        "degrees": Flag(default=",".join(map(str, FIG4_DEGREES))),
        "precision": Flag(float, BISECT_PRECISION),
        "max_iters": Flag(int, MAX_ITERS),
        "out": Flag(required=True),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="scra", description=__doc__)
    ap.add_argument("--version", action="version", version=f"scra {__version__}")
    groups = {"": ap.add_subparsers(dest="command", required=True)}
    for command, (func, text, flags) in _COMMANDS.items():
        group, _, name = command.rpartition("-")  # de-threshold is "scra de threshold"
        if group not in groups:
            de = groups[""].add_parser(group, help="density evolution")
            groups[group] = de.add_subparsers(dest="de_command", required=True)
        # an absent flag stays out of the namespace, so _resolve can tell it from a given one
        p = groups[group].add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for key, f in flags.items():
            p.add_argument(_flag(key), type=f.type if f.type in (int, float) else None, choices=f.choices, help=f.help)
        p.add_argument("--config")
        p.set_defaults(func=func, cmd=command)
    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = _resolve(ns, ns.cmd)
        if cfg["out"] is not None:  # before any work; only the fig5 preset's --out is a directory
            _refuse_unwritable(cfg["out"], creates=cfg.get("preset") is not None)
        base = ns.func(cfg)
        if base is not None:  # a handler returns the base path of its outputs, None if it wrote none
            _write_config(ns.cmd, cfg, base)
        return 0
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
