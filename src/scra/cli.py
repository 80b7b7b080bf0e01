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
import sys

import numpy as np

from scra import __version__
from scra.codec import CodecError, encode
from scra.construct import (
    AlistError,
    ConstructionError,
    DescriptorError,
    build_sc_ldpc,
    build_sc_ra,
    degree_profile,
    export_alist,
    load_descriptor,
    save_descriptor,
    _write_text,
)
from scra.density_evolution import (
    BISECT_PRECISION,
    MAX_ITERS,
    make_de_model,
    sweep_fig4,
    threshold,
    write_fig4_csv,
)
from scra.ensembles import (
    ParameterError,
    ScLdpcParams,
    ScRaParams,
    rate_sc_ldpc,
    rate_sc_ra,
)
from scra.simulate import SimulationError, SweepPlan, eps_range, run_sweep

SEED_ENV = "SCRA_SEED"

USAGE_ERRORS = (
    ParameterError,
    CodecError,
    ConstructionError,
    AlistError,
    DescriptorError,
    SimulationError,
)


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV, "0"))


# The types a --config value may have, by key, as its flag gives them; other keys take a
# string.  JSON true is refused where an int is due (bool is an int subclass).  null stands
# for an unset flag where the default is None, and for no stop in word_errors.
_CONFIG_TYPES = {
    **dict.fromkeys(("q", "a", "L", "M", "dl", "dr", "w", "seed", "trials", "max_iters", "jobs"), (int,)),
    "precision": (int, float),
    "word_errors": (int, str, type(None)),
}


def _check_config_value(key: str, value, default) -> None:
    if value is None and default is None:
        return
    types = _CONFIG_TYPES.get(key, (str,))
    if isinstance(value, bool) or not isinstance(value, types):
        want = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise ParameterError(f"--config key {key!r}: expected {want}, got {json.dumps(value)}")


def _resolve(ns: argparse.Namespace, spec: dict[str, object]) -> dict:
    """Merge CLI flags over --config values over defaults; a --config value must have its flag's type."""
    stored: dict = {}
    if getattr(ns, "config", None):
        with open(ns.config) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParameterError(f"--config {ns.config}: not valid JSON ({exc})") from None
        stored = doc.get("args", {}) if isinstance(doc, dict) else None
        if not isinstance(stored, dict):
            raise ParameterError(f"--config {ns.config}: expected an object with an 'args' object")
    out = {}
    for key, default in spec.items():
        cli_val = getattr(ns, key.replace("-", "_"), None)
        if cli_val is not None:
            out[key] = cli_val
        elif key in stored:
            _check_config_value(key, stored[key], default)
            out[key] = stored[key]
        else:
            out[key] = default() if callable(default) else default
    return out


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


def _build_from_cfg(cfg: dict):
    family = cfg["family"]
    if family == "ra":
        for key in ("q", "a", "L", "M"):
            if cfg.get(key) is None:
                raise ParameterError(f"--{key} is required for the ra family")
        return build_sc_ra(ScRaParams(q=cfg["q"], a=cfg["a"], L=cfg["L"], M=cfg["M"]), cfg["seed"])
    if family == "ldpc":
        for key in ("dl", "dr", "L", "M"):
            if cfg.get(key) is None:
                raise ParameterError(f"--{key} is required for the ldpc family")
        return build_sc_ldpc(ScLdpcParams(dl=cfg["dl"], dr=cfg["dr"], L=cfg["L"], M=cfg["M"]), cfg["seed"])
    raise ParameterError(f"unknown family {family!r}; expected ra or ldpc")


def _cmd_construct(ns: argparse.Namespace) -> int:
    spec = {
        "family": None, "q": None, "a": None, "L": None, "M": None,
        "dl": None, "dr": None, "seed": _default_seed, "out": None,
    }
    cfg = _resolve(ns, spec)
    if cfg["out"] is None:
        raise ParameterError("--out is required")
    code = _build_from_cfg(cfg)
    save_descriptor(code, cfg["out"] + ".json")
    export_alist(code, cfg["out"] + ".alist")
    _write_config("construct", cfg, cfg["out"])
    rate = rate_sc_ra(code.params) if code.family == "ra" else rate_sc_ldpc(code.params)
    prof = degree_profile(code)
    print(f"n={code.n} k={code.k} rate={float(rate):.4f} mean_var_degree={prof.mean_variable_degree:.4f}")
    return 0


def _cmd_encode(ns: argparse.Namespace) -> int:
    spec = {"code": None, "message": None, "out": None}
    cfg = _resolve(ns, spec)
    for key in spec:
        if cfg[key] is None:
            raise ParameterError(f"--{key} is required")
    code = load_descriptor(cfg["code"])
    bits = _read_message(cfg["message"], code.k)
    word = encode(code, bits)
    _write_text(cfg["out"], "".join(str(int(b)) for b in word) + "\n")
    _write_config("encode", cfg, cfg["out"])
    if code.params is not None:
        last_msg_pos = code.params.span - 1
        for j in range(code.params.n_chk_pos):
            print(f"parity position {j}: ready after message position {min(j, last_msg_pos)}")
    return 0


def _read_message(spec: str, k: int) -> np.ndarray:
    if spec.startswith("0x") or spec.startswith("0X"):
        digits = spec[2:]
        try:
            value = int(digits, 16)
        except ValueError:
            raise CodecError(f"bad hex message {spec!r}") from None
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
    ("ra_M100", dict(family="ra", q=6, a=6, L=16, M=100)),
    ("ra_M300", dict(family="ra", q=6, a=6, L=16, M=300)),
    ("ldpc_M220", dict(family="ldpc", dl=4, dr=8, L=16, M=220)),
    ("ldpc_M660", dict(family="ldpc", dl=4, dr=8, L=16, M=660)),
)


def _cmd_simulate(ns: argparse.Namespace) -> int:
    spec = {
        "code": None, "preset": None, "eps": None, "trials": None,
        "word_errors": 100, "max_iters": 1000, "seed": _default_seed,
        "jobs": 1, "out": None,
    }
    cfg = _resolve(ns, spec)
    if cfg["out"] is None:
        raise ParameterError("--out is required")
    if cfg["trials"] is None:
        cfg["trials"] = 1000 if cfg["preset"] is not None else 10_000
    word_errors = cfg["word_errors"]
    if isinstance(word_errors, str):
        try:
            word_errors = None if word_errors.lower() == "none" else int(word_errors)
        except ValueError:
            raise ParameterError(f"--word-errors must be an integer or 'none', got {word_errors!r}") from None
        cfg["word_errors"] = word_errors

    if cfg["preset"] is not None:
        if cfg["preset"] != "fig5":
            raise ParameterError(f"unknown preset {cfg['preset']!r}")
        os.makedirs(cfg["out"], exist_ok=True)
        eps = _parse_eps(cfg["eps"]) if cfg["eps"] else eps_range(0.43, 0.50, 0.005)
        trials = cfg["trials"]
        for name, code_cfg in _FIG5_CODES:
            code = _build_from_cfg({**code_cfg, "seed": cfg["seed"]})
            plan = SweepPlan(eps, trials, word_errors, cfg["max_iters"], cfg["seed"])
            result = run_sweep(code, plan, jobs=cfg["jobs"])
            result.to_csv(os.path.join(cfg["out"], name + ".csv"))
            print(f"{name}: wrote {os.path.join(cfg['out'], name + '.csv')}")
        _write_config("simulate", cfg, os.path.join(cfg["out"], "fig5"))
        return 0

    if cfg["code"] is None or cfg["eps"] is None:
        raise ParameterError("--code and --eps are required without a preset")
    code = load_descriptor(cfg["code"])
    plan = SweepPlan(_parse_eps(cfg["eps"]), cfg["trials"], word_errors, cfg["max_iters"], cfg["seed"])
    result = run_sweep(code, plan, jobs=cfg["jobs"])
    result.to_csv(cfg["out"])
    _write_config("simulate", cfg, cfg["out"])
    print(f"wrote {cfg['out']} ({len(plan.eps_grid)} rates)")
    return 0


def _de_params(cfg: dict):
    kind = cfg["ensemble"]
    if kind in ("ra-w", "ra-proto", "ra-uncoupled"):
        if cfg["q"] is None or cfg["a"] is None:
            raise ParameterError("--q and --a are required for RA ensembles")
        L = cfg["L"] if kind != "ra-uncoupled" else 0
        if L is None:
            raise ParameterError("--L is required")
        w = None
        if kind == "ra-w":
            w = cfg["w"] if cfg["w"] is not None else cfg["q"]
        return make_de_model(kind, ScRaParams(q=cfg["q"], a=cfg["a"], L=L, M=cfg["a"], w=w))
    if kind in ("ldpc-w", "ldpc-proto"):
        if cfg["dl"] is None or cfg["dr"] is None or cfg["L"] is None:
            raise ParameterError("--dl, --dr and --L are required for LDPC ensembles")
        w = None
        if kind == "ldpc-w":
            w = cfg["w"] if cfg["w"] is not None else cfg["dl"]
        return make_de_model(kind, ScLdpcParams(dl=cfg["dl"], dr=cfg["dr"], L=cfg["L"], M=cfg["dr"], w=w))
    raise ParameterError(f"unknown ensemble {kind!r}")


def _cmd_de_threshold(ns: argparse.Namespace) -> int:
    spec = {
        "ensemble": None, "q": None, "a": None, "dl": None, "dr": None,
        "L": None, "w": None, "precision": BISECT_PRECISION,
        "max_iters": MAX_ITERS, "out": None,
    }
    cfg = _resolve(ns, spec)
    if cfg["ensemble"] is None:
        raise ParameterError("--ensemble is required")
    model = _de_params(cfg)
    res = threshold(model, precision=cfg["precision"], max_iters=cfg["max_iters"])
    print(
        f"ensemble={cfg['ensemble']} threshold_lo={res.lo:.6f} threshold_hi={res.hi:.6f} "
        f"probes={res.steps} iters={res.iters}"
    )
    print(f"capped={res.capped}", file=sys.stderr)
    if cfg["out"] is not None:
        _write_text(
            cfg["out"],
            "ensemble,threshold_lo,threshold_hi,probes,iters\n"
            f"{cfg['ensemble']},{res.lo:.10g},{res.hi:.10g},{res.steps},{res.iters}\n",
        )
        _write_config("de-threshold", cfg, cfg["out"])
    return 0


def _cmd_de_sweep(ns: argparse.Namespace) -> int:
    spec = {
        "figure": None, "L_values": "4,8,16,32,64", "degrees": "3,4,5,6",
        "precision": BISECT_PRECISION, "max_iters": MAX_ITERS, "out": None,
    }
    cfg = _resolve(ns, spec)
    if cfg["figure"] not in ("4a", "4b"):
        raise ParameterError("--figure must be 4a or 4b")
    if cfg["out"] is None:
        raise ParameterError("--out is required")
    try:
        Ls = tuple(int(tok) for tok in cfg["L_values"].split(","))
        degrees = tuple(int(tok) for tok in cfg["degrees"].split(","))
    except ValueError:
        raise ParameterError("--L-values and --degrees must be comma lists of integers") from None
    rows = sweep_fig4(cfg["figure"], Ls=Ls, ldpc_degrees=degrees,
                      precision=cfg["precision"], max_iters=cfg["max_iters"])
    write_fig4_csv(rows, cfg["out"], {"figure": cfg["figure"], "precision": cfg["precision"]})
    _write_config("de-sweep", cfg, cfg["out"])
    print(f"wrote {cfg['out']} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="scra", description=__doc__)
    ap.add_argument("--version", action="version", version=f"scra {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build an instance and write descriptor + alist")
    c.add_argument("--family", choices=("ra", "ldpc"))
    for flag in ("--q", "--a", "--L", "--M", "--dl", "--dr", "--seed"):
        c.add_argument(flag, type=int)
    c.add_argument("--out")
    c.add_argument("--config")
    c.set_defaults(func=_cmd_construct)

    e = sub.add_parser("encode", help="encode a message on a stored RA instance")
    e.add_argument("--code")
    e.add_argument("--message", help="path to a 0/1 text file, or 0xHEX")
    e.add_argument("--out")
    e.add_argument("--config")
    e.set_defaults(func=_cmd_encode)

    s = sub.add_parser("simulate", help="Monte Carlo sweep over erasure rates")
    s.add_argument("--code")
    s.add_argument("--preset", choices=("fig5",))
    s.add_argument("--eps", help="start:stop:step or comma list")
    s.add_argument("--trials", type=int)
    s.add_argument("--word-errors", dest="word_errors",
                   help="stop after this many word errors per point; 'none' disables")
    s.add_argument("--max-iters", type=int, dest="max_iters")
    s.add_argument("--seed", type=int)
    s.add_argument("--jobs", type=int)
    s.add_argument("--out")
    s.add_argument("--config")
    s.set_defaults(func=_cmd_simulate)

    d = sub.add_parser("de", help="density evolution")
    dsub = d.add_subparsers(dest="de_command", required=True)

    dt = dsub.add_parser("threshold", help="bisect one ensemble threshold")
    dt.add_argument("--ensemble", choices=("ra-w", "ra-proto", "ldpc-w", "ldpc-proto", "ra-uncoupled"))
    for flag in ("--q", "--a", "--dl", "--dr", "--L", "--w"):
        dt.add_argument(flag, type=int)
    dt.add_argument("--precision", type=float)
    dt.add_argument("--max-iters", type=int, dest="max_iters")
    dt.add_argument("--out")
    dt.add_argument("--config")
    dt.set_defaults(func=_cmd_de_threshold)

    dw = dsub.add_parser("sweep", help="threshold table over degree families")
    dw.add_argument("--figure", choices=("4a", "4b"))
    dw.add_argument("--L-values", dest="L_values")
    dw.add_argument("--degrees")
    dw.add_argument("--precision", type=float)
    dw.add_argument("--max-iters", type=int, dest="max_iters")
    dw.add_argument("--out")
    dw.add_argument("--config")
    dw.set_defaults(func=_cmd_de_sweep)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        return ns.func(ns)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
