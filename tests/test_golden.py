"""Byte-identical outputs of the alist and descriptor writers, the encoder and
the DE sweep CSV, the build ids that head every simulate CSV, and the stdout
and files of one run of each command line command.

The digests were captured before the descriptor moved to version 2 and the
DE drivers and text writers were consolidated; a refactor that keeps
behaviour keeps them.  The build ids were captured while a code instance
still stored its family, k, variable kinds and positions; now that these
are derived from the parameters, equal ids show the derived values equal
the stored ones.  The descriptor pins, and the alist pins of the two
fig5-sized codes, whose ids run to four and five digits, were captured
while both writers still formatted one id at a time.  The command line
digests were captured while each flag was still declared three times over
(argparse, a defaults dict and a config type table); one flag table per
command must give the same bytes.
"""

import contextlib
import hashlib
import io
import os

import numpy as np
import pytest

from oracles import read_alist
from scra.cli import main
from scra.codec import encode
from scra.construct import build_sc_ldpc, build_sc_ra, export_alist, save_descriptor
from scra.density_evolution import sweep_fig4, write_fig4_csv
from scra.ensembles import ScLdpcParams, ScRaParams
from scra.simulate import code_build_id


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def small_codes():
    return {
        "ra": build_sc_ra(ScRaParams(4, 4, 2, M=8), 1),
        "ldpc": build_sc_ldpc(ScLdpcParams(3, 6, 2, M=6), 1),
    }


def pinned_code(name):
    """A small code, or one of two codes whose ids run to 4 and 5 digits."""
    if name == "ra_M100":
        return build_sc_ra(ScRaParams(6, 6, 16, M=100), 0)
    if name == "ldpc_M660":
        return build_sc_ldpc(ScLdpcParams(4, 8, 16, M=660), 0)
    return small_codes()[name]


ALIST_PIN = {
    "ra": "0b9b1ae21b55b538d6a3b41781f24b98ee9eb5de13e840abef52024766bf17b9",
    "ldpc": "cfddc33983f605ab8ba000a870ab73909215a586bfa3967f8523510f0e84f71a",
    "ra_M100": "a75015ff6a723cd7cb1e7d7349f750616a02e601e9caa41e9ac0abe241aea5e5",
    "ldpc_M660": "fd2e4235e523a6fa32e565a92b2d007dc79ca4f027c81203a79a74b1f5d0b6a5",
}
DESCRIPTOR_PIN = {
    "ra": "fd8f1829e94a2adbc9d2f1c5ca2c71d1df2e156c8d75640783e04e5fa2aadbca",
    "ldpc": "c30281720dfe2d84af43c9cce665f7c325ecc50c762914fa702cfcd60e356244",
    "ra_M100": "1c02f213f04211ee34ee377e8bf1d2e6120f9f11b2e77671db89d380bcb9e436",
    "ldpc_M660": "3902d5f23d9fa0dba5f502630a222931af658abdcf621f07426a85d7ed8b785c",
}
ENCODE_PIN = "d02d85dd5676ce66747c8176283edef18518406e0febe5688e37f807e86a9531"
BUILD_ID_PIN = {"ra": "9a6c6342d0e5", "ldpc": "bd3f0cdb761d"}
FIG4_PIN = {
    "4a": "efcfd59a781c84976769c01a48fdf90dfe50d95601b6f3bdbb2856c06459254a",
    "4b": "4d8aa9e0c673844c44c2b57aed01b3ca7389173a938b8a224402685475b83398",
}


@pytest.mark.parametrize("family", sorted(ALIST_PIN))
def test_alist_text_matches_pin(family):
    code = pinned_code(family)
    buf = io.StringIO()
    export_alist(code, buf)
    assert sha256(buf.getvalue()) == ALIST_PIN[family]
    back = read_alist(buf.getvalue())
    assert back.n == code.n
    np.testing.assert_array_equal(back.check_indptr, code.check_indptr)
    np.testing.assert_array_equal(back.check_vars, code.check_vars)


@pytest.mark.parametrize("name", sorted(DESCRIPTOR_PIN))
def test_descriptor_text_matches_pin(name):
    buf = io.StringIO()
    save_descriptor(pinned_code(name), buf)
    assert sha256(buf.getvalue()) == DESCRIPTOR_PIN[name]


def test_encode_matches_pin():
    code = small_codes()["ra"]
    message = np.random.default_rng(5).integers(0, 2, code.k, dtype=np.int8)
    word = encode(code, message)
    assert word.dtype == np.int8
    assert sha256(word.tobytes()) == ENCODE_PIN


@pytest.mark.parametrize("name", sorted(BUILD_ID_PIN))
def test_build_id_matches_pin(name):
    assert code_build_id(small_codes()[name]) == BUILD_ID_PIN[name]


@pytest.mark.parametrize("variant", sorted(FIG4_PIN))
def test_fig4_csv_matches_pin(variant):
    buf = io.StringIO()
    write_fig4_csv(sweep_fig4(variant, Ls=(4,), ldpc_degrees=(3,), precision=1e-3), buf)
    assert sha256(buf.getvalue()) == FIG4_PIN[variant]


# Run in order in one directory with relative paths, since .config.json records them.
CLI_RUNS = {
    "construct": ["construct", "--family", "ra", "--q", "3", "--a", "3", "--L", "1", "--M", "2",
                  "--seed", "6", "--out", "code"],
    "encode": ["encode", "--code", "code.json", "--message", "0x2A", "--out", "word.txt"],
    "simulate": ["simulate", "--code", "code.json", "--eps", "0.35,0.45", "--trials", "25",
                 "--word-errors", "7", "--seed", "3", "--out", "sweep.csv"],
    "de threshold": ["de", "threshold", "--ensemble", "ra-w", "--q", "3", "--a", "3", "--L", "4",
                     "--precision", "1e-2", "--out", "thr.csv"],
    "de sweep": ["de", "sweep", "--figure", "4b", "--L-values", "2", "--degrees", "3",
                 "--precision", "5e-3", "--out", "fig.csv"],
}
CLI_PIN = {
    "construct": {
        "stdout": "760627b8e9bf85f48b66dcf180194f70d3ff74339376e8f7adf7a58375c4c494",
        "code.alist": "b6e2149e163046badbe77808265faf971a30f35e0bb2a60fec17a4d601c65b8d",
        "code.config.json": "ca0099909ad093ef464ae2eaad2d0054472fa7a9268e1ccbdafa0b226607f5d5",
        "code.json": "19fe8b5b3b2604606dad4baab6298ac1626fd0ea201330d6795a3aa3c4a1b35c",
    },
    "encode": {
        "stdout": "9a607ca847cd5acf44a2e8d721f6a7f27c35277e11e625935529b9f3c002c752",
        "word.txt": "7ca2bc5380282f050c28718682b52386c3ea721892d65bf876a819a3c2d9900a",
        "word.txt.config.json": "0534abf411a0b8e42e4d9520f39fe5173969c26f0bfa67c52376ed454a1a33ae",
    },
    "simulate": {
        "stdout": "9b50a1d6b58be94a4ebb972d6e750300dd97f94cf377a05c04a16a64feca6d70",
        "sweep.csv": "6cf6aa92f886f2a8898bc6614ea353b099b72df74300156c7e1bd0c990f6e260",
        "sweep.csv.config.json": "1aa6f06b95003226cab0ac2c549bb3b36488340aeae0fbd92d3b2ac110dcb487",
    },
    "de threshold": {
        "stdout": "1b8a2b614af879059b4e1a4890ad56c1d365b1a2f8a95eebeee3e00aa2035f3e",
        "thr.csv": "9bde867eafef134d66ee7c3b47731848284d32747d1f581445b5b72b28896ee9",
        "thr.csv.config.json": "3b5fd8bead74ce9ac44a64f24dca2d8b51aa1f00fb59af27469dae41a4789b3a",
    },
    "de sweep": {
        "stdout": "fa25c01a0d0ed8f1daf98f8b18d8db0622d344eab81d38b073d1e37c6f961ad3",
        "fig.csv": "39b4643c65097fc44044b199f6bb89fa889e4820744dd0a2ef106a87e098182c",
        "fig.csv.config.json": "224c845e0001ec34ce0d572975f385db77ee524c1aac11a205b9b18995fbf642",
    },
}


@pytest.fixture(scope="module")
def cli_digests(tmp_path_factory):
    """sha256 of the stdout and of each new file of every CLI_RUNS command."""
    digests = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("cli"))
        for name, argv in CLI_RUNS.items():
            before = set(os.listdir("."))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            digests[name] = {"stdout": sha256(out.getvalue())}
            for path in sorted(set(os.listdir(".")) - before):
                with open(path, "rb") as fh:
                    digests[name][path] = sha256(fh.read())
    return digests


@pytest.mark.parametrize("command", sorted(CLI_PIN))
def test_cli_run_matches_pin(cli_digests, command):
    assert cli_digests[command] == CLI_PIN[command]
