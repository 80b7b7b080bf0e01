"""Byte-identical outputs of the alist writer, the encoder and the DE sweep CSV,
and the build ids that head every simulate CSV.

The digests were captured before the descriptor moved to version 2 and the
DE drivers and text writers were consolidated; a refactor that keeps
behaviour keeps them.  The build ids were captured while a code instance
still stored its family, k, variable kinds and positions; now that these
are derived from the parameters, equal ids show the derived values equal
the stored ones.
"""

import hashlib
import io

import numpy as np
import pytest

from scra.codec import encode
from scra.construct import build_sc_ldpc, build_sc_ra, export_alist, import_alist
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


ALIST_PIN = {
    "ra": "0b9b1ae21b55b538d6a3b41781f24b98ee9eb5de13e840abef52024766bf17b9",
    "ldpc": "cfddc33983f605ab8ba000a870ab73909215a586bfa3967f8523510f0e84f71a",
}
ENCODE_PIN = "d02d85dd5676ce66747c8176283edef18518406e0febe5688e37f807e86a9531"
BUILD_ID_PIN = {"ra": "9a6c6342d0e5", "ldpc": "bd3f0cdb761d", "alist": "7a9f16feccd2"}
FIG4_PIN = {
    "4a": "4142fc109728043ba8f23beefcf577fd86d23d03e4cd52d5e17f2aa14cdb2ac5",
    "4b": "4d8aa9e0c673844c44c2b57aed01b3ca7389173a938b8a224402685475b83398",
}


@pytest.mark.parametrize("family", sorted(ALIST_PIN))
def test_alist_text_matches_pin(family):
    buf = io.StringIO()
    export_alist(small_codes()[family], buf)
    assert sha256(buf.getvalue()) == ALIST_PIN[family]


def test_encode_matches_pin():
    code = small_codes()["ra"]
    message = np.random.default_rng(5).integers(0, 2, code.k, dtype=np.int8)
    word = encode(code, message)
    assert word.dtype == np.int8
    assert sha256(word.tobytes()) == ENCODE_PIN


@pytest.mark.parametrize("name", sorted(BUILD_ID_PIN))
def test_build_id_matches_pin(name):
    codes = small_codes()
    buf = io.StringIO()
    export_alist(codes["ra"], buf)
    codes["alist"] = import_alist(io.StringIO(buf.getvalue()))
    assert code_build_id(codes[name]) == BUILD_ID_PIN[name]


@pytest.mark.parametrize("variant", sorted(FIG4_PIN))
def test_fig4_csv_matches_pin(variant):
    buf = io.StringIO()
    write_fig4_csv(sweep_fig4(variant, Ls=(4,), ldpc_degrees=(3,), precision=1e-3), buf)
    assert sha256(buf.getvalue()) == FIG4_PIN[variant]
