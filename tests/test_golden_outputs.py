"""Byte identity of the eta outputs and the check stdout on the two example
configs and on a small-angle profile, and of the oracle stdout on two
profiles the oracle fails.

The digests were taken from ``equichar eta``, ``equichar check`` and
``equichar oracle`` on ``scripts/example_*.json``, on ``SMALL_ANGLE`` and on
the ``ORACLE_STDOUT`` profiles with Python 3.11, numpy 2.4 and scipy 1.17 on
x86_64.  A change that moves
any written byte fails here; if the move is intended, say why in CHANGES.md
and take the digests again.  The L-form, report and check digests were
taken again when the exact closed L-form replaced the sqrt(A) route and
lform.csv took the columns tau,phi,psi,L4; the transgression and oracle
digests did not move.
"""

import hashlib
import json
from pathlib import Path

import pytest

from equichar.app import main

EXAMPLES = Path(__file__).resolve().parents[1] / "scripts"

GOLDEN = {
    "example_irreducible.json": {
        "lform.csv": "37c59b0200f348664a261445ad9bb99b215b11bf07668fff54118f6b3a98f746",
        "transgression.csv": "29051bb14dfcbbda0bb9a0e2922c6989311c55b15966dac5bac166e83608bd5c",
        "report.json": "28cadfb067b3be985d493a5f7e6ed4ab7e84531866d007f8638ed67b91b913af",
    },
    "example_reducible.json": {
        "lform.csv": "e39b3f259ce14514c55a99f1b2d048aef01d2c09362d12276be6171e093581e9",
        "transgression.csv": "96f7412ee4e20797bd29489d0a62f3046371c241993be577c1f36e6a60b1b7a1",
        "report.json": "e53ad0e753edc72c2d5cbe688e641b1c7e966147f4335eb0bbff855eaaaca6f9",
    },
}


@pytest.mark.parametrize("example", sorted(GOLDEN))
def test_eta_outputs_match_golden_digests(tmp_path, capsys, example):
    assert main(["eta", str(EXAMPLES / example), "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN[example]
    }
    assert digests == GOLDEN[example]


# sha256 of the whole stdout of ``equichar check``: the closed and generic
# L-forms, both batched transgression routes, the refined eta and the oracle
# suite, residuals included
CHECK_STDOUT = {
    "example_irreducible.json": "0b820100310eb633f42f8a6164febeee0d9696d198acd19e3d6e6ae4a4b9ac3e",
    "example_reducible.json": "af1c06f2b62b920e6c82e30426f9b5ac46f54490d82446bb810ad75dcbb7bbcf",
}


@pytest.mark.parametrize("example", sorted(CHECK_STDOUT))
def test_check_stdout_matches_golden_digest(capsys, example):
    assert main(["check", str(EXAMPLES / example)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_STDOUT[example]


# Every rotation angle of this profile, at the bulk nodes, the L-form table
# rows and the closed transgression nodes, lies below 0.5 (the bulk and table
# angles in 0.25-0.36), so it pins the series branch of the L-function
# evaluator; the example configs take its trigonometric branch in the bulk.
SMALL_ANGLE = {
    "profile": {
        "mode": "irreducible",
        "phi_coeffs": [0.2, 0.1],
        "c_bar": -1.0,
        "tau_min": -0.5,
        "base_curv": 0.5,
    },
}

SMALL_ANGLE_GOLDEN = {
    "lform.csv": "aad9556e1273b437183f75b3a1fda6b2abacdfb9d4324e05a8dae55d7f9ecefa",
    "transgression.csv": "958c352552ab78dfc53c72d59df68a883f2464646015c0c5d06cff2aeaf44e63",
    "report.json": "ba53ebd61879a14d0b5931dbbba7b762766e2a7cc56223aa591a2c9be9b34397",
    "check": "eb9f8513d1b96275ec59f5d6b599f5a02195bb2024af7fafcebe5f3f59d831cb",
}


def test_small_angle_outputs_match_golden_digests(tmp_path, capsys):
    cfg = tmp_path / "small_angle.json"
    cfg.write_text(json.dumps(SMALL_ANGLE))
    out = tmp_path / "out"
    assert main(["eta", str(cfg), "-o", str(out)]) == 0
    capsys.readouterr()
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert main(["check", str(cfg)]) == 0
    digests["check"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == SMALL_ANGLE_GOLDEN


# sha256 of the whole stdout of ``equichar oracle``, and its exit code, on two
# profiles where the chart step 1e-4 leaves a FAIL line: phi [0.5, 1.0]
# vanishes at tau_min (kahler-parallel, curvature-symmetries) and phi
# [3.5, 0] has rotation angles past pi (curvature-match).
ORACLE_STDOUT = {
    (0.5, 1.0): (1, "4b2fe207c5d3e0b58e003b742f08464a320a5eb29b21b177cbf841cccf4a0996"),
    (3.5, 0.0): (1, "cc1cc3ca7758cc179d86cabf4a1fc3e1b5623f82f2d01321d040b7f1427cf1cc"),
}


@pytest.mark.parametrize("phi", sorted(ORACLE_STDOUT))
def test_oracle_stdout_matches_golden_digest(tmp_path, capsys, phi):
    cfg = tmp_path / "oracle.json"
    profile = {"mode": "irreducible", "phi_coeffs": list(phi), "c_bar": -1.0, "tau_min": -0.5}
    cfg.write_text(json.dumps({"profile": profile}))
    code = main(["oracle", str(cfg)])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == ORACLE_STDOUT[phi]
