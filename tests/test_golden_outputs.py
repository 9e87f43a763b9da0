"""Byte identity of the eta outputs and the check stdout on the two example
configs and on a small-angle profile, and of the oracle stdout on two
profiles the oracle fails.

The digests were taken from ``equichar eta``, ``equichar check`` and
``equichar oracle`` on ``scripts/example_*.json``, on ``SMALL_ANGLE`` and on
the ``ORACLE_STDOUT`` profiles with Python 3.11, numpy 2.4 and scipy 1.17 on
x86_64.  A change that moves
any written byte fails here; if the move is intended, say why in CHANGES.md
and take the digests again.
"""

import hashlib
import json
from pathlib import Path

import pytest

from equichar.app import main

EXAMPLES = Path(__file__).resolve().parents[1] / "scripts"

GOLDEN = {
    "example_irreducible.json": {
        "lform.csv": "d0536dfa82a0b115faba4d4b51e2fd3af7c2da66e2a7d6970ba3568d03529331",
        "transgression.csv": "29051bb14dfcbbda0bb9a0e2922c6989311c55b15966dac5bac166e83608bd5c",
        "report.json": "e969f7b1258e5c13a63cacc1fa993c8f9f267c52928da12a83eaebd4ad857824",
    },
    "example_reducible.json": {
        "lform.csv": "b9567876cd8e99baba252f4d0b88cd3f2261cdb51352f245c66e369f4cc92066",
        "transgression.csv": "96f7412ee4e20797bd29489d0a62f3046371c241993be577c1f36e6a60b1b7a1",
        "report.json": "4b513eb66aea03660e94204f279e75e458ff299888bffa14eacd3a0f57ab3bd2",
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


# sha256 of the whole stdout of ``equichar check``: both batched transgression
# routes, the 2n-node report and the oracle suite, residuals included
CHECK_STDOUT = {
    "example_irreducible.json": "b11a3ac7a73aeb68f8c50932d5ddcb6bee4669c371bbb282cb191571710f5839",
    "example_reducible.json": "d8820a17a7e1a63b7c99679a2da4b5e24b5492c14c4ddca11f8e54ec255d106a",
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
    "lform.csv": "e76d5f06db6a331a263765550b91a1252ce537ca48fe1ecabb189985bbf25fc8",
    "transgression.csv": "958c352552ab78dfc53c72d59df68a883f2464646015c0c5d06cff2aeaf44e63",
    "report.json": "37a5a7672fb0fd96263930908b1c935734ea652d19812986267091ec2670d967",
    "check": "ddeb42cd90cc4cb620d995c0ea53ed8d4fea1277533a020f026d403ba798e3f9",
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
