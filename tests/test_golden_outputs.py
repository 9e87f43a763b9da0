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
digests did not move.  The transgression, report and check digests were
taken again when the closed transgression summed its series exactly: the
series_tail_bound key left report.json, and the closed integrand, TL3 and
eta moved in their last digits.  The L-form digests, the reducible
transgression and check digests and the oracle digests did not move.  The
three report digests were taken again when the series order became a
constant: the series_order key left the numerics echo of report.json, and
the irreducible example config lost its series_order and unread a_const
keys, which the profile echo repeats.  No other byte moved.
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
        "transgression.csv": "68a5a758cc26482869ad2e81526e205e7be907cefa58444aba8223fde480bde0",
        "report.json": "cd27509cd5766560c8a00b4628df6d0a65fb580fb210758b9306b64139c798e9",
    },
    "example_reducible.json": {
        "lform.csv": "e39b3f259ce14514c55a99f1b2d048aef01d2c09362d12276be6171e093581e9",
        "transgression.csv": "96f7412ee4e20797bd29489d0a62f3046371c241993be577c1f36e6a60b1b7a1",
        "report.json": "855c1eb716665f42ca3911e5cd72ab4589954100d6a10b1e2226b88cc75d7f10",
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
    "example_irreducible.json": "f92120000026e30350bfa1978502b55aaa66d0913ec6c7994e43081faead04d6",
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
    "transgression.csv": "66d64832532d134295582e90a4faded6d0389b707ac03ca4aeb7a74e4ad47073",
    "report.json": "363219cd3bf204973d77ed3eee32a186809fb09f4f1f0f4500d6a5e53277c1d0",
    "check": "f263df7e281723ca3227a882520f624f98ecaa09085f6f0655baa464f219de0a",
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
