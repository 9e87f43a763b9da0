"""Byte identity of the eta outputs on the two example configs.

The digests were taken from ``equichar eta`` on ``scripts/example_*.json``
with Python 3.11, numpy 2.4 and scipy 1.17 on x86_64.  A change that moves
any written byte fails here; if the move is intended, say why in CHANGES.md
and take the digests again.
"""

import hashlib
from pathlib import Path

import pytest

from equichar.app import main

EXAMPLES = Path(__file__).resolve().parents[1] / "scripts"

GOLDEN = {
    "example_irreducible.json": {
        "lform.csv": "d0536dfa82a0b115faba4d4b51e2fd3af7c2da66e2a7d6970ba3568d03529331",
        "transgression.csv": "8e4bdd119df3b411cb16178e61928deffa9fc75b493b5c3e0fc88fc72c6b2f8d",
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
