"""Byte identity of the eta outputs and the check stdout on the two example
configs.

The digests were taken from ``equichar eta`` and ``equichar check`` on
``scripts/example_*.json`` with Python 3.11, numpy 2.4 and scipy 1.17 on
x86_64.  A change that moves
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
