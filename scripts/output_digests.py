#!/usr/bin/env python3
"""Print a digest line per (config, command) of ``equichar`` ``eta``, ``check``
and ``oracle``, run in-process through ``equichar.app.main``.

The configs are the two example configs, the small-angle profile of
``tests/test_golden_outputs.py`` and the benchmark configs of seeds 1-3
(``perfbench/configs.write_configs``).  Each line holds the exit code and
the sha256 of stdout (with the output directory masked), of stderr and of
each written file.  Run it on two checkouts and ``diff`` the outputs: equal
lines mean byte-identical outputs.

Usage:
    PYTHONPATH=src python scripts/output_digests.py > digests.txt
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from equichar import app

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("eta", "check", "oracle")
EXAMPLES = [ROOT / "scripts" / f"example_{mode}.json" for mode in ("irreducible", "reducible")]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_line(name: str, config: Path, command: str, out_dir: Path) -> str:
    """Run one command on one config; its digest line."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = app.main([command, str(config), "-o", str(out_dir)])
    masked = stdout.getvalue().replace(str(out_dir), "<out>")
    files = sorted(out_dir.iterdir()) if out_dir.exists() else []
    written = " ".join(f"{path.name}={_sha(path.read_bytes())}" for path in files)
    return (
        f"{name} {command} exit={code} stdout={_sha(masked.encode())} "
        f"stderr={_sha(stderr.getvalue().encode())} {written}".rstrip()
    )


def digest_lines(configs, work: Path) -> list:
    """The digest lines of every command on every (name, config path) pair,
    each run writing into a fresh directory under ``work``."""
    return [
        digest_line(name, config, command, work / f"{i}-{command}")
        for i, (name, config) in enumerate(configs)
        for command in COMMANDS
    ]


def all_configs(work: Path) -> list:
    """(name, path) of the examples, the small-angle profile and the benchmark
    configs of seeds 1-3, the last two written into the directory ``work``."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    from configs import write_configs
    from test_golden_outputs import SMALL_ANGLE

    small = work / "small_angle.json"
    small.write_text(json.dumps(SMALL_ANGLE))
    configs = [(path.name, path) for path in EXAMPLES] + [("small_angle", small)]
    for workload in COMMANDS:
        for seed in (1, 2, 3):
            for i, path in enumerate(write_configs(workload, seed, work / f"{workload}-{seed}")):
                configs.append((f"{workload}-{seed}-{i}", path))
    return configs


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for line in digest_lines(all_configs(work), work / "runs"):
            print(line)


if __name__ == "__main__":
    main()
