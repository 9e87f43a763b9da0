"""Self-test of the tracer: exact per-op call counts on the worked example.

    python3 perfbench/selftest.py

Runs ``eta``, ``check`` and ``oracle`` on ``scripts/example_irreducible.json``
twice each under the tracer and checks that the call counts equal the counts
of the program as of the commit that added the benchmark, and repeat
exactly.  A count that comes out low means some module still calls a
function through a binding the tracer did not rebind.  A later change that
alters how often the program calls these functions changes the expected
counts here; the benchmark's own runs do not depend on them.
"""

from __future__ import annotations

import shutil
import sys

from calltrace import Tracer
from run import ROOT, WORK, Runner, load_app

EXAMPLE = ROOT / "scripts" / "example_irreducible.json"

EXPECTED = {
    "eta": {
        "matforms.hirzebruch_l_log_germ": 302,
        "skr.l4_coefficient": 298,
        "skr.derived_functions": 1059,
        "matforms.star_second": 32,
        "matforms.mat_mul": 1124,
    },
    "check": {
        "matforms.hirzebruch_l_log_germ": 499,
        "matforms.star_second": 128,
        "oracle.christoffel_fd": 75,
    },
    "oracle": {
        "oracle.riemann_frame_fd": 10,
        "oracle.christoffel_fd": 98,
        "matforms.hirzebruch_l_log_germ": 0,
    },
}


def traced_counts(runner: Runner) -> dict:
    with Tracer() as tracer:
        _, ok = runner.op(EXAMPLE)
        tracer.end_op()
    if not ok:
        raise RuntimeError(f"{runner.workload} failed on {EXAMPLE}")
    if tracer.missing:
        raise RuntimeError(f"functions not found: {tracer.missing}")
    return dict(tracer.calls)


def main() -> int:
    app = load_app()
    workdir = WORK / "selftest"
    errors = []
    for workload, expected in EXPECTED.items():
        runner = Runner(app, workload, workdir)
        try:
            first, second = traced_counts(runner), traced_counts(runner)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
        if first != second:
            errors.append(f"{workload}: counts differ between two runs")
        for name, want in expected.items():
            got = first.get(name, 0)
            status = "ok" if got == want else "MISMATCH"
            print(f"{workload:7s} {name:36s} {got:6d}  expected {want:6d}  {status}")
            if got != want:
                errors.append(f"{workload}: {name} = {got}, expected {want}")
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
