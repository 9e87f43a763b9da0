"""Closed-loop benchmark of the equichar CLI ops ``eta``, ``check`` and ``oracle``.

    python3 perfbench/run.py --workload eta --seed 1 --seconds 36 --trace 0

Each run is one fresh process with one client: it imports ``equichar`` from
``src/`` of this checkout, writes the workload's seeded configs, runs one
untimed warm-up op and then calls ``equichar.app.main(argv)`` in a closed
loop for ``--seconds`` seconds, each op on the next config in turn.  Every
op is checked; failed ops count and are never dropped.  After the loop, one
config is run through ``eta`` twice and the two sets of output files must be
byte-identical.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run alternates untraced
and traced passes over its configs, and reports per-op call counts and self
times of the traced functions plus the ops/s of both kinds of pass, which
give the tracing overhead.  See ``perfbench/README.md`` for the reasons behind each choice.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from configs import write_configs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("eta", "oracle", "check")
# the process's own set-up plus this many fresh processes give setup_s
SETUP_PROBES = 4
# the percentiles need at least this many op times
MIN_OPS = 2
# relative tolerance of the closed vs direct boundary coefficient
TL3_REL_TOL = 1e-8
DETERMINISM_FILES = ("lform.csv", "transgression.csv", "report.json")


def load_app():
    """Import ``equichar.app`` from this checkout's ``src/``; exit 2 if it is absent."""
    package = SRC / "equichar"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no equichar sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import equichar.app

    if Path(equichar.app.__file__).resolve().parent != package:
        print(f"perfbench: imported equichar from {equichar.app.__file__}", file=sys.stderr)
        sys.exit(2)
    return equichar.app


class Runner:
    """Runs one CLI op through ``app.main`` and checks its result."""

    def __init__(self, app, workload: str, workdir: Path):
        self.app = app
        self.workload = workload
        self.out_dir = workdir / "out"
        self.first_failure = None  # why the run's first failed op failed

    def argv(self, config: Path, out_dir: Path) -> list:
        argv = [self.workload, str(config)]
        return argv + ["-o", str(out_dir)] if self.workload == "eta" else argv

    def op(self, config: Path, out_dir: Path = None):
        """Return (seconds, ok) for one op on ``config``."""
        out_dir = out_dir or self.out_dir
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                # looked up on every call so the tracer's wrapper is used
                code = self.app.main(self.argv(config, out_dir))
        except Exception:  # a traceback is a failed op, not a benchmark crash
            code, failure = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        if code == 0:
            failure = self.verify(stdout.getvalue(), out_dir)
        elif code is not None:
            failure = f"exit code {code}: {(stderr.getvalue() or stdout.getvalue()).strip()}"
        if failure and self.first_failure is None:
            self.first_failure = f"{self.workload} {config.name}: {failure}"
        return seconds, failure is None

    def verify(self, stdout: str, out_dir: Path):
        """Return why the op's output is wrong, or None when it is right."""
        if self.workload in ("check", "oracle"):
            lines = stdout.splitlines()
            if not lines or any(line.startswith("FAIL") for line in lines):
                return f"check lines: {lines}"
            return None
        try:
            report = json.loads((out_dir / "report.json").read_text())
            closed = report["boundary"]["tl3_closed"]["value"]
            direct = report["boundary"]["tl3_direct"]["value"]
            eta = report["eta"]["value"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"report.json unreadable: {exc!r}"
        if not math.isfinite(eta):
            return f"eta = {eta}"
        if not abs(closed - direct) <= TL3_REL_TOL * abs(closed):
            return f"tl3_closed = {closed!r}, tl3_direct = {direct!r}"
        return None


def set_up(workload: str, seed: int, workdir: Path):
    """Import, write configs, run one warm-up op; return (seconds, runner, configs, ok)."""
    start = time.perf_counter()
    app = load_app()
    configs = write_configs(workload, seed, workdir / "configs")
    runner = Runner(app, workload, workdir)
    _, ok = runner.op(configs[0])
    return time.perf_counter() - start, runner, configs, ok


def probe_setup(args) -> float:
    """Set-up time of a fresh process, as ``--setup-probe`` measures it."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--setup-probe",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def closed_loop(runner: Runner, configs: list, seconds: float):
    """Run ops back to back for ``seconds``; return (op times, ok flags, wall seconds)."""
    times, oks = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < MIN_OPS:
        dt, ok = runner.op(configs[len(times) % len(configs)])
        times.append(dt)
        oks.append(ok)
    return times, oks, time.perf_counter() - start


def traced_loop(runner: Runner, configs: list, seconds: float, tracer):
    """Alternate untraced and traced passes over all configs for ``seconds``.

    Whole passes weigh every config equally, so the per-op call counts repeat
    exactly from run to run.  Alternating the passes puts both sides under
    the same machine load, so their ratio of throughputs is the tracing
    overhead.  Returns op times, ok flags and wall seconds, each keyed by
    whether the pass was traced.
    """
    times, oks, wall = {False: [], True: []}, {False: [], True: []}, {False: 0.0, True: 0.0}
    start = time.perf_counter()
    while not times[True] or time.perf_counter() - start < seconds:
        for traced in (False, True):
            pass_start = time.perf_counter()
            with tracer if traced else contextlib.nullcontext():
                for config in configs:
                    dt, ok = runner.op(config)
                    times[traced].append(dt)
                    oks[traced].append(ok)
                    if traced:
                        tracer.end_op()
            wall[traced] += time.perf_counter() - pass_start
    return times, oks, wall


def deterministic(runner: Runner, config: Path, workdir: Path) -> bool:
    """Run ``eta`` twice on ``config``; the output files must match byte for byte."""
    eta = Runner(runner.app, "eta", workdir)
    outputs = []
    for name in ("first", "second"):
        out_dir = workdir / "determinism" / name
        _, ok = eta.op(config, out_dir)
        if not ok:
            runner.first_failure = runner.first_failure or eta.first_failure
            return False
        outputs.append([(out_dir / f).read_bytes() for f in DETERMINISM_FILES])
    return outputs[0] == outputs[1]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def end_to_end_metrics(setup_s: float, times: list, oks: list, wall: float) -> dict:
    ms = [1e3 * t for t in times]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": sum(oks) / wall, "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "op_ms_p90": {"value": statistics.quantiles(ms, n=10, method="inclusive")[8], "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "ok_frac": {"value": sum(oks) / len(oks), "unit": "fraction"},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # the default of one worker thread
    os.environ.pop("EQUICHAR_THREADS", None)
    workdir = WORK / str(os.getpid())
    try:
        setup_s, runner, configs, warm_ok = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            # the run's own process checks the warm-up op; a probe only times it
            print(setup_s)
            return 0
        setups = [setup_s]
        if args.trace:
            from calltrace import Tracer

            tracer = Tracer()
            by_side, oks_by_side, wall = traced_loop(runner, configs, args.seconds, tracer)
            metrics = tracer.per_op_metrics()
            for traced, name in ((False, "untraced"), (True, "traced")):
                rate = sum(oks_by_side[traced]) / wall[traced]
                metrics[f"bench.{name}_ops_per_s"] = {"value": rate, "unit": "1/s"}
            if tracer.missing:
                print(f"# functions not found, reported as 0: {tracer.missing}")
            times = by_side[False] + by_side[True]
            oks = oks_by_side[False] + oks_by_side[True]
        else:
            setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
            times, oks, wall = closed_loop(runner, configs, args.seconds)
            metrics = end_to_end_metrics(statistics.median(setups), times, oks, wall)

        same = deterministic(runner, configs[0], workdir)
        failed = oks.count(False)
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "ops_timed": len(times),
            "configs": len(configs),
            "setup_samples_s": setups,
            "warm_up_ok": warm_ok,
            "outputs_byte_identical": same,
            "first_failure": runner.first_failure,
            **environment(),
        }
        print("# " + json.dumps(info, sort_keys=True))
        result = {
            "correct": warm_ok and same and failed == 0,
            "attempted": len(oks),
            "failed": failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
