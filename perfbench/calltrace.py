"""Call tracing for the benchmark's traced run.

The tracer wraps public functions of the ``equichar`` modules from outside
the program.  A function is often bound under several names, for example
``hirzebruch_l_log_germ`` in ``matforms``, ``charforms``, ``skr`` and
``app``, so every ``equichar.*`` module attribute bound to the same function
object is rebound to the wrapper; a call through any alias is counted.

Each call records a span (name, start, end, parent span, op id) in memory.
At the end of each op the spans are reduced to call counts and self times:
a span's self time is its duration minus the durations of its direct child
spans.  Time in unwrapped callees counts to the nearest wrapped caller.
The stack of open spans assumes one thread, which the benchmark guarantees
by leaving ``EQUICHAR_THREADS`` unset.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import NamedTuple

# module -> public functions traced, in the order metrics are reported
TRACED = {
    "exterior": ("wedge", "exp_form"),
    "matforms": ("hirzebruch_l_log_germ", "apply_germ", "star_second", "mat_mul"),
    "charforms": ("transgression_degree3", "transgression_degree3_alt"),
    "skr": (
        "derived_functions",
        "l4_coefficient",
        "boundary_data",
        "closed_transgression_integrand",
        "transgression_pullback_closed",
        "transgression_pullback_direct",
    ),
    "oracle": ("riemann_frame_fd", "christoffel_fd", "kahler_defect_fd", "pregeodesic_defect_fd"),
    "app": (
        "main",
        "load_config",
        "build_profile",
        "eta_invariant",
        "emit_tables",
        "run_check",
        "run_oracle",
    ),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the op's list, -1 at top level
    op_id: int


class Tracer:
    """Installs wrappers on enter, restores the original bindings on exit.

    One tracer may be entered many times; its totals add up across entries.
    """

    def __init__(self):
        self.spans: list = []
        self.op_id = 0  # also the number of finished ops
        self.calls = Counter()
        self.self_s = Counter()
        self.missing: list = []
        self._open: list = []
        self._restore: list = []

    def __enter__(self) -> "Tracer":
        self.missing = []
        modules = _equichar_modules()
        for mod_name, fns in TRACED.items():
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                fn = getattr(sys.modules.get(f"equichar.{mod_name}"), fn_name, None)
                if fn is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, stack[-1] if stack else -1, self.op_id)

        return traced

    def end_op(self) -> None:
        """Fold the finished op's spans into the totals and drop them."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        for span, covered in zip(self.spans, child):
            self.calls[span.name] += 1
            self.self_s[span.name] += span.end - span.start - covered
        self.spans.clear()
        self.op_id += 1

    def per_op_metrics(self) -> dict:
        """Per-op call counts and self times, and one self-time rollup per module."""
        n = max(self.op_id, 1)
        metrics = {}
        for mod, fns in TRACED.items():
            total = 0.0
            for fn in fns:
                name = f"{mod}.{fn}"
                metrics[f"{name}.calls"] = {"value": self.calls[name] / n, "unit": "calls/op"}
                metrics[f"{name}.self_ms"] = {"value": 1e3 * self.self_s[name] / n, "unit": "ms/op"}
                total += self.self_s[name]
            metrics[f"{mod}.self_ms"] = {"value": 1e3 * total / n, "unit": "ms/op"}
        return metrics


def _equichar_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "equichar" or name.startswith("equichar."))
    ]
