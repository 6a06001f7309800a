"""Span accounting for the traced benchmark run.

The package carries no timers of its own, so the traced run wraps public
entry points of the shortchain modules from outside.  Each wrapper records
how often its span was entered, the total time inside it, and the part of
that time covered by nested wrapped calls; total minus nested is the span's
self time.  Counting hooks run at the same boundaries and record work done
(points evaluated, non-finite values, bytes written).  Everything is
aggregated in memory and read out after the pass.

Wrapping is bookkeeping only: a wrapper returns exactly what the wrapped
callable returns, and ``restore`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from pathlib import Path

import numpy as np


def _points(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs.get("x")
    return 1 if np.ndim(x) == 1 else len(x)


def _count_log_density(counts, args, kwargs, out):
    counts["targets.log_density_points"] += _points(args, kwargs)
    counts["targets.nonfinite_points"] += int(np.count_nonzero(~np.isfinite(out)))


def _count_grad(counts, args, kwargs, out):
    counts["targets.grad_points"] += _points(args, kwargs)
    finite_rows = np.isfinite(np.atleast_2d(out)).all(axis=-1)
    counts["targets.nonfinite_points"] += int(np.count_nonzero(~finite_rows))


def _count_bytes(counts, args, kwargs, out):
    counts["cli.bytes_written"] += sum(Path(p).stat().st_size for p in out.values())


# (module, attribute path, span, counting hook).  Names the runner imported
# with ``from .x import y`` are wrapped where the runner looks them up, in
# the runner's own namespace; methods are wrapped on their class.
ENTRY_POINTS = [
    ("targets", "TargetModel.log_density", "targets.log_density", _count_log_density),
    ("targets", "TargetModel.grad_log_density", "targets.grad", _count_grad),
    ("approximations", "Approximation.sample", "approximations.sample", None),
    ("rng", "RandomStream.__init__", "rng.init", None),
    ("rng", "RandomStream.standard_normal", "rng.draw", None),
    ("rng", "RandomStream.random", "rng.draw", None),
    ("rng", "RandomStream.integers", "rng.draw", None),
    ("runner", "step_batch", "kernels.step_batch", None),
    ("runner", "chain_count", "adaptation.sizing", None),
    ("runner", "iteration_count", "adaptation.sizing", None),
    ("adaptation", "AdaptationState.update", "adaptation.update", None),
    ("runner", "reliability_check", "diagnostics", None),
    ("runner", "mean_difference_ci", "diagnostics", None),
    ("runner", "log_variance_ratio_ci", "diagnostics", None),
    ("runner", "quantile_difference_ci", "diagnostics", None),
    ("runner", "error_lower_bound", "diagnostics", None),
    ("runner", "scalar_functional_diagnostics", "diagnostics", None),
    ("runner", "sample_quantile", "diagnostics", None),
    ("runner", "binomial_quantile", "diagnostics", None),
    ("cli", "run_diagnostic", "runner.run", None),
    ("cli", "load_config", "cli.build", None),
    ("cli", "build_run", "cli.build", None),
    ("cli", "write_outputs", "cli.write", _count_bytes),
]

COUNTERS = ("targets.log_density_points", "targets.grad_points",
            "targets.nonfinite_points", "cli.bytes_written")


class Tracer:
    """Aggregated spans and counters for one traced pass.

    Attributes:
        spans: span name -> [calls, total seconds, nested seconds].
        counts: counter name -> running total.
        installed: span names with at least one wrapped entry point.
        absent: entry points that could not be found, as "module.attr".
    """

    def __init__(self):
        self.spans = {}
        self.counts = {name: 0 for name in COUNTERS}
        self.installed = set()
        self.absent = []
        self._stack = []
        self._patches = []

    def timed(self, fn, span, count=None):
        """Returns ``fn`` wrapped in a span named ``span``."""
        rec = self.spans.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    count(counts, args, kwargs, out)
                return out
            finally:
                elapsed = clock() - start
                stack.pop()
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def install(self, package: str, entry_points=ENTRY_POINTS):
        """Wraps every entry point that exists; records the others as absent."""
        for module_name, path, span, count in entry_points:
            try:
                owner = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                owner = None
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None or not (inspect.isfunction(raw) if isinstance(owner, type)
                                   else callable(raw)):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.timed(raw, span, count))
            self._patches.append((owner, attr, raw))
            self.installed.add(span)

    def restore(self) -> list:
        """Puts every original back; returns the names that did not come back."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, raw in self._patches if vars(owner).get(attr) is not raw]

    def self_time(self, span: str) -> float:
        _, total, nested = self.spans.get(span, [0, 0.0, 0.0])
        return total - nested

    def calls(self, span: str) -> int:
        return self.spans.get(span, [0, 0.0, 0.0])[0]
