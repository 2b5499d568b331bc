"""Span recording for the traced benchmark run, from outside the package.

A span is recorded around a public callable by replacing it, in every module
that holds a reference to it, with a wrapper that notes the name, start, end,
parent span and run id.  Patching every holder matters because the package
imports names directly (``from .fields import from_physical``), so the call
site looks the name up in its own module, not in the defining one.  FFTs are
wrapped at ``scipy.fft``, which the package calls by attribute.

Spans are kept in memory and written out once, after the run.  All
aggregation (calls, total and self time, per-step counts) happens on the
saved rows, so it can be checked on a synthetic span tree.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

FFT_OPS = ("irfftn", "rfftn", "fftn", "ifftn")

# "<module>.<name>" of lerayflow callables; each is wrapped wherever a
# lerayflow module refers to it.
LERAYFLOW_SPANS = (
    "stepping.run",
    "dynamics.rhs",
    "dynamics.advect",
    "dynamics.pressure_solve",
    "fields.leray_project",
    "fields.from_physical",
    "fields.to_physical",
    "fields.inverse_transform",
    "fields.forward_transform",
    "fields.inverse_transform_scalar",
    "fields.hermitian_residual",
    "filtering.deconvolve",
    "filtering.filter_apply",
    "diagnostics.measure_energy",
    "diagnostics.energy_budget_residual",
    "diagnostics.local_energy_residual",
    "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint",
    "output.write_energy_csv",
    "output.write_summary",
    "config.parse_config",
    "runner.execute_run",
)
SPANS = tuple(f"fft.{op}" for op in FFT_OPS) + LERAYFLOW_SPANS

# Spans that are methods, wrapped on their class.
METHODS = {"fields.hermitian_residual": "SpectralVectorField"}

# Spans whose byte count is the size of the file named by their first argument.
FILE_SPANS = ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
              "output.write_energy_csv", "output.write_summary")

# Spans each workload is expected to enter; a span with 0 calls on its
# workload is reported as a warning, never as a failure.
EXPECTED = {
    "mhd-run-32": (
        "fft.irfftn", "fft.rfftn", "stepping.run", "dynamics.rhs",
        "filtering.deconvolve", "fields.leray_project",
        "fields.from_physical", "fields.to_physical",
        "diagnostics.measure_energy", "fields.hermitian_residual",
        "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
        "output.write_energy_csv", "output.write_summary",
        "config.parse_config", "runner.execute_run"),
    "local-energy-32": (
        "fft.irfftn", "fft.rfftn", "fft.ifftn", "stepping.run",
        "dynamics.rhs", "dynamics.advect", "fields.leray_project",
        "fields.from_physical", "fields.to_physical", "filtering.filter_apply",
        "diagnostics.measure_energy", "fields.hermitian_residual",
        "dynamics.pressure_solve", "diagnostics.local_energy_residual",
        "diagnostics.energy_budget_residual", "fields.inverse_transform",
        "fields.inverse_transform_scalar"),
    "taylor-green-2d": (
        "fft.irfftn", "fft.rfftn", "fft.fftn", "fft.ifftn", "stepping.run",
        "dynamics.rhs", "dynamics.advect", "fields.to_physical",
        "fields.forward_transform", "fields.inverse_transform",
        "config.parse_config", "runner.execute_run",
        "output.write_energy_csv", "checkpoint.save_checkpoint"),
}


def is_exact(metric: str) -> bool:
    """Counts and computed sizes, which repeat exactly between runs."""
    return metric.endswith((".calls", "bytes", ".per_step"))


def unit(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith(".per_step"):
        return "count/step"
    return "s"


def _array_bytes(args, result) -> int:
    import numpy as np
    return int(np.asarray(args[0]).nbytes + np.asarray(result).nbytes)


def _file_bytes(args, result) -> int:
    return int(os.path.getsize(args[0]))


@dataclass
class Tracer:
    """Records the spans of one child run.  Single-threaded by construction:
    one simulation per process, at LERAY_THREADS=1."""

    run_id: str
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def wrap(self, name: str, fn, nbytes=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if nbytes is not None:
                span[4] = nbytes(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> list[str]:
        """Wrap every span target; returns the span names not found."""
        import scipy.fft

        holders = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "lerayflow"
                                         or k.startswith("lerayflow."))]
        holders.append(scipy.fft)
        missing = []
        for name in SPANS:
            module, attr = name.split(".")
            try:
                owner = (scipy.fft if module == "fft" else
                         importlib.import_module(f"lerayflow.{module}"))
                if name in METHODS:
                    owner = getattr(owner, METHODS[name])
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(name)
                continue
            nbytes = (_array_bytes if module == "fft" else
                      _file_bytes if name in FILE_SPANS else None)
            wrapped = self.wrap(name, original, nbytes)
            for holder in [owner] if name in METHODS else holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapped)
        return missing

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def rows(self) -> list[list]:
        """The spans as ``[name, start_ns, end_ns, parent, run_id, bytes]``."""
        return [[name, start, end, parent, self.run_id, nbytes]
                for name, start, end, parent, nbytes in self.spans]

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, one row of :meth:`rows` each."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps(row) + "\n")


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def aggregate(rows: list[list], steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``rows`` are ``[name, start_ns, end_ns, parent, run_id, bytes]`` with
    parents listed before their children.  Self time is a span's duration
    minus the durations of its direct children; the spans of one thread nest
    strictly, so the children never overlap.
    """
    calls = dict.fromkeys(SPANS, 0)
    total = dict.fromkeys(SPANS, 0)
    own = dict.fromkeys(SPANS, 0)
    nbytes = dict.fromkeys(SPANS, 0)
    in_run: list[bool] = []
    per_step = {"fft.irfftn": 0, "fft.rfftn": 0}
    largest = 0
    for name, start, end, parent, _run, size in rows:
        dur = end - start
        calls[name] += 1
        total[name] += dur
        own[name] += dur
        nbytes[name] += size
        inside = parent >= 0 and (in_run[parent]
                                  or rows[parent][0] == "stepping.run")
        in_run.append(inside)
        if parent >= 0:
            own[rows[parent][0]] -= dur
        if inside and name in per_step:
            per_step[name] += 1
        if name.startswith("fft."):
            largest = max(largest, size)

    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name] / 1e9
        out[f"{name}.self_s"] = own[name] / 1e9
    for name in SPANS:
        if name.startswith("fft.") or name in FILE_SPANS:
            out[f"{name}.bytes"] = nbytes[name]
    for name, count in per_step.items():
        out[f"{name}.per_step"] = count / steps
    out["stepping.run.self_per_step_s"] = own["stepping.run"] / 1e9 / steps
    rhs_calls = calls["dynamics.rhs"]
    out["dynamics.rhs.self_per_call_s"] = (
        own["dynamics.rhs"] / 1e9 / rhs_calls if rhs_calls else 0.0)
    out["fft.largest_call_bytes"] = largest
    return out
