"""Per-layer spans and counts, recorded from outside the program.

For a traced pass the tracer rebinds the public entry points of each klcert
layer, in every klcert module that imported them, to wrappers that record
a span (layer, function, thread, parent span, start, end) and take exact
counts from arguments, return values and written files.  `uninstall`
restores the original functions, so untraced passes run the program as is.

The per-point oracles `kl_gap` and `value_gap` only get a call counter, not
a span, which keeps the traced pass cheap.  Private helpers (for example
`lasso_polish`) are not wrapped; their time is their caller's self time.

Self time: a span's duration minus the part of it covered by its children.
Where spans run concurrently (the sweep's thread pool), each instant is
split evenly between the innermost spans active at that instant, so the
self times of all spans add up exactly to the time covered by any span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

# layer -> (module, public entry points)
ENTRY_POINTS = {
    "cli": ("klcert.cli", ("main",)),
    "experiments": ("klcert.experiments", (
        "run_experiment", "certify_run", "sweep_relative_step",
        "write_artifacts", "write_sweep")),
    "problems": ("klcert.problems", ("generate_instance",)),
    "error_bounds": ("klcert.error_bounds", (
        "lasso_nu", "lasso_gamma", "hoffman_constant", "feasibility_bound",
        "uniformly_convex_profile")),
    "descent": ("klcert.descent", (
        "ista", "forward_backward", "barycentric_projection",
        "alternating_projection")),
    "majorant": ("klcert.majorant", ("worst_case_sequence",)),
    "verification": ("klcert.verification", (
        "check_majorization", "check_distance_bound",
        "check_prox_step_domination", "check_kl_sampling",
        "check_error_bound_sampling")),
    "tracefmt": ("klcert.tracefmt", ("write_trace", "write_table")),
}

# call counters without spans: metric -> (module, function)
COUNTED = {
    "desingularization.kl_gap_calls": ("klcert.desingularization", "kl_gap"),
    "convex.value_gap_calls": ("klcert.convex", "value_gap"),
}

# self time of these functions, summed per metric
TIME_METRICS = {
    "generate_instance": "problems.generate_s",
    "lasso_nu": "error_bounds.constants_s",
    "lasso_gamma": "error_bounds.constants_s",
    "hoffman_constant": "error_bounds.constants_s",
    "feasibility_bound": "error_bounds.constants_s",
    "uniformly_convex_profile": "error_bounds.constants_s",
    "ista": "descent.run_s",
    "forward_backward": "descent.run_s",
    "barycentric_projection": "descent.run_s",
    "alternating_projection": "descent.run_s",
    "worst_case_sequence": "majorant.sequence_s",
    "check_kl_sampling": "verification.kl_s",
    "check_error_bound_sampling": "verification.eb_s",
    "check_majorization": "verification.trajectory_s",
    "check_distance_bound": "verification.trajectory_s",
    "check_prox_step_domination": "verification.trajectory_s",
    "write_artifacts": "experiments.write_s",
    "write_sweep": "experiments.write_s",
    "write_trace": "tracefmt.write_s",
    "write_table": "tracefmt.write_s",
    "run_experiment": "experiments.self_s",
    "certify_run": "experiments.certify_s",
    "sweep_relative_step": "experiments.sweep_self_s",
    "main": "cli.self_s",
}

COUNT_METRICS = (
    "problems.calls", "descent.steps", "majorant.steps",
    "verification.samples_drawn", "verification.samples_valid",
    "verification.trajectory_points", "experiments.bytes_written",
    "experiments.bytes_read", "tracefmt.rows",
) + tuple(COUNTED)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _counts(name: str, bound, result, parent_layer) -> dict:
    """Exact counts of one call, from its arguments, result and files."""
    args = bound.arguments
    if name == "generate_instance":
        return {"problems.calls": 1}
    if name in ENTRY_POINTS["descent"][1]:
        # ista calls forward_backward: count the outermost call only
        if parent_layer == "descent":
            return {}
        return {"descent.steps": result.num_steps}
    if name == "worst_case_sequence":
        return {"majorant.steps": result.num_steps}
    if name in ("check_kl_sampling", "check_error_bound_sampling"):
        return {"verification.samples_drawn": int(args["n_samples"]),
                "verification.samples_valid": result.samples}
    if name in ("check_majorization", "check_distance_bound",
                "check_prox_step_domination"):
        return {"verification.trajectory_points": result.samples}
    if name == "write_artifacts":
        return {"experiments.bytes_written": _file_bytes(*result.values())}
    if name == "write_sweep":
        return {"experiments.bytes_written": _file_bytes(args["path"])}
    if name in ("write_trace", "write_table"):
        return {"tracefmt.rows": len(args["rows"])}
    if name == "certify_run":
        return {"experiments.bytes_read": _file_bytes(
            args["run_path"], args["certificate_path"])}
    return {}


class Span:
    __slots__ = ("id", "parent", "layer", "name", "thread", "start", "end")

    def __init__(self, id_, parent, layer, name, thread, start):
        self.id, self.parent, self.layer, self.name = id_, parent, layer, name
        self.thread, self.start, self.end = thread, start, start

    def to_list(self) -> list:
        return [self.id, self.parent, self.layer, self.name, self.thread,
                self.start, self.end]


class Tracer:
    """Spans and counts for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.missing = []              # "module.function" not found
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._rebound = []             # (module, attribute, original)
        self.main_thread = threading.get_ident()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, layer, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(next(self._ids), parent.id if parent else None,
                        layer, name, threading.get_ident(),
                        time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counts = _counts(name, bound, result,
                             parent.layer if parent else None)
            with self._lock:
                for key, value in counts.items():
                    self.counts[key] += value
            return result
        return traced

    def _count_wrapper(self, metric, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[metric] += 1
            return fn(*args, **kwargs)
        return counted

    def _rebind(self, module_name, name, make):
        module = importlib.import_module(module_name)
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{module_name}.{name}")
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "klcert" and not mod_name.startswith("klcert."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._rebound.append((mod, attr, original))

    def install(self) -> None:
        for layer, (module_name, names) in ENTRY_POINTS.items():
            for name in names:
                self._rebind(module_name, name, functools.partial(
                    self._span_wrapper, layer, name))
        for metric, (module_name, name) in COUNTED.items():
            self._rebind(module_name, name, functools.partial(
                self._count_wrapper, metric))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def absent_layers(self) -> list:
        """Layers none of whose entry points exist any more."""
        missing = set(self.missing)
        return [layer for layer, (module_name, names) in ENTRY_POINTS.items()
                if all(f"{module_name}.{n}" in missing for n in names)]

    def self_times(self) -> dict:
        """Span id -> self time in seconds (see the module docstring)."""
        by_id = {s.id: s for s in self.spans}
        main = [s for s in self.spans if s.thread == self.main_thread]
        for s in self.spans:
            # a pool thread's outermost span belongs to the innermost
            # main-thread span that encloses it
            if s.parent is None and s.thread != self.main_thread:
                enclosing = [m for m in main
                             if m.start <= s.start and s.end <= m.end]
                if enclosing:
                    s.parent = max(enclosing, key=lambda m: m.start).id
        events = sorted([(s.end, 0, s.id) for s in self.spans]
                        + [(s.start, 1, s.id) for s in self.spans])
        active = set()
        open_children = defaultdict(int)
        own = defaultdict(float)
        previous = None
        for t, starting, sid in events:
            if active and t > previous:
                leaves = [a for a in active if open_children[a] == 0]
                share = (t - previous) / len(leaves)
                for a in leaves:
                    own[a] += share
            previous = t
            parent = by_id[sid].parent
            if starting:
                active.add(sid)
                if parent in active:
                    open_children[parent] += 1
            else:
                active.discard(sid)
                if parent in active:
                    open_children[parent] -= 1
        return own

    def layer_metrics(self) -> dict:
        """Per-layer self times (s) and counts of the traced pass."""
        own = self.self_times()
        metrics = {m: 0.0 for m in set(TIME_METRICS.values())}
        for s in self.spans:
            metrics[TIME_METRICS[s.name]] += own[s.id]
        for m in COUNT_METRICS:
            metrics[m] = self.counts.get(m, 0)
        metrics["traced_s"] = sum(own.values())
        return metrics
