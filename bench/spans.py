"""Layer spans recorded from outside the program.

Each layer function is wrapped where its caller looks it up (the name
bound in the calling module), so the program itself is unchanged.  A
span records its name, start, end, parent span and a work count taken
from the call's arguments.  Spans stay in memory; the caller turns them
into per-layer totals when the run ends.

Tracing assumes a single thread: the parent of a span is the innermost
open span, so Monte Carlo must run with ``--threads 1`` while traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    count: int


def _steps(a: dict) -> int:
    return a["n_steps"]


def _batched_steps(a: dict) -> int:
    return a["model"].r * a["n_steps"]


def _leaves(a: dict) -> int:
    """Final-step trajectory count of an exact enumeration: r^N for a
    fixed filter, r^(2N) (true, detected) pairs for the switching one."""
    per_step = a["model"].r ** (1 if a.get("filt") is not None else 2)
    return per_step ** a["n_steps"]


def _sample_steps(a: dict) -> int:
    return a["count"] * a["n_steps"]


# (module, attribute, span name, work count from the bound arguments)
TARGETS = (
    ("slds_mse.cli", "load_scenario", "serialize.load_scenario", None),
    ("slds_mse.cli", "validate_scenario", "model.validate_scenario", None),
    ("slds_mse.cli", "average_filter_modes", "kalman.average_filter_modes", None),
    ("slds_mse.montecarlo", "average_filter_modes", "kalman.average_filter_modes", None),
    ("slds_mse.fast", "gain_schedule", "kalman.gain_schedule", _steps),
    ("slds_mse.enumeration", "gain_schedule", "kalman.gain_schedule", _steps),
    ("slds_mse.montecarlo", "gain_schedule", "kalman.gain_schedule", _steps),
    ("slds_mse.fast", "mode_schedules", "kalman.mode_schedules", _batched_steps),
    ("slds_mse.enumeration", "mode_schedules", "kalman.mode_schedules", _batched_steps),
    ("slds_mse.montecarlo", "mode_schedules", "kalman.mode_schedules", _batched_steps),
    ("slds_mse.cli", "aggregate_series", "fast.aggregate_series", _steps),
    ("slds_mse.fast", "aggregate_series", "fast.aggregate_series", _steps),
    ("slds_mse.cli", "merge_recommendation", "fast.merge_recommendation", None),
    ("slds_mse.cli", "single_mode_slds_moments", "enumeration", _leaves),
    ("slds_mse.cli", "skf_slds_moments", "enumeration", _leaves),
    ("slds_mse.cli", "pruned_moments", "enumeration", None),
    ("slds_mse.cli", "run_monte_carlo", "montecarlo.run", None),
    ("slds_mse.montecarlo", "_simulate_batch", "montecarlo.simulate", _sample_steps),
    ("slds_mse.montecarlo", "draw_detections", "montecarlo.detect", None),
    ("slds_mse.montecarlo", "_single_filter_errors", "montecarlo.replay", None),
    ("slds_mse.montecarlo", "_skf_errors", "montecarlo.replay", None),
    ("slds_mse.montecarlo", "SimRun.from_errors", "montecarlo.accumulate", None),
)

ROOT_SPAN = "cli"


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every
    wrapped name.  Targets that no longer exist, and work counts whose
    arguments changed, are listed in ``missing`` instead of failing the
    run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def span(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, 0.0, 0.0, parent, 0))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                work = 0
                if count is not None:
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        work = count(bound.arguments)
                    except (TypeError, KeyError, AttributeError):
                        self.missing.add(f"count of {name}")
                self.spans[idx] = Span(name, start, end, parent, work)

        return traced

    def install(self) -> None:
        for module_name, attr, name, count in TARGETS:
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[leaf]
            except (ImportError, AttributeError, KeyError):
                self.missing.add(f"{module_name}.{attr}")
                continue
            wrapped = self.span(name, getattr(owner, leaf), count)
            if isinstance(owner, type):
                # class attribute (a classmethod): keep it callable from
                # the class without binding
                wrapped = staticmethod(wrapped)
            setattr(owner, leaf, wrapped)
            self._restore.append((owner, leaf, raw))

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._restore):
            setattr(owner, leaf, raw)
        self._restore.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out


def layer_totals(spans: list[Span], selfs: list[float], indices) -> dict:
    """Per span name over the given span indices: calls, total and self
    seconds, and work count."""
    totals: dict = {}
    for idx in indices:
        span = spans[idx]
        entry = totals.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0, "count": 0})
        entry["calls"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += selfs[idx]
        entry["count"] += span.count
    return totals
