"""Spans around pmustream's public layer functions, recorded from outside.

``Tracer.install()`` replaces each traced function, in every pmustream module
that binds it, with a wrapper that records a span (name, start, end, parent)
and the work counts the call carries.  ``uninstall()`` puts the originals
back.  A traced name that the package no longer defines is listed in
``absent`` and skipped.  Spans stay in memory; self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

MODULES = ("pmustream", "pmustream.waveform", "pmustream.estimators",
           "pmustream.decimator", "pmustream.metrics", "pmustream.pipeline",
           "pmustream.cli")


def _algorithm(args, kwargs):
    return (args[0] if args else kwargs["kind"]).algorithm


def _reports(args, kwargs, result):
    return {"reports": len(result)}


def _decimated(args, kwargs, result):
    kept, records = result
    return {"frames": len(records), "kept": len(kept)}


def _points(args, kwargs, result):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["t"]))}


def _query_points(args, kwargs, result):
    return {"points": len(result.t)}


def _samples(args, kwargs, result):
    return {"samples": result.n}


# span name -> (defining module, attribute path, counter of the call's work,
# suffix of the span name taken from the call's arguments)
TARGETS = {
    "waveform.parse_profile": ("pmustream.pipeline", "parse_profile", None, None),
    "waveform.from_anchors": ("pmustream.waveform", "GroundTruth.from_anchors", None, None),
    "waveform.synth_three_phase": ("pmustream.waveform", "synth_three_phase", _samples, None),
    "waveform.eval_reference": ("pmustream.waveform", "eval_reference", _points, None),
    "estimators.run_estimator": ("pmustream.estimators", "run_estimator", _reports, _algorithm),
    "decimator.decimate_stream": ("pmustream.decimator", "decimate_stream", _decimated, None),
    "decimator.reconstruct": ("pmustream.decimator", "reconstruct", _query_points, None),
    "metrics.tracking_indices": ("pmustream.metrics", "tracking_indices", None, None),
    "pipeline.run_experiment": ("pmustream.pipeline", "run_experiment", None, None),
}


class Tracer:
    """In-memory span recorder; one per traced round."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.counts.append({})
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counter, suffix=None):
        def traced(*args, **kwargs):
            idx = self.open(name if suffix is None else f"{name}.{suffix(args, kwargs)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.counts[idx] = counter(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (module_name, attr, counter, suffix) in TARGETS.items():
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                descriptor = None if cls is None else cls.__dict__.get(meth)
                if not isinstance(descriptor, classmethod):
                    self.absent.append(name)
                    continue
                self._set(cls, meth, classmethod(
                    self.wrap(name, descriptor.__func__, counter, suffix)))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            traced = self.wrap(name, fn, counter, suffix)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, traced)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        dur = self.durations()
        out = dur.copy()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= dur[idx]
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed counts."""
        dur = self.durations()
        own = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, name in enumerate(self.names):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += dur[idx]
            agg["self_s"] += own[idx]
            for key, value in self.counts[idx].items():
                agg[key] += value
        return out
