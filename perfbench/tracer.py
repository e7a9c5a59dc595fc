"""Spans around the public callables of each layer, kept as data.

:data:`BOUNDARIES` names every traced callable by module path and
attribute path.  :func:`install` wraps each one where its callers look
it up: on the owning class for methods, and — for module functions —
on the defining module *and* on every loaded ``repro`` module that
imported the function by name.  A boundary that no longer resolves is
reported as ``absent`` with zero calls instead of failing the run, so
the program may delete or rename what it traces.

Spans (name, start, end, parent) are kept in memory by a
:class:`Tracer` and written as Chrome trace-event JSON, which Perfetto
and ``chrome://tracing`` open.  :func:`self_seconds` and
:func:`span_seconds` reduce such a trace to self and inclusive times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Boundary:
    """One traced callable.

    ``span`` False records only calls and counters: it keeps a helper
    that runs inside a traced span from splitting that span's self time.
    ``counters`` maps ``(args, result)`` to counts added per call.
    """

    name: str
    layer: str
    module: str
    attr: str
    span: bool = True
    counters: Callable[[tuple, Any], dict[str, float]] | None = None


def _subphase_counters(args, result) -> dict[str, float]:
    found, accepted, _trace = result
    return {"candidates": found, "accepted": accepted}


def _encoded_bytes(args, result) -> dict[str, float]:
    return {"target_bytes": len(args[0].data)}


def _stored_bytes(args, result) -> dict[str, float]:
    return {"bytes": sum(len(data) for data in args[1].values())}


def _fault_counter(args, result) -> dict[str, float]:
    return {"faults": 0 if result is None else 1}


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("manifest", "collection", "repro.collection.manifest",
             "Manifest.of_collection"),
    Boundary("diff_manifests", "collection", "repro.collection.manifest",
             "diff_manifests"),
    Boundary("store_write", "collection", "repro.collection.store",
             "CollectionStore.write_collection", counters=_stored_bytes),
    Boundary("executor_run", "parallel", "repro.parallel.executor",
             "SyncExecutor.run"),
    Boundary("file_task", "parallel", "repro.parallel.executor",
             "_sync_one"),
    Boundary("session_init", "core", "repro.core.protocol",
             "CoreSyncSession.__init__"),
    Boundary("step_round", "core", "repro.core.protocol",
             "CoreSyncSession.step_round"),
    Boundary("subphase", "core", "repro.core.protocol", "_run_subphase",
             span=False, counters=_subphase_counters),
    Boundary("emit_hashes", "core", "repro.core.server",
             "ServerSession.emit_hashes"),
    Boundary("process_hashes", "core", "repro.core.client",
             "ClientSession.process_hashes"),
    Boundary("server_verify", "core", "repro.core.server",
             "ServerSession.verification_values"),
    Boundary("client_verify", "core", "repro.core.client",
             "ClientSession.verification_values"),
    Boundary("emit_delta", "delta", "repro.core.server",
             "ServerSession.emit_delta", counters=_encoded_bytes),
    Boundary("apply_delta", "delta", "repro.core.client",
             "ClientSession.apply_delta"),
    Boundary("fingerprint", "hashing", "repro.hashing.strong",
             "file_fingerprint"),
    Boundary("send", "net", "repro.net.channel", "SimulatedChannel.send"),
    Boundary("next_fault", "net", "repro.net.faults", "FaultPlan.next_fault",
             span=False, counters=_fault_counter),
    Boundary("journal_record", "resilience", "repro.resilience.checkpoint",
             "SessionJournal.record_round"),
    Boundary("journal_commit", "resilience", "repro.resilience.checkpoint",
             "SessionJournal.commit"),
    Boundary("sketch_add", "reuse", "repro.reuse.similarity",
             "SimilarityIndex.add"),
    Boundary("sketch_signature", "reuse", "repro.reuse.similarity",
             "SimilarityIndex.signature_of"),
    Boundary("best_reference", "reuse", "repro.reuse.similarity",
             "SimilarityIndex.best_reference"),
)


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter_ns()
        #: One ``[name, start_ns, end_ns, parent_index]`` per span.
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.status: dict[str, str] = {}
        self._open: list[int] = []

    def wrap(self, boundary: Boundary, func: Callable) -> Callable:
        name = boundary.name
        spans, stack, calls = self.spans, self._open, self.calls
        count = boundary.counters
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if not boundary.span:
                result = func(*args, **kwargs)
                if count is not None:
                    self._add(name, count(args, result))
                return result
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if count is not None:
                self._add(name, count(args, result))
            return result

        return traced

    def _add(self, name: str, values: dict[str, float]) -> None:
        for key, value in values.items():
            key = f"{name}.{key}"
            self.counters[key] = self.counters.get(key, 0) + value

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON: one complete ("X") event per span."""
        layer = {b.name: b.layer for b in BOUNDARIES}
        events = [
            {
                "name": name,
                "cat": layer.get(name, "other"),
                "ph": "X",
                "ts": (start - self.epoch) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "boundaries": self.status,
                "calls": self.calls,
                "counters": self.counters,
            },
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


def _resolve(boundary: Boundary):
    """(owner, attribute name, raw attribute), or None if absent."""
    try:
        owner = importlib.import_module(boundary.module)
    except ImportError:
        return None
    *path, attr = boundary.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # object's slots (``__init__``...) would take the wrong arguments.
        for klass in owner.__mro__[:-1]:
            if attr in vars(klass):
                return owner, attr, vars(klass)[attr]
        return None
    raw = getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


def install(tracer: Tracer, boundaries=BOUNDARIES) -> dict[str, str]:
    """Wrap every resolvable boundary; return name → ``ok``/``absent``."""
    for boundary in boundaries:
        found = _resolve(boundary)
        if found is None or not callable(
            getattr(found[2], "__func__", found[2])
        ):
            tracer.status[boundary.name] = "absent"
            tracer.calls.setdefault(boundary.name, 0)
            continue
        owner, attr, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = tracer.wrap(boundary, raw.__func__)
            setattr(owner, attr, type(raw)(wrapped))
        else:
            wrapped = tracer.wrap(boundary, raw)
            setattr(owner, attr, wrapped)
            if not isinstance(owner, type):
                _rebind(raw, wrapped)
        tracer.status[boundary.name] = "ok"
    return tracer.status


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every ``from m import f`` copy in ``repro`` at ``wrapped``."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped


def self_seconds(trace: dict) -> dict[str, float]:
    """Seconds per boundary name not covered by a direct child span."""
    events = trace["traceEvents"]
    child_us = [0.0] * len(events)
    for event in events:
        parent = event["args"]["parent"]
        if parent >= 0:
            child_us[parent] += event["dur"]
    seconds: dict[str, float] = {}
    for index, event in enumerate(events):
        own = (event["dur"] - child_us[index]) / 1e6
        seconds[event["name"]] = seconds.get(event["name"], 0.0) + own
    return seconds


def span_seconds(trace: dict, names: set[str]) -> float:
    """Wall seconds inside spans named ``names``, counting nested ones once."""
    events = trace["traceEvents"]
    total_us = 0.0
    for event in events:
        if event["name"] not in names:
            continue
        parent = event["args"]["parent"]
        while parent >= 0 and events[parent]["name"] not in names:
            parent = events[parent]["args"]["parent"]
        if parent < 0:
            total_us += event["dur"]
    return total_us / 1e6
