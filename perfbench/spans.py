"""Span recorder and the timing wrappers of the traced benchmark run.

The traced run times every layer from outside, at its public calls:
:func:`install` replaces class methods and module attributes of the
``repro`` package with thin wrappers that record one span per call
(name, start, end, parent, thread) in memory.  Nothing under ``src/``
is edited, and :func:`uninstall` restores the originals, so one process
can alternate untraced and traced iterations to measure the tracing
overhead.

Spans use ``time.monotonic()``, which on Linux reads the system-wide
``CLOCK_MONOTONIC``: spans written by the server, the workers and the
client of one run share one timeline.  :meth:`Recorder.write` exports
them as Chrome trace-event JSON, the format ``repro obs-report`` reads.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
import weakref
from pathlib import Path
from typing import Callable

class Recorder:
    """Collects spans in memory; one per process."""

    def __init__(self) -> None:
        #: (name, start_s, end_s, span_id, parent_id, thread, attrs)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        describe: Callable[[tuple, dict, object], dict] | None = None,
    ) -> Callable:
        """``fn`` wrapped to record a ``name`` span per call.

        ``describe(args, kwargs, result)`` returns the span's attributes
        (counts the layer metrics need); it runs inside the span.
        """
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                attrs = describe(args, kwargs, result) if describe else None
            except BaseException as error:
                stack.pop()
                spans.append(
                    (name, start, time.monotonic(), span_id, parent,
                     threading.get_ident(), {"error": type(error).__name__})
                )
                raise
            end = time.monotonic()
            stack.pop()
            spans.append(
                (name, start, end, span_id, parent, threading.get_ident(), attrs)
            )
            return result

        return wrapper

    def mark(self, name: str, start: float, end: float) -> None:
        """Record a root span timed by the caller (e.g. one timed iteration)."""
        self.spans.append(
            (name, start, end, next(self._ids), 0, threading.get_ident(), None)
        )

    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON (``ts``/``dur`` in microseconds)."""
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": "perfbench",
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": thread,
                "id": f"{pid}:{span_id}",
                "parent": f"{pid}:{parent}" if parent else None,
                "args": attrs or {},
            }
            for name, start, end, span_id, parent, thread, attrs in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str | Path) -> None:
        """Write the spans as a Chrome trace file."""
        Path(path).write_text(json.dumps(self.to_chrome_trace()))


# ----------------------------------------------------------------------
# what each wrapped call records
# ----------------------------------------------------------------------


def _row_describe() -> Callable:
    """``CellPopulation.row``: whether this call sampled the row."""
    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def describe(args, kwargs, cells):
        population, key = args[0], tuple(args[1:4])
        keys = seen.setdefault(population, set())
        if key in keys:
            return None
        keys.add(key)
        return {
            "sampled": 1,
            "cells": cells.hammer.size + cells.press.size + cells.retention.size,
        }

    return describe


def _flips(args, kwargs, flips):
    return {"flips": len(flips)} if flips else None


def _read_flips(args, kwargs, result):
    return {"flips": len(result[1]), "reads": 1}


def _deposit(args, kwargs, result):
    return {"acts": kwargs["count"] if "count" in kwargs else args[5]}


def _act(args, kwargs, flips):
    return {"acts": 1, "flips": len(flips)}


def _engine_result(args, kwargs, result):
    return {
        "shards": result.shards_run,
        "retries": result.retries,
        "failed": len(result.failures),
    }


def _shard_outcome(args, kwargs, outcome):
    attempt = kwargs.get("attempt", args[2] if len(args) > 2 else 0)
    return {
        "shards": 1,
        "retries": 1 if attempt else 0,
        "failed": 0 if outcome.ok else 1,
    }


def _checkpoint(write: Callable) -> Callable:
    """Checkpoint appends, with the bytes each one added to the file."""

    def wrapped(self, *args, **kwargs):
        before = os.path.getsize(self.path)
        write(self, *args, **kwargs)
        _checkpoint_bytes[id(self)] = os.path.getsize(self.path) - before

    return wrapped


#: Bytes written by the last checkpoint append, per checkpoint object.
_checkpoint_bytes: dict[int, int] = {}


def _checkpoint_describe(args, kwargs, result):
    return {"bytes": _checkpoint_bytes.pop(id(args[0]), 0)}


def _lease(args, kwargs, payload):
    return {"granted": len(payload.get("leases", []))}


def _count(field: str) -> Callable:
    def describe(args, kwargs, result):
        return {field: result}

    return describe


#: (module, attribute path, span name, describe factory or None).  A
#: dotted attribute path patches a class method; a plain name patches a
#: module-level function in that module and in every listed importer.
_TARGETS: tuple = (
    ("repro.dram.cells", "CellPopulation.row", "dram.cells.row", _row_describe),
    ("repro.dram.device", "DramDevice.act", "dram.device.act", lambda: _act),
    ("repro.dram.device", "DramDevice.precharge", "dram.device.precharge", None),
    ("repro.dram.device", "DramDevice.read_row", "dram.device.read_row",
     lambda: _read_flips),
    ("repro.dram.device", "DramDevice.write_row", "dram.device.write_row", None),
    ("repro.dram.device", "DramDevice.refresh_row", "dram.device.refresh_row",
     lambda: _flips),
    ("repro.dram.device", "DramDevice.deposit_episodes", "dram.device.deposit",
     lambda: _deposit),
    ("repro.bender.isa", "compile_program", "bender.compile", None),
    ("repro.bender.isa", "Payload.with_loop_count", "bender.patch", None),
    ("repro.bender.executor", "ProgramExecutor.execute_payload", "bender.execute",
     None),
    ("repro.characterization.acmin", "AcminSearch.search",
     "characterization.search", None),
    ("repro.characterization.ber", "measure_ber", "characterization.measure_ber",
     None),
    ("repro.characterization.engine", "run_engine", "engine.run",
     lambda: _engine_result),
    ("repro.characterization.engine", "execute_shard", "engine.execute_shard",
     lambda: _shard_outcome),
    ("repro.characterization.campaign", "save_results", "engine.save_results",
     None),
    ("repro.fleet.worker", "FleetWorker._lease_one", "fleet.poll", None),
    ("repro.service.client", "ServiceClient.lease_shards", "fleet.lease",
     lambda: _lease),
    ("repro.service.client", "ServiceClient.lease_complete", "fleet.complete",
     None),
    ("repro.service.client", "ServiceClient.lease_heartbeat", "fleet.heartbeat",
     None),
    ("repro.warehouse.db", "Warehouse.ingest_shard", "warehouse.ingest",
     lambda: _count("records")),
    ("repro.warehouse.db", "Warehouse.ingest_results_text", "warehouse.ingest",
     lambda: _count("records")),
    ("repro.warehouse.db", "Warehouse.analytics", "warehouse.analytics", None),
    ("repro.service.client", "ServiceClient.submit", "service.submit", None),
    ("repro.service.client", "ServiceClient.status", "service.status", None),
    ("repro.service.client", "ServiceClient.fetch_results_text", "service.fetch",
     None),
)

#: Checkpoint appends are wrapped twice: once to measure the bytes each
#: append adds, once for the span.
_CHECKPOINT_METHODS = ("record_shard", "record_shard_payload", "record_failure")

#: Modules that import a wrapped function by name.
_IMPORTERS = {
    "compile_program": (
        "repro.bender", "repro.bender.infrastructure", "repro.characterization.acmin",
        "repro.characterization.ber", "repro.characterization.taggonmin",
    ),
    "measure_ber": ("repro.characterization", "repro.characterization.registry"),
    "execute_shard": ("repro.fleet.worker",),
}

#: (owner, attribute, original) of every installed wrapper.
_installed: list[tuple[object, str, object]] = []


def _patch(owner: object, attribute: str, replacement: object) -> None:
    _installed.append((owner, attribute, getattr(owner, attribute)))
    setattr(owner, attribute, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every layer's public calls to record spans into ``recorder``."""
    if _installed:
        raise RuntimeError("tracing wrappers are already installed")
    for module_name, path, span_name, factory in _TARGETS:
        module = importlib.import_module(module_name)
        describe = factory() if factory is not None else None
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            _patch(owner, attribute,
                   recorder.wrap(span_name, getattr(owner, attribute), describe))
            continue
        original = getattr(module, path)
        wrapper = recorder.wrap(span_name, original, describe)
        _patch(module, path, wrapper)
        for importer in _IMPORTERS.get(path, ()):
            imported = importlib.import_module(importer)
            if getattr(imported, path, None) is original:
                _patch(imported, path, wrapper)
    checkpoint = importlib.import_module("repro.characterization.engine")
    owner = checkpoint.CampaignCheckpoint
    for attribute in _CHECKPOINT_METHODS:
        measured = _checkpoint(getattr(owner, attribute))
        _patch(owner, attribute,
               recorder.wrap("engine.checkpoint", measured, _checkpoint_describe))


def uninstall() -> None:
    """Restore every original installed over by :func:`install`."""
    while _installed:
        owner, attribute, original = _installed.pop()
        setattr(owner, attribute, original)
