"""Per-layer metrics from the spans of a traced run.

A span's *self time* is its duration minus the time its child spans
cover, both clipped to the measured windows.  Each window names the
processes whose spans count in it and how many parallel lanes it has:
an in-process iteration is one lane of the benchmark process; a fleet
job is one lane per worker (each runs one work thread); an analytics
loop is one lane of the client, with the server's warehouse call nested
under the client request it answers.  The traced wall time is the sum
of window length times lanes, and ``trace.layer_coverage`` is the share
of it that the layers' self times account for.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass, field

#: Span-name prefix -> layer (longest prefix wins).
LAYERS = {
    "dram.cells": "dram.cells",
    "dram.device": "dram.device",
    "bender": "bender",
    "characterization": "characterization",
    "engine": "characterization.engine",
    "fleet": "fleet",
    "warehouse": "warehouse",
    "service": "service",
}

#: Service routes whose request counts the traced run reports.
ROUTES = (
    "healthz", "submit", "status", "results", "analytics",
    "lease", "heartbeat", "complete", "metrics",
)


@dataclass
class Window:
    """A measured interval, the processes counted in it, and its lanes."""

    start: float
    end: float
    pids: frozenset
    lanes: int = 1


@dataclass
class TracedSpan:
    name: str
    start: float
    end: float
    key: str
    parent: str | None
    pid: int
    thread: int
    attrs: dict
    children: list = field(default_factory=list)

    @property
    def layer(self) -> str | None:
        prefix = self.name.split(".")
        for size in range(len(prefix), 0, -1):
            layer = LAYERS.get(".".join(prefix[:size]))
            if layer is not None:
                return layer
        return None


def load_events(payloads: list[dict]) -> list[TracedSpan]:
    """Spans of one or more Chrome trace payloads (see ``spans.py``)."""
    spans = []
    for payload in payloads:
        for event in payload.get("traceEvents", []):
            if event.get("ph") != "X":
                continue
            start = event["ts"] / 1e6
            spans.append(
                TracedSpan(
                    name=event["name"],
                    start=start,
                    end=start + event["dur"] / 1e6,
                    key=event["id"],
                    parent=event.get("parent"),
                    pid=event["pid"],
                    thread=event["tid"],
                    attrs=event.get("args") or {},
                )
            )
    return spans


def _link(spans: list[TracedSpan]) -> dict[str, TracedSpan]:
    """Attach children to parents; nest each server-side warehouse query
    under the client analytics request whose interval contains it."""
    by_key = {span.key: span for span in spans}
    requests = sorted(
        (s for s in spans if s.name == "service.analytics"), key=lambda s: s.start
    )
    starts = [s.start for s in requests]
    for span in spans:
        parent = by_key.get(span.parent) if span.parent else None
        if parent is None and span.name == "warehouse.analytics" and requests:
            index = bisect.bisect_right(starts, span.start) - 1
            if index >= 0 and requests[index].end >= span.end:
                parent = requests[index]
                span.parent = parent.key
        if parent is not None:
            parent.children.append(span)
    return by_key


def _clipped(span: TracedSpan, window: Window) -> float:
    return max(0.0, min(span.end, window.end) - max(span.start, window.start))


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(
    payloads: list[dict],
    windows: list[Window],
    routes: dict[str, int] | None = None,
    reassignments: int = 0,
) -> dict[str, float]:
    """Every per-layer metric of a traced run, keyed by metric name.

    ``routes`` are the server's request counts by route and
    ``reassignments`` its lease reassignment count (service workload
    only; the in-process workloads make no HTTP requests).
    """
    # The heartbeat thread runs beside the work thread; its spans would
    # double-count worker time, so they stay out of the split.
    spans = [
        s for s in load_events(payloads) if s.name != "fleet.heartbeat"
    ]
    by_key = _link(spans)
    wall = sum((w.end - w.start) * w.lanes for w in windows)
    self_s: dict[str, float] = {layer: 0.0 for layer in set(LAYERS.values())}
    for span in spans:
        layer = span.layer
        if layer is None:
            continue
        for window in windows:
            if span.pid not in window.pids:
                continue
            own = _clipped(span, window)
            if own <= 0.0:
                continue
            own -= sum(_clipped(child, window) for child in span.children)
            self_s[layer] += own

    def named(prefix: str) -> list[TracedSpan]:
        return [s for s in spans if s.name.startswith(prefix)]

    def total(name: str, attr: str) -> int:
        return sum(int(s.attrs.get(attr, 0)) for s in spans if s.name.startswith(name))

    def share(layer: str) -> float:
        return self_s[layer] / wall if wall else 0.0

    def under_search(span: TracedSpan) -> bool:
        parent = by_key.get(span.parent) if span.parent else None
        while parent is not None:
            if parent.name.startswith("characterization."):
                return True
            parent = by_key.get(parent.parent) if parent.parent else None
        return False

    metrics: dict[str, float] = {}
    rows = named("dram.cells.row")
    sampled = total("dram.cells.row", "sampled")
    metrics["dram.cells.rows_sampled"] = sampled
    metrics["dram.cells.row_calls"] = len(rows)
    metrics["dram.cells.reuse"] = len(rows) / sampled if sampled else 0.0
    metrics["dram.cells.cells_materialized"] = total("dram.cells.row", "cells")
    metrics["dram.cells.busy_s"] = self_s["dram.cells"]
    metrics["dram.cells.share"] = share("dram.cells")

    metrics["dram.device.read_rows"] = total("dram.device", "reads")
    metrics["dram.device.activations"] = total("dram.device", "acts")
    metrics["dram.device.bitflips"] = total("dram.device", "flips")
    metrics["dram.device.self_s"] = self_s["dram.device"]
    metrics["dram.device.share"] = share("dram.device")

    executes = named("bender.execute")
    metrics["bender.compiles"] = len(named("bender.compile"))
    metrics["bender.patches"] = len(named("bender.patch"))
    metrics["bender.compile_s"] = sum(
        s.end - s.start for s in named("bender.compile") + named("bender.patch")
    )
    metrics["bender.executes"] = len(executes)
    metrics["bender.execute_self_s"] = sum(
        (s.end - s.start) - sum(c.end - c.start for c in s.children)
        for s in executes
    )
    metrics["bender.self_s"] = self_s["bender"]
    metrics["bender.share"] = share("bender")

    searches = len(named("characterization."))
    probes = sum(1 for s in executes if under_search(s))
    metrics["characterization.searches"] = searches
    metrics["characterization.probes"] = probes
    metrics["characterization.probes_per_search"] = (
        probes / searches if searches else 0.0
    )
    metrics["characterization.self_s"] = self_s["characterization"]
    metrics["characterization.share"] = share("characterization")

    checkpoints = named("engine.checkpoint")
    metrics["characterization.engine.shards"] = total("engine.", "shards")
    metrics["characterization.engine.checkpoint_writes"] = len(checkpoints)
    metrics["characterization.engine.checkpoint_bytes"] = total(
        "engine.checkpoint", "bytes"
    )
    metrics["characterization.engine.checkpoint_s"] = sum(
        s.end - s.start for s in checkpoints
    )
    metrics["characterization.engine.retries"] = total("engine.", "retries")
    metrics["characterization.engine.failed_shards"] = total("engine.", "failed")
    metrics["characterization.engine.self_s"] = self_s["characterization.engine"]
    metrics["characterization.engine.share"] = share("characterization.engine")

    jobs = [w for w in windows if w.lanes > 1]

    def in_jobs(prefix: str) -> list[TracedSpan]:
        """Worker spans that overlap a fleet job (not the set-up polls)."""
        return [
            s for s in named(prefix)
            if any(s.pid in w.pids and _clipped(s, w) > 0.0 for w in jobs)
        ]

    leases = in_jobs("fleet.lease")
    empty = sum(1 for s in leases if not s.attrs.get("granted"))
    job_capacity = sum((w.end - w.start) * w.lanes for w in jobs)
    busy = sum(
        _clipped(s, w)
        for s in named("engine.execute_shard")
        for w in jobs
        if s.pid in w.pids
    )
    metrics["fleet.lease_polls"] = len(leases)
    metrics["fleet.empty_poll_ratio"] = empty / len(leases) if leases else 0.0
    metrics["fleet.lease_p50_ms"] = _median_ms([s.end - s.start for s in leases])
    metrics["fleet.complete_p50_ms"] = _median_ms(
        [s.end - s.start for s in named("fleet.complete")]
    )
    metrics["fleet.reassignments"] = reassignments
    metrics["fleet.worker_busy_ratio"] = busy / job_capacity if job_capacity else 0.0
    metrics["fleet.self_s"] = self_s["fleet"]
    metrics["fleet.share"] = share("fleet")

    ingests = named("warehouse.ingest")
    queries = named("warehouse.analytics")
    metrics["warehouse.ingest_calls"] = len(ingests)
    metrics["warehouse.records_ingested"] = total("warehouse.ingest", "records")
    metrics["warehouse.ingest_s"] = sum(s.end - s.start for s in ingests)
    metrics["warehouse.analytics_p50_ms"] = _median_ms(
        [s.end - s.start for s in queries]
    )
    metrics["warehouse.self_s"] = self_s["warehouse"]
    metrics["warehouse.share"] = share("warehouse")

    requests = named("service.analytics")
    overheads = [
        (s.end - s.start) - sum(c.end - c.start for c in s.children)
        for s in requests
    ]
    for route in ROUTES:
        metrics[f"service.requests.{route}"] = (routes or {}).get(route, 0)
    metrics["service.submit_ms"] = _median_ms(
        [s.end - s.start for s in named("service.submit")]
    )
    metrics["service.status_polls"] = len(named("service.status"))
    metrics["service.http_errors"] = sum(
        1 for s in spans
        if s.name.startswith(("service.", "fleet."))
        and (s.attrs.get("error") == "ServiceError" or s.attrs.get("status", 200) >= 300)
    )
    metrics["service.http_overhead_ms"] = _median_ms(overheads)
    metrics["service.self_s"] = self_s["service"]
    metrics["service.share"] = share("service")

    covered = sum(self_s.values())
    metrics["trace.wall_s"] = wall
    metrics["trace.layer_coverage"] = covered / wall if wall else 0.0
    return metrics
