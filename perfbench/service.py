"""The service_ber workload: a BER campaign through the fleet service.

Each round starts from a fresh ``--data-dir``: ``repro serve --backend
fleet`` plus two ``repro worker`` processes (one per CPU of the 2-CPU
reference box), all through ``launch.py``.  Set-up time runs from the
first spawn until ``/healthz`` answers and reports both workers active.
The client then submits the spec, polls until the job is done, fetches
the results, stops the workers, and runs a closed loop of
``/v1/analytics`` queries on one keep-alive connection.  Every process
is stopped by the end of the round.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from checks import QUERIES, canonical
from layers import Window
from repro.service.client import ServiceClient

#: Each round's analytics loop runs this long (s).
ANALYTICS_ROUND_S = 2.0

#: Fewest queries of one analytics loop: ten samples lie beyond its p95.
MIN_QUERIES = 200

#: Worker poll interval (s) when no lease is available.  Shorter than
#: the CLI default of 0.25 s, so a job's start is not quantized by it.
WORKER_POLL_S = "0.05"

#: Client status-poll interval (s) while the job runs.
STATUS_POLL_S = 0.02

#: Bound on every wait for a child process (s).
PROCESS_TIMEOUT_S = 30.0


def _wait_for(predicate, what: str, timeout_s: float = PROCESS_TIMEOUT_S):
    deadline = time.monotonic() + timeout_s
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        time.sleep(0.01)


def stop(processes: list[subprocess.Popen]) -> None:
    """SIGTERM every live process, then kill what outlives the timeout."""
    for process in processes:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
    for process in processes:
        try:
            process.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def _healthy(client: ServiceClient) -> bool:
    try:
        return client.healthz()["fleet"]["workers_active"] >= 2
    except Exception:  # not listening yet
        return False


def launch(
    root: Path, prefix: Path, trace: bool, args: list[str], env: dict, log
) -> subprocess.Popen:
    """Start ``repro <args>`` through ``launch.py`` (traced or not)."""
    return subprocess.Popen(
        [sys.executable, str(root / "perfbench" / "launch.py"), str(prefix),
         "1" if trace else "0", "--", *args],
        env=env, stdout=log, stderr=subprocess.STDOUT,
    )


def start_server(
    root: Path, directory: Path, trace: bool, env: dict, log, *extra: str
) -> tuple[subprocess.Popen, int]:
    """``repro serve`` on a free port over ``directory/data``; (process, port)."""
    port_file = directory / "port"
    server = launch(
        root, directory / "server", trace,
        ["serve", "--data-dir", str(directory / "data"), "--port", "0",
         "--port-file", str(port_file), *extra],
        env, log,
    )
    port = _wait_for(
        lambda: port_file.exists() and port_file.read_text().strip(),
        "the server's port",
    )
    return server, int(port)


def server_counters(port: int) -> tuple[dict[str, int], int]:
    """Requests by route and lease reassignments, from ``/metrics``."""
    metrics = ServiceClient(f"http://127.0.0.1:{port}", retries=0).metrics()
    routes, reassigned = {}, 0
    for entry in metrics.get("counters", []):
        if entry["name"] == "service.requests_by_route":
            routes[entry["labels"]["route"]] = int(entry["value"])
        elif entry["name"] == "fleet.leases_reassigned":
            reassigned += int(entry["value"])
    return routes, reassigned


class AnalyticsLoop:
    """Closed loop of ``/v1/analytics`` queries on one keep-alive connection."""

    def __init__(self, port: int, experiment: str) -> None:
        self.port = port
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.queries = QUERIES[experiment]
        self.count = 0
        self.http_errors = 0
        self._served: set[tuple] = set()

    def _query(self, path: str) -> tuple[int, bytes]:
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        return response.status, response.read()

    def run(self, seconds: float, recorder=None) -> tuple[list[float], float, float]:
        """Query for ``seconds`` and at least ``MIN_QUERIES`` times.

        Returns (latencies, start, end); with a ``recorder`` every
        request is a ``service.analytics`` span.
        """
        query = self._query
        if recorder is not None:
            query = recorder.wrap(
                "service.analytics", query,
                lambda args, kwargs, result: {"status": result[0]},
            )
        latencies = []
        start = time.monotonic()
        while len(latencies) < MIN_QUERIES or time.monotonic() - start < seconds:
            report, experiment = self.queries[self.count % len(self.queries)]
            self.count += 1
            path = f"/v1/analytics/{report}?" + (
                f"experiment={experiment}" if experiment else ""
            )
            began = time.monotonic()
            status, body = query(path)
            latencies.append(time.monotonic() - began)
            if status != 200:
                self.http_errors += 1
            else:
                self._served.add(((report, experiment), body))
        return latencies, start, time.monotonic()

    def answers(self) -> dict:
        """Distinct canonical answers per query, over every run so far."""
        answers: dict = {}
        for query, body in self._served:
            answers.setdefault(query, set()).add(canonical(json.loads(body)))
        return answers

    def close(self) -> None:
        self.connection.close()


def run_round(
    root: Path,
    scratch: Path,
    spec,
    index: int,
    env: dict,
    recorder=None,
) -> dict:
    """One fresh service round; returns what it measured."""
    trace = recorder is not None
    round_dir = scratch / f"round{index}"
    round_dir.mkdir()
    processes: list[subprocess.Popen] = []
    log = (round_dir / "processes.log").open("w")
    try:
        spawned = time.monotonic()
        server, port = start_server(
            root, round_dir, trace, env, log, "--backend", "fleet"
        )
        processes.append(server)
        url = f"http://127.0.0.1:{port}"
        for worker in range(2):
            processes.append(
                launch(
                    root, round_dir / f"worker{worker}", trace,
                    ["worker", "--server", url, "--poll-s", WORKER_POLL_S,
                     "--worker-id", f"bench-worker-{worker}"],
                    env, log,
                )
            )
        client = ServiceClient(url, retries=0)
        _wait_for(lambda: _healthy(client), "two active workers")
        setup_s = time.monotonic() - spawned

        job_start = time.monotonic()
        submitted = client.submit(spec)
        final = client.wait(
            submitted.job_id, timeout_s=PROCESS_TIMEOUT_S * 4, poll_s=STATUS_POLL_S
        )
        text = client.fetch_results_text(submitted.job_id)
        job_end = time.monotonic()
        # The workers' idle lease polls would share the server's event
        # loop with the analytics requests; the job is done, so stop them.
        stop(processes[1:])

        loop = AnalyticsLoop(port, "ber")
        try:
            latencies, analytics_start, analytics_end = loop.run(
                ANALYTICS_ROUND_S, recorder
            )
        finally:
            loop.close()

        routes, reassigned = server_counters(port) if trace else ({}, 0)
    finally:
        stop(processes[1:])
        stop(processes[:1])
        log.close()
    worker_pids = frozenset(p.pid for p in processes[1:])
    return {
        "setup_s": setup_s,
        "records": len(json.loads(text)["records"]),
        "job_s": job_end - job_start,
        "cached": submitted.cached or final.cached,
        "state": final.state,
        "shards": final.shards_total,
        "text": text,
        "analytics_s": latencies,
        "answers": loop.answers(),
        "http_errors": loop.http_errors,
        "peak_rss_mb": max(
            float((round_dir / f"worker{w}.rss").read_text()) for w in range(2)
        ),
        "routes": routes,
        "reassignments": reassigned,
        "traces": sorted(round_dir.glob("*.trace.json")),
        "windows": [
            Window(job_start, job_end, worker_pids, lanes=2),
            Window(analytics_start, analytics_end,
                   frozenset({os.getpid(), server.pid})),
        ],
    }
