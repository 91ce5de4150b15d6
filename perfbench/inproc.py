"""Child process of the in-process workloads (acmin_campaign, acmin_sweep).

``inproc.py setup SPECS`` does only the set-up (imports and spec load)
and prints the monotonic time it was ready at.  ``inproc.py run SPECS
SECONDS TRACE OUT`` does the same set-up, then runs the specs through
``run_engine`` + ``save_results`` — the calls ``repro campaign`` makes —
with ``workers=1`` and a checkpoint, in a closed loop for ``SECONDS``.
After the first iteration it backfills a warehouse with the saved
results and starts ``repro serve`` on it; after every iteration a chunk
of ``/v1/analytics`` queries runs against that server.  The correctness
gates run last.  It writes what it measured to ``OUT`` as JSON.

With ``TRACE`` 1 the iterations alternate untraced and traced (in
blocks untraced, traced, traced, untraced), so the gap between the two
is the tracing overhead; the spans go to ``OUT`` + ``.trace.json``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: After every iteration, a closed loop of analytics queries runs for
#: this share of the iteration's time.
ANALYTICS_SHARE = 0.25


def set_up(specs_path: str) -> list:
    """Import the layers a run uses and load its specs."""
    from repro.characterization import campaign, engine  # noqa: F401
    from repro.warehouse import Warehouse  # noqa: F401

    return [
        campaign.CampaignSpec.from_json(text)
        for text in json.loads(Path(specs_path).read_text())
    ]


def run_iteration(
    specs: list, scratch: Path, recorder=None
) -> tuple[float, int, list[str], int]:
    """One timed pass over ``specs``; (seconds, shards, texts, failed shards).

    With a ``recorder``, each spec's timed region is marked as a
    ``bench.iteration`` window.
    """
    from repro.characterization import campaign, engine

    elapsed = 0.0
    shards = failures = 0
    texts = []
    for spec in specs:
        workdir = Path(tempfile.mkdtemp(dir=scratch))
        output = workdir / "results.json"
        start = time.monotonic()
        result = engine.run_engine(
            spec, workers=1, checkpoint=workdir / "checkpoint.jsonl"
        )
        campaign.save_results(output, spec, result.records)
        end = time.monotonic()
        elapsed += end - start
        if recorder is not None:
            recorder.mark("bench.iteration", start, end)
        shards += result.shards_total
        failures += len(result.failures)
        texts.append(output.read_text())
        shutil.rmtree(workdir)
    return elapsed, shards, texts, failures


def serve_results(
    texts: list[str], specs: list, scratch: Path, recorder, log
) -> tuple:
    """Backfill a warehouse with ``texts`` and serve it with ``repro
    serve``; returns (server process, analytics loop on it)."""
    import spans
    from repro.warehouse import Warehouse
    from service import AnalyticsLoop, start_server

    directory = scratch / "serve"
    (directory / "data").mkdir(parents=True)
    if recorder is not None:
        spans.install(recorder)
    try:
        with Warehouse(directory / "data" / "warehouse.sqlite3") as db:
            for index, (spec, text) in enumerate(zip(specs, texts)):
                db.ingest_results_text(text, key=f"{index:02d}-{spec.name}")
    finally:
        if recorder is not None:
            spans.uninstall()
    server, port = start_server(
        ROOT, directory, recorder is not None, dict(os.environ), log
    )
    return server, AnalyticsLoop(port, specs[0].experiment)


def main(argv: list[str]) -> int:
    mode, specs_path = argv[0], argv[1]
    specs = set_up(specs_path)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    seconds, trace, out = float(argv[2]), argv[3] == "1", Path(argv[4])
    scratch = out.parent

    import spans
    from run import TRACE_PATTERN
    from service import server_counters, stop

    recorder = spans.Recorder() if trace else None
    pattern = TRACE_PATTERN if trace else (False,)
    rates: dict[bool, list[float]] = {False: [], True: []}
    totals = {False: [0, 0.0], True: [0, 0.0]}
    chunks: list[list[float]] = []
    first_texts: list[str] | None = None
    iterations = 0
    problems = []
    failures = attempted = 0
    server = loop = None
    log = (scratch / "server.log").open("w")
    try:
        loop_start = time.monotonic()
        while True:
            traced = pattern[iterations % len(pattern)]
            if traced:
                spans.install(recorder)
            try:
                elapsed, shards, texts, failed = run_iteration(
                    specs, scratch, recorder if traced else None
                )
            finally:
                if traced:
                    spans.uninstall()
            if loop is None:
                server, loop = serve_results(texts, specs, scratch, recorder, log)
            latencies, q_start, q_end = loop.run(
                ANALYTICS_SHARE * elapsed, recorder if traced else None
            )
            if traced:
                recorder.mark("bench.analytics", q_start, q_end)
            else:
                chunks.append(latencies)
            records = sum(len(json.loads(text)["records"]) for text in texts)
            rates[traced].append(records / elapsed)
            totals[traced][0] += records
            totals[traced][1] += elapsed
            if first_texts is None:
                first_texts = texts
            elif texts != first_texts:
                problems.append(
                    f"iteration {iterations}: records differ from iteration 0"
                )
            iterations += 1
            failures += failed
            attempted += shards + len(latencies)
            if (
                time.monotonic() - loop_start >= seconds
                and iterations % len(pattern) == 0
            ):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        routes = server_counters(loop.port)[0] if trace else {}
    finally:
        if loop is not None:
            loop.close()
        if server is not None:
            stop([server])
        log.close()
    failures += loop.http_errors
    answers = loop.answers()
    if trace:
        recorder.write(str(out) + ".trace.json")

    # Correctness gates, outside every timed region.
    from checks import digest, expected_answers, oracle

    oracle_texts, probes = [], 0
    for spec in specs:
        text, spec_probes = oracle(spec)
        oracle_texts.append(text)
        probes += spec_probes
    if first_texts != oracle_texts:
        problems.append("records differ from the run_campaign oracle")
    expected = expected_answers(oracle_texts, specs[0].experiment)
    for query, values in answers.items():
        if values != {expected[query]}:
            problems.append(f"analytics {query}: differs from the pure fold")
    out.write_text(
        json.dumps(
            {
                "ready": ready,
                "iteration_records_per_s": rates[False],
                "records_per_s": totals[False][0] / totals[False][1],
                "traced_records_per_s": (
                    totals[True][0] / totals[True][1] if trace else None
                ),
                "peak_rss_mb": peak_rss_mb,
                "server_pid": server.pid,
                "routes": routes,
                "server_trace": str(scratch / "serve" / "server.trace.json"),
                "analytics_s": chunks,
                "attempted": attempted,
                "failed": failures,
                "digest": digest(oracle_texts),
                "probes": probes,
                "records": sum(len(json.loads(t)["records"]) for t in oracle_texts),
                "problems": problems,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
