"""The repository benchmark: paper-shaped workloads through the real entry points.

Usage (from the repository root)::

    python3 perfbench/run.py --workload acmin_campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each was chosen):

* ``acmin_campaign`` — a Fig. 6-shaped single-sided ACmin campaign over
  six modules of all three manufacturers, in-process through
  ``run_engine`` + ``save_results``;
* ``acmin_sweep`` — a dense 36 ns .. 30 ms t_AggON sweep on few rows,
  single- then double-sided, through the same entry;
* ``service_ber`` — a Table 6-shaped BER campaign through ``repro serve
  --backend fleet`` and two ``repro worker`` processes, then a closed
  loop of ``/v1/analytics`` queries.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(host time, untraced); with ``--trace 1`` the per-layer split of a
traced run.  Every run checks its outputs against the sequential
``run_campaign`` oracle and the pure analytics folds; the exit code is
non-zero when a gate fails, when a traced run's layers account for less
than 90% of its wall time, or when the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("acmin_campaign", "acmin_sweep", "service_ber")

#: Set-up-only child processes per in-process run (plus the run's own).
SETUP_SAMPLES = 9

#: Fewest service rounds per run: the set-up median needs several, and
#: the analytics p95 needs at least 200 queries.
MIN_SERVICE_ROUNDS = 3

#: Untraced/traced order of iterations in a traced run; the blocks
#: cancel a drift across the run out of the overhead estimate.
TRACE_PATTERN = (False, True, True, False)

#: Bound on one in-process child (s); a run must end within 180 s.
CHILD_TIMEOUT_S = 150


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(fraction * len(ordered)) - 1, 0)]


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _end_to_end(
    rate: float,
    rates: list[float],
    setups: list[float],
    rss: list[float],
    chunks: list[list[float]],
    attempted: int,
    failed: int,
) -> dict[str, tuple[float, str, list[float]]]:
    """Each end-to-end metric as (value, unit, this run's samples).

    ``rate`` is every record of the run over all its timed seconds
    (``rates`` are the per-iteration samples).  Set-up time and RSS are
    medians over the run's set-ups and processes.  The latency
    percentiles pool every query of the run; their printed samples are
    the per-chunk percentiles.
    """
    pooled_ms = [value * 1e3 for chunk in chunks for value in chunk]
    p50 = [_percentile(chunk, 0.50) * 1e3 for chunk in chunks]
    p95 = [_percentile(chunk, 0.95) * 1e3 for chunk in chunks]
    success = 1.0 - failed / attempted
    return {
        "records_per_s": (rate, "1/s", rates),
        "setup_s": (statistics.median(setups), "s", setups),
        "peak_rss_mb": (statistics.median(rss), "MiB", rss),
        "success_rate": (success, "ratio", [success]),
        "analytics_p50_ms": (_percentile(pooled_ms, 0.50), "ms", p50),
        "analytics_p95_ms": (_percentile(pooled_ms, 0.95), "ms", p95),
    }


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def _windows(payload: dict, server_pid: int) -> list:
    """The ``bench.*`` windows of an in-process trace; the server answers
    the analytics requests, so its spans count in those windows."""
    from layers import Window

    return [
        Window(
            e["ts"] / 1e6,
            (e["ts"] + e["dur"]) / 1e6,
            frozenset({e["pid"], server_pid})
            if e["name"] == "bench.analytics"
            else frozenset({e["pid"]}),
        )
        for e in payload["traceEvents"]
        if e["name"].startswith("bench.")
    ]


def _run_child(args: list[str], env: dict) -> str:
    """Run a child to completion and return its stdout.

    The child gets its own process group, so a timeout also kills the
    ``repro serve`` it started.
    """
    process = subprocess.Popen(
        args, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if process.returncode:
        raise subprocess.CalledProcessError(process.returncode, args)
    return stdout


def run_in_process(
    workload: str, seed: int, seconds: float, trace: bool, scratch: Path, env: dict
) -> dict:
    from specs import workload_specs

    specs = workload_specs(workload, seed)
    specs_path = scratch / "specs.json"
    specs_path.write_text(json.dumps([spec.to_json() for spec in specs]))
    child = [sys.executable, str(ROOT / "perfbench" / "inproc.py")]
    setups = []

    def sample_setups(count: int) -> None:
        for _ in range(count):
            spawned = time.monotonic()
            stdout = _run_child(child + ["setup", str(specs_path)], env)
            setups.append(json.loads(stdout.splitlines()[-1])["ready"] - spawned)

    # Set-up samples before and after the run, so they see more than
    # one moment of machine noise.
    sample_setups(0 if trace else SETUP_SAMPLES // 2)
    out = scratch / "run.json"
    spawned = time.monotonic()
    _run_child(
        child + ["run", str(specs_path), str(seconds), "1" if trace else "0", str(out)],
        env,
    )
    data = json.loads(out.read_text())
    setups.append(data["ready"] - spawned)
    sample_setups(0 if trace else SETUP_SAMPLES - SETUP_SAMPLES // 2)
    result = {
        "problems": data["problems"],
        "attempted": data["attempted"],
        "failed": data["failed"],
        "digest": data["digest"],
        "probes": data["probes"],
        "records": data["records"],
        "metrics": _end_to_end(
            data["records_per_s"], data["iteration_records_per_s"], setups,
            [data["peak_rss_mb"]],
            data["analytics_s"], data["attempted"], data["failed"],
        ),
    }
    if trace:
        from layers import layer_metrics

        payload = json.loads(Path(str(out) + ".trace.json").read_text())
        server = json.loads(Path(data["server_trace"]).read_text())
        layers = layer_metrics(
            [payload, server], _windows(payload, data["server_pid"]),
            routes=data["routes"],
        )
        layers["trace.overhead"] = (
            data["records_per_s"] / data["traced_records_per_s"] - 1.0
        )
        result["layers"] = layers
    return result


def run_service(
    workload: str, seed: int, seconds: float, trace: bool, scratch: Path, env: dict
) -> dict:
    import spans
    from checks import digest, expected_answers, oracle
    from layers import layer_metrics
    from service import run_round
    from specs import workload_specs

    (spec,) = workload_specs(workload, seed)
    pattern = TRACE_PATTERN if trace else (False,)
    recorder = spans.Recorder() if trace else None
    rounds = []
    started = time.monotonic()
    while True:
        traced = pattern[len(rounds) % len(pattern)]
        if traced:
            spans.install(recorder)
        try:
            outcome = run_round(
                ROOT, scratch, spec, len(rounds), env, recorder if traced else None
            )
        finally:
            if traced:
                spans.uninstall()
        rounds.append((traced, outcome))
        if (
            len(rounds) >= MIN_SERVICE_ROUNDS
            and len(rounds) % len(pattern) == 0
            and time.monotonic() - started >= seconds
        ):
            break

    # Correctness gates, outside every timed region.
    expected_text, probes = oracle(spec)
    expected = expected_answers([expected_text], "ber")
    problems = []
    attempted = failed = 0
    for index, (_traced, outcome) in enumerate(rounds):
        if outcome["cached"]:
            problems.append(f"round {index}: job served from cache, nothing timed")
        if outcome["state"] != "done":
            problems.append(f"round {index}: job ended {outcome['state']}")
            failed += outcome["shards"]
        if outcome["text"] != expected_text:
            problems.append(f"round {index}: results differ from a local run")
        for query, answers in outcome["answers"].items():
            if answers != {expected[query]}:
                problems.append(f"round {index}: analytics {query} differs from the fold")
        attempted += outcome["shards"] + len(outcome["analytics_s"])
        failed += outcome["http_errors"]
    untraced = [o for traced, o in rounds if not traced]
    traced_rounds = [o for traced, o in rounds if traced]

    def throughput(outcomes: list[dict]) -> float:
        return sum(o["records"] for o in outcomes) / sum(o["job_s"] for o in outcomes)

    result = {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "digest": digest([expected_text]),
        "probes": probes,
        "records": len(json.loads(expected_text)["records"]),
        "metrics": _end_to_end(
            throughput(untraced),
            [o["records"] / o["job_s"] for o in untraced],
            [o["setup_s"] for o in untraced],
            [o["peak_rss_mb"] for o in untraced],
            [o["analytics_s"] for o in untraced],
            attempted,
            failed,
        ),
    }
    if trace:
        payloads = [recorder.to_chrome_trace()] + [
            json.loads(path.read_text())
            for o in traced_rounds for path in o["traces"]
        ]
        routes: dict[str, int] = {}
        for o in traced_rounds:
            for route, count in o["routes"].items():
                routes[route] = routes.get(route, 0) + count
        layers = layer_metrics(
            payloads,
            [window for o in traced_rounds for window in o["windows"]],
            routes=routes,
            reassignments=sum(o["reassignments"] for o in traced_rounds),
        )
        layers["trace.overhead"] = throughput(untraced) / throughput(traced_rounds) - 1.0
        result["layers"] = layers
    return result


# ----------------------------------------------------------------------


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("share", "ratio", "reuse", "coverage", "overhead", "per_search")):
        return "ratio"
    return "count"


#: Smallest share of the traced wall time the layers' self times must
#: account for.
MIN_LAYER_COVERAGE = 0.9


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run, check and report one workload; returns the exit code."""
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        ),
        TMPDIR=str(scratch),
    )
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    run = run_service if workload == "service_ber" else run_in_process
    try:
        result = run(workload, seed, seconds, trace, scratch, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch_root.iterdir()):
            scratch_root.rmdir()

    print(
        f"{workload} seed={seed}: {result['records']} records, "
        f"digest={result['digest']}, probes={result['probes']}"
    )
    accounted = True
    if trace:
        metrics = {
            name: {"value": value, "unit": _unit(name)}
            for name, value in result["layers"].items()
        }
        for name, entry in metrics.items():
            print(f"  {name:45s} {entry['value']:14.6g} {entry['unit']}")
        coverage = result["layers"]["trace.layer_coverage"]
        if coverage < MIN_LAYER_COVERAGE:
            accounted = False
            print(
                f"ACCOUNTING: layer self times cover {coverage:.1%} of the traced "
                f"wall time, below {MIN_LAYER_COVERAGE:.0%}"
            )
    else:
        metrics = {}
        print(f"  {'metric':20s} {'value':>12s} {'q1':>12s} {'q3':>12s}  n  unit")
        for name, (value, unit, samples) in result["metrics"].items():
            q1, q3 = _quartiles(samples)
            metrics[name] = {"value": value, "unit": unit}
            print(
                f"  {name:20s} {value:12.6g} {q1:12.6g} {q3:12.6g} {len(samples):2d}  {unit}"
            )
    for problem in result["problems"]:
        print(f"CORRECTNESS: {problem}")
    correct = not result["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct and accounted else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS + ("all",), required=True,
        help="one workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(
        run_workload(workload, args.seed, args.seconds, bool(args.trace))
        for workload in workloads
    )


if __name__ == "__main__":
    sys.exit(main())
