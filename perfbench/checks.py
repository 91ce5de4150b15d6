"""Correctness gates shared by the workloads (run outside timed regions)."""

from __future__ import annotations

import hashlib
import json

from repro.characterization.campaign import CampaignSpec, dumps_results, run_campaign
from repro.obs import MetricsRegistry, Observer
from repro.warehouse import analytics

#: The analytics queries each workload's closed loop cycles through:
#: (report, experiment filter).
QUERIES = {
    "acmin": (("acmin", None), ("sweep", "acmin"), ("modules", None),
              ("temperature", "acmin")),
    "ber": (("ber", None), ("sweep", "ber"), ("modules", None), ("acmin", None)),
}


def oracle(spec: CampaignSpec) -> tuple[str, int]:
    """Results text of the sequential ``run_campaign`` and its probe count."""
    metrics = MetricsRegistry()
    records = run_campaign(spec, observer=Observer(metrics=metrics))
    counters = {entry["name"]: entry["value"] for entry in metrics.to_dict()["counters"]}
    probes = counters.get("acmin.probes", 0) + counters.get("ber.measurements", 0)
    return dumps_results(spec, records), probes


def digest(texts: list[str]) -> str:
    """sha256 over the results texts of one iteration, in order."""
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode("utf-8"))
    return hasher.hexdigest()[:16]


def canonical(payload: object) -> str:
    """JSON text two answers compare equal by (tuples/lists, float keys)."""
    return json.dumps(json.loads(json.dumps(payload)), sort_keys=True)


def expected_answers(texts: list[str], experiment: str) -> dict:
    """Each query's answer as the pure ``repro.warehouse.analytics`` fold
    over the records of ``texts`` (in warehouse source order)."""
    records = [
        record for text in texts for record in json.loads(text)["records"]
    ]
    answers = {}
    for report, filter_experiment in QUERIES[experiment]:
        # The experiment ``run_report`` selects: the report's own, else
        # the filter, else ACmin (the paper's headline sweeps).
        selected = analytics.REPORTS[report] or filter_experiment or "acmin"
        if report == "modules":
            rows = records  # folds every experiment
        else:
            rows = [r for r in records if r["experiment"] == selected]
        if report == "acmin":
            answer = analytics.fold_acmin_percentiles(rows)
        elif report == "temperature":
            answer = analytics.fold_temperature_deltas(rows, experiment=selected)
        elif report == "ber":
            answer = analytics.fold_ber_curves(rows)
        elif report == "sweep":
            answer = analytics.fold_sweep_summaries(rows, experiment=selected)
        else:
            answer = analytics.fold_module_summaries(rows)
        answers[(report, filter_experiment)] = canonical(answer)
    return answers
