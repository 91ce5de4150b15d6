"""Content-addressed result store: keys, dedup, round-trips."""

import json

import pytest

from repro import units
from repro.characterization.campaign import (
    CampaignSpec,
    dumps_results,
    load_results,
    loads_results,
    run_campaign,
    save_results,
)
from repro.service import store as store_module
from repro.service.store import ResultStore, spec_key


def small_spec(**kwargs):
    defaults = dict(
        name="store-unit",
        module_ids=("S3",),
        experiment="acmin",
        t_aggon_values=(36.0, units.TREFI),
        sites_per_module=2,
        seed=11,
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


# ----------------------------------------------------------------------
# spec_key
# ----------------------------------------------------------------------


def test_spec_key_is_stable_and_spec_sensitive():
    a = spec_key(small_spec())
    assert a == spec_key(small_spec())  # deterministic
    assert len(a) == 24 and all(c in "0123456789abcdef" for c in a)
    assert a != spec_key(small_spec(seed=12))
    assert a != spec_key(small_spec(module_ids=("S0",)))
    assert a != spec_key(small_spec(experiment="taggonmin"))


def test_spec_key_changes_with_the_model_version(monkeypatch):
    # A store written by another weak-cell model must never serve a hit.
    spec = small_spec()
    key = spec_key(spec)
    version = store_module.MODEL_VERSION
    monkeypatch.setattr(store_module, "MODEL_VERSION", version + 1)
    assert spec_key(spec) != key
    monkeypatch.setattr(store_module, "MODEL_VERSION", version - 1)
    assert spec_key(spec) != key


def test_spec_key_ignores_submitted_json_formatting():
    spec = small_spec()
    # A client may send the same spec with any key order / whitespace;
    # the key is computed from the parsed spec, not the wire bytes.
    shuffled = json.dumps(
        dict(reversed(list(json.loads(spec.to_json()).items())))
    )
    assert spec_key(CampaignSpec.from_json(shuffled)) == spec_key(spec)


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------


def test_store_put_load_roundtrip(tmp_path):
    store = ResultStore(tmp_path / "results")
    spec = small_spec()
    records = run_campaign(spec)
    key = store.put(spec, records)
    assert store.has(key)
    assert store.keys() == (key,)
    loaded_spec, loaded_records = store.load(key)
    assert loaded_spec == spec
    assert loaded_records == records


def test_store_bytes_match_local_save(tmp_path):
    """A stored entry is byte-identical to `repro campaign` output."""
    store = ResultStore(tmp_path / "results")
    spec = small_spec()
    records = run_campaign(spec)
    key = store.put(spec, records)
    local = tmp_path / "local.json"
    save_results(local, spec, records)
    assert store.read_text(key) == local.read_text()


def test_store_dedups_identical_specs(tmp_path):
    store = ResultStore(tmp_path / "results")
    spec = small_spec()
    records = run_campaign(spec)
    key = store.put(spec, records)
    before = store.path(key).stat().st_mtime_ns
    assert store.put(spec, records) == key  # first write wins, no rewrite
    assert store.path(key).stat().st_mtime_ns == before
    assert len(store.keys()) == 1


def test_store_missing_key_raises_keyerror(tmp_path):
    store = ResultStore(tmp_path / "results")
    with pytest.raises(KeyError, match="deadbeef"):
        store.read_text("deadbeef")


# ----------------------------------------------------------------------
# load_results error paths and version round-trips (through the store)
# ----------------------------------------------------------------------


def test_unknown_schema_version_message_names_source_and_supported(tmp_path):
    path = tmp_path / "future.json"
    payload = {
        "schema_version": 99,
        "spec": json.loads(small_spec().to_json()),
        "records": [],
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as excinfo:
        load_results(path)
    message = str(excinfo.value)
    assert "99" in message
    assert str(path) in message  # names the offending file
    assert "v1" in message and "v2" in message  # says what this build reads
    assert "newer build" in message


def test_loads_results_unknown_version_names_memory_source():
    payload = {
        "schema_version": 7,
        "spec": json.loads(small_spec().to_json()),
        "records": [],
    }
    with pytest.raises(ValueError, match="service job abc"):
        loads_results(json.dumps(payload), source="service job abc")


def test_v1_file_roundtrips_through_store_as_v2(tmp_path):
    """Legacy v1 results re-stored through the service come out as v2."""
    import dataclasses

    spec = small_spec()
    records = run_campaign(spec)
    v1 = tmp_path / "v1.json"
    v1.write_text(
        json.dumps(
            {
                "spec": dataclasses.asdict(spec),
                "record_type": "acmin",
                "records": [dataclasses.asdict(r) for r in records],
            }
        )
    )
    loaded_spec, loaded_records = load_results(v1)
    store = ResultStore(tmp_path / "results")
    key = store.put(loaded_spec, loaded_records)
    payload = json.loads(store.read_text(key))
    assert payload["schema_version"] == 2
    assert all(entry["experiment"] == "acmin" for entry in payload["records"])
    restored_spec, restored_records = store.load(key)
    assert restored_spec == spec
    assert restored_records == records


def test_dumps_results_parses_back():
    spec = small_spec()
    records = run_campaign(spec)
    loaded_spec, loaded_records = loads_results(dumps_results(spec, records))
    assert loaded_spec == spec
    assert loaded_records == records
