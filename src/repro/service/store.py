"""Content-addressed campaign result store.

Results are keyed by a digest of the *canonical spec JSON* and the
weak-cell model version — and a
:class:`~repro.characterization.campaign.CampaignSpec` contains the
seed, module list, experiment kind, and every sweep knob, so two
submissions with identical (spec, seed, modules) resolve to the same
key under one model version.  Because every campaign is a deterministic
function of its spec and the model (see docs/CAMPAIGNS.md), a stored
result is *the* result: resubmitting a spec the fleet has already
characterized is served straight from the store as a cache hit, never
re-run.

Files on disk are ordinary schema-v2 results files (the exact bytes
:func:`~repro.characterization.campaign.save_results` writes), so a
stored entry can be copied out and fed to ``load_results`` or any
analysis script unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.characterization.campaign import (
    CampaignSpec,
    dumps_results,
    loads_results,
)
from repro.dram.cells import MODEL_VERSION
from repro.obs import atomic_write_text, get_logger
from repro.testkit.faults import fault_point, fault_write
from repro.testkit.points import SERVICE_STORE_PUT, SERVICE_STORE_READ

__all__ = ["spec_key", "ResultStore"]

logger = get_logger("service.store")


def spec_key(spec: CampaignSpec) -> str:
    """Content address of a campaign's results.

    A SHA-256 digest (truncated to 24 hex chars) of the spec and the
    weak-cell model version serialized canonically — sorted keys, no
    whitespace — so key equality is exactly spec equality under one
    model version, independent of field order or formatting in the JSON
    a client submitted.  A store written by another model version never
    serves a hit.
    """
    canonical = json.dumps(
        {"model_version": MODEL_VERSION, "spec": dataclasses.asdict(spec)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


class ResultStore:
    """Directory of content-addressed schema-v2 results files."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        """Where the results file for ``key`` lives (existing or not)."""
        return self.root / f"{key}.json"

    def _validated_text(self, key: str) -> str | None:
        """The entry's text if it parses as a results payload, else None.

        A corrupt file (truncated write, bad JSON, missing keys) is
        *quarantined* — renamed to ``<key>.json.corrupt`` — so it can
        never be served as a cache hit again and ``put`` re-creates the
        entry from a fresh run.  The corrupt bytes are kept for
        post-mortems instead of deleted.
        """
        path = self.path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
            for required in ("schema_version", "spec", "records"):
                if required not in payload:
                    raise ValueError(f"payload lacks {required!r}")
        except ValueError as error:
            quarantine = path.with_name(path.name + ".corrupt")
            path.replace(quarantine)
            logger.warning(
                "quarantined corrupt result %s (%s) -> %s", key, error, quarantine
            )
            return None
        return text

    def has(self, key: str) -> bool:
        """Whether *valid* results for ``key`` are stored."""
        return self._validated_text(key) is not None

    def keys(self) -> tuple[str, ...]:
        """All stored result keys, sorted."""
        return tuple(sorted(path.stem for path in self.root.glob("*.json")))

    def read_text(self, key: str) -> str:
        """The stored results file verbatim; raises ``KeyError`` if absent.

        Corrupt entries raise ``KeyError`` too (after being
        quarantined): a damaged cache entry must look like a miss, not
        get served to a client.
        """
        fault_point(SERVICE_STORE_READ)
        text = self._validated_text(key)
        if text is None:
            raise KeyError(f"no stored results for key {key!r}")
        return text

    def load(self, key: str) -> tuple[CampaignSpec, list]:
        """Rebuild (spec, records) from a stored entry."""
        return loads_results(self.read_text(key), source=str(self.path(key)))

    def put(self, spec: CampaignSpec, records: list) -> str:
        """Store a campaign's results; returns the content key.

        Identical (spec, seed, modules) submissions collapse onto one
        entry: re-putting an existing *valid* key is a no-op (first
        write wins — campaigns are deterministic, so the bytes would be
        equal anyway), while a corrupt entry is quarantined and
        replaced.  The write is atomic, so readers never observe a
        partial entry.
        """
        key = spec_key(spec)
        path = self.path(key)
        if self._validated_text(key) is not None:
            logger.info("result store already has %s (dedup)", key)
            return key
        fault_write(
            SERVICE_STORE_PUT,
            lambda text: atomic_write_text(path, text),
            dumps_results(spec, records),
        )
        logger.info(
            "stored %d records for campaign %r as %s", len(records), spec.name, key
        )
        return key
