"""Machine-readable export of maintenance statistics.

The stats payload is versioned (``repro.obs/1``); the benchmark-table
payload (``repro.bench/1``) lives in :mod:`repro.bench.harness`, which
builds on the helpers here.  Keep both schemas append-only: a reader
of an older file must find every key it knows, so existing keys must
not be renamed or change meaning.
"""

from __future__ import annotations

import json
import os
from typing import Any

from .stats import MaintenanceStats

#: Version tag of the stats JSON payload.
STATS_SCHEMA = "repro.obs/1"


def stats_record(
    stats: MaintenanceStats, meta: dict[str, Any] | None = None
) -> dict:
    """The full, schema-tagged JSON document for one recorder."""
    return {
        "schema": STATS_SCHEMA,
        "engine": stats.engine,
        "meta": dict(meta or {}),
        "stats": stats.to_dict(),
    }


def dump_json(record: dict, path: str) -> str:
    """Write one JSON document; non-JSON values fall back to ``str``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, default=str)
        handle.write("\n")
    return path


def write_stats_json(
    path: str, stats: MaintenanceStats, meta: dict[str, Any] | None = None
) -> str:
    """Dump one recorder to ``path``; returns the path written."""
    return dump_json(stats_record(stats, meta), path)
