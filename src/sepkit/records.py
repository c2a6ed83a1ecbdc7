"""Experiment records: versioned JSON documents and batch CSV aggregation."""

from __future__ import annotations

import csv
import io
import json
import platform
from datetime import datetime, timezone

import numpy as np

from . import __version__

SCHEMA_VERSION = "1"


def experiment_record(command: str, config: dict, results: dict) -> dict:
    """Assemble a record; everything except created_at is a pure function of
    the inputs, so records with equal config and results compare equal after
    dropping the timestamp."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": results,
        "versions": {
            "sepkit": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "created_at": datetime.now(timezone.utc).isoformat(),
    }


def record_to_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


BATCH_COLUMNS = [
    "graph",
    "n",
    "m",
    "p",
    "c",
    "seed",
    "succeeded",
    "relaxation_value",
    "cut_size",
    "balance",
    "ratio",
    "attempts",
    "delta",
    "exact_value",
]


def batch_rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BATCH_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in BATCH_COLUMNS})
    return buf.getvalue()
