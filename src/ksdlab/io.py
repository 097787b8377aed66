"""Result persistence: RFC-4180 CSV export and JSON manifests.

CSV bodies are deterministic: floats are formatted with 17 significant digits
(round-trip exact for binary64) and rows end with CRLF, so identical inputs
produce byte-identical files.  Manifests carry a canonical-JSON config hash,
the library version, and wall time.  Profiles are not persisted: recomputing
one from its parameters takes well under a second.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from . import __version__


def fmt_float(x) -> str:
    """17-significant-digit decimal rendering (binary64 round-trip exact)."""
    if isinstance(x, (float, np.floating)):
        return "%.17g" % x
    return str(x)


def write_csv(path, header: list[str], rows) -> None:
    """RFC-4180 CSV with CRLF rows and 17-significant-digit floats."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh, lineterminator="\r\n")
        wr.writerow(header)
        for row in rows:
            wr.writerow([fmt_float(v) for v in row])


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical (sorted-key, compact) JSON encoding."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_manifest(path, config: dict, wall_time: float, extra: dict | None = None) -> None:
    """JSON manifest: config, its hash, library version, and wall time."""
    doc = {
        "schema_version": 1,
        "library_version": __version__,
        "config": config,
        "config_hash": config_hash(config),
        "wall_time_s": wall_time,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if extra:
        doc.update(extra)
    write_json(path, doc)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_json(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, default=_jsonable) + "\n")
