"""Result persistence: RFC-4180 CSV export and JSON manifests.

CSV bodies are deterministic: floats are formatted with 17 significant digits
(round-trip exact for binary64) and rows end with CRLF, so identical inputs
produce byte-identical files.  Each table is formatted by one ``%`` operation on
line templates built from its field types.  Manifests carry a canonical-JSON
config hash, the library version, and wall time.  Profiles are not persisted:
recomputing one from its parameters takes well under a second.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from pathlib import Path

import numpy as np

from . import __version__


def _spec(kind: type) -> str | None:
    """The ``%`` spec of a field of type ``kind``: floats with 17 significant digits, ints
    and bools as ``str`` gives them, which never needs quoting; None for text, see ``_text``."""
    if issubclass(kind, (float, np.floating)):
        return "%.17g"
    if kind in (int, bool) or issubclass(kind, (np.integer, np.bool_)):
        return "%s"
    return None


def _text(value) -> str:
    """``str(value)``, quoted with inner quotes doubled where RFC 4180 needs it: when it
    holds a comma, a quote, CR or LF (the minimal quoting of ``csv.writer``)."""
    s = str(value)
    if "," in s or '"' in s or "\r" in s or "\n" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def write_csv(path, header: list[str], rows) -> None:
    """RFC-4180 CSV with CRLF rows and 17-significant-digit floats.

    Each row gets the line template of its field types, built once per table for each
    distinct type sequence, and the whole table is formatted by one ``%`` operation.
    The bytes are those of ``csv.writer`` on ``str`` of each field, floats as ``%.17g``:
    a row of one empty text field is written ``""``, so it differs from an empty row.
    """
    layouts = {}  # type sequence of a row -> (its line template, the indices of its text fields)
    lines, values = [], []
    for row in itertools.chain((header,), rows):
        row = tuple(row)
        kinds = tuple(map(type, row))
        layout = layouts.get(kinds)
        if layout is None:
            specs = [_spec(k) for k in kinds]
            line = ",".join(s or "%s" for s in specs) + "\r\n"
            layouts[kinds] = layout = (line, [i for i, s in enumerate(specs) if s is None])
        line, text = layout
        if text:
            row = list(row)
            for i in text:
                row[i] = _text(row[i])
            if row == [""]:
                row = ['""']
        lines.append(line)
        values.extend(row)
    body = "".join(lines) % tuple(values)
    Path(path).write_text(body, encoding="utf-8", newline="")


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


def write_json(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
