"""Deterministic CSV/JSON table writers with a provenance footer.

A table is its column names plus a numpy structured array (one field per
column, in order), so ``len(rows)`` is its row count and each field keeps its
own dtype.  The CLI verbs build every table first and return them; the CLI
writes them only after the verb has returned all of them.

Each column is formatted once, not cell by cell: floats with repr (shortest
round-trip form), so identical inputs give byte-identical files, bools as
``true``/``false``, and integers, strings and object fields with str.  CSV
rows are joined and written CHUNK_ROWS at a time, so no list of the whole
table's lines is built.  In a chunk of a float64 column whose distinct bit
patterns are at most MAX_DISTINCT_SHARE of its cells, each distinct value is
repr'd once and the cells are mapped to it; the bytes are those of a repr per
cell, -0.0 and 0.0 included.  JSON writes non-finite floats as null.  Every
file ends with comment lines carrying the package version, the config hash
and the constants in force.  A file already at the output path is replaced,
not rewritten in place.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .. import __version__
from ..constants import PhysicalConstants

CHUNK_ROWS = 4096
# a float64 chunk with at most this share of distinct values reprs each once
MAX_DISTINCT_SHARE = 0.5

_BOOL_TEXT = ("false", "true")


def provenance_lines(config_hash: str, constants: PhysicalConstants) -> list[str]:
    const_str = " ".join(f"{k}={v!r}" for k, v in sorted(vars(constants).items()))
    return [
        f"provenance: levrot={__version__} config_sha256={config_hash}",
        f"constants: {const_str}",
    ]


def _csv_cells(column: np.ndarray):
    if column.dtype == np.float64:
        # bit patterns, not values, so that -0.0 and 0.0 stay apart
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        if bits.size <= MAX_DISTINCT_SHARE * column.size:
            texts = list(map(repr, bits.view(np.float64).tolist()))
            return map(texts.__getitem__, inverse.tolist())
    values = column.tolist()
    if column.dtype.kind == "b":
        return map(_BOOL_TEXT.__getitem__, values)
    return map(repr if column.dtype.kind == "f" else str, values)


def _json_cells(column: np.ndarray) -> list:
    values = column.tolist()
    kind = column.dtype.kind
    if kind not in "fO" or (kind == "f" and np.isfinite(column).all()):
        return values
    return [None if isinstance(v, float) and not math.isfinite(v) else v
            for v in values]


def write_table(path: Path, columns: list[str], rows, config_hash: str,
                constants: PhysicalConstants, fmt: str = "csv") -> Path:
    """Write a structured array whose fields are ``columns`` as CSV or JSON.

    An existing file (or link) at ``path`` is unlinked first and a new one is
    written, never truncated and rewritten in place.
    """
    path = Path(path)
    fields = rows.dtype.names
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    path.unlink(missing_ok=True)
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(columns) + "\n")
            for start in range(0, len(rows), CHUNK_ROWS):
                chunk = rows[start:start + CHUNK_ROWS]
                cells = [_csv_cells(chunk[name]) for name in fields]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
            fh.write("".join(f"# {line}\n"
                             for line in provenance_lines(config_hash, constants)))
    elif fmt == "json":
        payload = {
            "columns": columns,
            "rows": list(zip(*(_json_cells(rows[name]) for name in fields))),
            "provenance": provenance_lines(config_hash, constants),
        }
        text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
        path.write_text(text + "\n", encoding="utf-8")
    return path
