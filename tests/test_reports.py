"""write_table against an independent per-cell reference writer."""

import json
import math

import numpy as np
import pytest

from levrot.constants import DEFAULT_CONSTANTS
from levrot.studio.reports import CHUNK_ROWS, provenance_lines, write_table

HASH = "0" * 64


# the per-cell formatting the column writer replaced, kept as the reference
def _cell(value) -> str:
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_value(value):
    value = value.item() if hasattr(value, "item") else value  # numpy scalar
    return None if isinstance(value, float) and not math.isfinite(value) else value


def reference_bytes(columns, rows, fmt) -> bytes:
    footer = provenance_lines(HASH, DEFAULT_CONSTANTS)
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        lines += ["# " + line for line in footer]
        return ("\n".join(lines) + "\n").encode()
    payload = {"columns": columns,
               "rows": [[_json_value(v) for v in row] for row in rows],
               "provenance": footer}
    return (json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n").encode()


SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-5, 0.1,
                  1.0, 2.5e300, -123456.789]


def sample_columns(n: int):
    """Columns of every kind a verb passes, and the cell values the reference sees."""
    i = np.arange(n)
    floats = np.array([SPECIAL_FLOATS[k % len(SPECIAL_FLOATS)] for k in range(n)])
    columns = {
        "f64": floats,
        "i64": (i * 7919 - 3).astype(np.int64),
        "flag": i % 3 == 0,
        "py_int": [k * 10**6 for k in range(n)],
        "big_int": np.array([10**20 + k for k in range(n)], dtype=object),
        "mixed": np.array([k if k % 2 else k + 0.5 for k in range(n)], dtype=object),
        "text": [f"composite:0.{k % 9 + 1}" for k in range(n)],
    }
    names = list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    # the reference sees what a row-wise caller passed: numpy scalars from
    # the arrays, Python ints and str from the lists
    cells = [columns[name] if isinstance(columns[name], list) else list(columns[name])
             for name in names]
    return names, np.rec.fromarrays(arrays, names=names), list(zip(*cells))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_write_table_matches_per_cell_reference(tmp_path, fmt, n):
    names, rows, reference_rows = sample_columns(n)
    path = tmp_path / f"t.{fmt}"
    assert len(rows) == n
    assert write_table(path, names, rows, HASH, DEFAULT_CONSTANTS, fmt) == path
    assert path.read_bytes() == reference_bytes(names, reference_rows, fmt)


def test_sample_columns_cover_every_kind():
    _, rows, _ = sample_columns(3)
    assert {rows[name].dtype.kind for name in rows.dtype.names} == set("fibOU")


def test_write_table_rejects_unknown_format(tmp_path):
    names, rows, _ = sample_columns(2)
    with pytest.raises(ValueError, match="xml"):
        write_table(tmp_path / "t.xml", names, rows, HASH, DEFAULT_CONSTANTS, "xml")
