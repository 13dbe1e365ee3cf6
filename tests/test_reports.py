"""write_table against an independent per-cell reference writer."""

import json
import math

import numpy as np
import pytest

from levrot.constants import DEFAULT_CONSTANTS
from levrot.studio import reports
from levrot.studio.reports import (CHUNK_ROWS, MAX_DISTINCT_SHARE, provenance_lines,
                                   write_table)

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


def _bits(*patterns):
    """float64 values with these bit patterns"""
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def assert_csv_matches_reference(tmp_path, **columns):
    names = list(columns)
    arrays = [np.asarray(a) for a in columns.values()]
    path = tmp_path / "t.csv"
    write_table(path, names, np.rec.fromarrays(arrays, names=names), HASH,
                DEFAULT_CONSTANTS, "csv")
    assert path.read_bytes() == reference_bytes(names, list(zip(*arrays)), "csv")


NEGATIVE_ZERO, QUIET_NAN = 0x8000000000000000, 0x7FF8000000000000
SIGNED_ZEROS_AND_NANS = _bits(NEGATIVE_ZERO, 0, QUIET_NAN, QUIET_NAN | NEGATIVE_ZERO,
                              QUIET_NAN + 1)


@pytest.mark.parametrize("values", [
    np.repeat([0.1, 0.2, 0.3, 0.4, 0.5], 2),                         # half distinct
    [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.1, 0.2, 0.3, 0.4],              # one more
    np.linspace(-1.0, 1.0, 10),                                      # all distinct
    np.tile(SIGNED_ZEROS_AND_NANS, 3),
], ids=["half_distinct", "half_plus_one", "all_distinct", "signed_zeros_and_nans"])
def test_float64_chunk_formats_each_distinct_value_once(tmp_path, monkeypatch, values):
    values = np.asarray(values, dtype=np.float64)
    calls = []
    monkeypatch.setattr(reports, "repr", lambda v: calls.append(v) or repr(v),
                        raising=False)
    assert_csv_matches_reference(tmp_path, x=values)
    distinct = len(np.unique(values.view(np.int64)))
    few = distinct <= MAX_DISTINCT_SHARE * values.size
    assert len(calls) == (distinct if few else values.size)


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_narrow_float_columns_match_reference(tmp_path, dtype):
    repeated = np.tile(np.array([-0.0, 0.0, 0.1, 1e-3, np.nan, np.inf], dtype=dtype), 3)
    # alone, the column is contiguous: read as int64 bits it would lose rows
    assert_csv_matches_reference(tmp_path, x=repeated[:10])
    assert_csv_matches_reference(tmp_path, x=repeated, n=np.arange(repeated.size))


def test_fig2_map_shaped_columns_across_chunks(tmp_path):
    n_B, n_psi = 37, 250  # 9250 rows: chunks end inside a psi sweep
    assert (n_B * n_psi) % CHUNK_ROWS and CHUNK_ROWS % n_psi
    B, psi = np.linspace(0.0, 0.1, n_B), np.linspace(0.005, 1.565, n_psi)
    lam = np.random.default_rng(0).standard_normal(n_B * n_psi) * 1e5
    assert_csv_matches_reference(tmp_path, B_T=np.repeat(B, n_psi),
                                 psi_rad=np.tile(psi, n_B), lambda_tilde_hz=lam,
                                 resonance_flag=lam > 0)


def test_strided_field_of_a_record_array(tmp_path):
    n = CHUNK_ROWS + 3
    columns = {"i": np.arange(n), "x": np.tile([-0.0, 0.0, 0.5], n)[:n],
               "flag": np.arange(n) % 2 == 0, "y": np.arange(n) / 3.0}
    rows = np.rec.fromarrays(list(columns.values()), names=list(columns))
    assert not rows["x"].flags.c_contiguous
    assert_csv_matches_reference(tmp_path, **columns)
