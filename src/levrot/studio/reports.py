"""Deterministic CSV/JSON table writers with a provenance footer.

Floats are serialized with repr (shortest round-trip form), so identical
inputs give byte-identical files (JSON writes non-finite floats as null);
every file ends with comment lines carrying the package version, the
config hash and the constants in force.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .. import __version__
from ..constants import PhysicalConstants


def provenance_lines(config_hash: str, constants: PhysicalConstants) -> list[str]:
    const_str = " ".join(f"{k}={v!r}" for k, v in sorted(vars(constants).items()))
    return [
        f"provenance: levrot={__version__} config_sha256={config_hash}",
        f"constants: {const_str}",
    ]


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


def write_table(path: Path, columns: list[str], rows, config_hash: str,
                constants: PhysicalConstants, fmt: str = "csv") -> Path:
    """Write rows (sequences matching columns) as CSV or JSON records."""
    path = Path(path)
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        lines += ["# " + line for line in provenance_lines(config_hash, constants)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "json":
        payload = {
            "columns": columns,
            "rows": [[_json_value(v) for v in row] for row in rows],
            "provenance": provenance_lines(config_hash, constants),
        }
        text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
        path.write_text(text + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return path
