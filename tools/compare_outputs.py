"""Run every levrot verb in two source trees and compare the outputs.

    python tools/compare_outputs.py TREE_A TREE_B

Each tree is a checkout with the package under ``src/`` (for example the
parent commit, exported with ``git archive``, and the working copy).  Every
verb runs as CSV and as JSON in a fresh interpreter per tree, at the default
config, and selected verbs run again at the named configs in NAMED.  Runs use
one BLAS thread.

Each run's stdout, stderr and exit code are kept next to its output files,
with the output directory masked, and ``config_sha256=<hex>`` is masked in
every file.  The report has one line per file: identical, or, for a table,
the largest relative change of each column that differs.  The exit code is 1
if any file, output or exit code differs.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

VERBS = ("table1", "fig2-map", "fig4-curves", "thermal", "charges", "stability-chart",
         "dynamics", "spin", "resonance", "coupling", "jc-sim")
FORMATS = ("csv", "json")

# name -> (config document, verbs that read what it sets)
NAMED = {
    "default": ({}, VERBS),
    "jc_full_rabi": ({"jc_sim": {"kind": "full_rabi", "N_max": 6, "samples": 900}},
                     ("jc-sim",)),
    # d = 45, where the per-sample state check costs most
    "jc_large": ({"jc_sim": {"kind": "full_rabi", "N_max": 14, "samples": 600}},
                 ("jc-sim",)),
    "jc_full_rabi_dissipative": (
        {"jc_sim": {"kind": "full_rabi", "N_max": 4, "use_decoherence": True,
                    "phonon_rate_per_s": 1000.0, "initial_spin": "e", "initial_n": 2}},
        ("jc-sim",)),
    "jc_dissipative": ({"jc_sim": {"N_max": 4, "use_decoherence": True}}, ("jc-sim",)),
    # a dissipative full_rabi run whose trace drifted past the check tolerance
    # under the dense Liouvillian
    "jc_trace_drift": (
        {"particle": {"shape": "oblate", "b_m": 3.515905993045629e-08,
                      "a_m": 1.0857222830961848e-07},
         "charge": {"mode": "total", "Qtot_e": 360.22274538914144},
         "spin": {"B_T": 0.09673139811768379},
         "resonance": {"OmegaR_Hz": 104587316.00753169,
                       "omega_phi_Hz": 7219775.0085008545, "solve_for": "detuning"},
         "coupling": {"omega_phi_Hz": 7219775.0085008545},
         "decoherence": {"T1_s": 0.059844432485956035, "T2star_s": 0.02068572199099789},
         "jc_sim": {"N_max": 3, "kind": "full_rabi", "initial_spin": "plus", "initial_n": 1,
                    "n_transfers": 4.74727008865978, "samples": 1043,
                    "phonon_rate_per_s": 6.339214281839463, "use_decoherence": True}},
        ("jc-sim",)),
    "composite": ({"particle": {"shape": "composite", "b_m": 2e-8, "a_m": 5e-8,
                                "c_m": 2.5e-9}},
                  ("fig2-map", "dynamics", "coupling", "jc-sim")),
    # c_m / b_m * b_m is not c_m here: a disk built from the ratio is one ulp thinner
    "composite_inexact": ({"particle": {"shape": "composite", "b_m": 2.1e-8, "a_m": 5e-8,
                                        "c_m": 3e-9}},
                          ("fig2-map", "dynamics", "coupling", "jc-sim")),
    # the bench's 90 000-row map; CSV chunks of 4096 rows end inside a psi sweep
    "fig2_wide": ({"fig2_map": {"n_B": 450, "n_psi": 200, "B_min_T": 0.0}}, ("fig2-map",)),
    "surface_density": ({"charge": {"mode": "surface_density", "sigma_C_m2": 1e-6}},
                        ("dynamics", "coupling")),
    "nonlinear_dynamics": ({"dynamics": {"model": "nonlinear"}}, ("dynamics",)),
    # both angles, start velocities and damping through the full torque
    "nonlinear_damped": ({"dynamics": {"model": "nonlinear", "phi1_0_rad": 0.2,
                                       "phi2_0_rad": -0.1, "dphi1_0_radps": 1.0e6,
                                       "dphi2_0_radps": -5.0e5, "gamma_per_s": 2.0e5}},
                         ("dynamics",)),
    # q = 1.13, beyond the first stability region: the run stops at the angle
    # limit and the verb fails, so only its exit code and stderr compare
    "nonlinear_unstable": ({"trap": {"Vac_V": 20000.0},
                            "dynamics": {"model": "nonlinear", "phi2_0_rad": 0.005}},
                           ("dynamics",)),
    # both angles, start velocities and damping through the linear model
    "linear_both_angles": ({"dynamics": {"phi1_0_rad": 0.2, "phi2_0_rad": -0.1,
                                         "dphi1_0_radps": 1.0e6, "dphi2_0_radps": -5.0e5,
                                         "gamma_per_s": 2.0e5}},
                           ("dynamics",)),
    # a decaying linear trajectory, where the spectral estimators differ most
    "damped_dynamics": ({"dynamics": {"gamma_per_s": 5.0e5}}, ("dynamics",)),
    # two warnings from one run: the drive leakage note raised inside
    # resonance_solve, then the verb's RWA bound
    "coupling_warnings": ({"coupling": {"omega_phi_Hz": 1000.0},
                           "resonance": {"OmegaR_Hz": 1e9, "omega_phi_Hz": 1000.0,
                                         "solve_for": "field"}},
                          ("coupling",)),
}

_RUN = "import sys; from levrot.studio.cli import main; sys.exit(main(sys.argv[1:]))"
_HASH = re.compile(rb"config_sha256=[0-9a-f]+")
LOG = "run.log"


def run_all(tree: Path, work: Path, configs: Path):
    """Every (config, format, verb) run of one tree, under work/<config>/<fmt>/<verb>."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name, (_, verbs) in NAMED.items():
        for fmt in FORMATS:
            for verb in verbs:
                run_dir = work / name / fmt / verb
                out = run_dir / "out"
                run_dir.mkdir(parents=True)
                proc = subprocess.run(
                    [sys.executable, "-c", _RUN, "--config", str(configs / f"{name}.json"),
                     "--out", str(out), "--format", fmt, verb],
                    env=env, capture_output=True, text=True, timeout=600)
                log = (f"exit code: {proc.returncode}\n"
                       f"stdout:\n{proc.stdout}stderr:\n{proc.stderr}")
                (run_dir / LOG).write_text(log.replace(str(out), "<out>"),
                                           encoding="utf-8")


def _table(path: Path, data: bytes):
    """(columns, rows of cells) of a CSV or JSON table, or None for other files."""
    text = data.decode("utf-8")
    if path.suffix == ".csv":
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        return lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    if path.suffix == ".json":
        payload = json.loads(text)
        return payload["columns"], payload["rows"]
    return None


def _number(cell) -> float | None:
    if cell is None:
        return math.nan
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) and scale > 0 else math.inf


def describe_difference(path: Path, data_a: bytes, data_b: bytes) -> str:
    """Which columns of a table changed, and by how much at most."""
    try:
        table_a, table_b = _table(path, data_a), _table(path, data_b)
    except (ValueError, KeyError, IndexError):
        table_a = table_b = None
    if table_a is None or table_b is None:
        return "bytes differ"
    (cols_a, rows_a), (cols_b, rows_b) = table_a, table_b
    if cols_a != cols_b:
        return f"columns differ: {cols_a} vs {cols_b}"
    parts = [] if len(rows_a) == len(rows_b) else [f"{len(rows_a)} vs {len(rows_b)} rows"]
    for j, column in enumerate(cols_a):
        cells = [(ra[j], rb[j]) for ra, rb in zip(rows_a, rows_b) if ra[j] != rb[j]]
        if not cells:
            continue
        numbers = [(_number(a), _number(b)) for a, b in cells]
        if all(a is not None and b is not None for a, b in numbers):
            worst = max(_relative_change(a, b) for a, b in numbers)
            parts.append(f"{column}: {len(cells)} cells, max relative change {worst:.3g}")
        else:
            parts.append(f"{column}: {len(cells)} cells differ as text")
    return "; ".join(parts) or "bytes differ outside the table rows"


def compare_dirs(dir_a: Path, dir_b: Path) -> tuple[list[str], bool]:
    """One report line per file under either directory, and whether all match."""
    files_a = {p.relative_to(dir_a) for p in Path(dir_a).rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in Path(dir_b).rglob("*") if p.is_file()}
    lines, same = [], True
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            lines.append(f"only in {'B' if rel in files_b else 'A'}: {rel}")
            same = False
            continue
        data_a = _HASH.sub(b"config_sha256=<masked>", (Path(dir_a) / rel).read_bytes())
        data_b = _HASH.sub(b"config_sha256=<masked>", (Path(dir_b) / rel).read_bytes())
        if data_a == data_b:
            lines.append(f"identical: {rel}")
        else:
            lines.append(f"DIFFERENT: {rel}: {describe_difference(rel, data_a, data_b)}")
            same = False
    return lines, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="levrot_compare_") as tmp:
        work = Path(tmp)
        configs = work / "configs"
        configs.mkdir()
        for name, (doc, _) in NAMED.items():
            (configs / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        for side, tree in (("a", args.tree_a), ("b", args.tree_b)):
            run_all(tree, work / side, configs)
        lines, same = compare_dirs(work / "a", work / "b")
    for line in lines:
        print(line)
    n_same = sum(line.startswith("identical") for line in lines)
    print(f"{n_same} of {len(lines)} files identical (each run's {LOG} included)")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
