"""The benchmark's own tests: tiny runs of every workload, and checks that fail
when one output value is perturbed.

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference as R  # noqa: E402
from checks import CheckFailure, check_call  # noqa: E402
from scenarios import WORKLOADS, scenario  # noqa: E402
from levrot.studio import cli  # noqa: E402


def _bench(workload, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace),
                           "--size", "tiny"], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _names(section):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in manifest[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload):
    result = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run():
    result = _bench("quantum_exchange", 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _names("per_layer")
    assert result["metrics"]["quantum_sim.evolve_unitary.s"]["value"] > 0
    assert result["metrics"]["trap.floquet_stability.calls"]["value"] == 0


def test_same_seed_same_inputs():
    for workload in WORKLOADS:
        assert scenario(workload, 7, 2) == scenario(workload, 7, 2)
        assert scenario(workload, 7, 2) != scenario(workload, 8, 2)


# ---------------------------------------------------------------------------
# perturbation: the check of an output fails when one value in it is moved
# ---------------------------------------------------------------------------

def _run_call(workload, verb, tmp_path):
    call = next(c for c in scenario(workload, 5, 0, tiny=True) if c.verb == verb)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(call.doc))
    assert cli.main(["--config", str(config), "--out", str(tmp_path), "--threads", "1",
                     "--format", call.fmt, verb]) == 0
    check_call(call, tmp_path)
    return call


def _edit_csv(path, edit):
    lines = path.read_text().splitlines()
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    edit(body[0], body[1:])
    footer = [ln for ln in lines if ln.startswith("#")]
    path.write_text("\n".join([",".join(r) for r in body] + footer) + "\n")


def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload["columns"], payload["rows"])
    path.write_text(json.dumps(payload))


def flip_verdict(call, out):
    def edit(header, rows):
        for row in rows:
            if R.first_region_stable(row[0], row[1], 0.01) is not None:
                row[2] = not row[2]
                row[3] = 0.0 if row[2] else 3.0  # keep the trace consistent
                return
        raise AssertionError("no point away from the boundary")
    _edit_json(out / "stability_chart.json", edit)


def nudge_trajectory(call, out):
    def edit(header, rows):
        scale = max(abs(r[1]) for r in rows)
        rows[-1][1] += 1e-4 * scale
    _edit_json(out / "dynamics_trajectory.json", edit)


def nudge_map_cell(call, out):
    def edit(header, rows):
        k = header.index("lambda_tilde_hz")
        rows[len(rows) // 2][k] = repr(float(rows[len(rows) // 2][k]) * (1.0 + 1e-9))
    _edit_csv(out / "fig2_map.csv", edit)


def nudge_sphere_row(call, out):
    def edit(header, rows):
        rows[0][header.index("I_y_over_I0")] = repr(1.0 + 2.0 ** -52)
    _edit_csv(out / "table1.csv", edit)


def nudge_resonant_field(call, out):
    def edit(header, rows):
        rows[0][header.index("B_T")] = repr(float(rows[0][header.index("B_T")]) * (1 + 1e-6))
    _edit_csv(out / "resonance.csv", edit)


def move_population(call, out):
    jc = call.doc["jc_sim"]
    nf, n = jc["N_max"] + 1, jc["initial_n"]
    start, swap = ((1 + n, 1 + 2 * nf + n - 1) if jc["initial_spin"] == "plus"
                   else (1 + 2 * nf + n, 1 + n + 1))

    def edit(header, rows):
        row = rows[len(rows) // 3]
        shift = 1e-4 if float(row[start]) > 1e-4 else -1e-4
        row[start] = repr(float(row[start]) - shift)
        row[swap] = repr(float(row[swap]) + shift)
    _edit_csv(out / "jc_populations.csv", edit)


PERTURBATIONS = [
    ("floquet_dynamics", "stability-chart", flip_verdict, "Mathieu reference"),
    ("floquet_dynamics", "dynamics", nudge_trajectory, "phi1_rad"),
    ("coupling_tables", "fig2-map", nudge_map_cell, "fig2 lambda_tilde"),
    ("coupling_tables", "table1", nudge_sphere_row, "sphere row"),
    ("coupling_tables", "resonance", nudge_resonant_field, "omega_e' - omega_+"),
    ("quantum_exchange", "jc-sim", move_population, "jc exchanged population"),
]


@pytest.mark.parametrize("workload, verb, perturb, message", PERTURBATIONS,
                         ids=[p[2].__name__ for p in PERTURBATIONS])
def test_perturbed_output_fails_its_check(workload, verb, perturb, message, tmp_path):
    call = _run_call(workload, verb, tmp_path)
    perturb(call, tmp_path)
    with pytest.raises(CheckFailure, match=message.replace("+", r"\+")):
        check_call(call, tmp_path)


def test_mathieu_reference_matches_known_boundary():
    # b_1(q) crosses a = 0 at q = 0.908046...
    assert R.first_region_stable(0.0, 0.90, 1e-4) is True
    assert R.first_region_stable(0.0, 0.92, 1e-4) is False
    assert np.isclose(R.floquet_frequency(0.0, 0.1, 1.0), 0.5 * R.TWO_PI * 0.1 / np.sqrt(2),
                      rtol=1e-2)
