"""bench/tracing.py against the current API: every name it patches exists, a
traced run records its spans, and restore() puts every original back."""

import importlib.util
import json
from pathlib import Path

import pytest

from levrot import coupling, nv_spin, quantum_sim, rotor_dynamics, trap
from levrot.studio import cli
from levrot.studio.config import RunConfig

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_records_spans_and_restores(tracing, tmp_path):
    config = tmp_path / "small.json"
    config.write_text(json.dumps({
        "fig2_map": {"n_B": 3, "n_psi": 3, "overlay_OmegaR_Hz": [5.0e8]},
        "fig4_curves": {"n_OmegaR": 3},
        "jc_sim": {"N_max": 2, "use_decoherence": True, "samples": 300}}))
    owners = (coupling, nv_spin, quantum_sim, rotor_dynamics, trap, cli, RunConfig)
    before = {id(owner): dict(owner.__dict__) for owner in owners}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [(owner, attr) for owner, attr, _ in tracer._undo]
        assert patched and all(id(owner) in before for owner, _ in patched)
        assert cli.main(["--out", str(tmp_path / "t1"), "table1"]) == 0
        for verb in ("fig2-map", "fig4-curves", "jc-sim"):
            assert cli.main(["--config", str(config), "--out", str(tmp_path / verb),
                             verb]) == 0
    finally:
        tracer.restore()

    names = {span[0] for span in tracer.spans}
    assert {"studio.sweep.map_ordered", "coupling.coupling_map_rows",
            "geometry.build_body", "studio.reports.write_table",
            "coupling.coupling_vs_rabi", "quantum_sim.evolve_dissipative",
            "quantum_sim.exchange_frequency"} <= names
    assert tracer.counts["coupling.map_cells"] == 9
    assert tracer.counts["quantum_sim.evolve.samples"] == 300
    for owner, attr in patched:
        assert owner.__dict__[attr] is before[id(owner)][attr], (owner, attr)
