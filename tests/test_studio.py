import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levrot.geometry import Composite, ProlateEllipsoid
from levrot.studio.cli import main
from levrot.studio.config import RunConfig, ConfigError, DEFAULT_CONFIG, write_schema
from levrot.studio.sweep import resolve_threads

GOLDEN = Path(__file__).parent / "golden"

SMALL_MAP_CONFIG = {
    "fig2_map": {"n_B": 12, "n_psi": 10, "B_max_T": 0.08,
                 "overlay_OmegaR_Hz": [5.0e8]},
}


def run_cli(tmp_path, verb, config=None, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    args = ["--out", str(tmp_path / "out")]
    if config is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        args += ["--config", str(cfg_path)]
    args += list(extra) + [verb]
    return main(args), tmp_path / "out"


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def test_default_config_is_valid():
    cfg = RunConfig.default()
    assert cfg.document == RunConfig(DEFAULT_CONFIG).document
    assert isinstance(cfg.particle_spec(), ProlateEllipsoid)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig({"tarp": {}})
    with pytest.raises(ConfigError, match="trap.Vca_V"):
        RunConfig({"trap": {"Vca_V": 100.0}})
    with pytest.raises(ConfigError, match="particle"):
        RunConfig({"particle": {"shape": "prolate", "b_m": 1e-8, "a_m": 2e-8,
                                "c_m": 1e-9}})


def test_partial_override_merges_with_defaults():
    cfg = RunConfig({"trap": {"Vac_V": 1234.0}})
    assert cfg.document["trap"]["Vac_V"] == 1234.0
    assert cfg.document["trap"]["z0_m"] == DEFAULT_CONFIG["trap"]["z0_m"]


def test_composite_particle_config():
    cfg = RunConfig({"particle": {"shape": "composite", "b_m": 8e-8,
                                  "a_m": 2e-7, "c_m": 1e-8}})
    spec = cfg.particle_spec()
    assert isinstance(spec, Composite)
    assert spec.c == pytest.approx(1e-8)


def test_missing_required_particle_keys():
    with pytest.raises(ConfigError, match="missing"):
        RunConfig({"particle": {"shape": "prolate", "b_m": 1e-8}})


def test_charge_modes():
    cfg = RunConfig({"charge": {"mode": "surface_density", "sigma_C_m2": 1e-6}})
    constants = cfg.constants()
    assert cfg.charge_model(constants).sigma == 1e-6
    with pytest.raises(ConfigError):
        RunConfig({"charge": {"mode": "by_vibes"}})
    with pytest.raises(ConfigError):
        RunConfig({"charge": {"mode": "total"}})


def test_constants_overrides():
    cfg = RunConfig({"constants": {"density_diamond_kg_m3": 3500.0}})
    assert cfg.constants().density_diamond == 3500.0
    with pytest.raises(ConfigError):
        RunConfig({"constants": {"density_diamond": 3500.0}})


def test_bad_shape_ids_rejected():
    with pytest.raises(ConfigError):
        RunConfig({"table1": {"rows": ["cube"]}})
    with pytest.raises(ConfigError):
        RunConfig({"table1": {"rows": ["composite:nope"]}})


@pytest.mark.parametrize("key", ["phi1_0_rad", "phi2_0_rad"])
def test_start_angles_limited_to_small_angle_model(key):
    RunConfig({"dynamics": {key: -math.pi / 2}})
    for bad in (2.0, -1.6, float("nan"), "0.1"):
        with pytest.raises(ConfigError, match=f"dynamics.{key}"):
            RunConfig({"dynamics": {key: bad}})


def test_dynamics_bad_start_angle_writes_nothing(tmp_path, capsys):
    code, out = run_cli(tmp_path, "dynamics", config={"dynamics": {"phi1_0_rad": 2.0}})
    assert code == 1
    assert "dynamics.phi1_0_rad" in capsys.readouterr().err
    assert not (out / "dynamics_trajectory.csv").exists()


def test_config_hash_stable_under_key_order():
    a = RunConfig({"trap": {"Vac_V": 1.0, "Vdc_V": 0.0}})
    b = RunConfig({"trap": {"Vdc_V": 0.0, "Vac_V": 1.0}})
    assert a.sha256() == b.sha256()


def test_schema_export(tmp_path):
    path = tmp_path / "schema.json"
    write_schema(path)
    schema = json.loads(path.read_text())
    assert schema["type"] == "object"
    assert schema["additionalProperties"] is False
    assert "trap" in schema["properties"]


def test_resolve_threads_env(monkeypatch):
    monkeypatch.delenv("LEVROT_THREADS", raising=False)
    assert resolve_threads(None) == 1
    assert resolve_threads(4) == 4
    monkeypatch.setenv("LEVROT_THREADS", "3")
    assert resolve_threads(None) == 3
    assert resolve_threads(2) == 2
    monkeypatch.setenv("LEVROT_THREADS", "many")
    with pytest.raises(ValueError):
        resolve_threads(None)


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    body = [l for l in lines[1:] if not l.startswith("#")]
    footer = [l for l in lines[1:] if l.startswith("#")]
    return header, body, footer


def test_table1_runs_and_has_exact_columns(tmp_path):
    code, out = run_cli(tmp_path, "table1")
    assert code == 0
    header, body, footer = read_csv(out / "table1.csv")
    assert header == ["particle_type", "c_over_b", "omega_com_over_omega0",
                      "omega_phi_over_omega0", "omega_phi_over_omega_com",
                      "I_y_over_I0"]
    assert len(body) == 5
    assert body[0].startswith("sphere,-,1.0,0.0,0.0,1.0")
    assert any("provenance" in line for line in footer)
    assert any("constants" in line for line in footer)


def test_fig2_map_columns_and_flags(tmp_path):
    code, out = run_cli(tmp_path, "fig2-map", config=SMALL_MAP_CONFIG)
    assert code == 0
    header, body, _ = read_csv(out / "fig2_map.csv")
    assert header == ["B_T", "psi_rad", "lambda_tilde_hz", "resonance_flag"]
    assert len(body) == 12 * 10
    flags = {row.split(",")[-1] for row in body}
    assert flags == {"true", "false"}
    header, body, _ = read_csv(out / "fig2_overlay.csv")
    assert header == ["OmegaR_Hz", "B_T", "psi_rad", "feasible"]


def test_fig4_curves_columns(tmp_path):
    cfg = {"fig4_curves": {"n_OmegaR": 5,
                           "families": [{"label": "b20", "b_m": 2e-8,
                                         "aspect_ratio": 2.5,
                                         "omega_phi_Hz": 5e6,
                                         "shapes": ["prolate", "oblate"]}]}}
    code, out = run_cli(tmp_path, "fig4-curves", config=cfg)
    assert code == 0
    header, body, _ = read_csv(out / "fig4_curves_b20.csv")
    assert header == ["omega_R_hz", "B_T", "shape_id", "lambda_tilde_hz"]
    assert len(body) == 10


def test_thermal_and_charges_verbs(tmp_path, capsys):
    code, out = run_cli(tmp_path, "thermal")
    assert code == 0
    assert "0.1568" in capsys.readouterr().out
    code, out = run_cli(tmp_path, "charges")
    assert code == 0
    captured = capsys.readouterr().out
    assert "computed count = 365" in captured
    assert "literature estimate = 60" in captured  # documented discrepancy


def test_stability_chart_verb(tmp_path):
    cfg = {"stability_chart": {"n_a": 3, "n_q": 4, "a_min": -0.05,
                               "a_max": 0.05, "q_min": 0.0, "q_max": 1.0}}
    code, out = run_cli(tmp_path, "stability-chart", config=cfg)
    assert code == 0
    header, body, _ = read_csv(out / "stability_chart.csv")
    assert header == ["a", "q", "stable", "monodromy_trace"]
    assert len(body) == 12
    cells = [line.split(",") for line in body]  # a-major, q varying fastest
    assert [(float(a), float(q)) for a, q, _, _ in cells] == \
        [(a, q) for a in np.linspace(-0.05, 0.05, 3) for q in np.linspace(0.0, 1.0, 4)]
    assert all((s == "true") == (abs(float(t)) <= 2.0 + 1e-9) for _, _, s, t in cells)
    assert cells[-1][2] == "false"  # q = 1 lies outside the first region


def test_dynamics_verb(tmp_path):
    cfg = {"dynamics": {"n_secular_periods": 25.0, "samples": 2048}}
    code, out = run_cli(tmp_path, "dynamics", config=cfg)
    assert code == 0
    header, body, _ = read_csv(out / "dynamics_trajectory.csv")
    assert header == ["time_s", "phi1_rad", "phi2_rad", "dphi1_radps",
                      "dphi2_radps"]
    header, body, _ = read_csv(out / "dynamics_summary.csv")
    rel_err = float(body[0].split(",")[-1])
    assert rel_err < 0.02


def test_spin_resonance_coupling_jc_verbs(tmp_path, capsys):
    for verb in ("spin", "resonance", "coupling"):
        code, _ = run_cli(tmp_path, verb)
        assert code == 0, verb
    out_text = capsys.readouterr().out
    assert "B = 31.854 mT" in out_text
    cfg = {"jc_sim": {"N_max": 2, "samples": 600, "n_transfers": 2.0}}
    code, out = run_cli(tmp_path, "jc-sim", config=cfg)
    assert code == 0
    header, body, _ = read_csv(out / "jc_populations.csv")
    assert header[0] == "time_s" and header[-1] == "purity"
    assert len(header) == 2 + 3 * 3  # three spin levels x three phonon levels
    header, body, _ = read_csv(out / "jc_summary.csv")
    assert "strong" in header


def test_bad_config_fails_cleanly(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "table1", config={"nonsense": 1})
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_resonance_unreachable_is_an_error(tmp_path, capsys):
    cfg = {"resonance": {"OmegaR_Hz": 5e8, "omega_phi_Hz": 5e6,
                         "solve_for": "detuning"},
           "spin": {"B_T": 1e-4}}
    code, _ = run_cli(tmp_path, "resonance", config=cfg)
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_json_output_format(tmp_path):
    code, out = run_cli(tmp_path, "table1", extra=("--format", "json"))
    assert code == 0
    payload = json.loads((out / "table1.json").read_text())
    assert payload["columns"][0] == "particle_type"
    assert len(payload["rows"]) == 5
    assert any("config_sha256" in line for line in payload["provenance"])


# ---------------------------------------------------------------------------
# determinism and golden regression
# ---------------------------------------------------------------------------

def test_repeated_runs_are_byte_identical(tmp_path):
    code1, out1 = run_cli(tmp_path / "r1", "table1")
    code2, out2 = run_cli(tmp_path / "r2", "table1")
    assert code1 == code2 == 0
    assert (out1 / "table1.csv").read_bytes() == (out2 / "table1.csv").read_bytes()

    code1, out1 = run_cli(tmp_path / "m1", "fig2-map", config=SMALL_MAP_CONFIG)
    code2, out2 = run_cli(tmp_path / "m2", "fig2-map", config=SMALL_MAP_CONFIG)
    assert code1 == code2 == 0
    assert (out1 / "fig2_map.csv").read_bytes() == (out2 / "fig2_map.csv").read_bytes()


def test_thread_count_does_not_change_bytes(tmp_path):
    _, out1 = run_cli(tmp_path / "t1", "fig2-map", config=SMALL_MAP_CONFIG,
                      extra=("--threads", "1"))
    _, out2 = run_cli(tmp_path / "t2", "fig2-map", config=SMALL_MAP_CONFIG,
                      extra=("--threads", "2"))
    assert (out1 / "fig2_map.csv").read_bytes() == (out2 / "fig2_map.csv").read_bytes()


def test_golden_table1(tmp_path):
    code, out = run_cli(tmp_path, "table1")
    assert code == 0
    assert (out / "table1.csv").read_bytes() == (GOLDEN / "table1.csv").read_bytes()


def test_production_path_does_not_reach_lapack(tmp_path, monkeypatch):
    # Gauss-Legendre nodes come from a LAPACK eigensolver whose last bits vary
    # between numpy builds; the shape verbs must not depend on them
    def refuse(*args, **kwargs):
        raise AssertionError("leggauss reached from the production path")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    for verb in ("table1", "fig4-curves"):
        code, _ = run_cli(tmp_path / verb, verb)
        assert code == 0, verb
    assert (tmp_path / "table1" / "out" / "table1.csv").read_bytes() == \
        (GOLDEN / "table1.csv").read_bytes()


def test_golden_small_map(tmp_path):
    code, out = run_cli(tmp_path, "fig2-map", config=SMALL_MAP_CONFIG)
    assert code == 0
    assert (out / "fig2_map.csv").read_bytes() == \
        (GOLDEN / "fig2_map_small.csv").read_bytes()


def test_json_tables_parse_strictly(tmp_path):
    # unreachable resonances are NaN in memory and must be null on disk
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    code, out = run_cli(tmp_path, "fig2-map", config=SMALL_MAP_CONFIG,
                        extra=("--format", "json"))
    assert code == 0
    for name in ("fig2_map.json", "fig2_overlay.json"):
        json.loads((out / name).read_text(), parse_constant=refuse)
    overlay = json.loads((out / "fig2_overlay.json").read_text())
    assert any(row[2] is None and row[3] is False for row in overlay["rows"])


def test_cli_import_leaves_out_scipy_signal():
    import levrot

    src = str(Path(levrot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = "import sys, levrot.studio.cli; print('scipy.signal' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
