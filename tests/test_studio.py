import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levrot.geometry import Composite, ProlateEllipsoid
from levrot.studio.cli import main
from levrot.studio.config import RunConfig, ConfigError, DEFAULT_CONFIG, write_schema

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


def test_composite_particle_keeps_configured_values():
    # c_m / b_m * b_m would build this disk 2.9999999999999996e-09 m thick
    particle = {"shape": "composite", "b_m": 2.1e-8, "a_m": 5e-8, "c_m": 3e-9,
                "disk_material": "diamond", "zero_mass_disk": True}
    assert RunConfig({"particle": particle}).particle_spec() == Composite(
        b=2.1e-8, a=5e-8, c=3e-9, disk_material="diamond", zero_mass_disk=True)


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


def test_non_finite_particle_length_writes_nothing(tmp_path, capsys):
    # json accepts NaN, so a config can carry one; it must not become NaN rates
    config = {"particle": {"shape": "sphere", "b_m": float("nan")}}
    code, out = run_cli(tmp_path, "coupling", config=config)
    assert code == 1
    assert "particle.b_m" in capsys.readouterr().err
    assert not (out / "coupling.csv").exists()


@pytest.mark.parametrize("key, doc", [
    ("trap.Vac_V", {"trap": {"Vac_V": math.nan}}),
    ("decoherence.T1_s", {"decoherence": {"T1_s": math.inf}}),
    ("fig2_map.overlay_OmegaR_Hz[1]", {"fig2_map": {"overlay_OmegaR_Hz": [1e8, -math.inf]}}),
    ("thermal.cases[1].a_m",
     {"thermal": {"cases": [DEFAULT_CONFIG["thermal"]["cases"][0],
                            {**DEFAULT_CONFIG["thermal"]["cases"][1], "a_m": math.nan}]}}),
])
def test_non_finite_numbers_rejected(key, doc):
    # outside the published schema: JSON Schema cannot express NaN or Infinity
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be a finite number")):
        RunConfig(doc)


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


# documents that both the code and the published schema must accept, and
# documents that both must reject, each paired with the dotted key its
# ConfigError names
COMPOSITE = {"shape": "composite", "b_m": 8e-8, "a_m": 2e-7, "c_m": 1e-8}
ACCEPTED = [
    {},
    DEFAULT_CONFIG,
    {"particle": COMPOSITE},
    {"particle": {**COMPOSITE, "disk_material": "diamond", "zero_mass_disk": True}},
    {"particle": {"shape": "sphere", "b_m": 2e-8}},
    {"charge": {"mode": "surface_density", "sigma_C_m2": 1e-6}},
    {"constants": {"density_diamond_kg_m3": 3500.0}},
    {"trap": {"Vac_V": 5000}},  # an integer is a number
    {"table1": {"rows": ["composite:1", "composite:.5", "zero_mass_disk:6.25e-2",
                         "composite:1e-3", "composite:0.001"]}},
]
REJECTED = [
    ("jc_sim.use_decoherence", {"jc_sim": {"use_decoherence": "no"}}),
    ("dynamics.model", {"dynamics": {"model": "linaer"}}),
    ("thermal.cases[0].T",
     {"thermal": {"cases": [{**DEFAULT_CONFIG["thermal"]["cases"][0], "T": 4.0}]}}),
    ("jc_sim.N_max", {"jc_sim": {"N_max": "8"}}),
    ("dynamics.samples", {"dynamics": {"samples": 1}}),
    ("stability_chart.n_a", {"stability_chart": {"n_a": 0}}),
    ("fig2_map.n_B", {"fig2_map": {"n_B": 2.5}}),
    ("trap.Vac_V", {"trap": {"Vac_V": "5000"}}),
    ("jc_sim.initial_spin", {"jc_sim": {"initial_spin": "up"}}),
    ("particle.zero_mass_disk", {"particle": {**COMPOSITE, "zero_mass_disk": "yes"}}),
    ("jc_sim.N_max", {"jc_sim": {"N_max": 8.0}}),
    ("jc_sim.use_decoherence", {"jc_sim": {"use_decoherence": 0}}),
    ("trap", {"trap": 5}),
    ("tarp", {"tarp": {}}),
    ("trap.Vca_V", {"trap": {"Vca_V": 100.0}}),
    ("particle.c_m", {"particle": {"shape": "prolate", "b_m": 1e-8, "a_m": 2e-8,
                                   "c_m": 1e-9}}),
    ("particle.a_m", {"particle": {"shape": "prolate", "b_m": 1e-8}}),
    ("particle.shape", {"particle": {"shape": "cube", "b_m": 1e-8}}),
    ("charge.mode", {"charge": {"mode": "by_vibes"}}),
    ("charge.Qtot_e", {"charge": {"mode": "total"}}),
    ("constants.density_diamond", {"constants": {"density_diamond": 3500.0}}),
    ("table1.rows[0]", {"table1": {"rows": ["cube"]}}),
    ("table1.rows[1]", {"table1": {"rows": ["sphere", "composite:nope"]}}),
    ("table1.rows[0]", {"table1": {"rows": ["composite:1.5"]}}),
    ("table1.rows[0]", {"table1": {"rows": ["zero_mass_disk:0.0"]}}),
    ("table1.rows[0]", {"table1": {"rows": ["prolate:0.5"]}}),
    ("fig4_curves.families[0].shapes",
     {"fig4_curves": {"families": [{"label": "x", "b_m": 2e-8, "aspect_ratio": 2.5,
                                    "omega_phi_Hz": 5e6}]}}),
    ("fig2_map.overlay_OmegaR_Hz[1]", {"fig2_map": {"overlay_OmegaR_Hz": [1e8, None]}}),
]
# every inclusive bound of the declarations: (section, key, side, bound)
BOUNDS = [
    ("fig2_map", "n_B", "minimum", 1), ("fig2_map", "n_psi", "minimum", 1),
    ("fig4_curves", "n_OmegaR", "minimum", 1),
    ("stability_chart", "n_a", "minimum", 1), ("stability_chart", "n_q", "minimum", 1),
    ("dynamics", "samples", "minimum", 1024), ("jc_sim", "samples", "minimum", 2),
    ("dynamics", "phi1_0_rad", "minimum", -math.pi / 2),
    ("dynamics", "phi1_0_rad", "maximum", math.pi / 2),
    ("dynamics", "phi2_0_rad", "minimum", -math.pi / 2),
    ("dynamics", "phi2_0_rad", "maximum", math.pi / 2),
]
for section, key, side, bound in BOUNDS:
    outside = (bound + (1 if side == "maximum" else -1) if isinstance(bound, int)
               else math.nextafter(bound, math.inf if side == "maximum" else -math.inf))
    ACCEPTED.append({section: {key: bound}})
    REJECTED.append((f"{section}.{key}", {section: {key: outside}}))
# a family label becomes part of a file name
FAMILIES = DEFAULT_CONFIG["fig4_curves"]["families"]
REJECTED += [("fig4_curves.families[1].label",
              {"fig4_curves": {"families": [FAMILIES[0], {**FAMILIES[1], "label": bad}]}})
             for bad in ("../../y", "b 80", "")]
# a pattern's '$' must not let a final newline through under re.search
REJECTED += [("fig4_curves.families[1].label",
              {"fig4_curves": {"families": [FAMILIES[0], {**FAMILIES[1], "label": "x\n"}]}}),
             ("table1.rows[0]", {"table1": {"rows": ["sphere\n"]}})]
# every exclusive lower bound (section, key, bound): the bound and below are
# refused, the next double up is not
EXCLUSIVE = [("dynamics", "n_secular_periods", 0), ("jc_sim", "n_transfers", 0)]
EXCLUSIVE_CASES = []
for section, key, bound in EXCLUSIVE:
    EXCLUSIVE_CASES += [(f"{section}.{key}", {section: {key: float(bound)}}),
                        (f"{section}.{key}", {section: {key: bound - 5.0}}),
                        (None, {section: {key: math.nextafter(bound, math.inf)}})]


@pytest.fixture(scope="module")
def published_schema(tmp_path_factory):
    path = tmp_path_factory.mktemp("schema") / "config_schema.json"
    write_schema(path)
    return json.loads(path.read_text())


@pytest.mark.parametrize("key, doc",
                         [(None, doc) for doc in ACCEPTED] + REJECTED + EXCLUSIVE_CASES)
def test_code_and_schema_agree(key, doc, published_schema):
    if key is None:
        RunConfig(doc)
    else:
        with pytest.raises(ConfigError, match=re.escape(key)):
            RunConfig(doc)
    jsonschema = pytest.importorskip("jsonschema")
    try:
        jsonschema.validate(doc, published_schema)
    except jsonschema.ValidationError:
        assert key is not None, "the schema rejects a document the code accepts"
    else:
        assert key is None, "the schema accepts a document the code rejects"


def test_every_declared_bound_is_tested(published_schema):
    declared = {(section, key, side, leaf[side])
                for section, node in published_schema["properties"].items()
                for key, leaf in node.get("properties", {}).items()
                for side in ("minimum", "maximum") if side in leaf}
    exclusive = {(section, key, bound) for section, key, side, bound in declared
                 if published_schema["properties"][section]["properties"][key]
                 .get("exclusiveMinimum")}
    assert declared - {(s, k, "minimum", b) for s, k, b in exclusive} == set(BOUNDS)
    assert exclusive == set(EXCLUSIVE)


def test_exclusive_minimum_refuses_the_bound():
    with pytest.raises(ConfigError, match=r"^jc_sim\.n_transfers must be > 0, got 0\.0$"):
        RunConfig({"jc_sim": {"n_transfers": 0.0}})
    assert RunConfig({"jc_sim": {"n_transfers": 5e-324}}).document["jc_sim"]["n_transfers"] > 0


def test_committed_schema_is_current(tmp_path):
    path = tmp_path / "config_schema.json"
    write_schema(path)
    committed = Path(__file__).parents[1] / "docs" / "config_schema.json"
    assert path.read_bytes() == committed.read_bytes()
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.Draft4Validator.check_schema(json.loads(committed.read_text()))


@pytest.mark.parametrize("verb, config, output", [
    ("jc-sim", {"jc_sim": {"N_max": 2, "samples": 50, "use_decoherence": "no"}},
     "jc_populations.csv"),
    ("dynamics", {"dynamics": {"model": "linaer"}}, "dynamics_summary.csv"),
    ("thermal", {"thermal": {"cases": [{**DEFAULT_CONFIG["thermal"]["cases"][0], "T": 4.0}]}},
     "thermal.csv"),
    ("table1", {"trap": {"Vac_V": math.nan}}, "table1.csv"),
    # too few samples for a line in band: extraction fails before any table is written
    ("jc-sim", {"jc_sim": {"N_max": 2, "samples": 5}}, "jc_populations.csv"),
    # a start on the angle limit leaves the linear model at once
    ("dynamics", {"dynamics": {"phi1_0_rad": math.pi / 2, "samples": 1024}},
     "dynamics_trajectory.csv"),
    # multi-table verbs: the first table computes, a later one fails
    ("fig4-curves", {"fig4_curves": {"families": [
        DEFAULT_CONFIG["fig4_curves"]["families"][0],
        {**DEFAULT_CONFIG["fig4_curves"]["families"][1], "b_m": 1e60}]}},
     "fig4_curves_b20.csv"),
    ("fig2-map", {"fig2_map": {**SMALL_MAP_CONFIG["fig2_map"],
                               "overlay_OmegaR_Hz": [-1e300]}}, "fig2_map.csv"),
    ("fig2-map", {"fig2_map": {**SMALL_MAP_CONFIG["fig2_map"],
                               "overlay_OmegaR_Hz": [5.0e8, 0.0]}}, "fig2_map.csv"),
    # two families whose tables would land in one file, here or on a
    # case-insensitive file system, and a label that is a path
    ("fig4-curves", {"fig4_curves": {"families": [
        {**DEFAULT_CONFIG["fig4_curves"]["families"][0], "label": "x"},
        {**DEFAULT_CONFIG["fig4_curves"]["families"][1], "label": "x"}]}},
     "fig4_curves_x.csv"),
    ("fig4-curves", {"fig4_curves": {"families": [
        {**DEFAULT_CONFIG["fig4_curves"]["families"][0], "label": "x"},
        {**DEFAULT_CONFIG["fig4_curves"]["families"][1], "label": "../../y"}]}},
     "fig4_curves_x.csv"),
    ("fig4-curves", {"fig4_curves": {"families": [
        {**DEFAULT_CONFIG["fig4_curves"]["families"][0], "label": "x"},
        {**DEFAULT_CONFIG["fig4_curves"]["families"][1], "label": "X"}]}},
     "fig4_curves_x.csv"),
    # a run must last a positive time
    ("dynamics", {"dynamics": {"n_secular_periods": -5.0}}, "dynamics_trajectory.csv"),
    ("dynamics", {"dynamics": {"n_secular_periods": 0.0}}, "dynamics_trajectory.csv"),
    ("jc-sim", {"jc_sim": {"n_transfers": 0.0}}, "jc_populations.csv"),
])
def test_rejected_config_writes_nothing(tmp_path, capsys, verb, config, output):
    code, out = run_cli(tmp_path, verb, config=config)
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / output).exists()
    assert not out.exists() or not any(out.iterdir())


def test_threads_below_one_run_serially(tmp_path):
    _, default = run_cli(tmp_path / "default", "fig2-map", config=SMALL_MAP_CONFIG)
    for threads in ("0", "-3"):
        code, out = run_cli(tmp_path / threads, "fig2-map", config=SMALL_MAP_CONFIG,
                            extra=("--threads", threads))
        assert code == 0
        assert (out / "fig2_map.csv").read_bytes() == \
            (default / "fig2_map.csv").read_bytes()


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


def test_thermal_cells_keep_each_numbers_spelling(tmp_path):
    # one column mixing integer and decimal config numbers: each cell is
    # written as the config spells it, not widened to one dtype
    cases = [{"label": "a", "b_m": 2e-8, "a_m": 5e-8, "omega_phi_Hz": 5000000},
             {"label": "b", "b_m": 8e-8, "a_m": 2e-7, "omega_phi_Hz": 5e5}]
    code, out = run_cli(tmp_path, "thermal",
                        config={"thermal": {"temperature_K": 300, "cases": cases}})
    assert code == 0
    _, body, _ = read_csv(out / "thermal.csv")
    assert [row.split(",")[3:5] for row in body] == [["5000000", "300"],
                                                      ["500000.0", "300"]]


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


def test_dynamics_warns_beyond_pseudopotential_range(tmp_path, capsys):
    short = {"dynamics": {"n_secular_periods": 25.0, "samples": 2048}}
    code, _ = run_cli(tmp_path / "default", "dynamics", config=short)
    assert code == 0
    assert "pseudopotential" not in capsys.readouterr().err
    # the tilt mode of this composite has q = -0.706
    composite = {**short, "particle": {"shape": "composite", "b_m": 2.1e-8,
                                       "a_m": 5e-8, "c_m": 3e-9}}
    code, out = run_cli(tmp_path / "composite", "dynamics", config=composite)
    assert code == 0
    assert (out / "dynamics_summary.csv").exists()
    err = capsys.readouterr().err
    assert "dynamics: mode rot_y has q = -0.706, beyond the pseudopotential range" in err
    assert "relative_error then measures the error of the secular formula" in err


def test_warnings_print_once_in_the_order_raised(tmp_path, capsys):
    # the drive leakage note comes from resonance_solve, before the verb's own
    # RWA warning
    cfg = {"coupling": {"omega_phi_Hz": 1000.0},
           "resonance": {"OmegaR_Hz": 1e9, "omega_phi_Hz": 1000.0, "solve_for": "field"}}
    code, _ = run_cli(tmp_path, "coupling", config=cfg)
    assert code == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "warnings:"
    assert len(lines) == 3
    assert lines[1].startswith("  - microwave drive may also address the d <-> e")
    assert lines[2].startswith("  - coupling: excitation-conserving reduction outside")


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


# a dissipative full_rabi run whose dense Liouvillian (|L dt|_1 ~ 4e4, set by
# the uncoupled |-> ladder) drifted the trace past CHECK_TOL near t = 3.26 ms
DRIFT_CONFIG = {
    "particle": {"shape": "oblate", "b_m": 3.515905993045629e-08,
                 "a_m": 1.0857222830961848e-07},
    "charge": {"mode": "total", "Qtot_e": 360.22274538914144},
    "spin": {"B_T": 0.09673139811768379},
    "resonance": {"OmegaR_Hz": 104587316.00753169, "omega_phi_Hz": 7219775.0085008545,
                  "solve_for": "detuning"},
    "coupling": {"omega_phi_Hz": 7219775.0085008545},
    "decoherence": {"T1_s": 0.059844432485956035, "T2star_s": 0.02068572199099789},
    "jc_sim": {"N_max": 3, "kind": "full_rabi", "initial_spin": "plus", "initial_n": 1,
               "n_transfers": 4.74727008865978, "samples": 1043,
               "phonon_rate_per_s": 6.339214281839463, "use_decoherence": True},
}


def test_dissipative_full_rabi_keeps_its_trace(tmp_path, monkeypatch):
    from levrot import quantum_sim

    results = []
    evolve = quantum_sim.evolve
    monkeypatch.setattr(quantum_sim, "evolve",
                        lambda *args: results.append(evolve(*args)) or results[-1])
    code, out = run_cli(tmp_path, "jc-sim", config=DRIFT_CONFIG)
    assert code == 0
    assert (out / "jc_populations.csv").exists()
    drift = np.max(np.abs(results[0].populations.sum(axis=1) - 1.0))
    assert drift <= 0.1 * quantum_sim.CHECK_TOL


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rerun_into_one_out_replaces_each_file(tmp_path, fmt):
    # the first run's file stays open, so its inode cannot be reused; a file
    # truncated and rewritten in place would keep that inode and lose its bytes
    code1, out = run_cli(tmp_path, "table1", extra=("--format", fmt))
    path = out / f"table1.{fmt}"
    with open(path, "rb") as first:
        before = first.read()
        code2, _ = run_cli(tmp_path, "table1", extra=("--format", fmt))
        assert os.fstat(first.fileno()).st_ino != path.stat().st_ino
        first.seek(0)
        assert first.read() == before
    assert code1 == code2 == 0
    assert path.read_bytes() == before


def test_symlink_at_output_path_is_replaced(tmp_path):
    _, fresh = run_cli(tmp_path / "fresh", "table1")
    target = tmp_path / "target.csv"
    target.write_text("not a levrot table\n")
    out = tmp_path / "linked" / "out"
    out.mkdir(parents=True)
    (out / "table1.csv").symlink_to(target)
    code, _ = run_cli(tmp_path / "linked", "table1")
    assert code == 0
    assert not (out / "table1.csv").is_symlink()
    assert (out / "table1.csv").read_bytes() == (fresh / "table1.csv").read_bytes()
    assert target.read_text() == "not a levrot table\n"


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


def fresh_python(probe: str) -> str:
    """stdout of ``probe`` run by a new interpreter that imports this levrot."""
    import levrot

    src = str(Path(levrot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


def test_cli_import_leaves_out_scipy_signal():
    probe = "import sys, levrot.studio.cli; print('scipy.signal' in sys.modules)"
    assert fresh_python(probe) == "False"


LOADED = ("sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
          " or m == 'concurrent.futures.process')")


def test_cli_import_and_table1_load_no_scipy(tmp_path):
    # scipy (and the process pool) load only inside the verbs that use them
    assert fresh_python(f"import sys, levrot.studio.cli; print({LOADED})") == "[]"
    # the default jc-sim run is unitary
    for verb in ("table1", "fig2-map", "fig4-curves", "thermal", "charges", "spin",
                 "resonance", "coupling", "jc-sim"):
        probe = ("import sys, levrot.studio.cli; "
                 f"code = levrot.studio.cli.main(['--out', {str(tmp_path)!r}, {verb!r}]); "
                 f"print(code, {LOADED})")
        assert fresh_python(probe).splitlines()[-1] == "0 []", verb
    assert (tmp_path / "table1.csv").read_bytes() == (GOLDEN / "table1.csv").read_bytes()
    assert (tmp_path / "jc_summary.csv").exists()
