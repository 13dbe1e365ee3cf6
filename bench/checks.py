"""Output checks: every file a scenario writes is compared with reference.py.

Each check takes the call (verb, format, config document) and the directory
the call wrote to, and raises CheckFailure on the first value that disagrees.
Tolerances are fixed here from the precision of each method, never from the
observed error of a run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as R


class CheckFailure(AssertionError):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailure(message)


def _close(name: str, got, want, rtol: float, atol: float = 0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if bad.any():
        i = np.unravel_index(np.flatnonzero(bad)[0], bad.shape)
        raise CheckFailure(f"{name}: {got[i]!r} != reference {want[i]!r} at {i} "
                           f"(rtol {rtol:g}, atol {atol:g})")


def read_csv(path: Path):
    """(header, rows of strings) of a levrot CSV, provenance footer dropped."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_csv_columns(path: Path) -> dict[str, list[str]]:
    """{column: cells} of a large levrot CSV, split in one pass."""
    text = path.read_text(encoding="utf-8")
    header, _, body = text[:text.index("\n#")].partition("\n")
    names = header.split(",")
    cells = body.replace("\n", ",").split(",")
    _require(len(cells) % len(names) == 0, f"{path.name}: ragged rows")
    return {name: cells[k::len(names)] for k, name in enumerate(names)}


def read_json(path: Path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    return payload["columns"], payload["rows"]


def _columns(header, rows, names):
    idx = [header.index(n) for n in names]
    return [[row[i] for row in rows] for i in idx]


def _grid_floats(cells):
    """Floats of a grid column, whose few distinct strings repeat."""
    parsed = {cell: float(cell) for cell in dict.fromkeys(cells)}
    return np.array([parsed[cell] for cell in cells])


def _flags(values):
    return np.array([v in (True, "true") for v in values])


# ---------------------------------------------------------------------------
# floquet_dynamics
# ---------------------------------------------------------------------------

VERDICT_MARGIN = 0.01   # in a: points this close to a boundary are skipped
TRACE_TOL = 1e-9        # the marginal band levrot counts as stable


def check_stability_chart(call, out: Path):
    sc = call.doc["stability_chart"]
    header, rows = read_json(out / "stability_chart.json")
    a, q, stable, trace = _columns(header, rows, ["a", "q", "stable", "monodromy_trace"])
    grid_a = np.repeat(np.linspace(sc["a_min"], sc["a_max"], sc["n_a"]), sc["n_q"])
    grid_q = np.tile(np.linspace(sc["q_min"], sc["q_max"], sc["n_q"]), sc["n_a"])
    _close("stability a", a, grid_a, 1e-15, 1e-15)
    _close("stability q", q, grid_q, 1e-15, 1e-15)
    stable = _flags(stable)
    _require(np.array_equal(stable, np.abs(trace) <= 2.0 + TRACE_TOL),
             "stability verdicts disagree with the reported monodromy traces")
    for ai, qi, si in zip(a, q, stable):
        ref = R.first_region_stable(ai, qi, VERDICT_MARGIN)
        _require(ref is None or ref == si,
                 f"stability at (a={ai}, q={qi}): levrot {si}, Mathieu reference {ref}")


TRAJECTORY_RTOL = 2e-6  # of the largest |value| of the column over the run
CHECKED_SAMPLES = 8


def check_dynamics(call, out: Path):
    doc = call.doc
    dyn, trap = doc["dynamics"], doc["trap"]
    bd, Q = R.particle_body(doc)
    aq1, aq2 = R.rot_y_aq(bd, Q, trap), R.rot_x_aq(bd, Q, trap)
    omega = R.secular(aq1, trap["drive_Hz"])
    duration = dyn["n_secular_periods"] * R.TWO_PI / omega

    header, rows = read_json(out / "dynamics_trajectory.json")
    data = np.array(rows, dtype=float)
    _require(header == ["time_s", "phi1_rad", "phi2_rad", "dphi1_radps", "dphi2_radps"],
             f"trajectory columns {header}")
    _require(data.shape[0] == dyn["samples"],
             f"trajectory has {data.shape[0]} of {dyn['samples']} samples")
    _close("trajectory times", data[:, 0], np.linspace(0.0, duration, dyn["samples"]),
           1e-12, 1e-12 * duration)
    # sampled points, always including the last, against an LSODA run
    rng = np.random.default_rng(dyn["samples"])
    picks = np.unique(np.append(rng.choice(data.shape[0] - 1, CHECKED_SAMPLES - 1,
                                           replace=False) + 1, data.shape[0] - 1))
    init = (dyn["phi1_0_rad"], dyn["phi2_0_rad"], dyn["dphi1_0_radps"], dyn["dphi2_0_radps"])
    ref = R.tilt_trajectory(dyn["model"], aq1, aq2, trap["drive_Hz"], dyn["gamma_per_s"],
                            init, data[picks, 0])
    for k, name in enumerate(header[1:]):
        scale = np.max(np.abs(data[:, k + 1]))
        _close(f"{dyn['model']} {name}", data[picks, k + 1], ref[k], 0.0,
               TRAJECTORY_RTOL * scale)

    header, rows = read_json(out / "dynamics_summary.json")
    (model,), (extracted,), (formula,), (rel,) = _columns(
        header, rows, ["model", "extracted_omega_radps", "formula_omega_radps",
                       "relative_error"])
    _require(model == dyn["model"], f"summary model {model!r}")
    _close("formula secular frequency", formula, omega, 1e-9)
    _close("relative error", rel, abs(extracted - formula) / formula, 1e-12)
    if dyn["model"] == "linear":
        # the spectral line must sit within one frequency bin of the Floquet
        # line; the nonlinear line shifts with amplitude, so it is not checked
        floquet = R.floquet_frequency(*aq1, trap["drive_Hz"])
        _close("extracted secular frequency", extracted, floquet, 0.0, R.TWO_PI / duration)


# ---------------------------------------------------------------------------
# coupling_tables
# ---------------------------------------------------------------------------

def check_table1(call, out: Path):
    t1, trap = call.doc["table1"], call.doc["trap"]
    header, rows = read_csv(out / "table1.csv")
    _require(len(rows) == len(t1["rows"]), f"table1 has {len(rows)} rows")
    sphere = R.shape_id_body("sphere", t1["b_m"], 1.0)

    def omega(bd, mode):
        return R.secular(mode(bd, t1["sigma_C_m2"] * bd.area, trap), trap["drive_Hz"])

    w0 = omega(sphere, R.com_radial_aq)
    for sid, row in zip(t1["rows"], rows):
        head, _, tail = sid.partition(":")
        _require(row[:2] == [head, tail or "-"], f"table1 row label {row[:2]} for {sid}")
        values = [float(v) for v in row[2:]]
        if head == "sphere":
            _require(values == [1.0, 0.0, 0.0, 1.0],
                     f"table1 sphere row {values} is not exactly [1, 0, 0, 1]")
            continue
        bd = R.shape_id_body(sid, t1["b_m"], t1["aspect_ratio"])
        w_com, w_phi = omega(bd, R.com_radial_aq), omega(bd, R.rot_y_aq)
        _close(f"table1 {sid}", values,
               [w_com / w0, w_phi / w0, w_phi / w_com, bd.I_Y / sphere.I_Y], 1e-9)


def check_fig2_map(call, out: Path):
    fm = call.doc["fig2_map"]
    bd, _ = R.particle_body(call.doc)
    omega_phi = R.TWO_PI * fm["omega_phi_Hz"]
    cols = read_csv_columns(out / "fig2_map.csv")
    B, psi = _grid_floats(cols["B_T"]), _grid_floats(cols["psi_rad"])
    lam, flag = np.array(cols["lambda_tilde_hz"], dtype=float), cols["resonance_flag"]
    grid_B = np.repeat(np.linspace(fm["B_min_T"], fm["B_max_T"], fm["n_B"]), fm["n_psi"])
    grid_psi = np.tile(np.linspace(fm["psi_min_rad"], fm["psi_max_rad"], fm["n_psi"]),
                       fm["n_B"])
    _close("fig2 B", B, grid_B, 1e-15, 1e-18)
    _close("fig2 psi", psi, grid_psi, 1e-15)
    _close("fig2 lambda_tilde", lam, R.lambda_tilde(B, psi, bd.I_Y, omega_phi), 1e-12)
    K = 2.0 * (R.ed_gap(B) - omega_phi)
    required = K * np.tan(psi) / R.TWO_PI
    want = (K > 0.0) & (required <= R.RABI_CAP_HZ)
    clear = (np.abs(K) > 1e-9 * omega_phi) & (np.abs(required / R.RABI_CAP_HZ - 1.0) > 1e-9)
    _require(np.array_equal(_flags(flag)[clear], want[clear]),
             "fig2 resonance flags disagree with K tan(psi) <= Rabi cap")

    header, rows = read_csv(out / "fig2_overlay.csv")
    rabi, B, psi, feasible = _columns(header, rows, ["OmegaR_Hz", "B_T", "psi_rad",
                                                     "feasible"])
    rabi, B, psi = (np.array(v, dtype=float) for v in (rabi, B, psi))
    _close("overlay B", B, np.tile(np.linspace(fm["B_min_T"], fm["B_max_T"], fm["n_B"]),
                                   len(fm["overlay_OmegaR_Hz"])), 1e-15, 1e-18)
    K = 2.0 * (R.ed_gap(B) - omega_phi)
    ok = K > 0.0
    _require(np.array_equal(_flags(feasible), ok), "overlay feasibility != (K > 0)")
    _require(bool(np.all(np.isnan(psi[~ok]))), "overlay psi is not NaN where unreachable")
    w = R.TWO_PI * rabi[ok]
    _close("overlay psi", psi[ok], 0.5 * np.arctan2(w, (K[ok] ** 2 - w * w) / (2 * K[ok])),
           1e-10)


def check_fig4_curves(call, out: Path):
    f4 = call.doc["fig4_curves"]
    rabi_grid = np.linspace(f4["OmegaR_min_Hz"], f4["OmegaR_max_Hz"], f4["n_OmegaR"])
    for fam in f4["families"]:
        omega_phi = R.TWO_PI * fam["omega_phi_Hz"]
        header, rows = read_csv(out / f"fig4_curves_{fam['label']}.csv")
        _require(len(rows) == len(rabi_grid) * len(fam["shapes"]),
                 f"fig4 {fam['label']}: {len(rows)} rows")
        bodies = {sid: R.shape_id_body(sid, fam["b_m"], fam["aspect_ratio"])
                  for sid in fam["shapes"]}
        for k, (rabi, B, sid, lam) in enumerate(rows):
            rabi_ref = rabi_grid[k // len(fam["shapes"])]
            _close("fig4 Rabi frequency", float(rabi), rabi_ref, 1e-15)
            _require(sid == fam["shapes"][k % len(fam["shapes"])], f"fig4 shape {sid}")
            B_ref = R.resonant_field(rabi_ref, omega_phi)
            _close(f"fig4 {sid} resonant field", float(B), B_ref, 1e-10)
            _close(f"fig4 {sid} lambda_tilde", float(lam),
                   R.lambda_tilde(B_ref, math.pi / 4, bodies[sid].I_Y, omega_phi), 1e-9)


def _resonance_condition(name, B, delta, rabi_hz, omega_phi):
    """omega_e' - omega_+ = omega_phi, from the diagonalised NV Hamiltonian."""
    psi, w_plus, w_e_prime = R.dressed(B, rabi_hz, delta)
    _close(f"{name}: omega_e' - omega_+", w_e_prime - w_plus, omega_phi, 1e-8)
    return psi


def check_resonance(call, out: Path):
    rs = call.doc["resonance"]
    header, rows = read_csv(out / "resonance.csv")
    (solve_for,), (B,), (delta_hz,), (psi,) = _columns(
        header, rows, ["solve_for", "B_T", "Delta_Hz", "psi_rad"])
    _require(solve_for == rs["solve_for"], f"resonance solve_for {solve_for}")
    B, delta = float(B), R.TWO_PI * float(delta_hz)
    psi_ref = _resonance_condition(f"resonance ({solve_for})", B, delta,
                                   rs["OmegaR_Hz"], R.TWO_PI * rs["omega_phi_Hz"])
    _close("resonance psi", float(psi), psi_ref, 1e-12)


def check_coupling(call, out: Path):
    doc = call.doc
    omega_phi = R.TWO_PI * doc["coupling"]["omega_phi_Hz"]
    bd, _ = R.particle_body(doc)
    B, delta, psi = R.resonance_point(doc, omega_phi)
    header, rows = read_csv(out / "coupling.csv")
    values = dict(zip(header, rows[0]))
    _close("coupling B", float(values["B_T"]), B, 1e-10)
    _close("coupling theta", float(values["theta_rad"]), R.theta_closed(B), 1e-10)
    _close("coupling psi", float(values["psi_rad"]), psi, 1e-9)
    _close("coupling lambda_phi", float(values["lambda_phi_hz"]),
           R.GAMMA_NV * B * R.phi0(bd.I_Y, omega_phi), 1e-10)
    _close("coupling lambda_tilde", float(values["lambda_tilde_hz"]),
           R.lambda_tilde(B, psi, bd.I_Y, omega_phi), 1e-9)


def check_spin(call, out: Path):
    B, mw = call.doc["spin"]["B_T"], call.doc["microwave"]
    header, rows = read_csv(out / "spin.csv")
    v = {k: float(x) for k, x in zip(header, rows[0])}
    wg, wd, we, theta = R.mixed_levels(B)
    scale = abs(we)
    _close("spin levels", [v["omega_g_radps"], v["omega_d_radps"], v["omega_e_radps"]],
           [wg, wd, we], 0.0, 1e-13 * scale)
    _close("spin theta", v["theta_rad"], theta, 1e-12, 1e-15)
    delta = R.TWO_PI * mw["Delta_Hz"]
    psi, w_plus, w_e_prime = R.dressed(B, mw["OmegaR_Hz"], delta)
    _close("spin psi", v["psi_rad"], psi, 1e-12)
    _close("spin omega_+ / omega_-", [v["omega_plus_radps"], v["omega_minus_radps"]],
           [w_plus, -w_plus], 1e-12)
    _close("spin omega_e'", v["omega_e_prime_radps"], w_e_prime, 0.0, 1e-13 * scale)


def check_thermal(call, out: Path):
    th = call.doc["thermal"]
    header, rows = read_csv(out / "thermal.csv")
    for case, row in zip(th["cases"], rows, strict=True):
        bd = R.body("prolate", case["b_m"], case["a_m"])
        omega = R.TWO_PI * case["omega_phi_Hz"]
        _close(f"thermal {case['label']}", float(row[header.index("rms_angle_rad")]),
               math.sqrt(R.K_B * th["temperature_K"] / (bd.I_Y * omega * omega)), 1e-12)


def check_charges(call, out: Path):
    ch, trap = call.doc["charges"], call.doc["trap"]
    header, rows = read_csv(out / "charges.csv")
    v = dict(zip(header, rows[0]))
    bd = R.body("prolate", ch["b_m"], ch["a_m"])
    omega_com = R.TWO_PI * ch["omega_phi_Hz"] / ch["ratio"]
    # omega_z = eta |Q| V_ac / (sqrt 2 m Omega z0^2), solved for |Q|
    Q = (math.sqrt(2.0) * bd.mass * R.TWO_PI * ch["drive_Hz"] * trap["z0_m"] ** 2
         * omega_com / (ch["eta"] * trap["Vac_V"]))
    _close("charges required charge", float(v["required_charge_C"]), Q, 1e-12)
    count = Q / R.E_CHARGE
    if abs(count - round(count)) > 1e-6:
        _require(int(v["elementary_count"]) == math.ceil(count),
                 f"charges count {v['elementary_count']} != ceil({count})")


# ---------------------------------------------------------------------------
# quantum_exchange
# ---------------------------------------------------------------------------

STATE_TOL = 1e-9


def check_jc_sim(call, out: Path):
    doc = call.doc
    jc = doc["jc_sim"]
    nf = jc["N_max"] + 1
    header, rows = read_csv(out / "jc_populations.csv")
    data = np.array(rows, dtype=float)
    _require(data.shape == (jc["samples"], 3 * nf + 2),
             f"jc populations shape {data.shape}")
    times, pops, purity = data[:, 0], data[:, 1:-1], data[:, -1]
    omega_phi = R.TWO_PI * doc["coupling"]["omega_phi_Hz"]
    bd, _ = R.particle_body(doc)
    B, _, psi = R.resonance_point(doc, omega_phi)
    lam = float(R.lambda_tilde(B, psi, bd.I_Y, omega_phi))
    _close("jc times", times, np.linspace(0.0, jc["n_transfers"] / (2.0 * lam),
                                          jc["samples"]), 1e-9, 1e-15)
    _close("jc trace", pops.sum(axis=1), np.ones(len(times)), 0.0, STATE_TOL)
    _require(bool(np.all((pops >= -STATE_TOL) & (pops <= 1.0 + STATE_TOL))),
             "jc populations leave [0, 1]")
    if jc["use_decoherence"]:
        _require(bool(np.all(purity <= 1.0 + STATE_TOL)), "jc purity above 1")
    else:
        _close("jc purity", purity, np.ones(len(times)), 0.0, STATE_TOL)
    if jc["kind"] == "jaynes_cummings" and not jc["use_decoherence"]:
        # resonant ladder |+, n> <-> |e, n-1> at 2 pi lambda_tilde sqrt(n)
        n = jc["initial_n"]
        top, col = ((n, 2 * nf + n - 1) if jc["initial_spin"] == "plus"
                    else (n + 1, n + 1))
        _close("jc exchanged population", pops[:, col],
               np.sin(R.TWO_PI * lam * math.sqrt(top) * times) ** 2, 0.0, 1e-6)
    header, rows = read_csv(out / "jc_summary.csv")
    _close("jc lambda_tilde", float(rows[0][header.index("lambda_tilde_hz")]), lam, 1e-9)


CHECKS = {
    "stability-chart": check_stability_chart,
    "dynamics": check_dynamics,
    "table1": check_table1,
    "fig2-map": check_fig2_map,
    "fig4-curves": check_fig4_curves,
    "resonance": check_resonance,
    "coupling": check_coupling,
    "spin": check_spin,
    "thermal": check_thermal,
    "charges": check_charges,
    "jc-sim": check_jc_sim,
}


def check_call(call, out: Path):
    CHECKS[call.verb](call, out)
