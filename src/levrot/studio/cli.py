"""Command-line front end: reproduces the headline tables, maps, curves and
rate estimates from a single JSON configuration.

Verbs: table1, fig2-map, fig4-curves, thermal, charges, stability-chart,
dynamics, spin, resonance, coupling, jc-sim.  Global flags: --config PATH,
--out DIR, --threads N, --format {csv,json}.  All outputs are deterministic
for a given config and package version and carry a provenance footer.

Each verb computes and returns its tables as (name, columns, rows) triples and
writes no file; main writes them only once the verb has returned all of them,
so a run that fails writes nothing.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import coupling as cpl
from .. import nv_spin, quantum_sim, rotor_dynamics, trap
from ..constants import PhysicalConstants
from ..geometry import SurfaceDensity, ProlateEllipsoid, build_body
from ..nv_spin import TWO_PI
from .config import RunConfig
from .reports import write_table
from .sweep import map_ordered


@dataclass
class OutputContext:
    out_dir: Path
    fmt: str
    threads: int
    constants: PhysicalConstants

    def path(self, name: str) -> Path:
        """Where main writes the table called name."""
        return self.out_dir / f"{name}.{self.fmt}"


def _table(name: str, columns: list[str], *arrays):
    """A verb's table: its name, its column names and one array per column."""
    return name, columns, np.rec.fromarrays(arrays, names=columns)


def _rows_table(name: str, columns: list[str], rows):
    """_table from row tuples, for tables of a few rows."""
    return _table(name, columns, *([row[i] for row in rows]
                                   for i in range(len(columns))))


def _body_from_config(cfg: RunConfig, constants: PhysicalConstants):
    return build_body(cfg.particle_spec(), cfg.charge_model(constants),
                      constants=constants)


def _family_bodies(cfg: RunConfig, shape_ids, b: float, aspect_ratio: float,
                   constants: PhysicalConstants, sigma: float = 1e-6):
    """Bodies for a list of shape ids sharing the minimum radius b."""
    return {sid: build_body(cfg.shape_spec(sid, b=b, aspect_ratio=aspect_ratio),
                            SurfaceDensity(sigma), constants=constants)
            for sid in shape_ids}


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_table1(cfg: RunConfig, ctx: OutputContext):
    """Shape comparison normalized to the same-radius sphere."""
    t1 = cfg.document["table1"]
    tc = cfg.trap_config()
    bodies = _family_bodies(cfg, t1["rows"], t1["b_m"], t1["aspect_ratio"],
                            ctx.constants, sigma=t1["sigma_C_m2"])
    sphere = build_body(cfg.shape_spec("sphere", b=t1["b_m"]),
                        SurfaceDensity(t1["sigma_C_m2"]), constants=ctx.constants)
    omega0 = trap.secular_frequency(
        trap.mathieu_coefficients(sphere, tc, trap.Mode.COM_RADIAL), tc).omega
    I0 = sphere.I_Y

    rows = []
    for sid in t1["rows"]:
        body = bodies[sid]
        head, _, tail = sid.partition(":")
        w_com = trap.secular_frequency(
            trap.mathieu_coefficients(body, tc, trap.Mode.COM_RADIAL), tc).omega
        w_phi = trap.secular_frequency(
            trap.mathieu_coefficients(body, tc, trap.Mode.ROT_Y), tc).omega
        rows.append((head, tail if tail else "-",
                     w_com / omega0, w_phi / omega0,
                     w_phi / w_com if w_com > 0.0 else 0.0,
                     body.I_Y / I0))
    print(f"table1: {len(rows)} rows -> {ctx.path('table1')}")
    return [_rows_table("table1", ["particle_type", "c_over_b",
                                   "omega_com_over_omega0", "omega_phi_over_omega0",
                                   "omega_phi_over_omega_com", "I_y_over_I0"], rows)]


def _fig2_row(B: float, psi_values=None, mode=None, constants=None):
    lam, feas = cpl.coupling_map_rows(mode, [B], psi_values, constants)
    return lam[0], feas[0]


def cmd_fig2_map(cfg: RunConfig, ctx: OutputContext):
    """Coupling-rate map over (B, psi) plus resonant psi(B) overlay curves."""
    fm = cfg.document["fig2_map"]
    body = _body_from_config(cfg, ctx.constants)
    mode = cpl.rotational_mode(body, TWO_PI * fm["omega_phi_Hz"], ctx.constants)
    B_values = np.linspace(fm["B_min_T"], fm["B_max_T"], fm["n_B"])
    psi_values = np.linspace(fm["psi_min_rad"], fm["psi_max_rad"], fm["n_psi"])

    worker = functools.partial(_fig2_row, psi_values=psi_values, mode=mode,
                               constants=ctx.constants)
    results = map_ordered(worker, [float(b) for b in B_values], ctx.threads)
    lam, feas = (np.stack(part) for part in zip(*results))
    n_B, n_psi = B_values.size, psi_values.size
    fig2 = _table("fig2_map", ["B_T", "psi_rad", "lambda_tilde_hz", "resonance_flag"],
                  np.repeat(B_values, n_psi), np.tile(psi_values, n_B),
                  lam.ravel(), feas.ravel())

    rabis = fm["overlay_OmegaR_Hz"]
    psi = np.empty((len(rabis), n_B))
    ok = np.empty((len(rabis), n_B), dtype=bool)
    for i, rabi in enumerate(rabis):
        psi[i], ok[i] = cpl.resonance_curve(mode, B_values, rabi, ctx.constants)
        n_bad = int(np.count_nonzero(~ok[i]))
        if n_bad:
            warnings.warn(f"fig2-map overlay OmegaR={rabi:g} Hz: resonance "
                          f"unreachable at {n_bad} of {n_B} field values")
    overlay = _table("fig2_overlay", ["OmegaR_Hz", "B_T", "psi_rad", "feasible"],
                     np.repeat(np.asarray(rabis, dtype=float), n_B),
                     np.tile(B_values, len(rabis)),
                     np.where(ok, psi, math.nan).ravel(), ok.ravel())
    print(f"fig2-map: {n_B * n_psi} map points -> {ctx.path('fig2_map')}; "
          f"overlays -> {ctx.path('fig2_overlay')}")
    return [fig2, overlay]


def cmd_fig4_curves(cfg: RunConfig, ctx: OutputContext):
    """Resonant coupling rate versus Rabi frequency, one curve per shape."""
    f4 = cfg.document["fig4_curves"]
    rabi_values = np.linspace(f4["OmegaR_min_Hz"], f4["OmegaR_max_Hz"],
                              f4["n_OmegaR"])
    tables = []
    for family in f4["families"]:
        bodies = _family_bodies(cfg, family["shapes"], family["b_m"],
                                family["aspect_ratio"], ctx.constants)
        B, lam = cpl.coupling_vs_rabi(bodies, [float(r) for r in rabi_values],
                                      TWO_PI * family["omega_phi_Hz"],
                                      ctx.constants)
        n_bad = int(np.count_nonzero(np.isnan(lam)))
        if n_bad:
            warnings.warn(f"fig4-curves family {family['label']}: "
                          f"{n_bad} resonance-unreachable points flagged")
        tables.append(_table(
            f"fig4_curves_{family['label']}",
            ["omega_R_hz", "B_T", "shape_id", "lambda_tilde_hz"],
            np.repeat(rabi_values, len(bodies)), np.repeat(B, len(bodies)),
            np.tile(list(bodies), rabi_values.size), lam.ravel()))
    for family, (name, _, rows) in zip(f4["families"], tables):
        print(f"fig4-curves[{family['label']}]: {len(rows)} points -> {ctx.path(name)}")
    return tables


def cmd_thermal(cfg: RunConfig, ctx: OutputContext):
    """Equipartition angular spread for the configured prolate particles."""
    th = cfg.document["thermal"]
    cases = th["cases"]
    rms = []
    for case in cases:
        body = build_body(ProlateEllipsoid(a=case["a_m"], b=case["b_m"]),
                          SurfaceDensity(1e-6), constants=ctx.constants)
        rms.append(trap.thermal_angle(body, TWO_PI * case["omega_phi_Hz"],
                                      th["temperature_K"], k_B=ctx.constants.k_B))
        print(f"thermal[{case['label']}]: sqrt(<phi^2>) = {rms[-1]:.4f} rad")

    def echo(key):  # each case's number as written, integer or not
        return np.array([case[key] for case in cases], dtype=object)

    return [_table("thermal", ["label", "b_m", "a_m", "omega_phi_Hz",
                               "temperature_K", "rms_angle_rad"],
                   [case["label"] for case in cases], echo("b_m"), echo("a_m"),
                   echo("omega_phi_Hz"), [th["temperature_K"]] * len(cases), rms)]


def cmd_charges(cfg: RunConfig, ctx: OutputContext):
    """Total-charge budget for a target rotational frequency."""
    ch = cfg.document["charges"]
    base = cfg.trap_config()
    tc = trap.TrapConfig(V_ac=base.V_ac, V_dc=base.V_dc,
                         drive_frequency=TWO_PI * ch["drive_Hz"],
                         z0=base.z0, eta=ch["eta"])
    body = build_body(ProlateEllipsoid(a=ch["a_m"], b=ch["b_m"]),
                      SurfaceDensity(1e-6), constants=ctx.constants)
    budget = trap.charge_budget(body, tc, TWO_PI * ch["omega_phi_Hz"], ch["ratio"],
                                elementary_charge=ctx.constants.elementary_charge)
    ref = ch["reference_count_e"]
    print(f"charges: computed count = {budget.elementary_count} e "
          f"(|Q| = {budget.required_charge:.3e} C)")
    print(f"charges: quoted literature estimate = {ref} e; this model gives "
          f"{budget.elementary_count / ref:.1f}x that value and does not "
          "reproduce it (see README notes)")
    return [_rows_table("charges", ["b_m", "a_m", "omega_phi_Hz", "ratio",
                                    "required_charge_C", "elementary_count",
                                    "reference_count_e"],
                        [(ch["b_m"], ch["a_m"], ch["omega_phi_Hz"], ch["ratio"],
                          budget.required_charge, budget.elementary_count, ref)])]


def cmd_stability_chart(cfg: RunConfig, ctx: OutputContext):
    """Floquet verdicts over an (a, q) grid, one vectorised integration."""
    sc = cfg.document["stability_chart"]
    a, q = np.meshgrid(np.linspace(sc["a_min"], sc["a_max"], sc["n_a"]),
                       np.linspace(sc["q_min"], sc["q_max"], sc["n_q"]), indexing="ij")
    stable, traces = trap.stability_chart(a, q)
    print(f"stability-chart: {int(stable.sum())}/{stable.size} stable -> "
          f"{ctx.path('stability_chart')}")
    return [_table("stability_chart", ["a", "q", "stable", "monodromy_trace"],
                   *(x.ravel() for x in (a, q, stable, traces)))]


def cmd_dynamics(cfg: RunConfig, ctx: OutputContext):
    """Time-domain trajectory plus extracted-vs-formula frequency comparison.

    relative_error compares the extracted line with the small-angle secular
    formula; for a nonlinear run the line also depends on the amplitude, so
    it measures the departure from the small-angle model, not solver error.
    Beyond the pseudopotential range (|q| > PSEUDOPOTENTIAL_Q_MAX) the formula
    itself is off, which the run reports as a warning.
    """
    dyn = cfg.document["dynamics"]
    tc = cfg.trap_config()
    body = _body_from_config(cfg, ctx.constants)
    coeffs = trap.mathieu_coefficients(body, tc, trap.Mode.ROT_Y)
    secular = trap.secular_frequency(coeffs, tc)
    if secular.omega <= 0.0:
        raise RuntimeError("configured particle has no rotational confinement")
    if not secular.pseudopotential_valid:
        warnings.warn(f"dynamics: mode {coeffs.mode.value} has q = {coeffs.q:.3g}, "
                      f"beyond the pseudopotential range |q| <= "
                      f"{trap.PSEUDOPOTENTIAL_Q_MAX:g}; relative_error then measures "
                      "the error of the secular formula, not of the trajectory")
    duration = dyn["n_secular_periods"] * TWO_PI / secular.omega
    init = rotor_dynamics.RotorState(phi1=dyn["phi1_0_rad"], phi2=dyn["phi2_0_rad"],
                                     dphi1=dyn["dphi1_0_radps"],
                                     dphi2=dyn["dphi2_0_radps"])
    simulate = (rotor_dynamics.simulate_linear if dyn["model"] == "linear"
                else rotor_dynamics.simulate_nonlinear)
    traj = simulate(body, tc, init, duration,
                    rotor_dynamics.DampingModel(dyn["gamma_per_s"]),
                    samples=dyn["samples"])
    extracted = rotor_dynamics.extract_secular_frequency(traj)
    rel = abs(extracted - secular.omega) / secular.omega
    print(f"dynamics: extracted {extracted / TWO_PI / 1e6:.4f} MHz vs formula "
          f"{secular.omega / TWO_PI / 1e6:.4f} MHz (rel err {rel:.2e})")
    return [_table("dynamics_trajectory",
                   ["time_s", "phi1_rad", "phi2_rad", "dphi1_radps", "dphi2_radps"],
                   traj.times, traj.phi1, traj.phi2, traj.dphi1, traj.dphi2),
            _rows_table("dynamics_summary",
                        ["model", "extracted_omega_radps", "formula_omega_radps",
                         "relative_error"],
                        [(dyn["model"], extracted, secular.omega, rel)])]


def _spin_chain(cfg: RunConfig, ctx: OutputContext):
    """Mixed + dressed spectra for the configured field and microwave."""
    spin_cfg = nv_spin.SpinConfig.from_constants(cfg.document["spin"]["B_T"],
                                                 ctx.constants)
    mixed = nv_spin.mixed_spectrum(spin_cfg)
    mw = nv_spin.MicrowaveConfig(
        rabi_frequency=cfg.document["microwave"]["OmegaR_Hz"],
        detuning=cfg.document["microwave"]["Delta_Hz"])
    dressed = nv_spin.dressed_spectrum(mixed, mw)
    return spin_cfg, mixed, mw, dressed


def cmd_spin(cfg: RunConfig, ctx: OutputContext):
    spin_cfg, mixed, mw, dressed = _spin_chain(cfg, ctx)
    print(f"spin: theta = {mixed.theta:.4f} rad, psi = {dressed.psi:.4f} rad, "
          f"(omega_e - omega_d)/2pi = {mixed.omega_ed / TWO_PI / 1e6:.2f} MHz")
    return [_rows_table(
        "spin", ["B_T", "theta_rad", "omega_g_radps", "omega_d_radps",
                 "omega_e_radps", "OmegaR_Hz", "Delta_Hz", "psi_rad",
                 "omega_plus_radps", "omega_minus_radps", "omega_e_prime_radps"],
        [(spin_cfg.B, mixed.theta, mixed.omega_g, mixed.omega_d,
          mixed.omega_e, mw.rabi_frequency, dressed.detuning / TWO_PI,
          dressed.psi, dressed.omega_plus, dressed.omega_minus,
          dressed.omega_e_prime)])]


def cmd_resonance(cfg: RunConfig, ctx: OutputContext):
    rs = cfg.document["resonance"]
    base = nv_spin.SpinConfig.from_constants(cfg.document["spin"]["B_T"],
                                             ctx.constants)
    sol = nv_spin.resonance_solve(base, rs["OmegaR_Hz"],
                                  TWO_PI * rs["omega_phi_Hz"],
                                  solve_for=rs["solve_for"])
    print(f"resonance: B = {sol.B * 1e3:.3f} mT, Delta = "
          f"{sol.detuning / TWO_PI / 1e6:.3f} MHz, psi = {sol.psi:.4f} rad")
    return [_rows_table("resonance",
                        ["solve_for", "OmegaR_Hz", "omega_phi_Hz", "B_T", "Delta_Hz",
                         "psi_rad"],
                        [(rs["solve_for"], rs["OmegaR_Hz"], rs["omega_phi_Hz"], sol.B,
                          sol.detuning / TWO_PI, sol.psi)])]


def _coupling_chain(cfg: RunConfig, ctx: OutputContext):
    """Resonant coupling report for the configured particle and drive."""
    rs = cfg.document["resonance"]
    body = _body_from_config(cfg, ctx.constants)
    omega_phi = TWO_PI * cfg.document["coupling"]["omega_phi_Hz"]
    mode = cpl.rotational_mode(body, omega_phi, ctx.constants)
    base = nv_spin.SpinConfig.from_constants(cfg.document["spin"]["B_T"],
                                             ctx.constants)
    sol = nv_spin.resonance_solve(base, rs["OmegaR_Hz"], omega_phi,
                                  solve_for=rs["solve_for"])
    report = cpl.dressed_coupling(mode, sol.mixed, sol.dressed)
    return body, mode, sol, report


def _budget(cfg: RunConfig) -> cpl.DecoherenceBudget:
    d = cfg.document["decoherence"]
    return cpl.DecoherenceBudget(T1=d["T1_s"], T2_star=d["T2star_s"])


def cmd_coupling(cfg: RunConfig, ctx: OutputContext):
    body, mode, sol, report = _coupling_chain(cfg, ctx)
    budget = _budget(cfg)
    verdict = cpl.strong_coupling_assessment(report.lambda_tilde, budget)
    if not report.rwa_ok:
        warnings.warn("coupling: excitation-conserving reduction outside its "
                      f"validity bound ({report.lambda_tilde:.3g} Hz > "
                      f"{report.rwa_bound:.3g} Hz)")
    print(f"coupling: lambda = {report.lambda_phi / 1e3:.2f} kHz, "
          f"lambda_tilde = {report.lambda_tilde / 1e3:.2f} kHz, "
          f"strong = {verdict.strong} "
          f"(ratios T1 {verdict.ratio_T1:.2f}, T2 {verdict.ratio_T2:.2f})")
    return [_rows_table(
        "coupling", ["omega_phi_Hz", "OmegaR_Hz", "B_T", "Delta_Hz", "theta_rad",
                     "psi_rad", "lambda_phi_hz", "lambda_tilde_hz", "rwa_ok",
                     "T1_s", "T2_s", "ratio_T1", "ratio_T2", "strong"],
        [(mode.omega_phi / TWO_PI, cfg.document["resonance"]["OmegaR_Hz"],
          sol.B, sol.detuning / TWO_PI, report.theta, report.psi,
          report.lambda_phi, report.lambda_tilde, report.rwa_ok,
          budget.T1, budget.T2, verdict.ratio_T1, verdict.ratio_T2,
          verdict.strong)])]


def cmd_jc_sim(cfg: RunConfig, ctx: OutputContext):
    """Spin-phonon exchange dynamics at the resonant working point."""
    jc = cfg.document["jc_sim"]
    body, mode, sol, report = _coupling_chain(cfg, ctx)
    d = sol.dressed
    model = quantum_sim.build_model((d.omega_plus, d.omega_minus, d.omega_e_prime),
                                    mode.omega_phi, report.lambda_tilde,
                                    N_max=jc["N_max"], kind=jc["kind"])
    duration = jc["n_transfers"] / (2.0 * report.lambda_tilde)
    times = np.linspace(0.0, duration, jc["samples"])
    channels = quantum_sim.LindbladChannels()
    if jc["use_decoherence"]:
        channels = quantum_sim.LindbladChannels.from_budget(
            _budget(cfg), phonon_decoherence_rate=jc["phonon_rate_per_s"])
    initial = model.basis_state(jc["initial_spin"], jc["initial_n"])
    result = quantum_sim.evolve(model, initial, times, channels)
    rate = quantum_sim.exchange_frequency(result)

    columns = ["time_s"]
    for label in quantum_sim.SPIN_LABELS:
        columns += [f"P_{label}_{n}" for n in range(model.N_max + 1)]
    columns.append("purity")
    verdict = cpl.strong_coupling_assessment(report.lambda_tilde, _budget(cfg))
    print(f"jc-sim: lambda_tilde = {report.lambda_tilde / 1e3:.2f} kHz, "
          f"population oscillation = {rate / 1e3:.2f} kHz, strong = {verdict.strong}")
    return [_table("jc_populations", columns,
                   times, *result.populations.T, result.purity),
            _rows_table("jc_summary",
                        ["lambda_tilde_hz", "exchange_frequency_hz", "strong",
                         "ratio_T1", "ratio_T2"],
                        [(report.lambda_tilde, rate, verdict.strong,
                          verdict.ratio_T1, verdict.ratio_T2)])]


VERBS = {
    "table1": cmd_table1,
    "fig2-map": cmd_fig2_map,
    "fig4-curves": cmd_fig4_curves,
    "thermal": cmd_thermal,
    "charges": cmd_charges,
    "stability-chart": cmd_stability_chart,
    "dynamics": cmd_dynamics,
    "spin": cmd_spin,
    "resonance": cmd_resonance,
    "coupling": cmd_coupling,
    "jc-sim": cmd_jc_sim,
}


def _check_file_names(ctx: OutputContext, tables):
    """Refuse tables that would overwrite each other, on any file system."""
    seen = set()
    for name, _, _ in tables:
        file_name = ctx.path(name).name
        if file_name.casefold() in seen:
            raise ValueError(f"two tables of this run map to one file: {file_name}")
        seen.add(file_name.casefold())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levrot",
        description="Rotational optomechanics in a Paul trap: tables, maps, "
                    "rate estimates and quantum dynamics from one JSON config.")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON configuration (defaults used when omitted)")
    parser.add_argument("--out", type=Path, default=Path("levrot_out"),
                        help="output directory (created if missing)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes for fig2-map rows (default 1; "
                             "values below 1 mean 1)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("verb", choices=sorted(VERBS),
                        help="which computation to run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = (RunConfig.from_file(args.config) if args.config
               else RunConfig.default())
        ctx = OutputContext(out_dir=args.out, fmt=args.format,
                            threads=max(1, args.threads),
                            constants=cfg.constants())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tables = VERBS[args.verb](cfg, ctx)
        _check_file_names(ctx, tables)
        config_hash = cfg.sha256()
        args.out.mkdir(parents=True, exist_ok=True)
        for name, columns, rows in tables:
            write_table(ctx.path(name), columns, rows, config_hash, ctx.constants,
                        args.format)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if caught:
        print("warnings:", file=sys.stderr)
        for message in dict.fromkeys(str(w.message) for w in caught):
            print(f"  - {message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
