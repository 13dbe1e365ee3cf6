"""Seeded scenario generator: one scenario is a list of levrot CLI calls.

Scenario ``i`` of seed ``s`` is drawn from ``numpy.random.default_rng((s, i,
tag))`` alone, so the same seed always yields the same inputs.  Sizes that
set the cost of a call (grid points, drive periods, Fock truncation times
samples) are drawn so that every scenario of a workload carries about the
same work, while the physical inputs vary freely; this keeps the per-run
median latency steady from seed to seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference as R

@dataclass(frozen=True)
class Call:
    verb: str
    fmt: str
    doc: dict


def _particle(rng, shapes=("prolate", "oblate", "composite"), b_range=(15e-9, 60e-9)):
    shape = str(rng.choice(shapes))
    b = rng.uniform(*b_range)
    particle = {"shape": shape, "b_m": b}
    if shape != "sphere":
        particle["a_m"] = rng.uniform(1.5, 3.5) * b
    if shape == "composite":
        particle["c_m"] = rng.uniform(0.05, 0.5) * b
    return particle


def _trap(rng):
    return {"Vac_V": rng.uniform(2000.0, 8000.0), "Vdc_V": 0.0,
            "drive_Hz": rng.uniform(2e7, 8e7), "z0_m": 1e-5,
            "eta": rng.uniform(0.5, 1.0)}


def _ref_body(particle):
    return R.body(particle["shape"], particle["b_m"], particle.get("a_m"),
                  particle.get("c_m"), particle.get("zero_mass_disk", False))


# (n_a, n_q) shapes with the same number of grid points
_CHART_SHAPES = ((12, 12), (9, 16), (16, 9), (8, 18), (18, 8))


def floquet_dynamics(rng, tiny: bool) -> list[Call]:
    particle = _particle(rng)
    trap = _trap(rng)
    # charge chosen for a target tilt-mode |q|, which sets the drive periods
    # per secular period (2 sqrt 2 / |q| with Vdc = 0)
    q_target = rng.uniform(0.25, 0.55)
    _, q_per_e = R.rot_y_aq(_ref_body(particle), R.E_CHARGE, trap)
    charge = {"mode": "total", "Qtot_e": q_target / abs(q_per_e)}
    n_a, n_q = (3, 3) if tiny else _CHART_SHAPES[rng.integers(len(_CHART_SHAPES))]
    q_lo, a_lo = rng.uniform(0.5, 0.8), rng.uniform(-0.4, -0.2)
    chart = {"a_min": a_lo, "a_max": a_lo + rng.uniform(0.35, 0.5), "n_a": n_a,
             "q_min": q_lo, "q_max": q_lo + rng.uniform(0.3, 0.45), "n_q": n_q}
    # linear and nonlinear runs share a fixed total of drive periods
    periods = 30.0 if tiny else 110.0
    skew = 0.15 * (2.0 * rng.random() - 1.0)
    base = {"particle": particle, "charge": charge, "trap": trap,
            "stability_chart": chart}
    calls = [Call("stability-chart", "json", base)]
    for model, share in (("linear", 1.0 + skew), ("nonlinear", 1.0 - skew)):
        omega_sec_over_drive = q_target / (2.0 * math.sqrt(2.0))
        dyn = {"model": model,
               "phi1_0_rad": rng.uniform(0.01, 0.3),
               "phi2_0_rad": rng.uniform(-0.1, 0.1),
               "dphi1_0_radps": 0.0, "dphi2_0_radps": 0.0,
               "n_secular_periods": periods * share * omega_sec_over_drive,
               "samples": 1024 if tiny else int(rng.integers(1024, 3073)),
               "gamma_per_s": rng.uniform(0.0, 0.01) * omega_sec_over_drive
               * R.TWO_PI * trap["drive_Hz"]}
        calls.append(Call("dynamics", "json", {**base, "dynamics": dyn}))
    return calls


def _loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def coupling_tables(rng, tiny: bool) -> list[Call]:
    particle = _particle(rng, b_range=(10e-9, 100e-9))
    omega_phi_hz = _loguniform(rng, 2e5, 2e7)
    n_B = 20 if tiny else int(rng.integers(200, 451))
    n_psi = 20 if tiny else round(90000 / n_B)
    B_min = rng.uniform(0.0, 0.02)
    b_tab = rng.uniform(10e-9, 100e-9)
    thin = sorted({round(_loguniform(rng, 0.001, 0.3), 4) for _ in range(2)})
    doc = {
        "particle": particle,
        "charge": {"mode": "surface_density", "sigma_C_m2": _loguniform(rng, 1e-7, 1e-5)},
        "trap": _trap(rng),
        "spin": {"B_T": rng.uniform(0.02, 0.1)},
        "microwave": {"OmegaR_Hz": _loguniform(rng, 1e7, 1e9),
                      "Delta_Hz": rng.uniform(-1e8, 1e8)},
        "table1": {"b_m": b_tab, "aspect_ratio": rng.uniform(1.5, 4.0),
                   "sigma_C_m2": _loguniform(rng, 1e-7, 1e-5),
                   "rows": ["sphere", "oblate", "prolate", "composite:0.001"]
                   + [f"composite:{cb}" for cb in thin]
                   + [f"zero_mass_disk:{thin[0]}"]},
        "fig2_map": {"omega_phi_Hz": omega_phi_hz,
                     "B_min_T": B_min, "B_max_T": B_min + rng.uniform(0.05, 0.3),
                     "n_B": n_B,
                     "psi_min_rad": rng.uniform(0.005, 0.2),
                     "psi_max_rad": rng.uniform(1.2, 1.565), "n_psi": n_psi,
                     "overlay_OmegaR_Hz": sorted(_loguniform(rng, 1e7, 2e9)
                                                 for _ in range(3))},
        "fig4_curves": {
            "OmegaR_min_Hz": _loguniform(rng, 1e7, 1e8),
            "OmegaR_max_Hz": _loguniform(rng, 5e8, 2e9),
            "n_OmegaR": 8 if tiny else int(rng.integers(20, 61)),
            "families": [
                {"label": "small", "b_m": rng.uniform(10e-9, 40e-9),
                 "aspect_ratio": rng.uniform(1.5, 4.0),
                 "omega_phi_Hz": _loguniform(rng, 1e6, 2e7),
                 "shapes": ["prolate", "oblate"]},
                {"label": "large", "b_m": rng.uniform(40e-9, 150e-9),
                 "aspect_ratio": rng.uniform(1.5, 4.0),
                 "omega_phi_Hz": _loguniform(rng, 1e5, 2e6),
                 "shapes": ["prolate", f"composite:{thin[-1]}", "composite:0.001",
                            f"zero_mass_disk:{thin[0]}"]}]},
        "thermal": {"temperature_K": rng.uniform(1.0, 400.0),
                    "cases": [{"label": f"c{k}", "b_m": b, "a_m": rng.uniform(1.0, 4.0) * b,
                               "omega_phi_Hz": _loguniform(rng, 1e5, 1e7)}
                              for k, b in enumerate(rng.uniform(10e-9, 100e-9, size=3))]},
        "charges": {"b_m": rng.uniform(20e-9, 100e-9), "a_m": 2.5e-7,
                    "omega_phi_Hz": _loguniform(rng, 1e5, 5e6),
                    "ratio": rng.uniform(1.5, 5.0), "drive_Hz": _loguniform(rng, 1e6, 5e7),
                    "eta": rng.uniform(0.2, 1.0), "reference_count_e": 60},
        "resonance": {"OmegaR_Hz": _loguniform(rng, 5e7, 1e9),
                      "omega_phi_Hz": omega_phi_hz, "solve_for": "field"},
        "coupling": {"omega_phi_Hz": omega_phi_hz},
    }
    detuning = {**doc, "resonance": {**doc["resonance"], "solve_for": "detuning"}}
    calls = [Call(verb, "csv", doc) for verb in
             ("table1", "fig2-map", "fig4-curves", "resonance", "coupling", "spin",
              "thermal", "charges")]
    calls.insert(4, Call("resonance", "csv", detuning))
    return calls


def _unitary_samples(n_max: int, budget_s: float) -> int:
    """Samples whose unitary run costs about budget_s: per sample, propagation
    grows with the square of the Hilbert-space dimension d and the CSV row
    with d."""
    d = 3 * (n_max + 1)
    per_sample = 75e-6 + 2e-7 * d * d + 2.5e-6 * (d + 2)
    return int(min(2000, max(200, round(budget_s / per_sample))))


_DISSIPATIVE_SAMPLE_COST = {2: 72e-6, 3: 115e-6, 4: 222e-6}  # s, incl. expm share


def quantum_exchange(rng, tiny: bool) -> list[Call]:
    particle = _particle(rng, b_range=(10e-9, 40e-9))
    omega_phi_hz = rng.uniform(1e6, 1e7)
    solve_for = str(rng.choice(["field", "detuning"]))
    doc = {"particle": particle,
           "charge": {"mode": "total", "Qtot_e": rng.uniform(100.0, 1000.0)},
           "spin": {"B_T": rng.uniform(0.02, 0.1)},
           "resonance": {"OmegaR_Hz": _loguniform(rng, 1e8, 1e9),
                         "omega_phi_Hz": omega_phi_hz, "solve_for": solve_for},
           "coupling": {"omega_phi_Hz": omega_phi_hz}}
    # decoherence scaled to the coupling keeps the exchange oscillating
    omega_phi = R.TWO_PI * omega_phi_hz
    B, _, psi = R.resonance_point(doc, omega_phi)
    lam = float(R.lambda_tilde(B, psi, _ref_body(particle).I_Y, omega_phi))
    doc["decoherence"] = {"T1_s": rng.uniform(5.0, 50.0) / lam,
                          "T2star_s": rng.uniform(2.0, 20.0) / lam}

    def jc(kind, n_max, samples, spin, n, decohere=False):
        return Call("jc-sim", "csv", {**doc, "jc_sim": {
            "N_max": n_max, "kind": kind, "initial_spin": spin, "initial_n": n,
            "n_transfers": rng.uniform(2.5, 5.0), "samples": samples,
            "phonon_rate_per_s": rng.uniform(0.0, 0.05) * lam if decohere else 0.0,
            "use_decoherence": decohere}})

    calls = []
    for kind in ("jaynes_cummings", "full_rabi"):
        n_max = int(rng.integers(2, 5)) if tiny else int(rng.integers(3, 15))
        samples = 200 if tiny else _unitary_samples(n_max, 0.2)
        # |+, n> exchanges with |e, n-1>; |e, n> with |+, n+1>
        if rng.random() < 0.5:
            calls.append(jc(kind, n_max, samples, "plus", int(rng.integers(1, n_max + 1))))
        else:
            calls.append(jc(kind, n_max, samples, "e", int(rng.integers(0, n_max))))
    n_max = 2 if tiny else int(rng.integers(2, 5))
    samples = 200 if tiny else round(0.12 / _DISSIPATIVE_SAMPLE_COST[n_max])
    kind = str(rng.choice(["jaynes_cummings", "full_rabi"]))
    calls.append(jc(kind, n_max, samples, "plus", int(rng.integers(1, n_max + 1)),
                    decohere=True))
    return calls


GENERATORS = {"floquet_dynamics": floquet_dynamics, "coupling_tables": coupling_tables,
              "quantum_exchange": quantum_exchange}
WORKLOADS = tuple(GENERATORS)


def scenario(workload: str, seed: int, index: int, tiny: bool = False) -> list[Call]:
    rng = np.random.default_rng((seed, index, WORKLOADS.index(workload)))
    return GENERATORS[workload](rng, tiny)
