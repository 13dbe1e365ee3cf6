#!/usr/bin/env python3
"""Spin-phonon coupling rates: the (B, psi) map, resonance overlays, the
rate-versus-Rabi-frequency curves for different particle shapes, and the
strong-coupling verdicts against realistic spin lifetimes.
"""

import math

import numpy as np

from levrot.constants import DEFAULT_CONSTANTS
from levrot.coupling import (DecoherenceBudget, coupling_map_rows, coupling_vs_rabi,
                             dressed_coupling, rotational_mode,
                             strong_coupling_assessment)
from levrot.geometry import (Composite, OblateEllipsoid, ProlateEllipsoid,
                             SurfaceDensity, TotalCharge, build_body)
from levrot.nv_spin import SpinConfig, resonance_solve, TWO_PI

E = DEFAULT_CONSTANTS.elementary_charge

# 20 nm prolate at a 5 MHz rotational mode
body = build_body(ProlateEllipsoid(a=50e-9, b=20e-9), TotalCharge(366 * E))
mode = rotational_mode(body, TWO_PI * 5e6)
print(f"zero-point angle phi0 = {mode.phi0:.3e} rad, "
      f"phi0*L0 = hbar/2 check: {mode.phi0*mode.L0:.3e} J s")

# map over field and dressing angle; the best reachable point rides the
# resonance curve of the largest practical Rabi frequency
B = np.linspace(0.0, 0.1, 51)
psi = np.linspace(0.05, math.pi / 2 - 0.01, 41)
lam, feasible = coupling_map_rows(mode, B, psi)
print(f"map maximum {lam.max()/1e3:.1f} kHz "
      f"(top-right corner); feasible fraction "
      f"{feasible.mean():.2f} under a 1 GHz Rabi cap")

sol = resonance_solve(SpinConfig(B=0.0), 500e6, TWO_PI * 5e6, solve_for="field")
report = dressed_coupling(mode, sol.mixed, sol.dressed)
print(f"at the 500 MHz resonant point (B = {sol.B*1e3:.2f} mT): "
      f"lambda = {report.lambda_phi/1e3:.1f} kHz, "
      f"lambda_tilde = {report.lambda_tilde/1e3:.1f} kHz")

# rate vs Rabi frequency for the two size families
family20 = {
    "prolate": body,
    "oblate": build_body(OblateEllipsoid(a=50e-9, b=20e-9), TotalCharge(E)),
}
family80 = {
    "prolate": build_body(ProlateEllipsoid(a=200e-9, b=80e-9), TotalCharge(E)),
    "composite c/b=1/8": build_body(Composite(b=80e-9, a=200e-9, c=10e-9),
                                    SurfaceDensity(1e-6)),
    "composite c/b=1/16": build_body(Composite(b=80e-9, a=200e-9, c=5e-9),
                                     SurfaceDensity(1e-6)),
    "zero-mass disk": build_body(Composite(b=80e-9, a=200e-9, c=5e-9,
                                           zero_mass_disk=True),
                                 SurfaceDensity(1e-6)),
}
for label, shapes, f_phi in (("b = 20 nm,  5 MHz", family20, 5e6),
                             ("b = 80 nm, 0.5 MHz", family80, 0.5e6)):
    print(f"\n{label}: lambda_tilde (kHz) at Omega_R = 250 / 500 / 1000 MHz")
    _, lam = coupling_vs_rabi(shapes, [250e6, 500e6, 1000e6], TWO_PI * f_phi)
    for sid, lams in zip(shapes, lam.T / 1e3):
        print(f"  {sid:>20}: " + " / ".join(f"{v:6.1f}" for v in lams))

# does it beat decoherence?  20 nm needs T2 ~ 150 us; 80 nm closer to 1 ms
for label, lam, budget in (
        ("b=20 nm, T2*=150 us", 56.9e3, DecoherenceBudget(T1=1e6, T2_star=150e-6)),
        ("b=80 nm, T2*=1 ms", 5.6e3, DecoherenceBudget(T1=1e6, T2_star=1e-3))):
    verdict = strong_coupling_assessment(lam, budget)
    print(f"{label}: lambda_tilde*T2 = {verdict.ratio_T2:.1f} "
          f"-> strong coupling: {verdict.strong}")
