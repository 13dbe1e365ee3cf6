#!/usr/bin/env python3
"""Rotational confinement in the oscillating quadrupole trap.

Shows the dimensionless (a, q) parameters for every mode, the secular
frequencies, the rigorous Floquet stability verdicts, the thermal angular
spread at room temperature, and the total-charge budget.
"""

import math

import numpy as np

from levrot.constants import DEFAULT_CONSTANTS
from levrot.geometry import ProlateEllipsoid, TotalCharge, build_body
from levrot.trap import (Mode, TrapConfig, MathieuCoefficients,
                         mathieu_coefficients, secular_frequency,
                         floquet_stability, stability_boundary_q,
                         thermal_angle, charge_budget)

E = DEFAULT_CONSTANTS.elementary_charge
TWO_PI = 2 * math.pi

# 20 nm prolate nanodiamond, 366 elementary charges, 50 MHz drive
body = build_body(ProlateEllipsoid(a=50e-9, b=20e-9), TotalCharge(366 * E))
trap = TrapConfig(V_ac=5000.0, V_dc=0.0, drive_frequency=TWO_PI * 50e6,
                  z0=10e-6, eta=1.0)

print("mode            a           q        omega/2pi    stable")
for mode in Mode:
    c = mathieu_coefficients(body, trap, mode)
    line = secular_frequency(c, trap)
    verdict = floquet_stability(c, trap)
    print(f"{mode.value:12} {c.a:10.3e} {c.q:11.4f} "
          f"{line.omega/TWO_PI/1e6:9.4f} MHz   {verdict.stable}")

# the pseudopotential formula omega = (Omega/2) sqrt(a + q^2/2) tracks the
# rigorous Floquet quasi-frequency to a couple percent for moderate q
print("\nsecular formula vs Floquet quasi-frequency (a = 0):")
for q in (0.1, 0.2, 0.3, 0.5):
    c = MathieuCoefficients(Mode.ROT_Y, 0.0, q)
    f_sec = secular_frequency(c, trap).omega
    f_flq = floquet_stability(c, trap).quasi_frequency
    print(f"  q = {q}: {f_sec/TWO_PI/1e6:7.4f} vs {f_flq/TWO_PI/1e6:7.4f} MHz "
          f"({100*(f_sec/f_flq-1):+.2f} %)")

print(f"\nstability boundary on the a=0 axis: q_c = {stability_boundary_q():.4f}")

# room-temperature angular spread for the two reference sizes
for b, a, f_phi in ((20e-9, 50e-9, 5e6), (80e-9, 200e-9, 0.5e6)):
    p = build_body(ProlateEllipsoid(a=a, b=b), TotalCharge(E))
    rms = thermal_angle(p, TWO_PI * f_phi, 300.0)
    print(f"b = {b*1e9:3.0f} nm at omega_phi/2pi = {f_phi/1e6:.1f} MHz: "
          f"sqrt(<phi^2>) = {rms:.3f} rad at 300 K")

# how many elementary charges the big particle needs (5 MHz drive, eta 0.3)
big = build_body(ProlateEllipsoid(a=200e-9, b=80e-9), TotalCharge(E))
budget_trap = TrapConfig(V_ac=5000.0, V_dc=0.0, drive_frequency=TWO_PI * 5e6,
                         z0=10e-6, eta=0.3)
budget = charge_budget(big, budget_trap, TWO_PI * 0.5e6, ratio=3.0)
print(f"\ncharge budget for b = 80 nm at 0.5 MHz: {budget.elementary_count} e "
      f"(|Q| = {budget.required_charge:.2e} C)")
