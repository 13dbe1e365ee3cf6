#!/usr/bin/env python3
"""Integrate the tilt-angle equations of motion and recover the secular
frequency from the trajectory spectrum.

Compares the linear (small-angle) model against the full trigonometric
torque, and shows gas damping pulling the angle down.
"""

import hashlib
import math
from pathlib import Path

import numpy as np

from levrot.constants import DEFAULT_CONSTANTS
from levrot.geometry import ProlateEllipsoid, TotalCharge, build_body
from levrot.rotor_dynamics import (RotorState, DampingModel, simulate_linear,
                                   simulate_nonlinear, extract_secular_frequency)
from levrot.studio.reports import write_table
from levrot.trap import Mode, TrapConfig, mathieu_coefficients, secular_frequency

E = DEFAULT_CONSTANTS.elementary_charge
TWO_PI = 2 * math.pi

body = build_body(ProlateEllipsoid(a=50e-9, b=20e-9), TotalCharge(366 * E))
trap = TrapConfig(V_ac=5000.0, V_dc=0.0, drive_frequency=TWO_PI * 50e6,
                  z0=10e-6, eta=1.0)

line = secular_frequency(mathieu_coefficients(body, trap, Mode.ROT_Y), trap)
print(f"design point: q = {mathieu_coefficients(body, trap, Mode.ROT_Y).q:.4f}, "
      f"secular formula {line.omega/TWO_PI/1e6:.4f} MHz")

duration = 60 * TWO_PI / line.omega
init = RotorState(phi1=0.01, phi2=0.0, dphi1=0.0, dphi2=0.0)

traj = simulate_linear(body, trap, init, duration, samples=8192)
f_lin = extract_secular_frequency(traj)
print(f"linear model:    spectral line at {f_lin/TWO_PI/1e6:.4f} MHz "
      f"({100*(f_lin/line.omega-1):+.2f} % vs formula, micromotion included)")

for amplitude in (0.005, 0.05, 0.3):
    t = simulate_nonlinear(body, trap,
                           RotorState(phi1=amplitude, phi2=0.0, dphi1=0.0,
                                      dphi2=0.0),
                           duration, samples=8192)
    f_nl = extract_secular_frequency(t)
    print(f"nonlinear, phi(0) = {amplitude:5.3f} rad: "
          f"{f_nl/TWO_PI/1e6:.4f} MHz ({100*(f_nl/f_lin-1):+.3f} % vs linear)")

# damping: the envelope decays, the line survives (broadened)
damped = simulate_linear(body, trap, init, duration,
                         DampingModel(gamma=line.omega / 20), samples=8192)
n = damped.phi1.size
head = float(np.sqrt(np.mean(damped.phi1[:n // 8] ** 2)))
tail = float(np.sqrt(np.mean(damped.phi1[-n // 8:] ** 2)))
print(f"damped run: rms amplitude {head:.2e} -> {tail:.2e} rad, "
      f"line at {extract_secular_frequency(damped)/TWO_PI/1e6:.3f} MHz")

columns = ["time_s", "phi1_rad", "phi2_rad", "dphi1_radps", "dphi2_radps"]
rows = np.rec.fromarrays([traj.times, traj.phi1, traj.phi2, traj.dphi1, traj.dphi2],
                         names=columns)
# this script is the demo's config, so its hash goes into the provenance footer
script_hash = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()
out = write_table(Path("angle_trajectory.csv"), columns, rows, script_hash,
                  DEFAULT_CONSTANTS)
print(f"trajectory written to {out} (columns {', '.join(columns)})")
