"""Mathieu coefficients, secular frequencies, Floquet stability and charge budget.

Conventions: the drive potential is V(t) = V_dc + V_ac*cos(Omega*t) applied
over an electrode gap z0 with efficiency eta, giving a quadratic potential
proportional to z^2 - x^2/2 - y^2/2.  A mode with inertia J and curvature
coefficient C (torque or force per unit coordinate per volt) maps onto the
Mathieu normal form u'' + (a - 2 q cos 2 tau) u = 0, tau = Omega*t/2, with

    q = C V_ac / (J Omega^2),      a = -2 C V_dc / (J Omega^2),

which for the rotational mode (C = 3 eta Q S_Y / z0^2, J = I_Y) reproduces
the axial-frequency relation omega_z = eta |Q| V_ac / (sqrt(2) m Omega z0^2).
Every body is axisymmetric about its Z axis (geometry), so this one
rotational mode serves a tilt about either transverse axis.

One period describes this periodic equation: _period_flow integrates it once
for any number of points, for the Floquet verdicts and linear trajectories.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONSTANTS
from .geometry import BodyProperties


class Mode(enum.Enum):
    ROT_Y = "rot_y"        # tilt about either transverse axis, leverage S_Y, inertia I_Y
    COM_RADIAL = "com_radial"
    COM_AXIAL = "com_axial"


@dataclass(frozen=True)
class TrapConfig:
    V_ac: float            # V
    V_dc: float            # V
    drive_frequency: float  # Omega, rad/s
    z0: float              # electrode gap, m
    eta: float = 1.0       # geometric efficiency, (0, 1]

    def __post_init__(self):
        if self.drive_frequency <= 0.0:
            raise ValueError("drive frequency must be positive")
        if self.z0 <= 0.0:
            raise ValueError("electrode gap must be positive")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("efficiency must lie in (0, 1]")


@dataclass(frozen=True)
class MathieuCoefficients:
    mode: Mode
    a: float
    q: float


@dataclass(frozen=True)
class SecularMode:
    """One secular line: angular frequency plus a pseudopotential-validity flag."""

    omega: float           # rad/s
    pseudopotential_valid: bool


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    monodromy_trace: float
    quasi_frequency: float  # rad/s; 0 when unstable


@dataclass(frozen=True)
class ChargeBudget:
    required_charge: float      # |Q_tot|, C
    elementary_count: int


class AntiTrappingError(ValueError):
    """a + q^2/2 < 0: the pseudopotential does not confine this mode."""


PSEUDOPOTENTIAL_Q_MAX = 0.4  # |q| beyond this, the secular formula is only indicative
TRACE_TOL = 1e-9  # |tr M| up to 2 + TRACE_TOL counts as stable (marginal included)


def _mode_curvature_and_inertia(body: BodyProperties, trap: TrapConfig, mode: Mode):
    if mode is Mode.ROT_Y:
        if body.I_Y <= 0.0:
            raise ValueError(f"degenerate shape: zero inertia for {mode}")
        return 3.0 * trap.eta * body.Q * body.surface.S_Y / trap.z0 ** 2, body.I_Y
    # center-of-mass curvatures from z^2 - x^2/2 - y^2/2
    factor = -2.0 if mode is Mode.COM_AXIAL else 1.0
    C = factor * trap.eta * body.Q / trap.z0 ** 2
    return C, body.mass


def mathieu_coefficients(body: BodyProperties, trap: TrapConfig, mode: Mode) -> MathieuCoefficients:
    """Dimensionless (a, q) for one rotational or center-of-mass mode."""
    if body.Q == 0.0:
        raise ValueError("body carries no charge")
    C, J = _mode_curvature_and_inertia(body, trap, mode)
    denom = J * trap.drive_frequency ** 2
    q = C * trap.V_ac / denom
    a = -2.0 * C * trap.V_dc / denom
    return MathieuCoefficients(mode=mode, a=a, q=q)


def secular_frequency(coeffs: MathieuCoefficients, trap: TrapConfig) -> SecularMode:
    """omega = (Omega/2) sqrt(a + q^2/2) in the pseudopotential approximation."""
    s = coeffs.a + 0.5 * coeffs.q ** 2
    if s < 0.0:
        raise AntiTrappingError(
            f"mode {coeffs.mode}: a + q^2/2 = {s:.3e} < 0 (anti-trapping)")
    omega = 0.5 * trap.drive_frequency * math.sqrt(s)
    return SecularMode(omega=omega,
                       pseudopotential_valid=abs(coeffs.q) <= PSEUDOPOTENTIAL_Q_MAX)


# ---------------------------------------------------------------------------
# Floquet analysis of the Mathieu normal form
# ---------------------------------------------------------------------------

def _period_flow(a, q, d=0.0, s=math.pi, rtol: float = 1e-10):
    """Fundamental matrix Phi(s) of u'' + 2d u' + (a - 2 q cos 2 tau) u = 0.

    Points (a, q, d) broadcast and are integrated over [0, pi] as one system;
    s in [0, pi] defaults to pi (the monodromy M).  Shape (*points, 2, 2, *s).
    """
    a, q, d = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, q, d)))
    shape, n = a.shape, a.size
    a, q, d2 = a.reshape(n, 1), q.reshape(n, 1), 2.0 * d.reshape(n, 1)

    def rhs(tau, y):  # y holds Phi = [[u1, u2], [v1, v2]] row by row, n points each
        u1, u2, v1, v2 = y.reshape(4, n, -1)
        k = 2.0 * q * math.cos(2.0 * tau) - a
        return np.concatenate([v1, v2, k * u1 - d2 * v1, k * u2 - d2 * v2])

    from scipy.integrate import solve_ivp

    s_eval, where = np.unique(np.ravel(s), return_inverse=True)
    sol = solve_ivp(rhs, (0.0, math.pi), np.repeat([1.0, 0.0, 0.0, 1.0], n),
                    method="DOP853", rtol=rtol, atol=1e-12, t_eval=s_eval, vectorized=True)
    if not sol.success:
        raise RuntimeError(f"Floquet integration failed: {sol.message} ({n} points)")
    phi = np.moveaxis(sol.y[:, where].reshape(2, 2, n, -1), 2, 0)
    return phi.reshape(shape + (2, 2) + np.shape(s))


def stability_chart(a, q):
    """(stable, tr M) at broadcast (a, q) points from one integration;
    stable iff |tr M| <= 2 + TRACE_TOL (marginal included)."""
    M = _period_flow(a, q)
    trace = M[..., 0, 0] + M[..., 1, 1]
    return np.abs(trace) <= 2.0 + TRACE_TOL, trace


def floquet_stability(coeffs: MathieuCoefficients, trap: TrapConfig) -> StabilityVerdict:
    """Rigorous stability verdict: stable iff |tr M| <= 2 (marginal included).

    For stable modes the quasi-frequency Omega*nu/2 is reported, with
    cos(pi*nu) = tr(M)/2; it converges to the secular formula for small |q|.
    """
    stable, trace = (x.item() for x in stability_chart(coeffs.a, coeffs.q))
    nu = math.acos(min(1.0, max(-1.0, trace / 2.0))) / math.pi if stable else 0.0
    return StabilityVerdict(stable=stable, monodromy_trace=trace,
                            quasi_frequency=0.5 * trap.drive_frequency * nu)


def stability_boundary_q(a: float = 0.0, q_lo: float = 0.5, q_hi: float = 1.5,
                         tol: float = 1e-4) -> float:
    """Locate the q where |tr M| = 2 crosses, by bisection at fixed a."""

    def excess(q):
        return abs(float(stability_chart(a, q)[1])) - 2.0

    if excess(q_lo) > 0.0 or excess(q_hi) < 0.0:
        raise ValueError("bisection bracket does not straddle the boundary")
    while q_hi - q_lo > tol:
        mid = 0.5 * (q_lo + q_hi)
        if excess(mid) <= 0.0:
            q_lo = mid
        else:
            q_hi = mid
    return 0.5 * (q_lo + q_hi)


# ---------------------------------------------------------------------------
# thermal spread and charge budget
# ---------------------------------------------------------------------------

def thermal_angle(body: BodyProperties, omega_phi: float, temperature: float,
                  k_B: float = DEFAULT_CONSTANTS.k_B) -> float:
    """Equipartition rms angle sqrt(k_B T / (I_Y omega_phi^2)), in rad."""
    if omega_phi <= 0.0:
        raise ValueError("rotational frequency must be positive")
    if temperature < 0.0:
        raise ValueError("temperature must be non-negative")
    return math.sqrt(k_B * temperature / (body.I_Y * omega_phi ** 2))


def charge_budget(body: BodyProperties, trap: TrapConfig, omega_phi: float, ratio: float,
                  elementary_charge: float = DEFAULT_CONSTANTS.elementary_charge
                  ) -> ChargeBudget:
    """Total surface charge needed so the axial secular mode sits at omega_phi/ratio.

    Inverts omega_z = eta |Q| V_ac / (sqrt(2) m Omega z0^2); the count is the
    ceiling in units of the elementary charge.
    """
    if omega_phi <= 0.0:
        raise ValueError("target rotational frequency must be positive")
    if ratio <= 0.0:
        raise ValueError("frequency ratio must be positive")
    omega_com = omega_phi / ratio
    Q = (math.sqrt(2.0) * body.mass * trap.drive_frequency * trap.z0 ** 2
         * omega_com / (trap.eta * trap.V_ac))
    count = math.ceil(Q / elementary_charge)
    return ChargeBudget(required_charge=Q, elementary_count=count)
