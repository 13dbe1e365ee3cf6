"""Reference physics for the benchmark's output checks.

Nothing here imports levrot.  Every quantity is recomputed from the physical
model stated in the paper (surface integrals by adaptive quadrature, the NV
Hamiltonian by dense diagonalisation, the resonance field in closed form, the
tilt equations of motion by an LSODA integration), so a check compares levrot
against an implementation that shares no code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import mathieu_a, mathieu_b

TWO_PI = 2.0 * math.pi
HBAR = 6.62607015e-34 / TWO_PI
K_B = 1.380649e-23
E_CHARGE = 1.602176634e-19
GAMMA_NV = 28.024e9             # Hz/T
ZFS_D = 2.87e9                  # Hz
DENSITY = {"diamond": 3515.0, "silica": 2200.0}
RABI_CAP_HZ = 1.0e9


# ---------------------------------------------------------------------------
# bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Body:
    area: float
    R_X2: float
    R_Y2: float
    R_Z2: float
    mass: float
    I_X: float
    I_Y: float

    @property
    def S_X(self) -> float:
        return self.R_Z2 - self.R_Y2

    @property
    def S_Y(self) -> float:
        return self.R_Z2 - self.R_X2


def _j_integrals(p: float, s: float):
    """J0, J2 = integral over u in [0, 1] of (1, u^2) sqrt(s^2 + (p^2 - s^2) u^2)."""
    if p == s:
        return s, s / 3.0
    k = p * p - s * s
    kink = min(p, s) / max(p, s)  # the integrand bends sharply near here when thin
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=400, points=[kink])
    j0 = quad(lambda u: math.sqrt(s * s + k * u * u), 0.0, 1.0, **opts)[0]
    j2 = quad(lambda u: u * u * math.sqrt(s * s + k * u * u), 0.0, 1.0, **opts)[0]
    return j0, j2


def shape_parts(shape: str, b: float, a: float | None = None, c: float | None = None,
                zero_mass_disk: bool = False):
    """(surface pieces (p, s), solid ellipsoids (density, A, B, C)) of a particle."""
    rho_d = DENSITY["diamond"]
    if shape == "sphere":
        return [(b, b)], [(rho_d, b, b, b)]
    if shape == "prolate":
        return [(b, a)], [(rho_d, b, b, a)]
    if shape == "oblate":
        return [(a, b)], [(rho_d, a, a, b)]
    if shape == "composite":
        solids = [(rho_d, b, b, b)]
        if not zero_mass_disk:
            solids.append((DENSITY["silica"], a, a, c))
        return [(b, b), (a, c)], solids
    raise ValueError(f"unknown shape {shape!r}")


def body(shape: str, b: float, a: float | None = None, c: float | None = None,
         zero_mass_disk: bool = False) -> Body:
    pieces, solids = shape_parts(shape, b, a, c, zero_mass_disk)
    area = ix2 = iz2 = 0.0
    for p, s in pieces:
        j0, j2 = _j_integrals(p, s)
        area += 4.0 * math.pi * p * j0
        ix2 += 2.0 * math.pi * p ** 3 * (j0 - j2)
        iz2 += 4.0 * math.pi * p * s * s * j2
    mass = I_X = I_Y = 0.0
    for rho, A, B, C in solids:
        m = rho * 4.0 / 3.0 * math.pi * A * B * C
        mass += m
        I_X += m * (B * B + C * C) / 5.0
        I_Y += m * (A * A + C * C) / 5.0
    return Body(area=area, R_X2=ix2 / area, R_Y2=ix2 / area, R_Z2=iz2 / area,
                mass=mass, I_X=I_X, I_Y=I_Y)


def shape_id_body(shape_id: str, b: float, aspect_ratio: float) -> Body:
    """Body for a table1/fig4 shape id with minimum radius b."""
    head, _, tail = shape_id.partition(":")
    a = aspect_ratio * b
    if head in ("sphere", "prolate", "oblate"):
        return body(head, b, a)
    return body("composite", b, a, float(tail) * b,
                zero_mass_disk=head == "zero_mass_disk")


def particle_body(doc: dict) -> tuple[Body, float]:
    """(body, charge in C) of a config's particle and charge sections."""
    p = doc["particle"]
    bd = body(p["shape"], p["b_m"], p.get("a_m"), p.get("c_m"),
              p.get("zero_mass_disk", False))
    ch = doc["charge"]
    Q = (ch["Qtot_e"] * E_CHARGE if ch["mode"] == "total"
         else ch["sigma_C_m2"] * bd.area)
    return bd, Q


# ---------------------------------------------------------------------------
# trap
# ---------------------------------------------------------------------------

def rot_y_aq(bd: Body, Q: float, trap: dict) -> tuple[float, float]:
    """Mathieu (a, q) of the tilt about y."""
    W = TWO_PI * trap["drive_Hz"]
    C = 3.0 * trap["eta"] * Q * bd.S_Y / trap["z0_m"] ** 2
    return (-2.0 * C * trap["Vdc_V"] / (bd.I_Y * W * W),
            C * trap["Vac_V"] / (bd.I_Y * W * W))


def rot_x_aq(bd: Body, Q: float, trap: dict) -> tuple[float, float]:
    W = TWO_PI * trap["drive_Hz"]
    C = 3.0 * trap["eta"] * Q * bd.S_X / trap["z0_m"] ** 2
    return (-2.0 * C * trap["Vdc_V"] / (bd.I_X * W * W),
            C * trap["Vac_V"] / (bd.I_X * W * W))


def com_radial_aq(bd: Body, Q: float, trap: dict) -> tuple[float, float]:
    W = TWO_PI * trap["drive_Hz"]
    C = trap["eta"] * Q / trap["z0_m"] ** 2
    return (-2.0 * C * trap["Vdc_V"] / (bd.mass * W * W),
            C * trap["Vac_V"] / (bd.mass * W * W))


def secular(aq: tuple[float, float], drive_hz: float) -> float:
    a, q = aq
    return 0.5 * TWO_PI * drive_hz * math.sqrt(a + 0.5 * q * q)


def first_region_stable(a: float, q: float, margin: float):
    """True/False from the Mathieu characteristic values, None within margin.

    Stable in the first region iff a_0(q) < a < b_1(q); the benchmark's
    windows stay below a_1(q), where the second region starts.
    """
    lo, hi, next_lo = mathieu_a(0, q), mathieu_b(1, q), mathieu_a(1, q)
    if a > next_lo - margin:
        raise ValueError(f"point (a={a}, q={q}) reaches the second region")
    if min(abs(a - lo), abs(a - hi)) < margin:
        return None
    return bool(lo < a < hi)


def floquet_frequency(a: float, q: float, drive_hz: float) -> float:
    """Quasi-frequency (rad/s) from the one-period monodromy, by LSODA."""
    def rhs(tau, y):
        k = 2.0 * q * math.cos(2.0 * tau) - a
        return [y[1], k * y[0], y[3], k * y[2]]

    sol = solve_ivp(rhs, (0.0, math.pi), [1.0, 0.0, 0.0, 1.0], method="LSODA",
                    rtol=1e-12, atol=1e-14)
    trace = sol.y[0, -1] + sol.y[3, -1]
    nu = math.acos(max(-1.0, min(1.0, 0.5 * trace))) / math.pi
    return 0.5 * TWO_PI * drive_hz * nu


def tilt_trajectory(model: str, aq1, aq2, drive_hz: float, gamma: float,
                    init, times) -> np.ndarray:
    """(phi1, phi2, dphi1, dphi2) at the given times, by LSODA at rtol 1e-11."""
    W = TWO_PI * drive_hz
    (a1, q1), (a2, q2) = aq1, aq2
    if model == "linear":
        k = 0.25 * W * W

        def rhs(t, y):
            d = 2.0 * math.cos(W * t)
            return [y[2], y[3], k * (d * q1 - a1) * y[0] - gamma * y[2],
                    k * (d * q2 - a2) * y[1] - gamma * y[3]]
    else:
        k = 0.125 * W * W

        def rhs(t, y):
            d = 2.0 * math.cos(W * t)
            return [y[2], y[3],
                    k * (d * q1 - a1) * math.cos(y[1]) * math.sin(2.0 * y[0])
                    - gamma * y[2],
                    k * (d * q2 - a2) * math.cos(y[0]) ** 2 * math.sin(2.0 * y[1])
                    - gamma * y[3]]

    sol = solve_ivp(rhs, (0.0, float(times[-1])), list(init), method="LSODA",
                    rtol=1e-11, atol=1e-15, t_eval=times)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y


# ---------------------------------------------------------------------------
# NV spin, resonance and coupling
# ---------------------------------------------------------------------------

_SX = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / math.sqrt(2.0)
_SZ2 = np.diag([1.0, 0.0, 1.0])


def mixed_levels(B: float):
    """(omega_g, omega_d, omega_e) in rad/s and the mixing angle theta."""
    evals, vecs = np.linalg.eigh(ZFS_D * _SZ2 + GAMMA_NV * B * _SX)
    e = vecs[:, 2]
    bright = abs(e[0] + e[2]) / math.sqrt(2.0)
    theta = math.atan2(abs(e[1]), bright)
    return TWO_PI * evals[0], TWO_PI * evals[1], TWO_PI * evals[2], theta


def theta_closed(B):
    return 0.5 * np.arctan(2.0 * GAMMA_NV * np.asarray(B, dtype=float) / ZFS_D)


def ed_gap(B):
    """omega_e - omega_d (rad/s), vectorised over B."""
    x = 2.0 * GAMMA_NV * np.asarray(B, dtype=float) / ZFS_D
    return TWO_PI * ZFS_D * (np.sqrt(1.0 + x * x) - 1.0) / 2.0


def resonant_field(rabi_hz: float, omega_phi: float) -> float:
    """B (T) at which omega_e - omega_d = omega_phi + Omega_R / 2, in closed form."""
    y = 1.0 + 2.0 * (omega_phi + 0.5 * TWO_PI * rabi_hz) / (TWO_PI * ZFS_D)
    return math.sqrt(y * y - 1.0) * ZFS_D / (2.0 * GAMMA_NV)


def resonant_detuning(B: float, rabi_hz: float, omega_phi: float) -> float:
    """Detuning (rad/s) meeting the resonance at fixed B."""
    K = 2.0 * (float(ed_gap(B)) - omega_phi)
    rabi = TWO_PI * rabi_hz
    return (K * K - rabi * rabi) / (2.0 * K)


def dressed(B: float, rabi_hz: float, delta: float):
    """(psi, omega_plus, omega_e_prime) for detuning delta in rad/s."""
    wg, wd, we, _ = mixed_levels(B)
    rabi = TWO_PI * rabi_hz
    psi = 0.5 * math.atan2(rabi, delta)
    w_plus = 0.5 * math.hypot(delta, rabi)
    w_e_prime = we - ((wd - wg + delta) + wg + wd) / 2.0
    return psi, w_plus, w_e_prime


def phi0(I_Y: float, omega_phi: float) -> float:
    return math.sqrt(HBAR / (2.0 * I_Y * omega_phi))


def lambda_tilde(B, psi, I_Y: float, omega_phi: float):
    """gamma B phi0 cos(theta) sin(psi), Hz."""
    return GAMMA_NV * B * phi0(I_Y, omega_phi) * np.cos(theta_closed(B)) * np.sin(psi)


def resonance_point(doc: dict, omega_phi: float):
    """(B, delta, psi) of the configured resonance, both solve_for modes."""
    rs = doc["resonance"]
    if rs["solve_for"] == "field":
        B, delta = resonant_field(rs["OmegaR_Hz"], omega_phi), 0.0
    else:
        B = doc["spin"]["B_T"]
        delta = resonant_detuning(B, rs["OmegaR_Hz"], omega_phi)
    return B, delta, 0.5 * math.atan2(TWO_PI * rs["OmegaR_Hz"], delta)
