"""Quantized rotational mode, dressed spin-phonon coupling rates, strong-coupling
assessment, and the B/psi map and Rabi-sweep curve generators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants, DEFAULT_CONSTANTS
from .geometry import BodyProperties
from .nv_spin import (MixedSpinSpectrum, DressedSpectrum, SpinConfig,
                      resonance_solve, resonance_K, resonance_detuning,
                      ResonanceUnreachableError, TWO_PI)

RABI_TECHNICAL_CAP = 1.0e9  # Hz; driving much beyond this is impractical


@dataclass(frozen=True)
class RotationalMode:
    omega_phi: float   # rad/s
    I_y: float         # kg m^2
    phi0: float        # zero-point angle, rad
    L0: float          # zero-point angular momentum, J s


def rotational_mode(body: BodyProperties, omega_phi: float,
                    constants: PhysicalConstants = DEFAULT_CONSTANTS) -> RotationalMode:
    """Zero-point scales phi0 = sqrt(hbar/(2 I omega)) and L0 = sqrt(hbar I omega / 2)."""
    if omega_phi <= 0.0:
        raise ValueError("rotational frequency must be positive")
    phi0 = math.sqrt(constants.hbar / (2.0 * body.I_Y * omega_phi))
    L0 = math.sqrt(constants.hbar * body.I_Y * omega_phi / 2.0)
    return RotationalMode(omega_phi=omega_phi, I_y=body.I_Y, phi0=phi0, L0=L0)


@dataclass(frozen=True)
class CouplingReport:
    """Bare and dressed single-phonon coupling rates, in ordinary Hz."""

    lambda_phi: float        # gamma*B*phi0, Hz
    lambda_tilde: float      # lambda_phi * cos(theta) * sin(psi), Hz
    theta: float             # rad
    psi: float               # rad
    B: float                 # T
    omega_phi: float         # rad/s
    rwa_bound: float         # 10 |omega_e' - omega_+| / (2 pi), Hz
    rwa_ok: bool
    phonon_ratio: float      # 2*pi*lambda_tilde / omega_phi (conventional check)


@dataclass(frozen=True)
class DecoherenceBudget:
    """Spin lifetimes; T2 follows from 1/T2 = 1/(2 T1) + 1/T2*."""

    T1: float                        # s
    T2_star: float                   # s
    mechanical_linewidth: float = 0.0  # Hz

    def __post_init__(self):
        if self.T1 <= 0.0 or self.T2_star <= 0.0:
            raise ValueError("lifetimes must be positive")
        if self.mechanical_linewidth < 0.0:
            raise ValueError("mechanical linewidth must be non-negative")

    @property
    def T2(self) -> float:
        return 1.0 / (0.5 / self.T1 + 1.0 / self.T2_star)


@dataclass(frozen=True)
class StrongCouplingVerdict:
    strong: bool
    ratio_T1: float   # lambda_tilde * T1
    ratio_T2: float   # lambda_tilde * T2


def dressed_coupling(mode: RotationalMode, spin: MixedSpinSpectrum,
                     dressed: DressedSpectrum, B: float | None = None) -> CouplingReport:
    """Coupling rate of the resonant |+,N+1> <-> |e,N> ladder."""
    if B is None:
        B = spin.config.B
    lam = spin.config.gamma * B * mode.phi0
    lam_tilde = lam * math.cos(spin.theta) * math.sin(dressed.psi)
    bound = 10.0 * abs(dressed.omega_e_prime - dressed.omega_plus) / TWO_PI
    return CouplingReport(lambda_phi=lam, lambda_tilde=lam_tilde,
                          theta=spin.theta, psi=dressed.psi, B=B,
                          omega_phi=mode.omega_phi,
                          rwa_bound=bound, rwa_ok=lam_tilde <= bound,
                          phonon_ratio=TWO_PI * lam_tilde / mode.omega_phi)


def strong_coupling_assessment(report: CouplingReport,
                               budget: DecoherenceBudget) -> StrongCouplingVerdict:
    """Strong coupling iff the exchange rate beats both 1/T1 and 1/T2.

    The ratios themselves are reported; the binary verdict uses threshold 1.
    """
    r1 = report.lambda_tilde * budget.T1
    r2 = report.lambda_tilde * budget.T2
    strong = r1 > 1.0 and r2 > 1.0
    if budget.mechanical_linewidth > 0.0:
        strong = strong and report.lambda_tilde > budget.mechanical_linewidth
    return StrongCouplingVerdict(strong=strong, ratio_T1=r1, ratio_T2=r2)


# ---------------------------------------------------------------------------
# map and curve generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingMapPoint:
    B: float                 # T
    psi: float               # rad
    lambda_tilde: float      # Hz
    resonance_feasible: bool


@dataclass
class CouplingMap:
    """lambda_tilde over a (B, psi) grid, stored as arrays (rows indexed by B)."""

    B_values: np.ndarray       # (nB,)
    psi_values: np.ndarray     # (npsi,)
    lambda_tilde: np.ndarray   # (nB, npsi), Hz
    feasible: np.ndarray       # (nB, npsi), bool

    def points(self):
        for i, B in enumerate(self.B_values):
            for j, psi in enumerate(self.psi_values):
                yield CouplingMapPoint(B=float(B), psi=float(psi),
                                       lambda_tilde=float(self.lambda_tilde[i, j]),
                                       resonance_feasible=bool(self.feasible[i, j]))


def bare_rate_vs_field(mode: RotationalMode, B, constants: PhysicalConstants):
    """gamma*B*phi0*cos(theta(B)) as an array over B (Hz)."""
    B = np.asarray(B, dtype=float)
    x = 2.0 * constants.gamma_nv * B / constants.zero_field_splitting_D
    theta = 0.5 * np.arctan(x)
    return constants.gamma_nv * B * mode.phi0 * np.cos(theta)


def coupling_map_rows(mode: RotationalMode, B_values, psi_values,
                      constants: PhysicalConstants = DEFAULT_CONSTANTS,
                      rabi_cap: float = RABI_TECHNICAL_CAP):
    """(lambda_tilde, feasible) arrays for the given B rows.

    A point is feasible when the resonance condition can be met at that
    (B, psi) with a Rabi frequency K*tan(psi)/(2*pi) not exceeding rabi_cap.
    """
    B = np.asarray(B_values, dtype=float)
    psi = np.asarray(psi_values, dtype=float)
    bare = bare_rate_vs_field(mode, B, constants)
    lam = np.outer(bare, np.sin(psi))
    K = resonance_K(B, mode.omega_phi, constants.zero_field_splitting_D,
                    constants.gamma_nv)
    required_rabi = np.outer(K, np.tan(psi)) / TWO_PI
    feasible = (K[:, None] > 0.0) & (required_rabi > 0.0) & (required_rabi <= rabi_cap)
    return lam, feasible


def coupling_map(mode: RotationalMode, B_values, psi_values,
                 constants: PhysicalConstants = DEFAULT_CONSTANTS,
                 rabi_cap: float = RABI_TECHNICAL_CAP) -> CouplingMap:
    B = np.asarray(B_values, dtype=float)
    psi = np.asarray(psi_values, dtype=float)
    if B.size < 2 or psi.size < 2:
        raise ValueError("map grids need at least 2 points per axis")
    lam, feasible = coupling_map_rows(mode, B, psi, constants, rabi_cap)
    return CouplingMap(B_values=B, psi_values=psi, lambda_tilde=lam, feasible=feasible)


def resonance_curve(mode: RotationalMode, B_values, rabi_frequency: float,
                    constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """psi(B) tracing the resonance condition at fixed Rabi frequency.

    Returns (psi, feasible); psi is NaN where the resonance cannot be met
    (K <= 0, i.e. the e-d gap is below the phonon frequency).
    """
    K = resonance_K(B_values, mode.omega_phi, constants.zero_field_splitting_D,
                    constants.gamma_nv)
    rabi = TWO_PI * rabi_frequency
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = 0.5 * np.arctan2(rabi, resonance_detuning(K, rabi))
    feasible = K > 0.0
    psi = np.where(feasible, psi, np.nan)
    return psi, feasible


@dataclass(frozen=True)
class RabiCurvePoint:
    rabi_frequency: float    # Hz
    B: float                 # T; NaN when the resonance is unreachable
    shape_id: str
    lambda_tilde: float      # Hz; NaN when unreachable
    feasible: bool


def coupling_vs_rabi(shapes: dict[str, BodyProperties], rabi_values, omega_phi: float,
                     constants: PhysicalConstants = DEFAULT_CONSTANTS) -> list[RabiCurvePoint]:
    """One resonant (detuning zero) coupling curve per shape.

    For each Rabi frequency the field is tuned to meet the resonance; every
    shape then shares (B, theta, psi=pi/4) and differs only through phi0.
    """
    modes = {sid: rotational_mode(body, omega_phi, constants)
             for sid, body in shapes.items()}
    points = []
    for rabi in rabi_values:
        try:
            sol = resonance_solve(SpinConfig.from_constants(0.0, constants),
                                  rabi_frequency=rabi, omega_phi=omega_phi,
                                  solve_for="field")
        except ResonanceUnreachableError:
            for sid in shapes:
                points.append(RabiCurvePoint(rabi_frequency=rabi, B=math.nan,
                                             shape_id=sid, lambda_tilde=math.nan,
                                             feasible=False))
            continue
        for sid, mode in modes.items():
            report = dressed_coupling(mode, sol.mixed, sol.dressed, B=sol.B)
            points.append(RabiCurvePoint(rabi_frequency=rabi, B=sol.B, shape_id=sid,
                                         lambda_tilde=report.lambda_tilde,
                                         feasible=True))
    return points
