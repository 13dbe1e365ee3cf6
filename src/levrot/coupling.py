"""Quantized rotational mode, dressed spin-phonon coupling rates, strong-coupling
assessment, and the generators of the coupling map (lambda_tilde and
resonance feasibility over field rows and microwave angles), the resonant
psi(B) curve and the Rabi sweep (the resonant field per Rabi value and
lambda_tilde per Rabi value and shape)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants, DEFAULT_CONSTANTS
from .geometry import BodyProperties
from .nv_spin import (MixedSpinSpectrum, DressedSpectrum, SpinConfig,
                      mixing_angle, resonance_solve, resonance_K, resonance_detuning,
                      ResonanceUnreachableError, TWO_PI)

RABI_TECHNICAL_CAP = 1.0e9  # Hz; driving much beyond this is impractical


@dataclass(frozen=True)
class RotationalMode:
    omega_phi: float   # rad/s
    phi0: float        # zero-point angle, rad
    L0: float          # zero-point angular momentum, J s


def rotational_mode(body: BodyProperties, omega_phi: float,
                    constants: PhysicalConstants = DEFAULT_CONSTANTS) -> RotationalMode:
    """Zero-point scales phi0 = sqrt(hbar/(2 I omega)) and L0 = sqrt(hbar I omega / 2)."""
    if omega_phi <= 0.0:
        raise ValueError("rotational frequency must be positive")
    phi0 = math.sqrt(constants.hbar / (2.0 * body.I_Y * omega_phi))
    L0 = math.sqrt(constants.hbar * body.I_Y * omega_phi / 2.0)
    return RotationalMode(omega_phi=omega_phi, phi0=phi0, L0=L0)


@dataclass(frozen=True)
class CouplingReport:
    """Bare and dressed single-phonon coupling rates, in ordinary Hz."""

    lambda_phi: float        # gamma*B*phi0, Hz
    lambda_tilde: float      # lambda_phi * cos(theta) * sin(psi), Hz
    theta: float             # rad
    psi: float               # rad
    rwa_bound: float         # 10 |omega_e' - omega_+| / (2 pi), Hz
    rwa_ok: bool


@dataclass(frozen=True)
class DecoherenceBudget:
    """Spin lifetimes; T2 follows from 1/T2 = 1/(2 T1) + 1/T2*."""

    T1: float          # s
    T2_star: float     # s

    def __post_init__(self):
        if self.T1 <= 0.0 or self.T2_star <= 0.0:
            raise ValueError("lifetimes must be positive")

    @property
    def T2(self) -> float:
        return 1.0 / (0.5 / self.T1 + 1.0 / self.T2_star)


@dataclass(frozen=True)
class StrongCouplingVerdict:
    strong: bool
    ratio_T1: float   # lambda_tilde * T1
    ratio_T2: float   # lambda_tilde * T2


def dressed_coupling(mode: RotationalMode, spin: MixedSpinSpectrum,
                     dressed: DressedSpectrum) -> CouplingReport:
    """Coupling rate of the resonant |+,N+1> <-> |e,N> ladder, at the field
    of spin.config."""
    lam = spin.config.gamma * spin.config.B * mode.phi0
    lam_tilde = lam * math.cos(spin.theta) * math.sin(dressed.psi)
    bound = 10.0 * abs(dressed.omega_e_prime - dressed.omega_plus) / TWO_PI
    return CouplingReport(lambda_phi=lam, lambda_tilde=lam_tilde,
                          theta=spin.theta, psi=dressed.psi,
                          rwa_bound=bound, rwa_ok=lam_tilde <= bound)


def strong_coupling_assessment(lambda_tilde: float,
                               budget: DecoherenceBudget) -> StrongCouplingVerdict:
    """Strong coupling iff the exchange rate lambda_tilde (Hz) beats both
    1/T1 and 1/T2.

    The ratios themselves are reported; the binary verdict uses threshold 1.
    """
    r1 = lambda_tilde * budget.T1
    r2 = lambda_tilde * budget.T2
    return StrongCouplingVerdict(strong=r1 > 1.0 and r2 > 1.0,
                                 ratio_T1=r1, ratio_T2=r2)


# ---------------------------------------------------------------------------
# map and curve generators
# ---------------------------------------------------------------------------

def bare_rate_vs_field(mode: RotationalMode, B, constants: PhysicalConstants):
    """gamma*B*phi0*cos(theta(B)) as an array over B (Hz)."""
    B = np.asarray(B, dtype=float)
    theta = mixing_angle(B, constants.zero_field_splitting_D, constants.gamma_nv)
    return constants.gamma_nv * B * mode.phi0 * np.cos(theta)


def coupling_map_rows(mode: RotationalMode, B_values, psi_values,
                      constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """(lambda_tilde, feasible) arrays of shape (B rows, psi columns).

    A point is feasible when the resonance condition can be met at that
    (B, psi) with a Rabi frequency K*tan(psi)/(2*pi) not exceeding
    RABI_TECHNICAL_CAP.
    """
    B = np.asarray(B_values, dtype=float)
    psi = np.asarray(psi_values, dtype=float)
    bare = bare_rate_vs_field(mode, B, constants)
    lam = np.outer(bare, np.sin(psi))
    K = resonance_K(B, mode.omega_phi, constants.zero_field_splitting_D,
                    constants.gamma_nv)
    required_rabi = np.outer(K, np.tan(psi)) / TWO_PI
    feasible = ((K[:, None] > 0.0) & (required_rabi > 0.0)
                & (required_rabi <= RABI_TECHNICAL_CAP))
    return lam, feasible


def resonance_curve(mode: RotationalMode, B_values, rabi_frequency: float,
                    constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """psi(B) tracing the resonance condition at fixed Rabi frequency.

    Returns (psi, feasible); psi is NaN where the resonance cannot be met
    (K <= 0, i.e. the e-d gap is below the phonon frequency).
    """
    if not rabi_frequency > 0.0:
        raise ValueError("Rabi frequency must be positive")
    K = resonance_K(B_values, mode.omega_phi, constants.zero_field_splitting_D,
                    constants.gamma_nv)
    rabi = TWO_PI * rabi_frequency
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = 0.5 * np.arctan2(rabi, resonance_detuning(K, rabi))
    feasible = K > 0.0
    psi = np.where(feasible, psi, np.nan)
    return psi, feasible


def coupling_vs_rabi(shapes: dict[str, BodyProperties], rabi_values, omega_phi: float,
                     constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """Resonant (detuning zero) coupling of each shape at each Rabi frequency.

    For each Rabi frequency the field is tuned to meet the resonance; every
    shape then shares (B, theta, psi=pi/4) and differs only through phi0.
    Returns (B, lambda_tilde): the field in T per Rabi value, and
    lambda_tilde in Hz of shape (Rabi values, shapes), shapes in the order
    of the dict.  Both are NaN where the resonance is unreachable.
    """
    modes = [rotational_mode(body, omega_phi, constants) for body in shapes.values()]
    B = np.full(len(rabi_values), math.nan)
    lam = np.full((len(rabi_values), len(modes)), math.nan)
    for i, rabi in enumerate(rabi_values):
        try:
            sol = resonance_solve(SpinConfig.from_constants(0.0, constants),
                                  rabi_frequency=rabi, omega_phi=omega_phi,
                                  solve_for="field")
        except ResonanceUnreachableError:
            continue
        B[i] = sol.B
        lam[i] = [dressed_coupling(mode, sol.mixed, sol.dressed).lambda_tilde
                  for mode in modes]
    return B, lam
