"""NV ground-state spin in a transverse field: mixed states, microwave dressing,
spin operators in the mixed basis and the closed-form spin-phonon resonance
solver, whose broadcastable e-d gap, K and detuning the coupling maps share.

All energies are handled internally as angular frequencies (rad/s); inputs
that are conventionally quoted in ordinary frequency (D, gamma*B, Rabi
frequency, detuning) are converted once at the type boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import PhysicalConstants, DEFAULT_CONSTANTS

TWO_PI = 2.0 * math.pi

# spin-1 operators in the {|-1>, |0>, |+1>} basis
SQRT2 = math.sqrt(2.0)
S_Z = np.diag([-1.0, 0.0, 1.0]).astype(complex)
S_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
_SP = np.array([[0, 0, 0], [SQRT2, 0, 0], [0, SQRT2, 0]], dtype=complex)  # S_+
S_Y = (_SP - _SP.conj().T) / 2.0j

# states that the transverse field mixes: |d> stays put, |0> and |b> rotate by theta
_KET_D = np.array([1.0, 0.0, -1.0], dtype=complex) / SQRT2
_KET_B = np.array([1.0, 0.0, 1.0], dtype=complex) / SQRT2
_KET_0 = np.array([0.0, 1.0, 0.0], dtype=complex)


class ResonanceUnreachableError(ValueError):
    """The requested spin-phonon resonance has no solution; names the limit."""


@dataclass(frozen=True)
class SpinConfig:
    B: float                      # transverse field along lab x, T
    D: float = 2.87e9             # zero-field splitting, Hz
    gamma: float = 28.024e9       # gyromagnetic ratio, Hz/T

    def __post_init__(self):
        if self.B < 0.0:
            raise ValueError("field magnitude must be non-negative")
        if self.D <= 0.0:
            raise ValueError("zero-field splitting must be positive")

    @classmethod
    def from_constants(cls, B: float, constants: PhysicalConstants = DEFAULT_CONSTANTS):
        return cls(B=B, D=constants.zero_field_splitting_D, gamma=constants.gamma_nv)


@dataclass(frozen=True)
class MixedSpinSpectrum:
    """Eigenstructure of D*S_z^2 + gamma*B*S_x.

    theta is the mixing angle (tan 2theta = 2 gamma B / D); vectors holds the
    |g>, |d>, |e> eigenvectors as columns in the {|-1>, |0>, |+1>} basis.
    """

    config: SpinConfig
    theta: float        # rad
    omega_g: float      # rad/s
    omega_d: float      # rad/s
    omega_e: float      # rad/s
    vectors: np.ndarray

    @property
    def omega_dg(self) -> float:
        return self.omega_d - self.omega_g

    @property
    def omega_ed(self) -> float:
        return self.omega_e - self.omega_d


@dataclass(frozen=True)
class MicrowaveConfig:
    """Drive on the g <-> d transition: Rabi frequency plus detuning or
    absolute drive frequency (exactly one of the two), all in ordinary Hz."""

    rabi_frequency: float           # Hz
    detuning: float | None = None   # Hz, relative to omega_dg
    drive_frequency: float | None = None  # Hz, absolute

    def __post_init__(self):
        if self.rabi_frequency <= 0.0:
            raise ValueError("Rabi frequency must be positive")
        if (self.detuning is None) == (self.drive_frequency is None):
            raise ValueError("specify exactly one of detuning or drive_frequency")

    def detuning_angular(self, mixed: MixedSpinSpectrum) -> float:
        if self.detuning is not None:
            return TWO_PI * self.detuning
        return TWO_PI * self.drive_frequency - mixed.omega_dg


@dataclass(frozen=True)
class DressedSpectrum:
    """Microwave-dressed structure of the g/d subspace, with |e> shifted to
    the rotating frame.  vectors holds |+>, |->, |e> columns in {g, d, e}."""

    psi: float            # rad
    omega_plus: float     # rad/s
    omega_minus: float    # rad/s
    omega_e_prime: float  # rad/s
    detuning: float       # rad/s
    rabi_angular: float   # rad/s
    vectors: np.ndarray

    @property
    def splitting(self) -> float:
        return self.omega_plus - self.omega_minus


def hamiltonian_lab(config: SpinConfig) -> np.ndarray:
    """3x3 spin Hamiltonian in angular units over {|-1>, |0>, |+1>}."""
    return TWO_PI * (config.D * (S_Z @ S_Z) + config.gamma * config.B * S_X)


def _mixed_basis(theta: float) -> np.ndarray:
    """|g>, |d>, |e> as columns in the {|-1>, |0>, |+1>} basis."""
    c, s = math.cos(theta), math.sin(theta)
    return np.column_stack([c * _KET_0 - s * _KET_B, _KET_D, s * _KET_0 + c * _KET_B])


def mixed_spectrum(config: SpinConfig) -> MixedSpinSpectrum:
    x = 2.0 * config.gamma * config.B / config.D
    theta = 0.5 * math.atan(x)
    root = math.sqrt(1.0 + x * x)
    omega_g = TWO_PI * config.D * (1.0 - root) / 2.0
    omega_e = TWO_PI * config.D * (1.0 + root) / 2.0
    omega_d = TWO_PI * config.D
    return MixedSpinSpectrum(config=config, theta=theta, omega_g=omega_g,
                             omega_d=omega_d, omega_e=omega_e,
                             vectors=_mixed_basis(theta))


def spin_operators_mixed_basis(theta: float):
    """(S_x, S_y, S_z) rotated into the {|g>, |d>, |e>} basis for mixing angle theta."""
    U = _mixed_basis(theta)
    return tuple(U.conj().T @ S @ U for S in (S_X, S_Y, S_Z))


def ed_gap(B, D: float, gamma: float):
    """omega_e - omega_d (rad/s) at field B (T), broadcast over B.

    Written as pi D x^2 / (1 + sqrt(1 + x^2)), x = 2 gamma B / D: the same
    value as pi D (sqrt(1 + x^2) - 1) without its cancellation at low field.
    """
    x = 2.0 * gamma * np.asarray(B, dtype=float) / D
    return math.pi * D * x * x / (1.0 + np.sqrt(1.0 + x * x))


def resonance_K(B, omega_phi: float, D: float, gamma: float):
    """K = 2 (omega_e - omega_d - omega_phi) in rad/s; resonance needs K > 0."""
    return 2.0 * (ed_gap(B, D, gamma) - omega_phi)


def resonance_detuning(K, rabi):
    """Delta = (K^2 - Omega_R^2) / (2K) in rad/s, the detuning that solves
    Delta + sqrt(Delta^2 + Omega_R^2) = K (rabi = Omega_R in rad/s)."""
    return (K * K - rabi * rabi) / (2.0 * K)


LEAKAGE_RABI_FACTOR = 5.0  # warn when the g-d drive sits too close to e-d


def dressed_spectrum(mixed: MixedSpinSpectrum, mw: MicrowaveConfig) -> DressedSpectrum:
    """Dressed states of the driven g <-> d transition in the rotating frame."""
    delta = mw.detuning_angular(mixed)
    rabi = TWO_PI * mw.rabi_frequency

    gap = abs(mixed.omega_ed - mixed.omega_dg)
    if LEAKAGE_RABI_FACTOR * rabi > gap or LEAKAGE_RABI_FACTOR * abs(delta) > gap:
        warnings.warn(
            "microwave drive may also address the d <-> e transition "
            f"(|omega_ed - omega_dg| = 2*pi*{gap / TWO_PI:.3e} Hz)",
            stacklevel=2)

    psi = 0.5 * math.atan2(rabi, delta)
    w = math.sqrt(delta * delta + rabi * rabi)
    omega_drive = mixed.omega_dg + delta
    omega_e_prime = mixed.omega_e - (omega_drive + mixed.omega_g + mixed.omega_d) / 2.0

    cp, sp = math.cos(psi), math.sin(psi)
    plus = np.array([1j * sp, cp, 0.0], dtype=complex)
    minus = np.array([-1j * cp, sp, 0.0], dtype=complex)
    e = np.array([0.0, 0.0, 1.0], dtype=complex)
    return DressedSpectrum(psi=psi, omega_plus=0.5 * w, omega_minus=-0.5 * w,
                           omega_e_prime=omega_e_prime, detuning=delta,
                           rabi_angular=rabi,
                           vectors=np.column_stack([plus, minus, e]))


@dataclass(frozen=True)
class ResonanceSolution:
    B: float              # T
    detuning: float       # rad/s
    psi: float            # rad
    mixed: MixedSpinSpectrum
    dressed: DressedSpectrum


def resonance_solve(config: SpinConfig, rabi_frequency: float, omega_phi: float,
                    solve_for: str = "detuning", B_max: float = 1.0) -> ResonanceSolution:
    """Enforce omega_e' - omega_+ = omega_phi, in closed form.

    solve_for="detuning": B fixed by config, Delta = (K^2 - Omega_R^2)/(2K).
    solve_for="field": detuning pinned to zero, so the resonance reads
    omega_e - omega_d = omega_phi + Omega_R/2; with
    u = (omega_phi + Omega_R/2) / (pi D) it inverts to
    B = D sqrt(u (2 + u)) / (2 gamma), which must not exceed B_max.
    """
    if omega_phi <= 0.0:
        raise ValueError("omega_phi must be positive")
    if rabi_frequency <= 0.0:
        raise ValueError("Rabi frequency must be positive")
    rabi = TWO_PI * rabi_frequency

    if solve_for == "detuning":
        B = config.B
        K = float(resonance_K(B, omega_phi, config.D, config.gamma))
        if K <= 0.0:
            raise ResonanceUnreachableError(
                f"K = 2(omega_e - omega_d - omega_phi) = {K:.4e} rad/s <= 0: "
                "the e-d gap is below the phonon frequency at this field")
        delta = resonance_detuning(K, rabi)
    elif solve_for == "field":
        target = omega_phi + 0.5 * rabi  # omega_e - omega_d must reach this
        u = target / (math.pi * config.D)
        B = config.D * math.sqrt(u * (2.0 + u)) / (2.0 * config.gamma)
        if B > B_max:
            raise ResonanceUnreachableError(
                f"no field below {B_max} T reaches omega_e - omega_d = "
                f"omega_phi + Omega_R/2 = 2*pi*{target / TWO_PI:.4e} Hz")
        delta = 0.0
    else:
        raise ValueError("solve_for must be 'detuning' or 'field'")

    mixed = mixed_spectrum(replace(config, B=B))
    dressed = dressed_spectrum(mixed, MicrowaveConfig(
        rabi_frequency=rabi_frequency, detuning=delta / TWO_PI))
    return ResonanceSolution(B=B, detuning=delta, psi=dressed.psi,
                             mixed=mixed, dressed=dressed)
