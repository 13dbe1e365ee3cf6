"""NV ground-state spin in a transverse field: the mixing angle and energies of
the mixed states, the microwave-dressed angle and energies, and the
closed-form spin-phonon resonance solver, whose broadcastable mixing angle,
e-d gap, K and detuning the coupling maps share.  Every result is a closed
form; no spin matrix or eigenvector is built.

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


class ResonanceUnreachableError(ValueError):
    """The requested spin-phonon resonance has no solution; names the limit."""


@dataclass(frozen=True)
class SpinConfig:
    B: float                      # transverse field along lab x, T
    D: float = DEFAULT_CONSTANTS.zero_field_splitting_D  # zero-field splitting, Hz
    gamma: float = DEFAULT_CONSTANTS.gamma_nv  # gyromagnetic ratio, Hz/T

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
    """Eigenvalues of D*S_z^2 + gamma*B*S_x and the mixing angle theta
    (tan 2theta = 2 gamma B / D): |d> = (|-1> - |+1>)/sqrt2 stays put, while
    |g> = cos(theta)|0> - sin(theta)|b> and |e> = sin(theta)|0> + cos(theta)|b>,
    |b> = (|-1> + |+1>)/sqrt2.
    """

    config: SpinConfig
    theta: float        # rad
    omega_g: float      # rad/s
    omega_d: float      # rad/s
    omega_e: float      # rad/s

    @property
    def omega_dg(self) -> float:
        return self.omega_d - self.omega_g

    @property
    def omega_ed(self) -> float:
        return self.omega_e - self.omega_d


@dataclass(frozen=True)
class MicrowaveConfig:
    """Drive on the g <-> d transition: Rabi frequency and detuning from
    omega_dg, both in ordinary Hz."""

    rabi_frequency: float  # Hz
    detuning: float        # Hz, relative to omega_dg

    def __post_init__(self):
        if self.rabi_frequency <= 0.0:
            raise ValueError("Rabi frequency must be positive")


@dataclass(frozen=True)
class DressedSpectrum:
    """Microwave-dressed structure of the g/d subspace, with |e> shifted to
    the rotating frame: |+> = i sin(psi)|g> + cos(psi)|d> and
    |-> = -i cos(psi)|g> + sin(psi)|d>, tan 2psi = Omega_R / Delta."""

    psi: float            # rad
    omega_plus: float     # rad/s
    omega_minus: float    # rad/s
    omega_e_prime: float  # rad/s
    detuning: float       # rad/s

    @property
    def splitting(self) -> float:
        return self.omega_plus - self.omega_minus


def mixed_spectrum(config: SpinConfig) -> MixedSpinSpectrum:
    x = 2.0 * config.gamma * config.B / config.D
    theta = float(mixing_angle(config.B, config.D, config.gamma))
    root = math.sqrt(1.0 + x * x)
    omega_g = TWO_PI * config.D * (1.0 - root) / 2.0
    omega_e = TWO_PI * config.D * (1.0 + root) / 2.0
    omega_d = TWO_PI * config.D
    return MixedSpinSpectrum(config=config, theta=theta, omega_g=omega_g,
                             omega_d=omega_d, omega_e=omega_e)


def mixing_angle(B, D: float, gamma: float):
    """Mixing angle theta (rad) at field B (T), tan 2theta = 2 gamma B / D,
    broadcast over B."""
    return 0.5 * np.arctan(2.0 * gamma * np.asarray(B, dtype=float) / D)


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
    delta = TWO_PI * mw.detuning
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
    return DressedSpectrum(psi=psi, omega_plus=0.5 * w, omega_minus=-0.5 * w,
                           omega_e_prime=omega_e_prime, detuning=delta)


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
