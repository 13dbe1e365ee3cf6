"""Truncated dressed-spin x Fock models and Lindblad master-equation evolution.

The basis is {|+>, |->, |e>} x {|0> .. |N_max>}, index = spin*(N_max+1) + n.
Hamiltonians are stored in angular units (rad/s).  Dimensions stay small
(3*(N_max+1) <= a few tens), so dense propagation through the exponential of
the Liouvillian is exact and fast.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.optimize import curve_fit, OptimizeWarning

from .coupling import DecoherenceBudget
from .nv_spin import DressedSpectrum, TWO_PI
from .coupling import RotationalMode

SPIN_LABELS = ("plus", "minus", "e")
PLUS, MINUS, EXCITED = 0, 1, 2


class NoOscillationError(RuntimeError):
    """Fewer than three population extrema: no exchange frequency to fit."""


@dataclass(frozen=True)
class QuantumModel:
    H: np.ndarray            # (dim, dim) complex, rad/s
    kind: str                # "full_rabi" or "jaynes_cummings"
    N_max: int
    lambda_tilde: float      # Hz
    omega_phi: float         # rad/s
    omega_plus: float        # rad/s
    omega_minus: float       # rad/s
    omega_e_prime: float     # rad/s

    @property
    def dim(self) -> int:
        return 3 * (self.N_max + 1)

    def index(self, spin, n: int) -> int:
        if isinstance(spin, str):
            spin = SPIN_LABELS.index(spin)
        if not 0 <= n <= self.N_max:
            raise ValueError(f"phonon number {n} outside [0, {self.N_max}]")
        return spin * (self.N_max + 1) + n

    def basis_state(self, spin, n: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index(spin, n)] = 1.0
        return v

    def excitation_operator(self) -> np.ndarray:
        """|e><e| + a^dag a, conserved by the Jaynes-Cummings kind."""
        nf = self.N_max + 1
        proj_e = np.zeros((3, 3))
        proj_e[EXCITED, EXCITED] = 1.0
        return (np.kron(proj_e, np.eye(nf))
                + np.kron(np.eye(3), np.diag(np.arange(nf, dtype=float))))


def _destroy(nf: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, nf, dtype=float)), k=1)


def build_model(dressed: DressedSpectrum, mode: RotationalMode, lambda_tilde: float,
                N_max: int = 8, kind: str = "jaynes_cummings") -> QuantumModel:
    """Assemble the truncated Hamiltonian.

    full_rabi keeps the complete (a + a^dag)(|e><+| + h.c.) coupling;
    jaynes_cummings keeps only the excitation-conserving half.  |-> stays in
    the basis but is never coupled.
    """
    if N_max < 1:
        raise ValueError("need at least one phonon level")
    if kind not in ("full_rabi", "jaynes_cummings"):
        raise ValueError(f"unknown model kind {kind!r}")

    nf = N_max + 1
    a = _destroy(nf)
    n_op = a.T @ a
    spin_diag = np.diag([dressed.omega_plus, dressed.omega_minus,
                         dressed.omega_e_prime])
    H = np.kron(spin_diag, np.eye(nf)) + mode.omega_phi * np.kron(np.eye(3), n_op)
    H = H.astype(complex)

    e_from_plus = np.zeros((3, 3))
    e_from_plus[EXCITED, PLUS] = 1.0
    g = TWO_PI * lambda_tilde
    if kind == "full_rabi":
        H += g * np.kron(e_from_plus + e_from_plus.T, a + a.T)
    else:
        H += g * (np.kron(e_from_plus, a) + np.kron(e_from_plus.T, a.T))

    assert np.max(np.abs(H - H.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(H)))
    return QuantumModel(H=H, kind=kind, N_max=N_max, lambda_tilde=lambda_tilde,
                        omega_phi=mode.omega_phi, omega_plus=dressed.omega_plus,
                        omega_minus=dressed.omega_minus,
                        omega_e_prime=dressed.omega_e_prime)


def resonant_model(lambda_tilde: float, omega_phi: float, N_max: int = 8,
                   kind: str = "jaynes_cummings", splitting: float | None = None) -> QuantumModel:
    """Model with omega_e' - omega_+ pinned to omega_phi (exchange resonance).

    Shortcut used by tests and demos when only the ladder dynamics matter.
    """
    w = splitting if splitting is not None else 100.0 * omega_phi
    dressed = DressedSpectrum(psi=math.pi / 4, omega_plus=0.5 * w, omega_minus=-0.5 * w,
                              omega_e_prime=0.5 * w + omega_phi, detuning=0.0,
                              rabi_angular=w, vectors=np.eye(3, dtype=complex))
    mode = RotationalMode(omega_phi=omega_phi, I_y=math.nan, phi0=math.nan, L0=math.nan)
    return build_model(dressed, mode, lambda_tilde, N_max=N_max, kind=kind)


# ---------------------------------------------------------------------------
# Lindblad channels and propagation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LindbladChannels:
    spin_relaxation_rate: float = 0.0    # 1/T1, |e> -> |+>
    pure_dephasing_rate: float = 0.0     # 1/T2*, |e> vs |+>
    phonon_decoherence_rate: float = 0.0  # phonon loss

    def __post_init__(self):
        for r in (self.spin_relaxation_rate, self.pure_dephasing_rate,
                  self.phonon_decoherence_rate):
            if r < 0.0:
                raise ValueError("rates must be non-negative")

    @classmethod
    def from_budget(cls, budget: DecoherenceBudget,
                    phonon_decoherence_rate: float = 0.0) -> "LindbladChannels":
        return cls(spin_relaxation_rate=1.0 / budget.T1,
                   pure_dephasing_rate=1.0 / budget.T2_star,
                   phonon_decoherence_rate=phonon_decoherence_rate)


def _jump_operators(model: QuantumModel, ch: LindbladChannels):
    nf = model.N_max + 1
    ops = []
    if ch.spin_relaxation_rate > 0.0:
        sm = np.zeros((3, 3))
        sm[PLUS, EXCITED] = 1.0
        ops.append(math.sqrt(ch.spin_relaxation_rate) * np.kron(sm, np.eye(nf)))
    if ch.pure_dephasing_rate > 0.0:
        sz = np.zeros((3, 3))
        sz[EXCITED, EXCITED] = 1.0
        sz[PLUS, PLUS] = -1.0
        ops.append(math.sqrt(0.5 * ch.pure_dephasing_rate) * np.kron(sz, np.eye(nf)))
    if ch.phonon_decoherence_rate > 0.0:
        ops.append(math.sqrt(ch.phonon_decoherence_rate)
                   * np.kron(np.eye(3), _destroy(nf)))
    return ops


def _liouvillian(model: QuantumModel, ch: LindbladChannels) -> np.ndarray:
    """Superoperator over row-major vec(rho)."""
    H = model.H
    d = H.shape[0]
    eye = np.eye(d)
    L = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for J in _jump_operators(model, ch):
        JdJ = J.conj().T @ J
        L += (np.kron(J, J.conj())
              - 0.5 * np.kron(JdJ, eye) - 0.5 * np.kron(eye, JdJ.T))
    return L


@dataclass
class EvolutionResult:
    times: np.ndarray          # (nt,)
    populations: np.ndarray    # (nt, dim), diagonal of rho
    purity: np.ndarray         # (nt,)
    energy: np.ndarray         # (nt,), tr(H rho) in rad/s
    coherence_pe: np.ndarray   # (nt,) complex, sum_n <+,n|rho|e,n>
    model: QuantumModel = field(repr=False, default=None)
    states: np.ndarray | None = field(repr=False, default=None)  # (nt, dim, dim)

    def spin_population(self, spin) -> np.ndarray:
        if isinstance(spin, str):
            spin = SPIN_LABELS.index(spin)
        nf = self.model.N_max + 1
        return self.populations[:, spin * nf:(spin + 1) * nf].sum(axis=1)

    def level_population(self, spin, n: int) -> np.ndarray:
        return self.populations[:, self.model.index(spin, n)]

    def write_csv(self, path):
        nf = self.model.N_max + 1
        cols = [self.times]
        names = ["time_s"]
        for s, label in enumerate(SPIN_LABELS):
            for n in range(nf):
                cols.append(self.populations[:, s * nf + n])
                names.append(f"P_{label}_{n}")
        cols.append(self.purity)
        names.append("purity")
        np.savetxt(path, np.column_stack(cols), delimiter=",",
                   header=",".join(names), comments="")


class PositivityError(RuntimeError):
    """Density matrix left the physical cone beyond tolerance."""


def _as_density_matrix(state: np.ndarray, dim: int) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        if state.shape != (dim,):
            raise ValueError("state vector has wrong dimension")
        norm = np.linalg.norm(state)
        if not math.isclose(norm, 1.0, rel_tol=1e-9):
            raise ValueError("initial state is not normalized")
        return np.outer(state, state.conj())
    if state.shape != (dim, dim):
        raise ValueError("density matrix has wrong dimension")
    if not math.isclose(float(np.trace(state).real), 1.0, rel_tol=1e-9):
        raise ValueError("initial density matrix is not normalized")
    return state.copy()


def evolve(model: QuantumModel, initial: np.ndarray, times: np.ndarray,
           channels: LindbladChannels = LindbladChannels(),
           check_tol: float = 1e-9, store_states: bool = False) -> EvolutionResult:
    """Propagate the master equation on a uniform time grid.

    Unitary runs (all rates zero) are propagated exactly in the eigenbasis of
    H; dissipative runs step through the exact exponential of the Liouvillian.
    Trace, hermiticity and positivity are enforced at every sample.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need an increasing time grid with at least 2 points")
    dt = np.diff(times)
    if np.any(dt <= 0.0) or not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise ValueError("time grid must be uniform and increasing")

    rho0 = _as_density_matrix(initial, model.dim)
    unitary = not any((channels.spin_relaxation_rate, channels.pure_dephasing_rate,
                       channels.phonon_decoherence_rate))

    nt = times.size
    populations = np.empty((nt, model.dim))
    purity = np.empty(nt)
    energy = np.empty(nt)
    coherence = np.empty(nt, dtype=complex)
    states = np.empty((nt, model.dim, model.dim), dtype=complex) if store_states else None
    nf = model.N_max + 1

    if unitary:
        evals, V = np.linalg.eigh(model.H)
        rho_eig = V.conj().T @ rho0 @ V
        gaps = evals[:, None] - evals[None, :]
    else:
        P = expm(_liouvillian(model, channels) * dt[0])
        rho = rho0

    for i in range(nt):
        if unitary:
            rho = V @ (np.exp(-1j * gaps * times[i]) * rho_eig) @ V.conj().T
        elif i > 0:
            rho = (P @ rho.reshape(-1)).reshape(model.dim, model.dim)
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > check_tol:
            raise PositivityError(f"trace drifted to {tr} at t={times[i]:.3e}")
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > 10.0 * check_tol:
            raise PositivityError(f"hermiticity violated by {herm:.2e}")
        eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        if eigs.min() < -check_tol:
            raise PositivityError(f"negative eigenvalue {eigs.min():.2e}")
        populations[i] = np.real(np.diag(rho))
        purity[i] = float(np.real(np.trace(rho @ rho)))
        energy[i] = float(np.real(np.trace(model.H @ rho)))
        coherence[i] = sum(rho[PLUS * nf + n, EXCITED * nf + n] for n in range(nf))
        if store_states:
            states[i] = rho

    return EvolutionResult(times=times, populations=populations, purity=purity,
                           energy=energy, coherence_pe=coherence, model=model,
                           states=states)


# ---------------------------------------------------------------------------
# exchange-rate extraction
# ---------------------------------------------------------------------------

def _strict_extrema(p: np.ndarray):
    """Interior indices strictly above (maxima) or below (minima) both neighbours."""
    inner, left, right = p[1:-1], p[:-2], p[2:]
    return (np.flatnonzero((inner > left) & (inner > right)) + 1,
            np.flatnonzero((inner < left) & (inner < right)) + 1)


def exchange_frequency(result: EvolutionResult, spin: str = "e") -> float:
    """Population-oscillation frequency (Hz) from a damped-cosine fit.

    Requires at least three visible extrema; the FFT peak seeds the fit.
    """
    t = result.times
    p = result.spin_population(spin)
    maxima, minima = _strict_extrema(p)
    if maxima.size + minima.size < 3:
        raise NoOscillationError(
            f"only {maxima.size + minima.size} extrema found, need >= 3")

    y = p - p.mean()
    spec = np.abs(np.fft.rfft(y * np.hanning(y.size)))
    freqs = np.fft.rfftfreq(y.size, d=t[1] - t[0])
    k = 1 + int(np.argmax(spec[1:]))
    f0 = freqs[k]

    def damped(tt, amp, f, phase, rate, offset):
        return amp * np.cos(TWO_PI * f * tt + phase) * np.exp(-rate * tt) + offset

    p0 = [0.5 * (p.max() - p.min()), f0, 0.0, 0.0, p.mean()]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(damped, t, p, p0=p0, maxfev=20000)
        f_fit = abs(popt[1])
    except RuntimeError:
        f_fit = f0
    # guard against the fit wandering off the spectral estimate
    if f0 > 0.0 and not (0.5 * f0 <= f_fit <= 2.0 * f0):
        f_fit = f0
    return float(f_fit)


def thermal_initial_state(model: QuantumModel, spin, mean_occupation: float) -> np.ndarray:
    """Diagonal thermal Fock mixture on one spin level, truncated and renormalized."""
    if mean_occupation < 0.0:
        raise ValueError("mean occupation must be non-negative")
    nf = model.N_max + 1
    n = np.arange(nf, dtype=float)
    if mean_occupation == 0.0:
        weights = np.zeros(nf)
        weights[0] = 1.0
    else:
        ratio = mean_occupation / (1.0 + mean_occupation)
        weights = ratio ** n / (1.0 + mean_occupation)
        weights /= weights.sum()
    rho = np.zeros((model.dim, model.dim), dtype=complex)
    if isinstance(spin, str):
        spin = SPIN_LABELS.index(spin)
    base = spin * nf
    for k in range(nf):
        rho[base + k, base + k] = weights[k]
    return rho
