"""Truncated dressed-spin x Fock models and Lindblad master-equation evolution.

A model is its Hamiltonian (rad/s), built from the three dressed levels and
omega_phi on the basis {|+>, |->, |e>} x {|0> .. |N_max>} that
QuantumModel.index lays out.  Dimensions stay small (3*(N_max+1) <= a few
tens), so propagation is exact: evolve checks the states, and records their
populations and purity, in stacks of consecutive samples.  A unitary run
propagates a factor of the initial state, rho0 = F diag(w) F^dag with F = psi
for a state vector, by eigenbasis phases, so a sample costs O(r d^2) for r
columns of F instead of two d x d products; a dissipative run takes exp(L dt)
steps of each invariant block of rho.  The purity is the O(d^2) sum of
rho_ij rho_ji.  Positivity of a stack is screened by one batched Cholesky;
eigvalsh runs only to name a failing sample.  The exchange frequency is the
strongest matrix-pencil pole of the |e> population (spectral.dominant_pole);
only dissipative runs load scipy, for expm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import DecoherenceBudget
from .nv_spin import TWO_PI
from .spectral import dominant_pole

SPIN_LABELS = ("plus", "minus", "e")
PLUS, MINUS, EXCITED = 0, 1, 2
CHECK_TOL = 1e-9  # trace, hermiticity (x10) and positivity tolerance per sample
CHUNK_ENTRIES = 2 ** 15  # matrix entries per stack of samples that evolve handles at once


@dataclass(frozen=True)
class QuantumModel:
    H: np.ndarray            # (dim, dim) complex, rad/s
    N_max: int

    @property
    def dim(self) -> int:
        return 3 * (self.N_max + 1)

    def index(self, spin, n: int) -> int:
        if isinstance(spin, str):
            spin = SPIN_LABELS.index(spin)
        if not 0 <= n <= self.N_max:
            raise ValueError(f"phonon number {n} outside [0, {self.N_max}]")
        return spin * (self.N_max + 1) + n

    def block(self, spin) -> slice:
        """Indices of the Fock ladder |spin, 0> .. |spin, N_max>."""
        return slice(self.index(spin, 0), self.index(spin, self.N_max) + 1)

    def basis_state(self, spin, n: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index(spin, n)] = 1.0
        return v


def _destroy(nf: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, nf, dtype=float)), k=1)


def build_model(levels, omega_phi: float, lambda_tilde: float,
                N_max: int = 8, kind: str = "jaynes_cummings") -> QuantumModel:
    """Assemble the truncated Hamiltonian.

    levels are the dressed energies (omega_+, omega_-, omega_e') and omega_phi
    the rotational frequency, all in rad/s; lambda_tilde is in Hz.
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
    H = np.kron(np.diag(levels), np.eye(nf)) + omega_phi * np.kron(np.eye(3), n_op)
    H = H.astype(complex)

    e_from_plus = np.zeros((3, 3))
    e_from_plus[EXCITED, PLUS] = 1.0
    g = TWO_PI * lambda_tilde
    if kind == "full_rabi":
        H += g * np.kron(e_from_plus + e_from_plus.T, a + a.T)
    else:
        H += g * (np.kron(e_from_plus, a) + np.kron(e_from_plus.T, a.T))

    assert np.max(np.abs(H - H.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(H)))
    return QuantumModel(H=H, N_max=N_max)


def resonant_model(lambda_tilde: float, omega_phi: float, N_max: int = 8,
                   kind: str = "jaynes_cummings") -> QuantumModel:
    """Model with omega_e' - omega_+ pinned to omega_phi (exchange resonance)
    and the dressed splitting omega_+ - omega_- at 100 omega_phi.

    Shortcut used by tests and demos when only the ladder dynamics matter.
    """
    w = 100.0 * omega_phi
    return build_model((0.5 * w, -0.5 * w, 0.5 * w + omega_phi), omega_phi,
                       lambda_tilde, N_max=N_max, kind=kind)


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
    """sqrt(rate) * J for every channel with a positive rate."""
    nf = model.N_max + 1
    lower = np.zeros((3, 3))
    lower[PLUS, EXCITED] = 1.0
    sz = np.diag([-1.0, 0.0, 1.0])  # |e><e| - |+><+|
    table = ((ch.spin_relaxation_rate, np.kron(lower, np.eye(nf))),
             (0.5 * ch.pure_dephasing_rate, np.kron(sz, np.eye(nf))),
             (ch.phonon_decoherence_rate, np.kron(np.eye(3), _destroy(nf))))
    return [math.sqrt(rate) * J for rate, J in table if rate > 0.0]


def _sectors(model: QuantumModel):
    """Index sets that H and every jump operator leave invariant:
    {|+>, |e>} x Fock and {|->} x Fock."""
    ladders = np.arange(model.dim).reshape(3, model.N_max + 1)
    return np.concatenate((ladders[PLUS], ladders[EXCITED])), ladders[MINUS]


def _liouvillian(model: QuantumModel, ch: LindbladChannels,
                 rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Superoperator of the block rho[rows, cols] over its row-major vec.

    rows and cols are each invariant sets of indices (see _sectors), so the
    block evolves on its own."""
    Hr, Hc = model.H[np.ix_(rows, rows)], model.H[np.ix_(cols, cols)]
    er, ec = np.eye(rows.size), np.eye(cols.size)
    L = -1j * (np.kron(Hr, ec) - np.kron(er, Hc.T))
    for J in _jump_operators(model, ch):
        Jr, Jc = J[np.ix_(rows, rows)], J[np.ix_(cols, cols)]
        L += (np.kron(Jr, Jc.conj()) - 0.5 * np.kron(Jr.conj().T @ Jr, ec)
              - 0.5 * np.kron(er, (Jc.conj().T @ Jc).T))
    return L


@dataclass
class EvolutionResult:
    times: np.ndarray          # (nt,)
    populations: np.ndarray    # (nt, dim), diagonal of rho
    purity: np.ndarray         # (nt,)
    model: QuantumModel = field(repr=False, default=None)

    def spin_population(self, spin) -> np.ndarray:
        return self.populations[:, self.model.block(spin)].sum(axis=1)


class PositivityError(RuntimeError):
    """Density matrix left the physical cone beyond tolerance."""


def _initial_state(state: np.ndarray, dim: int) -> np.ndarray:
    """The initial state as a normalized complex vector or trace-one matrix."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        if state.shape != (dim,):
            raise ValueError("state vector has wrong dimension")
        norm = np.linalg.norm(state)
        if not math.isclose(norm, 1.0, rel_tol=1e-9):
            raise ValueError("initial state is not normalized")
        return state
    if state.shape != (dim, dim):
        raise ValueError("density matrix has wrong dimension")
    if not math.isclose(float(np.trace(state).real), 1.0, rel_tol=1e-9):
        raise ValueError("initial density matrix is not normalized")
    return state


def _stacks(model: QuantumModel, state: np.ndarray, times: np.ndarray,
            channels: LindbladChannels):
    """Density matrices at all times as (k, dim, dim) stacks in time order,
    from a state vector or a density matrix.

    Unitary runs factor the state as rho0 = F diag(w) F^dag: F = psi and
    w = [1] for a vector, else the columns of eigh(rho0) with nonzero weight.
    Each sample is then U = V (e^{-iEt} * V^dag F) in the eigenbasis V of H and
    rho(t) = (U w) U^dag, O(r d^2) for r columns.  Dissipative runs step each
    invariant block of rho with its own exp(L dt), skipping blocks that start
    at zero (they stay zero), and reuse one buffer for every stack."""
    k = max(1, CHUNK_ENTRIES // model.dim ** 2)
    starts = range(0, times.size, k)
    if not any((channels.spin_relaxation_rate, channels.pure_dephasing_rate,
                channels.phonon_decoherence_rate)):
        if state.ndim == 1:
            F, w = state[:, None], np.ones(1)
        else:
            w, F = np.linalg.eigh(state)
            F, w = F[:, w != 0.0], w[w != 0.0]
        evals, V = np.linalg.eigh(model.H)
        VhF = V.conj().T @ F
        # a common phase cancels in (U w) U^dag; taken at the mean energy of the
        # state, the phases of its eigencomponents stay small and keep their digits
        evals = evals - (np.abs(VhF) ** 2 @ w) @ evals
        for i in starts:
            U = V @ (np.exp(-1j * evals * times[i:i + k, None])[:, :, None] * VhF)
            yield (U * w) @ U.conj().transpose(0, 2, 1)
        return
    from scipy.linalg import expm

    rho0 = state if state.ndim == 2 else np.outer(state, state.conj())
    dt = times[1] - times[0]
    sectors = _sectors(model)
    blocks = [(rows, cols) for rows in sectors for cols in sectors
              if rho0[np.ix_(rows, cols)].any()]  # a block that starts at zero stays zero
    runs = [_block_steps(expm(_liouvillian(model, channels, rows, cols) * dt),
                         rho0[np.ix_(rows, cols)].reshape(-1), k, times.size)
            for rows, cols in blocks]
    stack = np.zeros((k, model.dim, model.dim), dtype=complex)
    for seqs in zip(*runs):
        n = len(seqs[0])
        for (rows, cols), seq in zip(blocks, seqs):
            stack[:n, rows[:, None], cols] = seq.reshape(n, rows.size, cols.size)
        yield stack[:n]


def _block_steps(P: np.ndarray, vec: np.ndarray, k: int, nt: int):
    """vec, P @ vec, P @ P @ vec, ... (nt in all), k at a time in one reused array."""
    seq = np.empty((k, vec.size), dtype=complex)
    for i in range(0, nt, k):
        n = min(k, nt - i)
        for j in range(n):
            seq[j] = vec
            vec = P @ vec
        yield seq[:n]


def _trace(stack: np.ndarray) -> np.ndarray:
    """np.trace of each matrix of a stack, summed in the same order."""
    return np.diagonal(stack, axis1=-2, axis2=-1).sum(axis=-1)


def _check(stack: np.ndarray, times: np.ndarray):
    """Raise PositivityError for the first sample of the stack that fails the
    trace, hermiticity or positivity check (tested in that order per sample).

    A sample fails the first two unless they hold, so a NaN fails the trace or
    hermiticity check.  Positivity, smallest eigenvalue of the hermitian part
    not below -CHECK_TOL, is screened for the samples before the first such
    failure by one batched Cholesky of their hermitian parts + CHECK_TOL * I;
    only when that fails does eigvalsh run, to name the first negative sample.
    """
    adjoint = stack.conj().transpose(0, 2, 1)
    tr = _trace(stack).real
    skew = (stack - adjoint).view(float)
    np.square(skew, out=skew)
    herm2 = (skew[..., ::2] + skew[..., 1::2]).max(axis=(1, 2))  # largest |entry|^2
    del skew  # a stack-sized buffer, not needed by the positivity screen
    sound = (np.abs(tr - 1.0) <= CHECK_TOL) & (herm2 <= (10.0 * CHECK_TOL) ** 2)
    broken = np.flatnonzero(~sound)
    first = broken[0] if broken.size else len(stack)
    if first:
        shifted = stack[:first] + adjoint[:first]
        shifted *= 0.5
        shifted.reshape(first, -1)[:, ::stack.shape[1] + 1] += CHECK_TOL  # the diagonals
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            low = np.linalg.eigvalsh(0.5 * (stack[:first] + adjoint[:first])).min(axis=1)
            negative = np.flatnonzero(low < -CHECK_TOL)
            if negative.size:
                raise PositivityError(f"negative eigenvalue {low[negative[0]]:.2e}")
    if first == len(stack):
        return
    if not abs(tr[first] - 1.0) <= CHECK_TOL:
        raise PositivityError(f"trace drifted to {float(tr[first])} at t={times[first]:.3e}")
    raise PositivityError(f"hermiticity violated by {math.sqrt(herm2[first]):.2e}")


def evolve(model: QuantumModel, initial: np.ndarray, times: np.ndarray,
           channels: LindbladChannels = LindbladChannels()) -> EvolutionResult:
    """Propagate the master equation on a uniform time grid.

    Unitary runs (all rates zero) propagate a factor of the initial state
    exactly in the eigenbasis of H; dissipative runs step through the exact
    exponential of the Liouvillian of each invariant block.  Trace,
    hermiticity and positivity are enforced at every sample; the first
    sample that fails raises PositivityError.
    The result holds the populations and the purity at each sample.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need an increasing time grid with at least 2 points")
    dt = np.diff(times)
    if np.any(dt <= 0.0) or not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise ValueError("time grid must be uniform and increasing")

    nt = times.size
    populations = np.empty((nt, model.dim))
    purity = np.empty(nt)
    state = _initial_state(initial, model.dim)
    if state.ndim == 2:
        _check(state[None], times[:1])  # before eigh, which reads one triangle
    diag = np.arange(model.dim)
    i = 0
    for stack in _stacks(model, state, times, channels):
        done = slice(i, i + len(stack))
        _check(stack, times[done])
        populations[done] = stack[:, diag, diag].real
        purity[done] = np.einsum("kij,kji->k", stack, stack).real
        i = done.stop

    return EvolutionResult(times=times, populations=populations, purity=purity,
                           model=model)


# ---------------------------------------------------------------------------
# exchange-rate extraction
# ---------------------------------------------------------------------------

def exchange_frequency(result: EvolutionResult) -> float:
    """Population-oscillation frequency (Hz) of the |e> level.

    The strongest matrix-pencil pole (spectral.dominant_pole) of the
    population between 1/duration and the Nyquist frequency; raises
    spectral.NoLineError when there is none.
    """
    t = result.times
    dt = t[1] - t[0]
    return dominant_pole(result.spin_population("e"), dt, 1.0 / (t[-1] - t[0]),
                         0.5 / dt).frequency


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
    rho[model.block(spin), model.block(spin)] = np.diag(weights)
    return rho
