"""evolve against the per-sample loop it replaced, and its per-block Lindblad
propagation against the dense Liouvillian of the whole density matrix."""

import numpy as np
import pytest
from scipy.linalg import expm

from levrot import quantum_sim
from levrot.nv_spin import TWO_PI
from levrot.quantum_sim import (CHECK_TOL, CHUNK_ENTRIES, LindbladChannels,
                                PositivityError, evolve, resonant_model)

LAM = 57e3                 # Hz
OMEGA_PHI = TWO_PI * 5e6   # rad/s
CHANNELS = LindbladChannels(spin_relaxation_rate=0.03 * LAM, pure_dephasing_rate=0.1 * LAM,
                            phonon_decoherence_rate=0.02 * LAM)


# the per-sample propagation and measuring loop that the stacked one replaced,
# kept as the reference
def _unitary_states(model, rho0, times):
    evals, V = np.linalg.eigh(model.H)
    rho_eig = V.conj().T @ rho0 @ V
    gaps = evals[:, None] - evals[None, :]
    for t in times:
        yield V @ (np.exp(-1j * gaps * t) * rho_eig) @ V.conj().T


def _measure(model, states, times):
    nt = times.size
    populations = np.empty((nt, model.dim))
    purity = np.empty(nt)
    for i, rho in enumerate(states):
        tr = float(np.trace(rho).real)
        if not abs(tr - 1.0) <= CHECK_TOL:
            raise PositivityError(f"trace drifted to {tr} at t={times[i]:.3e}")
        herm = np.max(np.abs(rho - rho.conj().T))
        if not herm <= 10.0 * CHECK_TOL:
            raise PositivityError(f"hermiticity violated by {herm:.2e}")
        eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        if eigs.min() < -CHECK_TOL:
            raise PositivityError(f"negative eigenvalue {eigs.min():.2e}")
        populations[i] = np.real(np.diag(rho))
        purity[i] = float(np.real(np.trace(rho @ rho)))
    return populations, purity


# the dense superoperator over the whole row-major vec(rho), kept as the oracle
def _dense_liouvillian(model, ch):
    H = model.H
    eye = np.eye(model.dim)
    L = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for J in quantum_sim._jump_operators(model, ch):
        JdJ = J.conj().T @ J
        L += np.kron(J, J.conj()) - 0.5 * np.kron(JdJ, eye) - 0.5 * np.kron(eye, JdJ.T)
    return L


def _dense_states(model, rho0, times, ch):
    P = expm(_dense_liouvillian(model, ch) * (times[1] - times[0]))
    rho = rho0
    for _ in times:
        yield rho
        rho = (P @ rho.reshape(-1)).reshape(model.dim, model.dim)


def _stacked_states(model, rho0, times, ch):
    return np.concatenate([stack.copy()
                           for stack in quantum_sim._stacks(model, rho0, times, ch)])


def _mixed_state(model):
    """A pure state with weight on every block: |+>|e> x Fock and |-> x Fock."""
    psi = (model.basis_state("plus", 1) + 0.5 * model.basis_state("minus", 0)
           + 0.3 * model.basis_state("e", 0))
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def test_reference_measurement_rejects_a_nan_state():
    # as in quantum_sim._check, a NaN fails the trace test instead of passing it
    model = resonant_model(LAM, OMEGA_PHI, N_max=1, kind="jaynes_cummings")
    with pytest.raises(PositivityError, match="trace drifted to nan"):
        _measure(model, [np.full((model.dim, model.dim), np.nan, dtype=complex)],
                 np.zeros(1))


@pytest.mark.parametrize("kind", ["jaynes_cummings", "full_rabi"])
@pytest.mark.parametrize("n_max", range(1, 13))
def test_stacked_measurement_matches_per_sample_loop(n_max, kind, monkeypatch):
    stacks = quantum_sim._stacks

    def recorded(*args):
        for stack in stacks(*args):
            states.extend(stack.copy())
            yield stack

    monkeypatch.setattr(quantum_sim, "_stacks", recorded)
    model = resonant_model(LAM, OMEGA_PHI, N_max=n_max, kind=kind)
    rho0 = np.outer(model.basis_state("plus", 1), model.basis_state("plus", 1))
    k = max(1, CHUNK_ENTRIES // model.dim ** 2)
    for nt in (k - 1, k, k + 1, 2 * k + 1):
        times = np.linspace(0.0, 2.0 / LAM, nt)
        states = []
        unitary = evolve(model, rho0, times)
        expected = _measure(model, _unitary_states(model, rho0, times), times)
        for got, want in zip((unitary.populations, unitary.purity), expected):
            assert np.array_equal(got, want)
        states = []
        dissipative = evolve(model, rho0, times, CHANNELS)
        expected = _measure(model, states, times)
        for got, want in zip((dissipative.populations, dissipative.purity), expected):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["jaynes_cummings", "full_rabi"])
@pytest.mark.parametrize("n_max", [1, 3, 6])
@pytest.mark.parametrize("channels", [
    LindbladChannels(spin_relaxation_rate=0.05 * LAM),
    LindbladChannels(pure_dephasing_rate=0.2 * LAM),
    LindbladChannels(phonon_decoherence_rate=0.05 * LAM),
    CHANNELS,
], ids=["relaxation", "dephasing", "phonon_loss", "all"])
def test_block_propagation_matches_dense_liouvillian(n_max, kind, channels):
    model = resonant_model(LAM, OMEGA_PHI, N_max=n_max, kind=kind)
    times = np.linspace(0.0, 2.0 / LAM, 150)
    rho0 = _mixed_state(model)
    got = _stacked_states(model, rho0, times, channels)
    want = np.array([rho.copy() for rho in _dense_states(model, rho0, times, channels)])
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("kind", ["jaynes_cummings", "full_rabi"])
def test_sectors_are_invariant(kind):
    model = resonant_model(LAM, OMEGA_PHI, N_max=4, kind=kind)
    plus_e, minus = quantum_sim._sectors(model)
    assert sorted(np.concatenate((plus_e, minus))) == list(range(model.dim))
    for op in [model.H] + quantum_sim._jump_operators(model, CHANNELS):
        assert not op[np.ix_(plus_e, minus)].any()
        assert not op[np.ix_(minus, plus_e)].any()


def test_block_that_starts_at_zero_stays_exactly_zero():
    model = resonant_model(LAM, OMEGA_PHI, N_max=3, kind="full_rabi")
    result = evolve(model, model.basis_state("e", 2), np.linspace(0.0, 2.0 / LAM, 300),
                    CHANNELS)
    assert not result.populations[:, model.block("minus")].any()
