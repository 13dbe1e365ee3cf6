import math
import re

import numpy as np
import pytest

from levrot import quantum_sim
from levrot.coupling import DecoherenceBudget
from levrot.nv_spin import TWO_PI
from levrot.quantum_sim import (QuantumModel, LindbladChannels, EvolutionResult,
                                PositivityError, build_model,
                                resonant_model, evolve, exchange_frequency,
                                thermal_initial_state, SPIN_LABELS)
from levrot.spectral import NoLineError

LAM = 57e3                 # Hz, reference exchange rate
OMEGA_PHI = TWO_PI * 5e6   # rad/s


def _states(model, rho0, times, channels=LindbladChannels()):
    """Every density matrix that evolve checks, from its own propagation."""
    return np.concatenate([stack.copy()
                           for stack in quantum_sim._stacks(model, rho0, times, channels)])


def test_zero_coupling_gives_diagonal_hamiltonian():
    model = resonant_model(0.0, OMEGA_PHI, N_max=3)
    assert np.count_nonzero(model.H - np.diag(np.diag(model.H))) == 0


def test_jc_coupling_blocks():
    model = resonant_model(LAM, OMEGA_PHI, N_max=4)
    g = TWO_PI * LAM
    assert model.H[model.index("e", 0), model.index("plus", 1)] \
        == pytest.approx(g, rel=1e-14)
    assert model.H[model.index("e", 3), model.index("plus", 4)] \
        == pytest.approx(g * 2.0, rel=1e-14)  # sqrt(4) ladder factor
    # excitation-conserving only: no a^dag |e><+| term
    assert model.H[model.index("e", 1), model.index("plus", 0)] == 0.0


def test_full_rabi_keeps_counter_rotating_terms():
    model = resonant_model(LAM, OMEGA_PHI, N_max=2, kind="full_rabi")
    g = TWO_PI * LAM
    assert model.H[model.index("e", 1), model.index("plus", 0)] \
        == pytest.approx(g, rel=1e-14)
    np.testing.assert_allclose(model.H, model.H.conj().T, atol=1e-9)


def test_hamiltonian_invariants():
    model = resonant_model(LAM, OMEGA_PHI, N_max=6)
    H = model.H
    np.testing.assert_allclose(H, H.conj().T, atol=1e-12 * np.abs(H).max())
    N_ex = model.excitation_operator()
    comm = H @ N_ex - N_ex @ H
    assert np.max(np.abs(comm)) <= 1e-12 * np.abs(H).max()
    # |-> never couples
    for n in range(model.N_max + 1):
        row = model.H[model.index("minus", n)].copy()
        row[model.index("minus", n)] = 0.0
        assert np.max(np.abs(row)) == 0.0


def test_build_model_validation():
    with pytest.raises(ValueError):
        resonant_model(LAM, OMEGA_PHI, N_max=0)
    with pytest.raises(ValueError):
        resonant_model(LAM, OMEGA_PHI, kind="bogus")


def test_resonant_rabi_transfer_analytic():
    model = resonant_model(LAM, OMEGA_PHI, N_max=2)
    t_transfer = 1.0 / (4.0 * LAM)
    times = np.linspace(0.0, 2.0 * t_transfer, 801)
    result = evolve(model, model.basis_state("plus", 1), times)
    expected = np.sin(TWO_PI * LAM * times) ** 2
    np.testing.assert_allclose(result.spin_population("e"), expected, atol=1e-9)
    # full transfer at exactly 1/(4 lambda)
    k = int(np.argmin(np.abs(times - t_transfer)))
    assert result.spin_population("e")[k] >= 0.999


def test_transfer_time_for_reference_rate():
    # 57 kHz -> complete population transfer near 4.39 microseconds
    assert 1.0 / (4.0 * LAM) == pytest.approx(4.39e-6, rel=1e-3)


def test_unitary_conservation_laws():
    model = resonant_model(LAM, OMEGA_PHI, N_max=4)
    times = np.linspace(0.0, 3.0 / LAM, 600)
    psi0 = model.basis_state("plus", 2)
    result = evolve(model, psi0, times)
    assert np.max(np.abs(result.populations.sum(axis=1) - 1.0)) <= 1e-9
    assert np.max(np.abs(result.purity - 1.0)) <= 1e-9
    states = _states(model, np.outer(psi0, psi0.conj()), times)
    energy = np.trace(model.H @ states, axis1=1, axis2=2).real
    assert np.max(np.abs(energy - energy[0])) <= 1e-9 * abs(energy[0])


def test_jc_conserves_excitation_number():
    model = resonant_model(LAM, OMEGA_PHI, N_max=4)
    times = np.linspace(0.0, 2.0 / LAM, 400)
    result = evolve(model, model.basis_state("plus", 3), times)
    # N_ex is diagonal, so tr(N_ex rho) reads the populations alone
    values = result.populations @ np.diag(model.excitation_operator())
    np.testing.assert_allclose(values, values[0], rtol=0.0, atol=1e-9 * values[0])


def test_truncation_insensitivity():
    times = np.linspace(0.0, 2.0 / LAM, 300)
    pops = []
    for n_max in (4, 6):
        model = resonant_model(LAM, OMEGA_PHI, N_max=n_max)
        result = evolve(model, model.basis_state("plus", 2), times)
        pops.append(result.spin_population("e"))
    np.testing.assert_allclose(pops[0], pops[1], atol=1e-6)


def test_sqrt_n_scaling_of_exchange():
    times1 = np.linspace(0.0, 4.0 / LAM, 4000)
    model = resonant_model(LAM, OMEGA_PHI, N_max=5)
    r1 = evolve(model, model.basis_state("plus", 1), times1)
    f1 = exchange_frequency(r1)
    r4 = evolve(model, model.basis_state("plus", 4), times1)
    f4 = exchange_frequency(r4)
    assert f1 == pytest.approx(2.0 * LAM, rel=1e-3)
    assert f4 / f1 == pytest.approx(2.0, rel=0.01)


def test_full_rabi_agrees_with_jc_in_weak_coupling():
    lam = 1e-3 * OMEGA_PHI / TWO_PI
    times = np.linspace(0.0, 1.5 / lam, 1500)
    pops = {}
    for kind in ("jaynes_cummings", "full_rabi"):
        model = resonant_model(lam, OMEGA_PHI, N_max=3, kind=kind)
        result = evolve(model, model.basis_state("plus", 1), times)
        pops[kind] = result.spin_population("e")
    gap = np.max(np.abs(pops["jaynes_cummings"] - pops["full_rabi"]))
    assert gap <= 1e-3


def test_exchange_frequency_synthetic():
    times = np.linspace(0.0, 5e-5, 4096)
    populations = np.zeros((times.size, 6))
    populations[:, 4] = np.sin(TWO_PI * LAM * times) ** 2   # "e" block, n=0
    populations[:, 0] = 1.0 - populations[:, 4]
    model = resonant_model(LAM, OMEGA_PHI, N_max=1)
    result = EvolutionResult(times=times, populations=populations,
                             purity=np.ones(times.size), model=model)
    assert exchange_frequency(result) == pytest.approx(2 * LAM, rel=1e-3)


def test_exchange_frequency_needs_oscillation():
    times = np.linspace(0.0, 1e-5, 256)
    populations = np.zeros((times.size, 6))
    populations[:, 0] = 1.0
    model = resonant_model(LAM, OMEGA_PHI, N_max=1)
    result = EvolutionResult(times=times, populations=populations,
                             purity=np.ones(times.size), model=model)
    with pytest.raises(NoLineError):
        exchange_frequency(result)


def test_strong_dephasing_overdamps_oscillation():
    model = resonant_model(LAM, OMEGA_PHI, N_max=1)
    channels = LindbladChannels(pure_dephasing_rate=10.0 * TWO_PI * LAM)
    t_transfer = 1.0 / (4.0 * LAM)
    times = np.linspace(0.0, 4.0 * t_transfer, 400)
    result = evolve(model, model.basis_state("plus", 1), times, channels)
    p_e = result.spin_population("e")
    # where the coherent run reaches unity, the overdamped one stays below 1/e
    k = int(np.argmin(np.abs(times - t_transfer)))
    assert p_e[k] < 1.0 / math.e
    # and the transfer is incoherent: monotone rise toward 1/2, no oscillation
    assert np.all(np.diff(p_e) > -1e-12)
    assert p_e[-1] < 0.5


def test_coherence_decays_at_composite_rate():
    budget = DecoherenceBudget(T1=40e-6, T2_star=60e-6)
    channels = LindbladChannels.from_budget(budget)
    # detuned ladder so the coherence just precesses while it decays
    model = resonant_model(0.0, OMEGA_PHI, N_max=1)
    rho0 = np.zeros((model.dim, model.dim), dtype=complex)
    ip, ie = model.index("plus", 0), model.index("e", 0)
    rho0[ip, ip] = rho0[ie, ie] = 0.5
    rho0[ip, ie] = rho0[ie, ip] = 0.5
    times = np.linspace(0.0, 2.0 * budget.T2, 400)
    evolve(model, rho0, times, channels)  # every state passes the checks
    states = _states(model, rho0, times, channels)
    plus, excited = model.block("plus"), model.block("e")
    envelope = np.abs(np.trace(states[:, plus, excited], axis1=1, axis2=2))
    fitted_rate = -np.polyfit(times, np.log(envelope), 1)[0]
    assert fitted_rate == pytest.approx(1.0 / budget.T2, rel=0.02)


def test_relaxation_moves_population_down():
    model = resonant_model(0.0, OMEGA_PHI, N_max=1)
    channels = LindbladChannels(spin_relaxation_rate=1.0 / 10e-6)
    times = np.linspace(0.0, 50e-6, 200)
    result = evolve(model, model.basis_state("e", 0), times, channels)
    assert result.spin_population("e")[-1] < 1e-2
    assert result.spin_population("plus")[-1] > 0.99


def test_phonon_loss_drains_fock_ladder():
    model = resonant_model(0.0, OMEGA_PHI, N_max=3)
    channels = LindbladChannels(phonon_decoherence_rate=1e6)
    times = np.linspace(0.0, 5e-6, 200)
    result = evolve(model, model.basis_state("plus", 3), times, channels)
    n_mean = sum(n * result.populations[-1, model.index("plus", n)] for n in range(4))
    assert n_mean < 3.0 * math.exp(-5.0) * 1.5


def test_thermal_initial_state():
    model = resonant_model(LAM, OMEGA_PHI, N_max=6)
    rho = thermal_initial_state(model, "plus", mean_occupation=0.5)
    assert float(np.trace(rho).real) == pytest.approx(1.0, rel=1e-14)
    weights = [rho[model.index("plus", n), model.index("plus", n)].real
               for n in range(7)]
    assert all(a > b for a, b in zip(weights, weights[1:]))
    result = evolve(model, rho, np.linspace(0.0, 1.0 / LAM, 100))
    assert np.max(np.abs(result.populations.sum(axis=1) - 1.0)) <= 1e-9


def test_evolve_input_validation():
    model = resonant_model(LAM, OMEGA_PHI, N_max=1)
    good = model.basis_state("plus", 0)
    with pytest.raises(ValueError):
        evolve(model, good, np.array([0.0]))
    with pytest.raises(ValueError):
        evolve(model, good, np.array([0.0, 2.0, 3.0]))  # non-uniform
    with pytest.raises(ValueError):
        evolve(model, 2.0 * good, np.linspace(0, 1e-6, 10))
    with pytest.raises(ValueError):
        model.basis_state("plus", 5)


def test_spin_labels_cover_basis():
    model = resonant_model(LAM, OMEGA_PHI, N_max=2)
    assert model.dim == 9
    assert [model.index(s, 0) for s in SPIN_LABELS] == [0, 3, 6]


# ---------------------------------------------------------------------------
# PositivityError: the first sample that fails a check, in time order
# ---------------------------------------------------------------------------

DISSIPATIVE = LindbladChannels(spin_relaxation_rate=0.03 * LAM,
                               pure_dephasing_rate=0.1 * LAM)


@pytest.mark.parametrize("channels", [LindbladChannels(), DISSIPATIVE],
                         ids=["unitary", "dissipative"])
def test_initial_state_with_negative_eigenvalue_raises(channels):
    model = resonant_model(LAM, OMEGA_PHI, N_max=2)
    rho0 = np.zeros((model.dim, model.dim), dtype=complex)
    rho0[model.index("plus", 0), model.index("plus", 0)] = 1.5
    rho0[model.index("e", 0), model.index("e", 0)] = -0.5
    with pytest.raises(PositivityError, match=r"^negative eigenvalue -5\.00e-01$"):
        evolve(model, rho0, np.linspace(0.0, 1.0 / LAM, 50), channels)


@pytest.mark.parametrize("channels", [LindbladChannels(), DISSIPATIVE],
                         ids=["unitary", "dissipative"])
def test_non_hermitian_initial_state_raises(channels):
    model = resonant_model(LAM, OMEGA_PHI, N_max=2)
    ip, ie = model.index("plus", 1), model.index("e", 0)
    rho0 = np.zeros((model.dim, model.dim), dtype=complex)
    rho0[ip, ip] = 1.0
    rho0[ip, ie] = 0.1  # without its mirror image
    with pytest.raises(PositivityError, match=r"^hermiticity violated by 1\.00e-01$"):
        evolve(model, rho0, np.linspace(0.0, 1.0 / LAM, 50), channels)


def test_trace_losing_propagator_raises_at_first_leaky_sample(monkeypatch):
    model = resonant_model(LAM, OMEGA_PHI, N_max=2)
    k = quantum_sim.CHUNK_ENTRIES // model.dim ** 2
    dt, first_bad = 1e-6, k + 40  # past the first stack
    # exp(-gamma t) falls below 1 - CHECK_TOL halfway between the samples
    gamma = -math.log1p(-quantum_sim.CHECK_TOL) / ((first_bad - 0.5) * dt)
    liouvillian = quantum_sim._liouvillian

    def leaky(model, ch, rows, cols):
        L = liouvillian(model, ch, rows, cols)
        return L - gamma * np.eye(L.shape[0])

    monkeypatch.setattr(quantum_sim, "_liouvillian", leaky)
    times = dt * np.arange(3 * k)
    with pytest.raises(PositivityError, match=r"^trace drifted to 0\.99999999\d* at "
                       + re.escape(f"t={times[first_bad]:.3e}") + "$"):
        evolve(model, model.basis_state("plus", 1), times, DISSIPATIVE)


def _trace_loss(rho):
    return (1.0 - 1e-6) * rho


def _hermiticity_loss(rho):
    bad = rho.copy()
    bad[0, 1] += 1e-6
    return bad


def _negative_eigenvalue(rho):
    bad = rho.copy()  # |-, 0> is empty in these runs
    bad[0, 0] += 0.01
    bad[3, 3] -= 0.01
    return bad


K = quantum_sim.CHUNK_ENTRIES // 81  # samples per stack at N_max 2
TRACE = r"^trace drifted to 0\.99999\d* at t={t}$"


@pytest.mark.parametrize("faults, message", [
    ({K + 3: _negative_eigenvalue, K + 4: _trace_loss}, r"^negative eigenvalue -1\.00e-02$"),
    ({K + 3: lambda rho: _trace_loss(_negative_eigenvalue(rho))}, TRACE),
    ({K + 3: _hermiticity_loss, K + 4: _trace_loss}, r"^hermiticity violated by 1\.00e-06$"),
    ({K + 3: _trace_loss, K + 4: _hermiticity_loss}, TRACE),
    ({K + 3: lambda rho: _trace_loss(_hermiticity_loss(rho))}, TRACE),
    ({K + 3: lambda rho: _hermiticity_loss(_negative_eigenvalue(rho))},
     r"^hermiticity violated by 1\.00e-06$"),
    ({K - 1: _negative_eigenvalue, K: _trace_loss}, r"^negative eigenvalue -1\.00e-02$"),
    ({K - 1: _hermiticity_loss, K: _trace_loss}, r"^hermiticity violated by 1\.00e-06$"),
    ({2: _negative_eigenvalue, K + 3: _trace_loss}, r"^negative eigenvalue -1\.00e-02$"),
    ({K + 3: _trace_loss, 2 * K + 1: _negative_eigenvalue}, TRACE),
], ids=["negative-then-trace", "trace-beats-negative", "hermiticity-then-trace",
        "trace-then-hermiticity", "trace-beats-hermiticity", "hermiticity-beats-negative",
        "across-stacks-negative", "across-stacks-hermiticity", "first-stack-wins",
        "second-stack-wins"])
@pytest.mark.parametrize("channels", [LindbladChannels(), DISSIPATIVE],
                         ids=["unitary", "dissipative"])
def test_first_failing_sample_raises(monkeypatch, channels, faults, message):
    stacks = quantum_sim._stacks

    def faulty(model, rho0, times, ch):
        i = 0
        for stack in stacks(model, rho0, times, ch):
            stack = stack.copy()
            for j, fault in faults.items():
                if i <= j < i + len(stack):
                    stack[j - i] = fault(stack[j - i])
            i += len(stack)
            yield stack

    monkeypatch.setattr(quantum_sim, "_stacks", faulty)
    model = resonant_model(LAM, OMEGA_PHI, N_max=2)
    times = 1e-7 * np.arange(3 * K)
    first = min(faults)
    with pytest.raises(PositivityError,
                       match=message.format(t=re.escape(f"{times[first]:.3e}"))):
        evolve(model, model.basis_state("plus", 1), times, channels)
