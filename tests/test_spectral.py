"""The matrix-pencil line estimator against exact references that do not use it:
the damped Mathieu Floquet line, eigenvalue gaps of H and eigenvalues of the
dense Liouvillian."""

import math

import numpy as np
import pytest

from levrot.quantum_sim import (EXCITED, LindbladChannels, evolve,
                                exchange_frequency, resonant_model)
from levrot.rotor_dynamics import RotorState, _linear_trajectory, extract_secular_frequency
from levrot.spectral import NoLineError, dominant_pole
from levrot.trap import stability_chart
from test_evolve_reference import _dense_liouvillian

TWO_PI = 2.0 * math.pi
W50 = TWO_PI * 50e6
LAM = 57e3                 # Hz
OMEGA_PHI = TWO_PI * 5e6   # rad/s


def test_exact_poles_of_a_sum_of_damped_lines():
    dt = 1e-3
    t = np.arange(3000) * dt
    y = (0.2 + 1.0 * np.exp(-0.5 * t) * np.cos(TWO_PI * 7.3 * t + 0.4)
         + 0.3 * np.exp(-2.0 * t) * np.cos(TWO_PI * 61.0 * t))
    pole = dominant_pole(y, dt, 1.0, 100.0)
    assert pole.frequency == pytest.approx(7.3, rel=1e-12)
    assert pole.damping == pytest.approx(0.5, rel=1e-9)
    assert pole.order == 5 and pole.residual < 1e-12
    # the weaker line wins where the stronger one is out of band
    pole = dominant_pole(y, dt, 10.0, 100.0)
    assert pole.frequency == pytest.approx(61.0, rel=1e-12)
    assert pole.damping == pytest.approx(2.0, rel=1e-9)


def test_no_line_rules():
    t = np.arange(2048) * 1e-3
    with pytest.raises(NoLineError, match="no pole between"):
        dominant_pole(np.zeros(t.size), 1e-3, 1.0, 500.0)
    with pytest.raises(NoLineError, match="no pole between"):
        dominant_pole(np.full(t.size, 0.3), 1e-3, 1.0, 500.0)
    line = np.cos(TWO_PI * 7.3 * t)
    with pytest.raises(NoLineError, match="no pole between"):
        dominant_pole(line, 1e-3, 10.0, 500.0)
    # a chirp is no sum of a few lines: the model misses more than any line holds
    chirp = np.cos(TWO_PI * (20.0 * t + 60.0 * t * t))
    with pytest.raises(NoLineError, match="not above the residual"):
        dominant_pole(chirp, 1e-3, 1.0, 500.0)
    # noise has no line; a line in it is found
    noise = np.random.default_rng(5).standard_normal(t.size)
    with pytest.raises(NoLineError):
        dominant_pole(noise, 1e-3, 1.0, 500.0)
    pole = dominant_pole(line + 0.01 * noise, 1e-3, 1.0, 500.0)
    assert pole.frequency == pytest.approx(7.3, rel=1e-3)
    assert pole.residual == pytest.approx(0.01, rel=0.2)


def floquet_line(a, q, d):
    """Quasi-frequency (rad/s) of u'' + 2d u' + (a - 2q cos 2tau) u = 0: with
    u = exp(-d tau) w, w solves the undamped equation at (a - d^2, q)."""
    _, trace = stability_chart(a - d * d, q)
    return 0.5 * W50 * math.acos(float(trace) / 2.0) / math.pi


@pytest.mark.parametrize("a, q, gamma", [(0.0, 0.2828, 0.0), (0.0, 0.2828, 2e6),
                                         (-0.05, 0.5, 0.0), (0.02, 0.4, 5e6)])
def test_linear_trajectory_line_is_the_floquet_line(a, q, gamma):
    init = RotorState(phi1=0.01, phi2=0.0, dphi1=0.0, dphi2=0.0)
    traj = _linear_trajectory(a, q, W50, gamma, init, 400.2 * TWO_PI / W50, 4096)
    assert not traj.unstable
    want = floquet_line(a, q, gamma / W50)
    assert extract_secular_frequency(traj) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("spin, n", [("plus", 1), ("plus", 3), ("plus", 6), ("e", 0),
                                     ("e", 4)])
def test_unitary_jc_exchange_is_two_lambda_sqrt_n(spin, n):
    model = resonant_model(LAM, OMEGA_PHI, N_max=6)
    times = np.linspace(0.0, 3.0 / LAM, 1200)
    top = n if spin == "plus" else n + 1  # |+, n> <-> |e, n-1>; |e, n> <-> |+, n+1>
    f = exchange_frequency(evolve(model, model.basis_state(spin, n), times))
    assert f == pytest.approx(2.0 * LAM * math.sqrt(top), rel=1e-9)


def _strongest_in_band(freqs, weights, times):
    """Frequency of the largest weight with 1/duration <= f <= Nyquist."""
    dt = times[1] - times[0]
    band = (freqs >= 1.0 / (times[-1] - times[0])) & (freqs <= 0.5 / dt)
    return freqs[band][np.argmax(weights[band])]


def _e_weights(model):
    """1 on the |e> ladder, 0 elsewhere."""
    weights = np.zeros(model.dim)
    weights[model.block(EXCITED)] = 1.0
    return weights


@pytest.mark.parametrize("lam, n", [(57e3, 1), (57e3, 3), (300e3, 1), (300e3, 2)])
def test_full_rabi_exchange_is_an_eigenvalue_gap(lam, n):
    model = resonant_model(lam, OMEGA_PHI, N_max=5, kind="full_rabi")
    times = np.linspace(0.0, 3.0 / lam, 1500)
    psi0 = model.basis_state("plus", n)
    # P_e(t) = sum_jk c_jk exp(-i (E_j - E_k) t)
    E, V = np.linalg.eigh(model.H)
    e = _e_weights(model) > 0.0
    amp = V[e] @ np.diag(V.conj().T @ psi0)
    c = np.abs(np.einsum("ej,ek->jk", amp, amp.conj()))
    gaps = (E[:, None] - E[None, :]) / TWO_PI
    want = _strongest_in_band(gaps.ravel(), c.ravel(), times)
    f = exchange_frequency(evolve(model, psi0, times))
    assert f == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("kind, N_max, channels", [
    ("jaynes_cummings", 3, LindbladChannels(spin_relaxation_rate=0.03 * LAM,
                                            pure_dephasing_rate=0.1 * LAM)),
    ("jaynes_cummings", 4, LindbladChannels(phonon_decoherence_rate=0.05 * LAM)),
    ("full_rabi", 3, LindbladChannels(spin_relaxation_rate=0.03 * LAM,
                                      pure_dephasing_rate=0.1 * LAM,
                                      phonon_decoherence_rate=0.02 * LAM)),
])
def test_dissipative_exchange_is_a_liouvillian_eigenvalue(kind, N_max, channels):
    model = resonant_model(LAM, OMEGA_PHI, N_max=N_max, kind=kind)
    times = np.linspace(0.0, 4.0 / LAM, 1000)
    rho0 = np.outer(model.basis_state("plus", 1), model.basis_state("plus", 1))
    # P_e(t) = sum_k w_k exp(lambda_k t) over the eigenvalues of the dense L;
    # a mode's strength is |w_k| times its RMS envelope over the record
    lam, R = np.linalg.eig(_dense_liouvillian(model, channels))
    w = (np.diag(_e_weights(model)).reshape(-1) @ R
         * np.linalg.solve(R, rho0.reshape(-1)))
    envelope = np.sqrt(np.mean(np.exp(2.0 * np.outer(lam.real, times)), axis=1))
    want = _strongest_in_band(lam.imag / TWO_PI, np.abs(w) * envelope, times)
    f = exchange_frequency(evolve(model, rho0, times, channels))
    assert f == pytest.approx(want, rel=1e-8)
    with pytest.raises(NoLineError):
        exchange_frequency(evolve(model, model.basis_state("minus", 0), times, channels))
