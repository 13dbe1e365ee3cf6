import math

import numpy as np
import pytest

from levrot.nv_spin import (SpinConfig, MicrowaveConfig, ResonanceUnreachableError,
                            mixed_spectrum, dressed_spectrum, resonance_solve,
                            spin_operators_mixed_basis, hamiltonian_lab,
                            ed_gap, mixing_angle, S_X, S_Y, S_Z, TWO_PI)

D = 2.87e9
GAMMA = 28.024e9


def test_zero_field_limit():
    m = mixed_spectrum(SpinConfig(B=0.0))
    assert m.theta == 0.0
    assert m.omega_g == 0.0
    assert m.omega_d == pytest.approx(TWO_PI * D, rel=1e-15)
    assert m.omega_e == pytest.approx(TWO_PI * D, rel=1e-15)
    # |g> reduces to |0>
    np.testing.assert_allclose(np.abs(m.vectors[:, 0]), [0, 1, 0], atol=1e-15)


@pytest.mark.parametrize("B", [0.0, 1e-3, 0.03, 0.1, 0.2])
def test_closed_form_matches_diagonalization(B):
    m = mixed_spectrum(SpinConfig(B=B))
    evals, evecs = np.linalg.eigh(hamiltonian_lab(SpinConfig(B=B)))
    closed = np.sort([m.omega_g, m.omega_d, m.omega_e])
    np.testing.assert_allclose(closed, evals, rtol=0.0, atol=1e-12 * TWO_PI * D)
    # eigenvectors orthonormal and consistent with the numerical ones
    gram = m.vectors.conj().T @ m.vectors
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)
    for k, w in [(0, m.omega_g), (1, m.omega_d), (2, m.omega_e)]:
        v = m.vectors[:, k]
        np.testing.assert_allclose(hamiltonian_lab(SpinConfig(B=B)) @ v, w * v,
                                   atol=1e-3)  # rad/s residual on ~1e10 scale


def test_trace_identity_and_ordering():
    for B in (0.0, 0.01, 0.05, 0.15):
        m = mixed_spectrum(SpinConfig(B=B))
        assert m.omega_e + m.omega_g == pytest.approx(TWO_PI * D, rel=1e-14)
        assert m.omega_g <= m.omega_d <= m.omega_e
        # |d> has no |0> component
        assert abs(m.vectors[1, 1]) == 0.0


def test_reference_field_splitting():
    m = mixed_spectrum(SpinConfig(B=0.03))
    assert (m.omega_e - m.omega_d) / TWO_PI == pytest.approx(228.14e6, rel=1e-3)
    assert m.theta == pytest.approx(0.5 * math.atan(2 * GAMMA * 0.03 / D), rel=1e-14)


def test_one_mixing_angle_for_scalar_and_array_chains():
    # mixed_spectrum and the vectorised coupling maps read the same theta, bit
    # for bit; math.atan and np.arctan differ in the last bit at some fields
    fields = np.linspace(0.0, 0.1, 20001)
    thetas = mixing_angle(fields, D, GAMMA)
    assert thetas.shape == fields.shape
    assert [mixed_spectrum(SpinConfig(B=float(B), D=D, gamma=GAMMA)).theta
            for B in fields] == thetas.tolist()
    assert mixing_angle(0.03, D, GAMMA) == pytest.approx(
        0.5 * math.atan(2 * GAMMA * 0.03 / D), rel=1e-15)


def test_dressed_resonant_drive():
    m = mixed_spectrum(SpinConfig(B=0.03))
    d = dressed_spectrum(m, MicrowaveConfig(rabi_frequency=500e6, detuning=0.0))
    assert d.psi == pytest.approx(math.pi / 4, rel=1e-14)
    assert d.omega_plus == pytest.approx(math.pi * 500e6, rel=1e-14)
    assert d.omega_minus == pytest.approx(-math.pi * 500e6, rel=1e-14)
    assert d.splitting == pytest.approx(TWO_PI * 500e6, rel=1e-14)


def test_dressed_detuned_example():
    m = mixed_spectrum(SpinConfig(B=0.03))
    d = dressed_spectrum(m, MicrowaveConfig(rabi_frequency=500e6, detuning=100e6))
    assert d.splitting / TWO_PI == pytest.approx(509.9e6, rel=1e-3)
    assert d.psi == pytest.approx(0.5 * math.atan2(500.0, 100.0), rel=1e-12)
    assert d.psi == pytest.approx(0.6867, rel=1e-3)


def test_dressed_weak_drive_limits():
    m = mixed_spectrum(SpinConfig(B=0.03))
    # far below the transition (negative detuning): |+> keeps the |g> content
    d = dressed_spectrum(m, MicrowaveConfig(rabi_frequency=1e3, detuning=-50e6))
    assert d.psi == pytest.approx(math.pi / 2, abs=1e-4)
    assert abs(d.vectors[0, 0]) == pytest.approx(1.0, abs=1e-4)   # <g|+>
    # far above: |+> goes over to |d>
    d = dressed_spectrum(m, MicrowaveConfig(rabi_frequency=1e3, detuning=50e6))
    assert d.psi == pytest.approx(0.0, abs=1e-4)
    assert abs(d.vectors[1, 0]) == pytest.approx(1.0, abs=1e-4)   # <d|+>


def test_dressed_frame_energy():
    m = mixed_spectrum(SpinConfig(B=0.03))
    delta_hz = 25e6
    d = dressed_spectrum(m, MicrowaveConfig(rabi_frequency=500e6, detuning=delta_hz))
    expected = m.omega_e - m.omega_d - 0.5 * TWO_PI * delta_hz
    assert d.omega_e_prime == pytest.approx(expected, rel=1e-12)


def test_leakage_warning_for_strong_drive():
    m = mixed_spectrum(SpinConfig(B=0.03))
    with pytest.warns(UserWarning):
        dressed_spectrum(m, MicrowaveConfig(rabi_frequency=1e9, detuning=0.0))


def test_resonance_field_solution():
    sol = resonance_solve(SpinConfig(B=0.0), rabi_frequency=500e6,
                          omega_phi=TWO_PI * 5e6, solve_for="field")
    assert sol.B == pytest.approx(31.85e-3, rel=1e-3)
    assert sol.psi == pytest.approx(math.pi / 4, rel=1e-12)
    # closing the loop: the dressed energies satisfy the resonance condition
    residual = sol.dressed.omega_e_prime - sol.dressed.omega_plus - TWO_PI * 5e6
    assert abs(residual) / TWO_PI <= 1.0  # Hz


def test_resonance_detuning_solution_and_feedback():
    cfg = SpinConfig(B=0.05)
    sol = resonance_solve(cfg, rabi_frequency=250e6, omega_phi=TWO_PI * 5e6,
                          solve_for="detuning")
    assert sol.detuning > 0.0
    assert sol.psi < math.pi / 4
    residual = sol.dressed.omega_e_prime - sol.dressed.omega_plus - TWO_PI * 5e6
    assert abs(residual) / TWO_PI <= 1.0


def test_resonance_special_case_zero_detuning():
    # choose B so that omega_e - omega_d = omega_phi + Omega_R/2 exactly
    rabi, f_phi = 400e6, 5e6
    target = f_phi + rabi / 2
    x = math.sqrt((1 + 2 * target / D) ** 2 - 1)
    B = x * D / (2 * GAMMA)
    sol = resonance_solve(SpinConfig(B=B), rabi_frequency=rabi,
                          omega_phi=TWO_PI * f_phi, solve_for="detuning")
    assert sol.detuning == pytest.approx(0.0, abs=TWO_PI * 1.0)
    assert sol.psi == pytest.approx(math.pi / 4, abs=1e-8)


def test_resonance_unreachable():
    with pytest.raises(ResonanceUnreachableError):
        resonance_solve(SpinConfig(B=1e-4), rabi_frequency=500e6,
                        omega_phi=TWO_PI * 50e6, solve_for="detuning")
    with pytest.raises(ResonanceUnreachableError):
        resonance_solve(SpinConfig(B=0.0), rabi_frequency=500e6,
                        omega_phi=TWO_PI * 5e6, solve_for="field", B_max=1e-4)


def _mp_gap(mp, B):
    """omega_e - omega_d in the textbook form pi D (sqrt(1 + x^2) - 1), at mp precision."""
    x = 2 * mp.mpf(GAMMA) * mp.mpf(B) / D
    return mp.pi * D * (mp.sqrt(1 + x * x) - 1)


def test_ed_gap_against_mpmath_down_to_weak_fields():
    mp = pytest.importorskip("mpmath")
    B = np.concatenate([np.geomspace(1e-7, 1.0, 120), [0.03]])
    gap = ed_gap(B, D, GAMMA)
    with mp.workdps(40):
        for b, g in zip(B, gap):
            ref = _mp_gap(mp, b)
            assert abs(mp.mpf(g) - ref) <= 1e-15 * ref
    assert float(ed_gap(0.03, D, GAMMA)) == gap[-1]  # scalar and array agree


@pytest.mark.filterwarnings("ignore::UserWarning")  # strong drives by design
def test_field_closed_form_against_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20171)
    rabis = 10.0 ** rng.uniform(6.0, 9.0, 240)
    omega_phis = TWO_PI * 10.0 ** rng.uniform(4.0, 8.0, 240)
    with mp.workdps(40):
        for rabi, omega_phi in zip(rabis.tolist(), omega_phis.tolist()):
            B = resonance_solve(SpinConfig(B=0.0), rabi, omega_phi,
                                solve_for="field").B
            # root of the defining relation, not of the inverted closed form
            target = mp.mpf(omega_phi) + mp.pi * mp.mpf(rabi)
            ref = mp.findroot(lambda b: _mp_gap(mp, b) - target, mp.mpf(B))
            assert abs(mp.mpf(B) - ref) <= 1e-15 * ref


def test_field_mode_B_max_edge():
    args = (SpinConfig(B=0.0), 500e6, TWO_PI * 5e6)
    B = resonance_solve(*args, solve_for="field").B
    assert resonance_solve(*args, solve_for="field", B_max=B * (1 + 1e-12)).B == B
    with pytest.raises(ResonanceUnreachableError,
                       match=r"no field below .* T reaches omega_e - omega_d = "
                             r"omega_phi \+ Omega_R/2 = 2\*pi\*2\.5500e\+08 Hz"):
        resonance_solve(*args, solve_for="field", B_max=B * (1 - 1e-12))


@pytest.mark.parametrize("solve_for", ["detuning", "field"])
@pytest.mark.parametrize("rabi", [0.0, -500e6])
def test_resonance_rejects_non_positive_rabi(solve_for, rabi):
    # B = 0.1 mT would also make the detuning mode unreachable: the Rabi check comes first
    with pytest.raises(ValueError, match="^Rabi frequency must be positive$"):
        resonance_solve(SpinConfig(B=1e-4), rabi, TWO_PI * 5e6, solve_for=solve_for)


@pytest.mark.filterwarnings("ignore::UserWarning")  # large detunings by design
def test_resonance_psi_decreases_with_field():
    rabi = 500e6
    sol0 = resonance_solve(SpinConfig(B=0.0), rabi_frequency=rabi,
                           omega_phi=TWO_PI * 5e6, solve_for="field")
    psis = []
    for B in np.linspace(sol0.B * 1.01, 0.1, 12):
        psis.append(resonance_solve(SpinConfig(B=B), rabi_frequency=rabi,
                                    omega_phi=TWO_PI * 5e6,
                                    solve_for="detuning").psi)
    assert all(a > b for a, b in zip(psis, psis[1:]))
    assert all(p < math.pi / 4 for p in psis)


def test_spin_operator_matrix_elements():
    sx, sy, sz = spin_operators_mixed_basis(0.0)
    assert abs(sy[1, 0]) == pytest.approx(1.0, rel=1e-14)     # <d|S_y|g>
    sx, sy, sz = spin_operators_mixed_basis(math.pi / 4)
    assert abs(sy[1, 0]) == pytest.approx(math.cos(math.pi / 4), rel=1e-14)
    assert abs(sy[2, 1]) == pytest.approx(math.sin(math.pi / 4), rel=1e-14)


def test_spin_operators_against_numerical_eigenvectors():
    cfg = SpinConfig(B=0.04)
    m = mixed_spectrum(cfg)
    U = m.vectors
    sx, sy, sz = spin_operators_mixed_basis(m.theta)
    np.testing.assert_allclose(sz, U.conj().T @ S_Z @ U, atol=1e-12)
    np.testing.assert_allclose(sy, U.conj().T @ S_Y @ U, atol=1e-12)
    np.testing.assert_allclose(sx, U.conj().T @ S_X @ U, atol=1e-12)
    # S_z couples g-d with sin(theta) and d-e with cos(theta)
    assert abs(sz[1, 0]) == pytest.approx(math.sin(m.theta), abs=1e-12)
    assert abs(sz[2, 1]) == pytest.approx(math.cos(m.theta), abs=1e-12)
    assert abs(sz[2, 0]) <= 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.2, math.pi / 4, 0.7])
def test_commutation_relations_in_mixed_basis(theta):
    sx, sy, sz = spin_operators_mixed_basis(theta)
    np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
    np.testing.assert_allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-12)
    np.testing.assert_allclose(sz @ sx - sx @ sz, 1j * sy, atol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        SpinConfig(B=-0.01)
    with pytest.raises(ValueError):
        MicrowaveConfig(rabi_frequency=0.0, detuning=0.0)
    with pytest.raises(TypeError):
        MicrowaveConfig(rabi_frequency=1e6)
