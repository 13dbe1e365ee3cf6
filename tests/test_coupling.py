import math

import numpy as np
import pytest

from levrot.constants import DEFAULT_CONSTANTS
from levrot.coupling import (DecoherenceBudget, rotational_mode, dressed_coupling,
                             strong_coupling_assessment, coupling_map_rows,
                             resonance_curve, coupling_vs_rabi, bare_rate_vs_field)
from levrot.geometry import (ProlateEllipsoid, OblateEllipsoid, Composite,
                             SurfaceDensity, TotalCharge, build_body)
from levrot.nv_spin import (SpinConfig, MicrowaveConfig, mixed_spectrum,
                            dressed_spectrum, resonance_solve, TWO_PI)

C = DEFAULT_CONSTANTS
E = C.elementary_charge
OMEGA_PHI_20 = TWO_PI * 5e6
OMEGA_PHI_80 = TWO_PI * 0.5e6


@pytest.fixture(scope="module")
def prolate20():
    return build_body(ProlateEllipsoid(a=50e-9, b=20e-9), TotalCharge(366 * E))


@pytest.fixture(scope="module")
def prolate80():
    return build_body(ProlateEllipsoid(a=200e-9, b=80e-9), TotalCharge(366 * E))


def resonant_chain(body, omega_phi, rabi=500e6):
    sol = resonance_solve(SpinConfig.from_constants(0.0), rabi, omega_phi,
                          solve_for="field")
    mode = rotational_mode(body, omega_phi)
    return mode, sol


def pinned_chain(body, omega_phi, B, rabi=500e6):
    """Resonant-microwave (zero detuning) coupling at a pinned field."""
    mode = rotational_mode(body, omega_phi)
    mixed = mixed_spectrum(SpinConfig.from_constants(B))
    dressed = dressed_spectrum(mixed, MicrowaveConfig(rabi_frequency=rabi,
                                                      detuning=0.0))
    return dressed_coupling(mode, mixed, dressed)


def test_zero_point_scales(prolate20, prolate80):
    mode = rotational_mode(prolate20, OMEGA_PHI_20)
    assert mode.phi0 == pytest.approx(9.91e-5, rel=2e-3)
    assert mode.phi0 * mode.L0 == pytest.approx(C.hbar / 2, rel=1e-14)

    mode80 = rotational_mode(prolate80, OMEGA_PHI_80)
    assert mode80.phi0 == pytest.approx(9.80e-6, rel=2e-3)
    assert mode80.phi0 * mode80.L0 == pytest.approx(C.hbar / 2, rel=1e-14)


def test_zero_point_frequency_scaling(prolate20):
    m1 = rotational_mode(prolate20, OMEGA_PHI_20)
    m4 = rotational_mode(prolate20, 4 * OMEGA_PHI_20)
    assert m4.phi0 == pytest.approx(0.5 * m1.phi0, rel=1e-14)
    with pytest.raises(ValueError):
        rotational_mode(prolate20, 0.0)


def test_zero_field_gives_zero_coupling(prolate20):
    report = pinned_chain(prolate20, OMEGA_PHI_20, B=0.0)
    assert report.lambda_phi == 0.0
    assert report.lambda_tilde == 0.0


def test_reference_rates_at_thirty_millitesla(prolate20, prolate80):
    # resonant microwave, field at the quoted 30 mT working point
    report = pinned_chain(prolate20, OMEGA_PHI_20, B=0.030)
    assert report.lambda_phi == pytest.approx(83.3e3, rel=2e-3)
    assert report.lambda_tilde == pytest.approx(56.9e3, rel=2e-3)
    assert report.psi == pytest.approx(math.pi / 4, rel=1e-12)

    report80 = pinned_chain(prolate80, OMEGA_PHI_80, B=0.030)
    assert report80.lambda_tilde == pytest.approx(5.62e3, rel=2e-3)


def test_rate_at_solved_resonance(prolate20):
    mode, sol = resonant_chain(prolate20, OMEGA_PHI_20)
    report = dressed_coupling(mode, sol.mixed, sol.dressed)
    assert report.lambda_tilde == pytest.approx(60.17e3, rel=2e-3)
    assert report.lambda_tilde <= report.lambda_phi
    assert report.rwa_ok


def test_dressed_rate_identity(prolate20):
    mode, sol = resonant_chain(prolate20, OMEGA_PHI_20)
    report = dressed_coupling(mode, sol.mixed, sol.dressed)
    expected = (C.gamma_nv * sol.B * mode.phi0
                * math.cos(0.5 * math.atan(2 * C.gamma_nv * sol.B
                                           / C.zero_field_splitting_D))
                * math.sin(sol.psi))
    assert report.lambda_tilde == pytest.approx(expected, rel=1e-12)


def test_strong_coupling_examples():
    verdict = strong_coupling_assessment(57e3, DecoherenceBudget(
        T1=1e6, T2_star=150e-6))
    assert verdict.strong
    assert verdict.ratio_T2 == pytest.approx(8.55, rel=1e-3)

    verdict = strong_coupling_assessment(5.6e3,
                                         DecoherenceBudget(T1=1e6, T2_star=1e-3))
    assert verdict.strong
    assert verdict.ratio_T2 == pytest.approx(5.6, rel=1e-3)

    verdict = strong_coupling_assessment(57e3,
                                         DecoherenceBudget(T1=1e6, T2_star=1e-9))
    assert not verdict.strong


def test_budget_combination_rule():
    budget = DecoherenceBudget(T1=300e-6, T2_star=200e-6)
    assert 1.0 / budget.T2 == pytest.approx(1 / (2 * 300e-6) + 1 / 200e-6,
                                            rel=1e-14)
    with pytest.raises(ValueError):
        DecoherenceBudget(T1=0.0, T2_star=1e-3)


def test_coupling_map_structure(prolate20):
    mode = rotational_mode(prolate20, OMEGA_PHI_20)
    B = np.linspace(0.0, 0.1, 21)
    psi = np.linspace(0.05, math.pi / 2, 24)
    lam, feasible = coupling_map_rows(mode, B, psi)
    assert lam.shape == feasible.shape == (21, 24)

    # the psi = pi/2 column equals the bare rate lambda_phi cos(theta)
    bare = bare_rate_vs_field(mode, B, C)
    np.testing.assert_allclose(lam[:, -1], bare, rtol=1e-12)

    # B = 0 row is identically zero
    np.testing.assert_allclose(lam[0], 0.0, atol=0.0)

    # value at (30 mT, pi/4) matches the direct chain
    i = int(np.argmin(np.abs(B - 0.030)))
    j = int(np.argmin(np.abs(psi - math.pi / 4)))
    report = pinned_chain(prolate20, OMEGA_PHI_20, B=float(B[i]))
    assert lam[i, j] == pytest.approx(
        report.lambda_phi * math.cos(report.theta) * math.sin(float(psi[j])),
        rel=1e-12)


def test_bare_rate_increases_with_field(prolate20):
    mode = rotational_mode(prolate20, OMEGA_PHI_20)
    B = np.linspace(0.0, 0.1, 101)
    bare = bare_rate_vs_field(mode, B, C)
    assert np.all(np.diff(bare) > 0.0)


def test_map_never_exceeds_bare_rate(prolate20):
    mode = rotational_mode(prolate20, OMEGA_PHI_20)
    B = np.linspace(0.0, 0.1, 11)
    psi = np.linspace(0.05, math.pi / 2 - 0.01, 13)
    lam_tilde, _ = coupling_map_rows(mode, B, psi)
    lam = C.gamma_nv * B * mode.phi0
    assert np.all(lam_tilde <= lam[:, None] + 1e-12)


def test_resonance_overlay_passes_through_solved_point(prolate20):
    mode = rotational_mode(prolate20, OMEGA_PHI_20)
    _, sol = resonant_chain(prolate20, OMEGA_PHI_20, rabi=500e6)
    B = np.linspace(0.0, 0.1, 401)
    psi, feasible = resonance_curve(mode, B, 500e6)
    i = int(np.argmin(np.abs(B - sol.B)))
    assert feasible[i]
    assert psi[i] == pytest.approx(math.pi / 4, abs=0.02)
    # curve decreases with B wherever feasible
    vals = psi[feasible]
    assert np.all(np.diff(vals) < 0.0)


@pytest.mark.filterwarnings("ignore::UserWarning")  # large detunings by design
def test_resonance_curve_matches_scalar_solver(prolate20):
    mode = rotational_mode(prolate20, OMEGA_PHI_20)
    B = np.array([0.012, 0.02, 0.03185, 0.05, 0.1])
    psi, feasible = resonance_curve(mode, B, 500e6)
    assert feasible.all()
    for b, p in zip(B, psi):
        sol = resonance_solve(SpinConfig.from_constants(float(b)), 500e6,
                              OMEGA_PHI_20, solve_for="detuning")
        assert p == pytest.approx(sol.psi, rel=0.0, abs=4e-16)


@pytest.mark.parametrize("rabi", [0.0, -5e8, -1e300])
def test_resonance_curve_rejects_non_positive_rabi(prolate20, rabi):
    mode = rotational_mode(prolate20, OMEGA_PHI_20)
    with pytest.raises(ValueError, match="Rabi frequency must be positive"):
        resonance_curve(mode, np.array([0.02, 0.03]), rabi)


def test_map_feasibility_flag(prolate20):
    mode = rotational_mode(prolate20, OMEGA_PHI_20)
    B = np.array([0.001, 0.03, 0.05])
    psi = np.array([0.3, math.pi / 4])
    _, feasible = coupling_map_rows(mode, B, psi)
    # at 1 mT the e-d gap is below the phonon frequency: infeasible everywhere
    assert not feasible[0].any()
    # at 30 mT a resonant microwave fits under the technical Rabi cap
    assert feasible[1].all()
    # at 50 mT the resonant point needs ~1.13 GHz: beyond the cap, while the
    # detuned low-psi branch remains reachable
    assert feasible[2, 0]
    assert not feasible[2, 1]


@pytest.mark.filterwarnings("ignore::UserWarning")  # 1 GHz drive leakage note
def test_rabi_sweep_families(prolate20, prolate80):
    shapes20 = {
        "prolate": prolate20,
        "oblate": build_body(OblateEllipsoid(a=50e-9, b=20e-9), TotalCharge(E)),
    }
    rabi = [250e6, 500e6, 1000e6]
    B, lam = coupling_vs_rabi(shapes20, rabi, OMEGA_PHI_20)
    assert B.shape == (3,) and lam.shape == (3, 2)
    assert not np.isnan(B).any() and not np.isnan(lam).any()
    assert np.all(np.diff(lam, axis=0) > 0.0)  # grows with Rabi
    assert np.all(np.diff(B) > 0.0)            # so does B
    at500 = dict(zip(shapes20, lam[rabi.index(500e6)]))
    assert at500["prolate"] == pytest.approx(60.17e3, rel=2e-3)
    assert at500["oblate"] == pytest.approx(38.05e3, rel=2e-3)


def test_zero_mass_disk_bounds_composites(prolate80):
    shapes = {
        "prolate": prolate80,
        "composite:0.125": build_body(Composite(b=80e-9, a=200e-9, c=10e-9),
                                      SurfaceDensity(1e-6)),
        "composite:0.0625": build_body(Composite(b=80e-9, a=200e-9, c=5e-9),
                                       SurfaceDensity(1e-6)),
        "zero_mass_disk": build_body(
            Composite(b=80e-9, a=200e-9, c=5e-9, zero_mass_disk=True),
            SurfaceDensity(1e-6)),
    }
    lam = dict(zip(shapes, coupling_vs_rabi(shapes, [500e6], OMEGA_PHI_80)[1][0]))
    assert lam["zero_mass_disk"] >= lam["composite:0.0625"]
    assert lam["composite:0.0625"] >= lam["composite:0.125"]
    assert lam["composite:0.125"] >= lam["prolate"]
    assert lam["prolate"] == pytest.approx(5.89e3, rel=2e-3)


def test_rabi_sweep_flags_unreachable(prolate20):
    # a phonon frequency far above the reachable e-d gap below 1 tesla
    B, lam = coupling_vs_rabi({"prolate": prolate20}, [500e6], TWO_PI * 100e9)
    assert B.shape == (1,) and lam.shape == (1, 1)
    assert math.isnan(B[0])
    assert math.isnan(lam[0, 0])


def test_cos_theta_factor_closed_form(prolate20):
    for B in (0.01, 0.03, 0.08):
        report = pinned_chain(prolate20, OMEGA_PHI_20, B=B)
        expected = math.cos(0.5 * math.atan(2 * C.gamma_nv * B
                                            / C.zero_field_splitting_D))
        assert report.lambda_tilde / (report.lambda_phi * math.sin(report.psi)) \
            == pytest.approx(expected, rel=1e-12)
