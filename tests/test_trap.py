import math

import numpy as np
import pytest

from levrot.constants import DEFAULT_CONSTANTS
from levrot.geometry import (Sphere, ProlateEllipsoid, Composite, TotalCharge,
                             SurfaceDensity, build_body)
from levrot.trap import (Mode, TrapConfig, MathieuCoefficients, AntiTrappingError,
                         mathieu_coefficients, secular_frequency,
                         floquet_stability, stability_boundary_q, stability_chart,
                         thermal_angle, charge_budget)

E = DEFAULT_CONSTANTS.elementary_charge
TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def prolate20():
    return build_body(ProlateEllipsoid(a=50e-9, b=20e-9), TotalCharge(366 * E))


@pytest.fixture(scope="module")
def trap50():
    return TrapConfig(V_ac=5000.0, V_dc=0.0, drive_frequency=TWO_PI * 50e6,
                      z0=10e-6, eta=1.0)


def test_no_dc_voltage_means_zero_a(prolate20, trap50):
    for mode in Mode:
        assert mathieu_coefficients(prolate20, trap50, mode).a == 0.0


def test_sphere_has_no_rotational_confinement(trap50):
    body = build_body(Sphere(20e-9), TotalCharge(366 * E))
    assert mathieu_coefficients(body, trap50, Mode.ROT_Y).q == 0.0
    assert secular_frequency(
        mathieu_coefficients(body, trap50, Mode.ROT_Y), trap50).omega == 0.0


def test_reference_prolate_q(prolate20, trap50):
    c = mathieu_coefficients(prolate20, trap50, Mode.ROT_Y)
    assert c.q == pytest.approx(0.283, rel=2e-3)
    # 5 MHz secular frequency by design of this working point
    line = secular_frequency(c, trap50)
    assert line.omega / TWO_PI == pytest.approx(5.0e6, rel=2e-3)
    assert line.pseudopotential_valid


def test_com_axial_matches_quoted_axial_frequency(prolate20, trap50):
    # omega_z = eta |Q| V_ac / (sqrt(2) m Omega z0^2)
    line = secular_frequency(
        mathieu_coefficients(prolate20, trap50, Mode.COM_AXIAL), trap50)
    expected = (trap50.eta * prolate20.Q * trap50.V_ac
                / (math.sqrt(2) * prolate20.mass * trap50.drive_frequency
                   * trap50.z0 ** 2))
    assert line.omega == pytest.approx(expected, rel=1e-12)


def test_axial_com_is_twice_radial(prolate20, trap50):
    radial = mathieu_coefficients(prolate20, trap50, Mode.COM_RADIAL)
    axial = mathieu_coefficients(prolate20, trap50, Mode.COM_AXIAL)
    assert axial.q == pytest.approx(-2.0 * radial.q, rel=1e-14)


def test_secular_formula_values():
    tc = TrapConfig(V_ac=1.0, V_dc=0.0, drive_frequency=TWO_PI * 50e6, z0=1.0)
    line = secular_frequency(MathieuCoefficients(Mode.ROT_Y, 0.0, 0.2828), tc)
    assert line.omega / TWO_PI == pytest.approx(5.0e6, rel=1e-3)

    tc10 = TrapConfig(V_ac=1.0, V_dc=0.0, drive_frequency=TWO_PI * 10e6, z0=1.0)
    line = secular_frequency(MathieuCoefficients(Mode.ROT_Y, 0.01, 0.1), tc10)
    assert line.omega / TWO_PI == pytest.approx(0.61237e6, rel=1e-4)

    assert secular_frequency(MathieuCoefficients(Mode.ROT_Y, 0.0, 0.0), tc).omega == 0.0


def test_sign_of_q_is_irrelevant_for_secular(trap50):
    plus = secular_frequency(MathieuCoefficients(Mode.ROT_Y, 0.0, 0.3), trap50)
    minus = secular_frequency(MathieuCoefficients(Mode.ROT_Y, 0.0, -0.3), trap50)
    assert plus.omega == minus.omega


def test_anti_trapping_raises(trap50):
    with pytest.raises(AntiTrappingError):
        secular_frequency(MathieuCoefficients(Mode.COM_AXIAL, -0.05, 0.1), trap50)


def test_pseudopotential_validity_flag(trap50):
    assert secular_frequency(
        MathieuCoefficients(Mode.ROT_Y, 0.0, 0.39), trap50).pseudopotential_valid
    assert not secular_frequency(
        MathieuCoefficients(Mode.ROT_Y, 0.0, 0.41), trap50).pseudopotential_valid


def test_floquet_verdicts(trap50):
    stable = floquet_stability(MathieuCoefficients(Mode.ROT_Y, 0.0, 0.2), trap50)
    assert stable.stable and abs(stable.monodromy_trace) < 2.0

    unstable = floquet_stability(MathieuCoefficients(Mode.ROT_Y, 0.0, 1.0), trap50)
    assert not unstable.stable

    free = floquet_stability(MathieuCoefficients(Mode.ROT_Y, 0.0, 0.0), trap50)
    assert free.stable  # marginal free rotor
    assert free.monodromy_trace == pytest.approx(2.0, abs=1e-9)


def test_chart_matches_per_point_verdicts(trap50):
    # rows sit 0.05 and 0.01 below, then above, the first-region edge b1(q)
    from scipy.special import mathieu_b

    q = np.linspace(0.1, 0.8, 8)
    a = mathieu_b(1, q)[None, :] + np.array([-0.05, -0.01, 0.01, 0.05])[:, None]
    q = np.broadcast_to(q, a.shape)
    stable, trace = stability_chart(a, q)
    assert stable.shape == trace.shape == a.shape
    assert stable[:2].all() and not stable[2:].any()
    for (i, j), ai in np.ndenumerate(a):
        v = floquet_stability(MathieuCoefficients(Mode.ROT_Y, ai, q[i, j]), trap50)
        assert v.stable == stable[i, j]
        assert v.monodromy_trace == pytest.approx(trace[i, j], abs=1e-8)


def test_stability_boundary_location():
    q_c = stability_boundary_q()
    assert 0.90 <= q_c <= 0.92


@pytest.mark.parametrize("q", [0.05, 0.1, 0.2, 0.3])
def test_secular_matches_floquet_quasi_frequency(q, trap50):
    c = MathieuCoefficients(Mode.ROT_Y, 0.0, q)
    secular = secular_frequency(c, trap50).omega
    quasi = floquet_stability(c, trap50).quasi_frequency
    assert secular == pytest.approx(quasi, rel=0.02)


def test_q_scaling_probes(prolate20, trap50):
    rng = np.random.default_rng(7)
    q0 = mathieu_coefficients(prolate20, trap50, Mode.ROT_Y).q
    for _ in range(5):
        s_v, s_q, s_w = rng.uniform(0.5, 2.0, size=3)
        tc = TrapConfig(V_ac=trap50.V_ac * s_v, V_dc=0.0,
                        drive_frequency=trap50.drive_frequency * s_w,
                        z0=trap50.z0, eta=trap50.eta)
        body = build_body(ProlateEllipsoid(a=50e-9, b=20e-9),
                          TotalCharge(366 * E * s_q))
        q = mathieu_coefficients(body, tc, Mode.ROT_Y).q
        assert q == pytest.approx(q0 * s_v * s_q / s_w ** 2, rel=1e-9)


def test_inverse_size_law_exact(trap50):
    # fixed surface charge density: doubling every length must halve q
    sigma = 1e-5
    for small, big in [
        (ProlateEllipsoid(a=50e-9, b=20e-9), ProlateEllipsoid(a=100e-9, b=40e-9)),
        (Composite(b=80e-9, a=200e-9, c=10e-9),
         Composite(b=160e-9, a=400e-9, c=20e-9)),
    ]:
        q_small = mathieu_coefficients(build_body(small, SurfaceDensity(sigma)),
                                       trap50, Mode.ROT_Y).q
        q_big = mathieu_coefficients(build_body(big, SurfaceDensity(sigma)),
                                     trap50, Mode.ROT_Y).q
        assert q_big == pytest.approx(0.5 * q_small, rel=1e-12)


def test_thermal_spread_reference_cases():
    b20 = build_body(ProlateEllipsoid(a=50e-9, b=20e-9), TotalCharge(E))
    assert thermal_angle(b20, TWO_PI * 5e6, 300.0) == pytest.approx(0.157, rel=2e-3)

    b80 = build_body(ProlateEllipsoid(a=200e-9, b=80e-9), TotalCharge(E))
    assert thermal_angle(b80, TWO_PI * 0.5e6, 300.0) == pytest.approx(0.049, rel=2e-3)

    assert thermal_angle(b20, TWO_PI * 5e6, 0.0) == 0.0


def test_thermal_requires_positive_frequency():
    body = build_body(Sphere(20e-9), TotalCharge(E))
    with pytest.raises(ValueError):
        thermal_angle(body, 0.0, 300.0)


def test_charge_budget_reference_case():
    body = build_body(ProlateEllipsoid(a=200e-9, b=80e-9), TotalCharge(E))
    tc = TrapConfig(V_ac=5000.0, V_dc=0.0, drive_frequency=TWO_PI * 5e6,
                    z0=10e-6, eta=0.3)
    budget = charge_budget(body, tc, TWO_PI * 0.5e6, ratio=3.0)
    # several hundred elementary charges for this working point
    assert 100 <= budget.elementary_count <= 1000
    assert budget.elementary_count == math.ceil(budget.required_charge / E)


def test_charge_budget_scaling_and_errors():
    body = build_body(ProlateEllipsoid(a=200e-9, b=80e-9), TotalCharge(E))
    tc = TrapConfig(V_ac=5000.0, V_dc=0.0, drive_frequency=TWO_PI * 5e6,
                    z0=10e-6, eta=0.3)
    tc2 = TrapConfig(V_ac=10000.0, V_dc=0.0, drive_frequency=TWO_PI * 5e6,
                     z0=10e-6, eta=0.3)
    q1 = charge_budget(body, tc, TWO_PI * 0.5e6, 3.0).required_charge
    q2 = charge_budget(body, tc2, TWO_PI * 0.5e6, 3.0).required_charge
    assert q2 == pytest.approx(0.5 * q1, rel=1e-14)
    with pytest.raises(ValueError):
        charge_budget(body, tc, 0.0, 3.0)
    with pytest.raises(ValueError):
        charge_budget(body, tc, TWO_PI * 0.5e6, 0.0)


def test_charge_budget_inverts_axial_secular():
    spec = ProlateEllipsoid(a=200e-9, b=80e-9)
    tc = TrapConfig(V_ac=5000.0, V_dc=0.0, drive_frequency=TWO_PI * 5e6,
                    z0=10e-6, eta=0.3)
    target, ratio = TWO_PI * 0.5e6, 3.0
    budget = charge_budget(build_body(spec, TotalCharge(E)), tc, target, ratio)
    charged = build_body(spec, TotalCharge(budget.elementary_count * E))
    line = secular_frequency(
        mathieu_coefficients(charged, tc, Mode.COM_AXIAL), tc)
    assert line.omega == pytest.approx(target / ratio, rel=5e-3)


def test_zero_charge_rejected(trap50):
    body = build_body(Sphere(20e-9), TotalCharge(E))
    object.__setattr__(body, "Q", 0.0)
    with pytest.raises(ValueError):
        mathieu_coefficients(body, trap50, Mode.ROT_Y)


def test_trap_config_validation():
    with pytest.raises(ValueError):
        TrapConfig(V_ac=1.0, V_dc=0.0, drive_frequency=-1.0, z0=1.0)
    with pytest.raises(ValueError):
        TrapConfig(V_ac=1.0, V_dc=0.0, drive_frequency=1.0, z0=1.0, eta=1.5)
