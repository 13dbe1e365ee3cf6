import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from levrot.constants import DEFAULT_CONSTANTS
from levrot.geometry import (Sphere, ProlateEllipsoid, OblateEllipsoid, Composite,
                             TotalCharge, SurfaceDensity, surface_moments,
                             inertia_and_mass, build_body)

E = DEFAULT_CONSTANTS.elementary_charge


# ---------------------------------------------------------------------------
# closed-form spheroid areas in eccentricity form, an oracle independent of
# the asin/asinh integrals that geometry evaluates
# ---------------------------------------------------------------------------

def prolate_spheroid_area(a: float, b: float) -> float:
    if a == b:
        return 4.0 * math.pi * b * b
    e = math.sqrt(1.0 - (b / a) ** 2)
    return 2.0 * math.pi * b * b * (1.0 + (a / (b * e)) * math.asin(e))


def oblate_spheroid_area(a: float, b: float) -> float:
    if a == b:
        return 4.0 * math.pi * b * b
    e = math.sqrt(1.0 - (b / a) ** 2)
    return 2.0 * math.pi * a * a + math.pi * (b * b / e) * math.log((1.0 + e) / (1.0 - e))


# ---------------------------------------------------------------------------
# independent 1-D integral oracle (theta parametrization, adaptive quad)
# ---------------------------------------------------------------------------

def prolate_oracle(a, b):
    """Surface area and R_mu^2 from dS = 2 pi b sinT sqrt(a^2 sin^2 T + b^2 cos^2 T) dT."""
    def ds(t):
        return 2 * np.pi * b * np.sin(t) * np.sqrt(a**2 * np.sin(t)**2
                                                   + b**2 * np.cos(t)**2)
    area = quad(ds, 0, np.pi, epsabs=0, epsrel=1e-12)[0]
    rz2 = quad(lambda t: (a * np.cos(t))**2 * ds(t), 0, np.pi,
               epsabs=0, epsrel=1e-12)[0] / area
    rx2 = quad(lambda t: 0.5 * (b * np.sin(t))**2 * ds(t), 0, np.pi,
               epsabs=0, epsrel=1e-12)[0] / area
    return area, rz2, rx2


def oblate_oracle(a, b):
    """Same oracle with dS = 2 pi a sinT sqrt(a^2 cos^2 T + b^2 sin^2 T) dT."""
    def ds(t):
        return 2 * np.pi * a * np.sin(t) * np.sqrt(a**2 * np.cos(t)**2
                                                   + b**2 * np.sin(t)**2)
    area = quad(ds, 0, np.pi, epsabs=0, epsrel=1e-12)[0]
    rz2 = quad(lambda t: (b * np.cos(t))**2 * ds(t), 0, np.pi,
               epsabs=0, epsrel=1e-12)[0] / area
    rx2 = quad(lambda t: 0.5 * (a * np.sin(t))**2 * ds(t), 0, np.pi,
               epsabs=0, epsrel=1e-12)[0] / area
    return area, rz2, rx2


# frozen oracle values for a/b = 2.5, b = 1 (computed with the quad oracle above)
PROLATE_AREA = 26.151836381069423
PROLATE_RZ2 = 1.717108392467458
PROLATE_RX2 = 0.362631328602603
PROLATE_SY = 1.354477063864855
OBLATE_AREA = 50.011127301158304
OBLATE_SY = -1.393424650549036


def test_sphere_moments_are_exact():
    m = surface_moments(Sphere(1.0))
    assert m.R_X2 == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert m.R_Z2 == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert m.S_Y == 0.0
    assert m.area == pytest.approx(4 * np.pi, rel=1e-12)


def test_prolate_moments_match_quad_oracle():
    area, rz2, rx2 = prolate_oracle(2.5, 1.0)
    m = surface_moments(ProlateEllipsoid(a=2.5, b=1.0))
    assert m.area == pytest.approx(area, rel=1e-9)
    assert m.R_Z2 == pytest.approx(rz2, rel=1e-9)
    assert m.R_X2 == pytest.approx(rx2, rel=1e-9)
    # frozen values and closed-form area cross-check
    assert m.area == pytest.approx(PROLATE_AREA, rel=1e-10)
    assert m.area == pytest.approx(prolate_spheroid_area(2.5, 1.0), rel=1e-10)
    assert m.R_Z2 == pytest.approx(PROLATE_RZ2, rel=1e-9)
    assert m.R_X2 == pytest.approx(PROLATE_RX2, rel=1e-9)
    assert m.S_Y == pytest.approx(PROLATE_SY, rel=1e-9)
    # nominal leverage value, 0.1 % band
    assert m.S_Y == pytest.approx(1.3551, rel=1e-3)


def test_oblate_moments_match_quad_oracle():
    area, rz2, rx2 = oblate_oracle(2.5, 1.0)
    m = surface_moments(OblateEllipsoid(a=2.5, b=1.0))
    assert m.area == pytest.approx(area, rel=1e-9)
    assert m.area == pytest.approx(OBLATE_AREA, rel=1e-10)
    assert m.area == pytest.approx(oblate_spheroid_area(2.5, 1.0), rel=1e-10)
    assert m.S_Y == pytest.approx(rz2 - rx2, rel=1e-9)
    assert m.S_Y == pytest.approx(OBLATE_SY, rel=1e-9)
    assert abs(m.S_Y) == pytest.approx(1.3927, rel=1e-3)
    assert m.S_Y < 0.0  # oblate bodies have negative leverage, sign preserved


def test_scaling_with_size_is_exact():
    # doubling every length multiplies area and second moments by 4 exactly
    m1 = surface_moments(ProlateEllipsoid(a=2.5, b=1.0))
    m2 = surface_moments(ProlateEllipsoid(a=5.0, b=2.0))
    assert m2.area == 4.0 * m1.area
    assert m2.R_Z2 == 4.0 * m1.R_Z2


def test_leverage_vanishes_continuously_at_unit_aspect():
    s_near = abs(surface_moments(ProlateEllipsoid(a=1.001, b=1.0)).S_Y)
    s_far = abs(surface_moments(ProlateEllipsoid(a=1.01, b=1.0)).S_Y)
    assert 0.0 < s_near < s_far


def _mpmath_moments(mp, p, s):
    """(area, int x^2 dS, int z^2 dS) of a spheroid piece by mpmath quadrature in u.

    The u-range is split at breakpoints crowding towards the branch point of
    sqrt(s^2 + k u^2) (imaginary, near u = 0 for oblate; real, beyond u = 1
    for prolate), so the tanh-sinh rule converges on thin and long pieces.
    """
    k = p * p - s * s
    if k > 0:
        u0 = s / mp.sqrt(k)
        inner = [u0 * mp.mpf(2) ** j for j in range(-30, 10) if u0 * mp.mpf(2) ** j < 1]
    else:
        gap = s / mp.sqrt(-k) - 1
        inner = [1 - gap * mp.mpf(2) ** j for j in range(10, -30, -1)
                 if gap * mp.mpf(2) ** j < 1]
    pts = [mp.mpf(0)] + inner + [mp.mpf(1)]
    j0 = mp.quad(lambda u: mp.sqrt(s * s + k * u * u), pts)
    j2 = mp.quad(lambda u: u * u * mp.sqrt(s * s + k * u * u), pts)
    return 4 * mp.pi * p * j0, 2 * mp.pi * p ** 3 * (j0 - j2), 4 * mp.pi * p * s * s * j2


# transverse / polar semi-axis ratios on both sides of unit aspect, including
# both edges of the near-sphere series branch (|p^2/s^2 - 1| = 0.25)
@pytest.mark.parametrize("p_over_s", [1e-3, 0.4, 0.86, 0.87, 1 - 1e-6, 1 + 1e-6,
                                      1.11, 1.12, 2.5, 20.0, 1e3])
def test_closed_form_matches_high_precision_quadrature(p_over_s):
    mp = pytest.importorskip("mpmath")
    p, s = p_over_s * 3e-8, 3e-8
    spec = (OblateEllipsoid(a=p, b=s) if p > s else ProlateEllipsoid(a=s, b=p))
    m = surface_moments(spec)
    with mp.workdps(30):
        area, ix2, iz2 = _mpmath_moments(mp, mp.mpf(p), mp.mpf(s))
        for value, ref in ((m.area, area), (m.R_X2, ix2 / area), (m.R_Z2, iz2 / area)):
            assert abs(mp.mpf(value) - ref) <= 1e-15 * abs(ref)


# theta-integral oracle and semi-axes of each spheroid piece of the surface
ORACLE_PIECES = {
    ProlateEllipsoid(a=2.5, b=1.0): [(prolate_oracle, 2.5, 1.0)],
    OblateEllipsoid(a=2.5, b=1.0): [(oblate_oracle, 2.5, 1.0)],
    # sphere of radius 1 plus a disk (oblate 2.5, 2.5, 0.125), surfaces added
    Composite(b=1.0, a=2.5, c=0.125): [(prolate_oracle, 1.0, 1.0),
                                       (oblate_oracle, 2.5, 0.125)],
}


@pytest.mark.parametrize("spec", list(ORACLE_PIECES))
def test_quadrature_cross_check_agrees_with_closed_form(spec):
    pieces = [oracle(a, b) for oracle, a, b in ORACLE_PIECES[spec]]
    area = sum(da for da, _, _ in pieces)
    rz2 = sum(da * z2 for da, z2, _ in pieces) / area
    rx2 = sum(da * x2 for da, _, x2 in pieces) / area
    closed = surface_moments(spec)
    assert closed.area == pytest.approx(area, rel=1e-10)
    assert closed.R_X2 == pytest.approx(rx2, rel=1e-10)
    assert closed.R_Z2 == pytest.approx(rz2, rel=1e-10)


# inertia_and_mass output at these specs, pinned bit for bit: the arithmetic
# calls no libm function, so the floats are the same on every platform
PINNED_INERTIA = [
    (Sphere(20e-9),
     (1.177887805585933e-19, 1.8846204889374928e-35, 1.8846204889374928e-35)),
    (ProlateEllipsoid(a=50e-9, b=20e-9),
     (2.944719513964832e-19, 1.7079373180996028e-34, 4.711551222343732e-35)),
    (OblateEllipsoid(a=50e-9, b=20e-9),
     (7.36179878491208e-19, 4.269843295249006e-34, 7.36179878491208e-34)),
    (Composite(b=80e-9, a=200e-9, c=10e-9),
     (1.1224617335961993e-17, 4.8861319556020345e-32, 7.827667989011228e-32)),
    (Composite(b=80e-9, a=200e-9, c=5e-9, zero_mass_disk=True),
     (7.53848195574997e-18, 1.9298513806719926e-32, 1.9298513806719926e-32)),
    (Composite(b=80e-9, a=200e-9, c=10e-9, disk_material="diamond"),
     (1.3427920983679636e-17, 6.653181481071583e-32, 1.1352953825359454e-31)),
]


@pytest.mark.parametrize("spec,expected", PINNED_INERTIA)
def test_inertia_and_mass_pinned(spec, expected):
    assert inertia_and_mass(spec) == expected


def test_sphere_inertia_closed_form():
    m, iy, iz = inertia_and_mass(Sphere(20e-9))
    rho = DEFAULT_CONSTANTS.density_diamond
    assert m == pytest.approx(rho * 4 / 3 * np.pi * (20e-9) ** 3, rel=1e-14)
    assert iy == iz
    assert iy == pytest.approx(0.4 * m * (20e-9) ** 2, rel=1e-14)


@pytest.mark.parametrize("spec,expected_ratio", [
    (ProlateEllipsoid(a=2.5, b=1.0), 9.0625),    # rounds to the quoted 9
    (OblateEllipsoid(a=2.5, b=1.0), 22.65625),   # rounds to the quoted 23
])
def test_spheroid_inertia_ratio_to_same_radius_sphere(spec, expected_ratio):
    m0, i0, _ = inertia_and_mass(Sphere(1.0))
    _, iy, _ = inertia_and_mass(spec)
    assert iy / i0 == pytest.approx(expected_ratio, rel=1e-12)


def test_prolate_inertia_ratio_formula():
    # (a/b) * (a^2 + b^2) / (2 b^2) for the same-b sphere normalization
    a_over_b = 2.5
    m0, i0, _ = inertia_and_mass(Sphere(1.0))
    _, iy, _ = inertia_and_mass(ProlateEllipsoid(a=a_over_b, b=1.0))
    assert iy / i0 == pytest.approx(a_over_b * (a_over_b**2 + 1) / 2, rel=1e-12)


def test_build_body_sphere_total_charge():
    body = build_body(Sphere(20e-9), TotalCharge(50 * E))
    assert body.Q == pytest.approx(50 * 1.602e-19, rel=1e-3)
    assert body.surface.S_Y == 0.0


def test_build_body_prolate_reference_particle():
    body = build_body(ProlateEllipsoid(a=50e-9, b=20e-9), TotalCharge(366 * E))
    assert body.mass == pytest.approx(2.945e-19, rel=1e-3)
    assert body.I_Y == pytest.approx(1.708e-34, rel=1e-3)


def test_build_body_surface_density_charge():
    sigma = 1e-6
    body = build_body(Sphere(20e-9), SurfaceDensity(sigma))
    assert body.Q == pytest.approx(sigma * 4 * np.pi * (20e-9) ** 2, rel=1e-12)


def test_composite_mass_and_moments():
    comp = build_body(Composite(b=80e-9, a=200e-9, c=10e-9), SurfaceDensity(1e-6))
    sphere = build_body(Sphere(80e-9), SurfaceDensity(1e-6))
    assert comp.mass / sphere.mass == pytest.approx(1.49, rel=1e-2)
    # disk dominates the surface, sphere contributes nothing to S_Y
    assert comp.surface.S_Y < 0.0
    assert comp.surface.area > sphere.surface.area


def test_composite_zero_mass_disk_limit():
    limit = build_body(Composite(b=80e-9, a=200e-9, c=10e-9, zero_mass_disk=True),
                       SurfaceDensity(1e-6))
    sphere = build_body(Sphere(80e-9), SurfaceDensity(1e-6))
    assert limit.mass == sphere.mass
    assert limit.I_Y == sphere.I_Y
    assert abs(limit.surface.S_Y) > 0.0


def test_inertia_triangle_inequalities():
    for spec in (Sphere(1.0), ProlateEllipsoid(a=2.5, b=1.0),
                 OblateEllipsoid(a=2.5, b=1.0),
                 Composite(b=1.0, a=2.5, c=0.125)):
        _, iy, iz = inertia_and_mass(spec)
        assert 2.0 * iy >= iz


@pytest.mark.parametrize("bad", [
    lambda: Sphere(-1.0),
    lambda: ProlateEllipsoid(a=1.0, b=2.0),
    lambda: OblateEllipsoid(a=0.5, b=1.0),
    lambda: Composite(b=1.0, a=0.5, c=0.1),
    lambda: Composite(b=1.0, a=2.0, c=1.5),
    lambda: TotalCharge(0.0),
    lambda: SurfaceDensity(0.0),
    lambda: Sphere(math.nan),
    lambda: Sphere(math.inf),
    lambda: Composite(b=1.0, a=math.inf, c=0.1),
    lambda: ProlateEllipsoid(a=math.inf, b=1.0),
    lambda: OblateEllipsoid(a=math.nan, b=1.0),
    lambda: Sphere(1e200),
    lambda: Sphere(1e-200),
    lambda: ProlateEllipsoid(a=1e300, b=1e-300),
])
def test_invalid_inputs_rejected(bad):
    with pytest.raises(ValueError):
        bad()


@pytest.mark.parametrize("bad,field", [
    (lambda: Sphere(math.nan), "Sphere.b"),
    (lambda: Composite(b=1.0, a=math.inf, c=0.1), "Composite.a"),
    (lambda: ProlateEllipsoid(a=2.0, b=-1.0), "ProlateEllipsoid.b"),
])
def test_bad_length_error_names_the_field(bad, field):
    with pytest.raises(ValueError, match=field):
        bad()


@pytest.mark.parametrize("spec", [
    Sphere(1e-50), Sphere(1e50),
    ProlateEllipsoid(a=1e50, b=1e-50), OblateEllipsoid(a=1e50, b=1e-50),
    Composite(b=1e-50, a=1e50, c=1e-50), Composite(b=1e50, a=1e50, c=1e-50),
])
def test_lengths_at_the_range_ends_give_normal_bodies(spec):
    body = build_body(spec, SurfaceDensity(1e-6), constants=DEFAULT_CONSTANTS)
    s = body.surface
    for value in (body.mass, body.I_Y, body.I_Z, body.Q, s.area, s.R_X2, s.R_Z2):
        assert sys.float_info.min <= value < math.inf
    assert math.isfinite(s.S_Y)


def test_unknown_material_rejected():
    with pytest.raises(ValueError):
        inertia_and_mass(Sphere(1.0, material="unobtainium"))
