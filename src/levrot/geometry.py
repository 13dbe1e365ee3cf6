"""Particle shapes: mass, principal inertia and uniform-surface-charge moments.

Every surface is a union of spheroids about the body-fixed Z axis.  After the
azimuthal average, the area and second moments of a spheroid with transverse
semi-axis p and polar semi-axis s are elementary integrals in u = cos(theta),

    area = 4 pi p J0,  int x^2 dS = 2 pi p^3 (J0 - J2),  int z^2 dS = 4 pi p s^2 J2,

with J0, J2 = integral over [0, 1] of (1, u^2) sqrt(s^2 + (p^2 - s^2) u^2) du.
J0 and J2 are evaluated in closed form (asinh for oblate, asin for prolate
pieces, a binomial series near unit aspect ratio) with Python ``math``
scalars only, so the bytes depend on the platform libm and on no BLAS/LAPACK
build; the tests check them against independent integrals.  Each shape is
described once, as its list of spheroid pieces: the surface sums run over
all of them, and the mass and inertia over the pieces that carry a material,
each a solid spheroid with semi-axes (p, p, s).  Every body is therefore
axisymmetric about Z: one leverage S_Y and one transverse inertia I_Y serve
a tilt about either transverse axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import PhysicalConstants, DEFAULT_CONSTANTS


# ---------------------------------------------------------------------------
# particle specifications
# ---------------------------------------------------------------------------

# The highest power of a length the closed forms form is rho * L^5, in the
# inertia; across this range it stays a normal double, with margin.
_LENGTH_RANGE = (1e-50, 1e50)  # m


def _require_lengths(spec, *names):
    """Reject any named length of ``spec`` outside _LENGTH_RANGE (NaN included)."""
    low, high = _LENGTH_RANGE
    for name in names:
        value = getattr(spec, name)
        if not low <= value <= high:
            raise ValueError(f"{type(spec).__name__}.{name} must be a length in "
                             f"[{low:g}, {high:g}] m, got {value!r}")


@dataclass(frozen=True)
class Sphere:
    b: float  # radius, m
    material: str = "diamond"

    def __post_init__(self):
        _require_lengths(self, "b")


@dataclass(frozen=True)
class ProlateEllipsoid:
    """Spheroid elongated along its symmetry (Z) axis: semi-axes (b, b, a), a >= b."""

    a: float  # long semi-axis along Z, m
    b: float  # transverse semi-axis, m
    material: str = "diamond"

    def __post_init__(self):
        _require_lengths(self, "a", "b")
        if self.a < self.b:
            raise ValueError("prolate ellipsoid requires a >= b")


@dataclass(frozen=True)
class OblateEllipsoid:
    """Spheroid flattened along its symmetry (Z) axis: semi-axes (a, a, b), a >= b."""

    a: float  # equatorial semi-axis, m
    b: float  # polar semi-axis along Z, m
    material: str = "diamond"

    def __post_init__(self):
        _require_lengths(self, "a", "b")
        if self.a < self.b:
            raise ValueError("oblate ellipsoid requires a >= b")


@dataclass(frozen=True)
class Composite:
    """Sphere of radius b concentric with a thin disk (oblate spheroid a, a, c).

    The disk models a pancake the sphere is deposited on; both centers
    coincide so the charge centroid stays on the center of mass.  With
    ``zero_mass_disk`` the disk keeps its surface charge but carries no mass
    or inertia (the thin-disk limiting case).
    """

    b: float  # sphere radius, m
    a: float  # disk radius, m
    c: float  # disk half-thickness, m
    disk_material: str = "silica"
    material: str = "diamond"
    zero_mass_disk: bool = False

    def __post_init__(self):
        _require_lengths(self, "b", "a", "c")
        if not (self.c <= self.b <= self.a):
            raise ValueError("composite requires c <= b <= a")


ParticleSpec = Sphere | ProlateEllipsoid | OblateEllipsoid | Composite


# ---------------------------------------------------------------------------
# charge models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TotalCharge:
    Q_tot: float  # C, sign preserved

    def __post_init__(self):
        if self.Q_tot == 0.0:
            raise ValueError("total charge must be nonzero")


@dataclass(frozen=True)
class SurfaceDensity:
    sigma: float  # C/m^2, uniform over the whole exposed surface

    def __post_init__(self):
        if self.sigma == 0.0:
            raise ValueError("surface charge density must be nonzero")


ChargeModel = TotalCharge | SurfaceDensity


@dataclass(frozen=True)
class SurfaceMoments:
    """Area and charge-weighted second moments of a uniformly charged surface.

    R_mu2 = (integral of mu^2 dQ)/Q.  The surface is symmetric about Z, so
    R_X2 is also the moment along Y, and S_Y = R_Z2 - R_X2, the torque
    leverage factor of the rotational confinement, serves a tilt about X or Y.
    """

    area: float  # m^2
    R_X2: float  # m^2
    R_Z2: float  # m^2

    @property
    def S_Y(self) -> float:
        return self.R_Z2 - self.R_X2


@dataclass(frozen=True)
class BodyProperties:
    """Mass, principal inertia (Z the symmetry axis; I_Y is also the inertia
    about X), surface moments, charge."""

    mass: float      # kg
    I_Y: float       # kg m^2
    I_Z: float       # kg m^2
    surface: SurfaceMoments
    Q: float         # C


# ---------------------------------------------------------------------------
# shapes as spheroid pieces
# ---------------------------------------------------------------------------

def _pieces(spec: ParticleSpec):
    """(p, s, material) per spheroid piece: transverse and polar semi-axes.

    ``material`` is None for a piece that carries surface charge but no mass.
    """
    if isinstance(spec, Sphere):
        return [(spec.b, spec.b, spec.material)]
    if isinstance(spec, ProlateEllipsoid):
        return [(spec.b, spec.a, spec.material)]
    if isinstance(spec, OblateEllipsoid):
        return [(spec.a, spec.b, spec.material)]
    if isinstance(spec, Composite):
        # union of the sphere surface and the disk surface; the small overlap
        # region is not subtracted (thin-disk model, centers coincident)
        disk = None if spec.zero_mass_disk else spec.disk_material
        return [(spec.b, spec.b, spec.material), (spec.a, spec.c, disk)]
    raise TypeError(f"unsupported particle spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# surface moments (closed forms)
# ---------------------------------------------------------------------------

_SERIES_MAX_T = 0.25  # |t| = |p^2 - s^2| / s^2 below which J0, J2 use the series


def _spheroid_integrals(p: float, s: float):
    """(J0, J2): integrals over u in [0, 1] of (1, u^2) * sqrt(s^2 + k u^2), k = p^2 - s^2.

    Every expression is homogeneous in length, so scaling p and s by a power
    of two scales J0 and J2 exactly.
    """
    k = (p - s) * (p + s)
    t = k / (s * s)
    if abs(t) < _SERIES_MAX_T:
        # sqrt(1 + t u^2) = sum_n binom(1/2, n) t^n u^(2n); the closed form of
        # J2 below cancels as t -> 0, the series does not
        j0 = j2 = 0.0
        term, n = 1.0, 0  # term = binom(1/2, n) t^n
        while True:
            j0 += term / (2 * n + 1)
            j2 += term / (2 * n + 3)
            if abs(term) <= 1e-17 * j0:
                break
            term *= (0.5 - n) / (n + 1) * t
            n += 1
        return s * j0, s * j2
    c = math.sqrt(abs(k))
    if k > 0.0:
        arc = math.asinh(c / s)        # oblate
    else:
        arc = math.atan2(c, p)         # prolate: asin(c / s), well conditioned
    j0 = 0.5 * (p + s * s / c * arc)
    # from d/du [u (s^2 + k u^2)^(3/2)]: p^3 = s^2 J0 + 4 k J2
    j2 = (p * p * p - s * s * j0) / (4.0 * k)
    return j0, j2


def _spheroid_moments(p: float, s: float):
    """(area, int x^2 dS, int z^2 dS) of one spheroid piece."""
    j0, j2 = _spheroid_integrals(p, s)
    area = 4.0 * math.pi * p * j0
    ix2 = 2.0 * math.pi * p * p * p * (j0 - j2)
    iz2 = 4.0 * math.pi * p * s * s * j2
    if p == s:
        # spherical piece: x^2+y^2+z^2 = p^2 on the surface, so the three
        # second moments are equal; enforcing it here keeps S_mu exactly zero
        ix2 = iz2 = (2.0 * ix2 + iz2) / 3.0
    return area, ix2, iz2


def surface_moments(spec: ParticleSpec) -> SurfaceMoments:
    """Area and R_mu^2 of the uniformly charged surface, summed over the pieces."""
    # plain += on purpose: sum() compensates float rounding from Python 3.12
    # on, which would tie the bytes to the interpreter version
    area = ix2 = iz2 = 0.0
    for p, s, _ in _pieces(spec):
        d_area, d_ix2, d_iz2 = _spheroid_moments(p, s)
        area += d_area
        ix2 += d_ix2
        iz2 += d_iz2
    return SurfaceMoments(area=area, R_X2=ix2 / area, R_Z2=iz2 / area)


# ---------------------------------------------------------------------------
# mass and inertia (closed forms)
# ---------------------------------------------------------------------------

def inertia_and_mass(spec: ParticleSpec, constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """(mass, I_Y, I_Z) in SI: solid spheroids (p, p, s) of the massive pieces."""
    mass = I_Y = I_Z = 0.0
    for p, s, material in _pieces(spec):
        if material is None:
            continue
        m = constants.density(material) * (4.0 / 3.0) * math.pi * p * p * s
        mass += m
        I_Y += m * (p * p + s * s) / 5.0
        I_Z += m * (p * p + p * p) / 5.0
    return mass, I_Y, I_Z


def build_body(spec: ParticleSpec, charge: ChargeModel,
               constants: PhysicalConstants = DEFAULT_CONSTANTS) -> BodyProperties:
    """Assemble the full body record used by the trap and coupling layers."""
    moments = surface_moments(spec)
    mass, I_Y, I_Z = inertia_and_mass(spec, constants)
    if isinstance(charge, TotalCharge):
        Q = charge.Q_tot
    else:
        Q = charge.sigma * moments.area
    return BodyProperties(mass=mass, I_Y=I_Y, I_Z=I_Z, surface=moments, Q=Q)
