"""High-precision reference for the default ``table1`` shape comparison.

Recomputes every numeric cell of ``levrot table1`` (default configuration)
with mpmath at 40 significant digits, starting from the exact binary values
of the float inputs.  The spheroid surface integrals are done by mpmath
tanh-sinh quadrature over u = cos(theta), split at breakpoints that crowd
towards the near-singular end of each integrand, so the reference shares no
code or formula with the closed forms in ``levrot.geometry``; the closed
forms are evaluated in mpmath only as a consistency check of the reference.

Usage (needs mpmath, which levrot itself does not depend on):

    PYTHONPATH=src python tools/table1_reference.py [CSV ...]

Each CSV given (e.g. ``tests/golden/table1.csv``) is compared cell by cell;
the relative distance |value - reference| / |reference| is printed, and the
exit status is 1 when any distance exceeds TOLERANCE.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp

from levrot.constants import DEFAULT_CONSTANTS
from levrot.studio.config import DEFAULT_CONFIG, RunConfig

DPS = 40
TOLERANCE = 1e-15  # relative; the closed forms reach about 5e-16
COLUMNS = ("omega_com_over_omega0", "omega_phi_over_omega0",
           "omega_phi_over_omega_com", "I_y_over_I0")


def _breakpoints(p, s):
    """Interval ends on [0, 1] refined geometrically where sqrt(s^2 + k u^2) bends."""
    k = p * p - s * s
    pts = {mp.mpf(j) / 64 for j in range(65)}
    if k > 0:   # oblate: branch points at u = +-i s / sqrt(k), close to u = 0
        u0 = s / mp.sqrt(k)
        pts |= {u0 * mp.mpf(2) ** j for j in range(-40, 8) if u0 * mp.mpf(2) ** j < 1}
    elif k < 0:  # prolate: branch point at u = s / sqrt(-k) > 1, beyond u = 1
        gap = s / mp.sqrt(-k) - 1
        pts |= {1 - gap * mp.mpf(2) ** j for j in range(-40, 8) if gap * mp.mpf(2) ** j < 1}
    return sorted(pts)


def piece_quadrature(p, s):
    """(area, int x^2 dS, int z^2 dS) of one spheroid piece by mpmath quadrature."""
    k = p * p - s * s
    if k == 0:  # sphere: the three moments are exactly equal by symmetry
        return 4 * mp.pi * s * s, 4 * mp.pi * s ** 4 / 3, 4 * mp.pi * s ** 4 / 3
    pts = _breakpoints(p, s)
    j0 = mp.quad(lambda u: mp.sqrt(s * s + k * u * u), pts)
    j2 = mp.quad(lambda u: u * u * mp.sqrt(s * s + k * u * u), pts)
    return 4 * mp.pi * p * j0, 2 * mp.pi * p ** 3 * (j0 - j2), 4 * mp.pi * p * s * s * j2


def piece_closed_form(p, s):
    """The same three integrals from the asinh / asin closed forms."""
    k = p * p - s * s
    if k == 0:
        j0, j2 = s, s / 3
    else:
        c = mp.sqrt(abs(k))
        arc = mp.asinh(c / s) if k > 0 else mp.asin(c / s)
        j0 = (p + s * s / c * arc) / 2
        j2 = (p ** 3 - s * s * j0) / (4 * k)
    return 4 * mp.pi * p * j0, 2 * mp.pi * p ** 3 * (j0 - j2), 4 * mp.pi * p * s * s * j2


def pieces(spec):
    name = type(spec).__name__
    if name == "Sphere":
        return [(spec.b, spec.b)]
    if name == "ProlateEllipsoid":
        return [(spec.b, spec.a)]
    if name == "OblateEllipsoid":
        return [(spec.a, spec.b)]
    return [(spec.b, spec.b), (spec.a, spec.c)]


def mass_and_inertia_y(spec, constants):
    """Solid-ellipsoid mass and I_Y, summed over the massive parts."""
    name = type(spec).__name__
    if name == "Sphere":
        parts = [(spec.material, spec.b, spec.b, spec.b)]
    elif name == "ProlateEllipsoid":
        parts = [(spec.material, spec.b, spec.b, spec.a)]
    elif name == "OblateEllipsoid":
        parts = [(spec.material, spec.a, spec.a, spec.b)]
    else:
        parts = [(spec.material, spec.b, spec.b, spec.b)]
        if not spec.zero_mass_disk:
            parts.append((spec.disk_material, spec.a, spec.a, spec.c))
    m = I_y = mp.mpf(0)
    for material, A, B, C in parts:
        A, B, C = mp.mpf(A), mp.mpf(B), mp.mpf(C)
        mi = mp.mpf(constants.density(material)) * mp.mpf(4) / 3 * mp.pi * A * B * C
        m += mi
        I_y += mi * (A * A + C * C) / 5
    return m, I_y


def reference_rows(check_closed_form=True):
    """{(particle_type, c_over_b): [reference cell per COLUMNS]} at DPS digits."""
    cfg = RunConfig(DEFAULT_CONFIG)
    t1 = cfg.document["table1"]
    tc = cfg.trap_config()
    sigma = mp.mpf(t1["sigma_C_m2"])
    eta, z0 = mp.mpf(tc.eta), mp.mpf(tc.z0)
    V_ac, V_dc, Om = mp.mpf(tc.V_ac), mp.mpf(tc.V_dc), mp.mpf(tc.drive_frequency)

    def omega(C, J):
        q = C * V_ac / (J * Om ** 2)
        a = -2 * C * V_dc / (J * Om ** 2)
        return Om / 2 * mp.sqrt(a + q * q / 2)

    def body(spec):
        area = ix2 = iz2 = mp.mpf(0)
        for p, s in pieces(spec):
            p, s = mp.mpf(p), mp.mpf(s)
            vals = piece_quadrature(p, s)
            if check_closed_form:
                closed = piece_closed_form(p, s)
                for v, w in zip(vals, closed):
                    if abs(v - w) > mp.mpf(10) ** (10 - DPS) * abs(w):
                        raise RuntimeError(f"quadrature and closed form disagree: {v} vs {w}")
            area, ix2, iz2 = area + vals[0], ix2 + vals[1], iz2 + vals[2]
        Q = sigma * area
        m, I_y = mass_and_inertia_y(spec, DEFAULT_CONSTANTS)
        S_Y = (iz2 - ix2) / area
        w_com = omega(eta * Q / z0 ** 2, m)
        w_phi = omega(3 * eta * Q * S_Y / z0 ** 2, I_y)
        return w_com, w_phi, I_y

    w0, _, I0 = body(cfg.shape_spec("sphere", b=t1["b_m"]))
    rows = {}
    for sid in t1["rows"]:
        head, _, tail = sid.partition(":")
        w_com, w_phi, I_y = body(cfg.shape_spec(sid, b=t1["b_m"],
                                                aspect_ratio=t1["aspect_ratio"]))
        rows[(head, tail or "-")] = [w_com / w0, w_phi / w0,
                                     w_phi / w_com if w_com > 0 else mp.mpf(0), I_y / I0]
    return rows


def read_csv(path):
    lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return {(r["particle_type"], r["c_over_b"]): r
            for r in (dict(zip(header, l.split(","))) for l in lines[1:])}


def main(paths):
    mp.mp.dps = DPS
    ref = reference_rows()
    tables = [(p, read_csv(p)) for p in paths]
    worst = mp.mpf(0)
    for key, cells in ref.items():
        for col, r in zip(COLUMNS, cells):
            line = f"{key[0]:9s} {key[1]:6s} {col:26s} {mp.nstr(r, 20):>24s}"
            for _, table in tables:
                v = mp.mpf(table[key][col])
                d = abs(v - r) / abs(r) if r != 0 else abs(v)
                worst = max(worst, d)
                line += f"  {table[key][col]:>22s} {mp.nstr(d, 2):>8s}"
            print(line)
    print(f"largest relative distance {mp.nstr(worst, 2)} (tolerance {TOLERANCE:g})")
    return 1 if worst > TOLERANCE else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
