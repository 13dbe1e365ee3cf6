"""Physical constants and material densities used across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """Bundle of physical constants; all values SI.

    ``gamma_nv`` is the NV electron-spin gyromagnetic ratio expressed as an
    ordinary frequency per tesla (g ~ 2.0028), and ``zero_field_splitting_D``
    the room-temperature ground-state splitting.  Any value can be overridden
    per run with dataclasses.replace.
    """

    hbar: float = 6.62607015e-34 / (2.0 * math.pi)  # J s
    h: float = 6.62607015e-34           # J s (exact SI)
    k_B: float = 1.380649e-23           # J/K
    elementary_charge: float = 1.602176634e-19  # C
    gamma_nv: float = 28.024e9          # Hz/T
    zero_field_splitting_D: float = 2.87e9      # Hz
    density_diamond: float = 3515.0     # kg/m^3
    density_silica: float = 2200.0      # kg/m^3

    def __post_init__(self):
        for name in ("hbar", "h", "k_B", "elementary_charge", "gamma_nv",
                     "zero_field_splitting_D", "density_diamond", "density_silica"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"constant {name!r} must be strictly positive")
        if not math.isclose(self.h, 2.0 * math.pi * self.hbar, rel_tol=1e-12):
            raise ValueError("h and hbar are inconsistent (h must equal 2*pi*hbar)")

    def density(self, material: str) -> float:
        """Mass density (kg/m^3) for a named material."""
        try:
            return {"diamond": self.density_diamond,
                    "silica": self.density_silica}[material]
        except KeyError:
            raise ValueError(f"unknown material {material!r}") from None


DEFAULT_CONSTANTS = PhysicalConstants()
