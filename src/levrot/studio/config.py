"""Run configuration: a single JSON document, strictly validated.

Unknown keys are rejected with their path; every dimensioned field name
carries an explicit unit suffix (b_m, Vac_V, OmegaR_Hz, ...).  The reference
configuration in DEFAULT_CONFIG describes the 20 nm prolate scenario and is
used whenever no --config is given.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path

from ..constants import PhysicalConstants
from ..geometry import (Sphere, ProlateEllipsoid, OblateEllipsoid, Composite,
                        TotalCharge, SurfaceDensity)
from ..trap import TrapConfig

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "seed": 0,
    "constants": {},
    "particle": {"shape": "prolate", "b_m": 2.0e-8, "a_m": 5.0e-8},
    "charge": {"mode": "total", "Qtot_e": 366.0},
    "trap": {"Vac_V": 5000.0, "Vdc_V": 0.0, "drive_Hz": 5.0e7,
             "z0_m": 1.0e-5, "eta": 1.0},
    "spin": {"B_T": 0.030},
    "microwave": {"OmegaR_Hz": 5.0e8, "Delta_Hz": 0.0},
    "decoherence": {"T1_s": 1.0e-3, "T2star_s": 150.0e-6},
    "table1": {
        "b_m": 2.0e-8,
        "aspect_ratio": 2.5,
        "sigma_C_m2": 1.0e-6,
        "rows": ["sphere", "oblate", "prolate", "composite:0.125",
                 "composite:0.0625"],
    },
    "fig2_map": {
        "omega_phi_Hz": 5.0e6,
        "B_min_T": 0.0, "B_max_T": 0.1, "n_B": 200,
        "psi_min_rad": 0.01, "psi_max_rad": 1.56, "n_psi": 200,
        "overlay_OmegaR_Hz": [2.5e8, 5.0e8, 1.0e9],
    },
    "fig4_curves": {
        "OmegaR_min_Hz": 5.0e7, "OmegaR_max_Hz": 1.0e9, "n_OmegaR": 39,
        "families": [
            {"label": "b20", "b_m": 2.0e-8, "aspect_ratio": 2.5,
             "omega_phi_Hz": 5.0e6, "shapes": ["prolate", "oblate"]},
            {"label": "b80", "b_m": 8.0e-8, "aspect_ratio": 2.5,
             "omega_phi_Hz": 5.0e5,
             "shapes": ["prolate", "composite:0.125", "composite:0.0625",
                        "zero_mass_disk:0.0625"]},
        ],
    },
    "thermal": {
        "temperature_K": 300.0,
        "cases": [
            {"label": "b20", "b_m": 2.0e-8, "a_m": 5.0e-8, "omega_phi_Hz": 5.0e6},
            {"label": "b80", "b_m": 8.0e-8, "a_m": 2.0e-7, "omega_phi_Hz": 5.0e5},
        ],
    },
    "charges": {"b_m": 8.0e-8, "a_m": 2.0e-7, "omega_phi_Hz": 5.0e5,
                "ratio": 3.0, "drive_Hz": 5.0e6, "eta": 0.3,
                "reference_count_e": 60},
    "stability_chart": {"a_min": -0.1, "a_max": 0.1, "n_a": 10,
                        "q_min": 0.0, "q_max": 1.0, "n_q": 10},
    "dynamics": {"model": "linear", "phi1_0_rad": 0.01, "phi2_0_rad": 0.0,
                 "dphi1_0_radps": 0.0, "dphi2_0_radps": 0.0,
                 "n_secular_periods": 40.0, "samples": 4096,
                 "gamma_per_s": 0.0},
    "resonance": {"OmegaR_Hz": 5.0e8, "omega_phi_Hz": 5.0e6,
                  "solve_for": "field"},
    "coupling": {"omega_phi_Hz": 5.0e6},
    "jc_sim": {"N_max": 8, "kind": "jaynes_cummings",
               "initial_spin": "plus", "initial_n": 1,
               "n_transfers": 3.0, "samples": 1200,
               "phonon_rate_per_s": 0.0, "use_decoherence": False},
}

_CONSTANT_KEYS = {
    "hbar_J_s": "hbar", "h_J_s": "h", "kB_J_K": "k_B",
    "elementary_charge_C": "elementary_charge",
    "gamma_nv_Hz_T": "gamma_nv", "zero_field_splitting_Hz": "zero_field_splitting_D",
    "density_diamond_kg_m3": "density_diamond",
    "density_silica_kg_m3": "density_silica",
}


def _check_keys(section: dict, allowed, path: str):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in '{path}'")


# sections whose key sets depend on a mode discriminator are replaced
# wholesale and validated on their own; everything else merges key by key
_REPLACE_SECTIONS = {"constants", "particle", "charge"}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    """Recursive merge of an override document onto the defaults.

    Only keys present in the defaults are accepted; lists and the
    mode-discriminated sections are replaced wholesale.
    """
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown key '{here}'")
        if isinstance(base[key], dict) and here not in _REPLACE_SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"'{here}' must be an object")
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


class RunConfig:
    """Validated configuration document plus typed accessors."""

    def __init__(self, document: dict):
        if not isinstance(document, dict):
            raise ConfigError("configuration must be a JSON object")
        self.document = _merge(DEFAULT_CONFIG, document)
        self._validate()

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    @classmethod
    def default(cls) -> "RunConfig":
        return cls({})

    # -- validation -------------------------------------------------------

    def _validate(self):
        doc = self.document
        _check_keys(doc["constants"], _CONSTANT_KEYS, "constants")
        particle = doc["particle"]
        shape = particle.get("shape")
        if shape not in ("sphere", "prolate", "oblate", "composite"):
            raise ConfigError(f"unknown particle shape {shape!r}")
        allowed, required = {"shape", "b_m"}, {"shape", "b_m"}
        if shape in ("prolate", "oblate"):
            allowed |= {"a_m"}
            required |= {"a_m"}
        if shape == "composite":
            allowed |= {"a_m", "c_m", "disk_material", "zero_mass_disk"}
            required |= {"a_m", "c_m"}
        _check_keys(particle, allowed, "particle")
        missing = required - set(particle)
        if missing:
            raise ConfigError(f"particle is missing key(s) {sorted(missing)}")
        charge = doc["charge"]
        if charge.get("mode") == "total":
            _check_keys(charge, {"mode", "Qtot_e"}, "charge")
            if "Qtot_e" not in charge:
                raise ConfigError("charge mode 'total' needs Qtot_e")
        elif charge.get("mode") == "surface_density":
            _check_keys(charge, {"mode", "sigma_C_m2"}, "charge")
            if "sigma_C_m2" not in charge:
                raise ConfigError("charge mode 'surface_density' needs sigma_C_m2")
        else:
            raise ConfigError("charge.mode must be 'total' or 'surface_density'")
        for row in doc["table1"]["rows"]:
            self._parse_shape_id(row)  # raises on malformed ids
        for fam in doc["fig4_curves"]["families"]:
            _check_keys(fam, {"label", "b_m", "aspect_ratio", "omega_phi_Hz",
                              "shapes"}, "fig4_curves.families[]")
            for sid in fam["shapes"]:
                self._parse_shape_id(sid)
        for key in ("phi1_0_rad", "phi2_0_rad"):
            angle = doc["dynamics"][key]
            if not isinstance(angle, (int, float)) or not abs(angle) <= math.pi / 2:
                raise ConfigError(f"dynamics.{key} must be a number in [-pi/2, pi/2] "
                                  "(the small-angle rotor model)")
        if doc["resonance"]["solve_for"] not in ("field", "detuning"):
            raise ConfigError("resonance.solve_for must be 'field' or 'detuning'")
        if doc["jc_sim"]["kind"] not in ("jaynes_cummings", "full_rabi"):
            raise ConfigError("jc_sim.kind must be 'jaynes_cummings' or 'full_rabi'")

    @staticmethod
    def _parse_shape_id(shape_id: str):
        """'sphere' | 'prolate' | 'oblate' | 'composite:<c/b>' | 'zero_mass_disk:<c/b>'."""
        head, _, tail = shape_id.partition(":")
        if head in ("sphere", "prolate", "oblate") and not tail:
            return head, None
        if head in ("composite", "zero_mass_disk"):
            try:
                cb = float(tail)
            except ValueError:
                raise ConfigError(f"malformed shape id {shape_id!r}") from None
            if not 0.0 < cb <= 1.0:
                raise ConfigError(f"c/b ratio out of range in {shape_id!r}")
            return head, cb
        raise ConfigError(f"unknown shape id {shape_id!r}")

    # -- typed accessors --------------------------------------------------

    def constants(self) -> PhysicalConstants:
        overrides = {_CONSTANT_KEYS[k]: v for k, v in self.document["constants"].items()}
        return PhysicalConstants(**{**PhysicalConstants().__dict__, **overrides})

    def particle_spec(self):
        p = self.document["particle"]
        return self.shape_spec(p["shape"] if p["shape"] != "composite"
                               else f"composite:{p['c_m'] / p['b_m']}",
                               b=p["b_m"],
                               a=p.get("a_m"),
                               disk_material=p.get("disk_material", "silica"),
                               zero_mass=p.get("zero_mass_disk", False))

    def shape_spec(self, shape_id: str, b: float, a: float | None = None,
                   aspect_ratio: float = 2.5, disk_material: str = "silica",
                   zero_mass: bool = False):
        """Build a particle spec from a shape id and the minimum radius b."""
        head, cb = self._parse_shape_id(shape_id)
        if a is None:
            a = aspect_ratio * b
        if head == "sphere":
            return Sphere(b=b)
        if head == "prolate":
            return ProlateEllipsoid(a=a, b=b)
        if head == "oblate":
            return OblateEllipsoid(a=a, b=b)
        zero_mass = zero_mass or head == "zero_mass_disk"
        return Composite(b=b, a=a, c=cb * b, disk_material=disk_material,
                         zero_mass_disk=zero_mass)

    def charge_model(self, constants: PhysicalConstants):
        c = self.document["charge"]
        if c["mode"] == "total":
            return TotalCharge(Q_tot=c["Qtot_e"] * constants.elementary_charge)
        return SurfaceDensity(sigma=c["sigma_C_m2"])

    def trap_config(self) -> TrapConfig:
        t = self.document["trap"]
        return TrapConfig(V_ac=t["Vac_V"], V_dc=t["Vdc_V"],
                          drive_frequency=TWO_PI * t["drive_Hz"],
                          z0=t["z0_m"], eta=t["eta"])

    def sha256(self) -> str:
        canonical = json.dumps(self.document, sort_keys=True,
                               separators=(",", ":")).encode()
        return hashlib.sha256(canonical).hexdigest()


def write_schema(path: Path):
    """Emit a JSON-schema-style description of the accepted document."""

    def describe(node):
        if isinstance(node, dict):
            return {"type": "object",
                    "additionalProperties": False,
                    "properties": {k: describe(v) for k, v in node.items()}}
        if isinstance(node, list):
            item = describe(node[0]) if node else {}
            return {"type": "array", "items": item}
        if isinstance(node, bool):
            return {"type": "boolean", "default": node}
        if isinstance(node, (int, float)):
            return {"type": "number", "default": node}
        return {"type": "string", "default": node}

    schema = describe(DEFAULT_CONFIG)
    schema["$comment"] = ("All dimensioned field names carry unit suffixes; "
                          "'constants' accepts overrides: "
                          + ", ".join(sorted(_CONSTANT_KEYS)))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)
        fh.write("\n")
