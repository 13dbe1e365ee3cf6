"""Run configuration: a single JSON document, declared once.

DEFAULT_CONFIG holds the defaults (the 20 nm prolate scenario), and each key
takes its default's JSON type.  The tables below it add what a default cannot
say: allowed strings, bounds, the shape-id and file-name label
grammars and the keys of the sections a document replaces wholesale.
RunConfig checks a document against the schema built from both, naming the
dotted key in any error, and write_schema publishes it as
docs/config_schema.json.  Field names carry unit suffixes (b_m, Vac_V,
OmegaR_Hz, ...).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

from ..constants import DEFAULT_CONSTANTS, PhysicalConstants
from ..geometry import (Sphere, ProlateEllipsoid, OblateEllipsoid, Composite,
                        TotalCharge, SurfaceDensity)
from ..nv_spin import TWO_PI
from ..quantum_sim import SPIN_LABELS
from ..rotor_dynamics import ANGLE_LIMIT, MIN_SPECTRAL_SAMPLES
from ..trap import TrapConfig


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
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

_COMPOSITE_OPTIONS = {"disk_material": "silica", "zero_mass_disk": False}

# Sections that a document replaces wholesale.  The discriminator's value
# picks a variant: the keys it requires, whose values only fix their type,
# and the optional keys it allows, whose values are their defaults.
_VARIANTS = {
    "particle": ("shape", {
        "sphere": ({"b_m": 0.0}, {}),
        "prolate": ({"b_m": 0.0, "a_m": 0.0}, {}),
        "oblate": ({"b_m": 0.0, "a_m": 0.0}, {}),
        "composite": ({"b_m": 0.0, "a_m": 0.0, "c_m": 0.0}, _COMPOSITE_OPTIONS),
    }),
    "charge": ("mode", {"total": ({"Qtot_e": 0.0}, {}),
                        "surface_density": ({"sigma_C_m2": 0.0}, {})}),
}

# end of the string: a schema validator applies a pattern with re.search, where
# a bare '$' also matches before a final newline
_END = r"$(?!\n)"
# 'sphere' | 'prolate' | 'oblate' | 'composite:<c/b>' | 'zero_mass_disk:<c/b>',
# with c/b a decimal in (0, 1]: 1, a fraction, or either with a negative exponent
_FRACTION = r"\.[0-9]*[1-9][0-9]*"
_SHAPE_ID = {"pattern": r"^(sphere|prolate|oblate|(composite|zero_mass_disk):"
                        rf"0*(1(\.0*)?|{_FRACTION}|"
                        rf"([1-9](\.[0-9]*)?|{_FRACTION})[eE]-0*[1-9][0-9]*)){_END}"}
# a label becomes part of a file name: no path separators, dots or spaces
_LABEL = {"pattern": f"^[A-Za-z0-9_-]+{_END}"}
_PATTERN_MEANING = {_SHAPE_ID["pattern"]: "a shape id with 0 < c/b <= 1",
                    _LABEL["pattern"]: "letters, digits, '_' and '-' only"}
_COUNT = {"minimum": 1}
_POSITIVE = {"minimum": 0, "exclusiveMinimum": True}
_ANGLE = {"minimum": -ANGLE_LIMIT, "maximum": ANGLE_LIMIT}  # small-angle rotor model

# per-key schema keywords; a list's items are keyed '<list>[]', bounds are
# inclusive unless declared exclusive (draft 4: a boolean beside the bound)
_DECLARED = {
    "dynamics.model": {"enum": ["linear", "nonlinear"]},
    "resonance.solve_for": {"enum": ["field", "detuning"]},
    "jc_sim.kind": {"enum": ["jaynes_cummings", "full_rabi"]},
    "jc_sim.initial_spin": {"enum": list(SPIN_LABELS)},
    "particle.disk_material": {"enum": ["silica", "diamond"]},
    "fig2_map.n_B": _COUNT, "fig2_map.n_psi": _COUNT, "fig4_curves.n_OmegaR": _COUNT,
    "stability_chart.n_a": _COUNT, "stability_chart.n_q": _COUNT,
    # the dynamics verb extracts a spectral line; evolve needs a time grid
    "dynamics.samples": {"minimum": MIN_SPECTRAL_SAMPLES},
    "jc_sim.samples": {"minimum": 2},
    "dynamics.n_secular_periods": _POSITIVE, "jc_sim.n_transfers": _POSITIVE,
    "dynamics.gamma_per_s": {"minimum": 0}, "jc_sim.phonon_rate_per_s": {"minimum": 0},
    "dynamics.phi1_0_rad": _ANGLE, "dynamics.phi2_0_rad": _ANGLE,
    "table1.rows[]": _SHAPE_ID, "fig4_curves.families[].shapes[]": _SHAPE_ID,
    "fig4_curves.families[].label": _LABEL,
}

# bool before int: a boolean is an int to isinstance
_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "array", dict: "object"}


def _schema(value, key: str = "", default: bool = True) -> dict:
    """Schema of one key; list items carry no defaults and need all their keys."""
    if key in _VARIANTS:
        field, variants = _VARIANTS[key]
        branches = [{"type": "object", "additionalProperties": False,
                     "required": [field, *need],
                     "properties": {field: {"type": "string", "enum": [name]},
                                    **{k: _schema(v, f"{key}.{k}", k in allow)
                                       for k, v in {**need, **allow}.items()}}}
                    for name, (need, allow) in variants.items()]
        return {"type": "object", "default": value, "oneOf": branches}
    if key == "constants":
        value = {k: getattr(DEFAULT_CONSTANTS, a) for k, a in _CONSTANT_KEYS.items()}
    node = {"type": _JSON_TYPES[type(value)], **_DECLARED.get(key, {})}
    if isinstance(value, dict):
        node["additionalProperties"] = False
        node["properties"] = {k: _schema(v, f"{key}.{k}" if key else k, default)
                              for k, v in value.items()}
        if not default:
            node["required"] = list(value)
        return node
    if default:
        node["default"] = value
    if isinstance(value, list):
        node["items"] = _schema(value[0], key + "[]", False)
    return node


_SCHEMA = _schema(DEFAULT_CONFIG)


def _check(value, node: dict, path: str = ""):
    """Raise a ConfigError naming the dotted key where value breaks node."""
    kind = node["type"]
    got = next((name for t, name in _JSON_TYPES.items() if isinstance(value, t)), None)
    if got != kind and (kind, got) != ("number", "integer"):
        raise ConfigError(f"{path or 'configuration'} must be a JSON {kind}, "
                          f"got {value!r}")
    # JSON Schema has no word for NaN or Infinity, which json.load accepts
    if got == "number" and not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    if "enum" in node and value not in node["enum"]:
        raise ConfigError(f"{path} must be one of {node['enum']}, got {value!r}")
    if "minimum" in node:
        exclusive = node.get("exclusiveMinimum", False)
        if not (value > node["minimum"] if exclusive else value >= node["minimum"]):
            raise ConfigError(f"{path} must be {'>' if exclusive else '>='} "
                              f"{node['minimum']}, got {value!r}")
    if "maximum" in node and not value <= node["maximum"]:
        raise ConfigError(f"{path} must be <= {node['maximum']}, got {value!r}")
    if "pattern" in node and not re.fullmatch(node["pattern"], value):
        raise ConfigError(f"{path} must be {_PATTERN_MEANING[node['pattern']]}, "
                          f"got {value!r}")
    if "oneOf" in node:
        field, variants = _VARIANTS[path]
        _check(value.get(field), {"type": "string", "enum": list(variants)},
               f"{path}.{field}")
        node = node["oneOf"][list(variants).index(value[field])]
    if kind == "object":
        for key in node.get("required", ()):
            if key not in value:
                raise ConfigError(f"missing key '{path}.{key}'")
        for key, item in value.items():
            here = f"{path}.{key}" if path else key
            if key not in node["properties"]:
                raise ConfigError(f"unknown key '{here}'")
            _check(item, node["properties"][key], here)
    elif kind == "array":
        for i, item in enumerate(value):
            _check(item, node["items"], f"{path}[{i}]")


def _merge(document: dict) -> dict:
    """The defaults with each section merged in, or replaced if it has variants."""
    merged = copy.deepcopy(DEFAULT_CONFIG)
    for name, section in copy.deepcopy(document).items():
        merged[name] = section if name in _VARIANTS else {**merged[name], **section}
    return merged


class RunConfig:
    """Validated configuration document plus typed accessors."""

    def __init__(self, document: dict):
        _check(document, _SCHEMA)
        self.document = _merge(document)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    @classmethod
    def default(cls) -> "RunConfig":
        return cls({})

    # -- typed accessors --------------------------------------------------

    def constants(self) -> PhysicalConstants:
        return dataclasses.replace(
            DEFAULT_CONSTANTS,
            **{_CONSTANT_KEYS[k]: v for k, v in self.document["constants"].items()})

    def particle_spec(self):
        """The configured particle; a composite disk keeps its c_m as given."""
        p = {**_COMPOSITE_OPTIONS, **self.document["particle"]}
        if p["shape"] == "composite":
            return Composite(b=p["b_m"], a=p["a_m"], c=p["c_m"],
                             disk_material=p["disk_material"],
                             zero_mass_disk=p["zero_mass_disk"])
        return self.shape_spec(p["shape"], b=p["b_m"], a=p.get("a_m"))

    def shape_spec(self, shape_id: str, b: float, a: float | None = None,
                   aspect_ratio: float = 2.5):
        """Build a particle spec from a shape id and the minimum radius b."""
        head, _, cb = shape_id.partition(":")
        if a is None:
            a = aspect_ratio * b
        if head == "sphere":
            return Sphere(b=b)
        if head == "prolate":
            return ProlateEllipsoid(a=a, b=b)
        if head == "oblate":
            return OblateEllipsoid(a=a, b=b)
        return Composite(b=b, a=a, c=float(cb) * b,
                         zero_mass_disk=head == "zero_mass_disk")

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
    """Write the draft-4 JSON schema that a run configuration is checked against."""
    schema = {"$schema": "http://json-schema.org/draft-04/schema#",
              "description": "levrot run configuration; omitted keys take their defaults",
              **_SCHEMA}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)
        fh.write("\n")
