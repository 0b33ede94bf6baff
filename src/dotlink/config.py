"""Configuration loading, validation, hashing, and deterministic seeding.

One JSON file holds every knob, grouped into sections.  Each section is the
dataclass that consumes it, so the field annotations are the schema: the
loader checks every value's JSON type against its field's annotation, and
the dataclass's own __post_init__ checks its range.  Unknown keys are
rejected so typos fail loudly.  Dotted command-line overrides
(section.key=value) are applied to the raw mapping before any validation
runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .dotmodel import MATERIAL_PRESETS, DotConfig, MaterialConstants
from .gatesim import PulsedDrive, RamanConfig
from .photonlink import LinkBudget
from .readout import ReadoutConfig
from .repeater import ChainConfig

# the phonon table evaluates J once per grid point
MAX_GRID_POINTS = 10_000


@dataclass
class PhononSettings:
    e_s_mev: float = 7.5
    e_w_mev: float = 15.0
    error_budget: float = 0.0014
    delta_min_mev: float = 0.5
    delta_max_mev: float = 15.0
    delta_step_mev: float = 0.25

    def __post_init__(self):
        if self.e_s_mev <= 0 or self.e_w_mev <= 0:
            raise ValueError("e_s_mev and e_w_mev must be positive")
        if self.error_budget <= 0:
            raise ValueError("error_budget must be positive")
        if not (0 < self.delta_min_mev < self.delta_max_mev) or self.delta_step_mev <= 0:
            raise ValueError("bad spectral-density grid")
        if (self.delta_max_mev - self.delta_min_mev) / self.delta_step_mev > MAX_GRID_POINTS:
            raise ValueError(f"spectral-density grid exceeds {MAX_GRID_POINTS} points")


@dataclass
class GateSettings:
    # negative flips the dipole shift to binding; infinity is the perfect
    # blockade, the one infinite value the loader accepts
    e_dd_mev: float = field(default=5.0, metadata={"allow_inf": True})
    r_dd_nm: float = 10.0        # dot separation for the dipole-dipole estimate

    def __post_init__(self):
        if self.r_dd_nm <= 0:
            raise ValueError("r_dd_nm must be positive")


@dataclass
class ExperimentConfig:
    seed: int = 12345
    out_dir: str = "results"
    dot: DotConfig = field(default_factory=DotConfig)
    material: MaterialConstants = field(default_factory=lambda: MATERIAL_PRESETS["GaAs"])
    drive: PulsedDrive = field(default_factory=PulsedDrive)
    link: LinkBudget = field(default_factory=LinkBudget)
    readout: ReadoutConfig = field(default_factory=ReadoutConfig)
    chain: ChainConfig = field(default_factory=ChainConfig)
    phonon: PhononSettings = field(default_factory=PhononSettings)
    gate: GateSettings = field(default_factory=GateSettings)
    raman: RamanConfig = field(default_factory=RamanConfig)

    def canonical_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        # out_dir is an execution detail: the same physics configuration must
        # hash identically wherever the results land
        blob = self.canonical_dict()
        blob.pop("out_dir")
        text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


# JSON value types each annotated field type accepts (bool never does)
_JSON_TYPES = {int: (int, float), float: (int, float), str: (str,)}


def _coerce(value, typ, where: str, allow_inf: bool = False):
    """Check one JSON value against a field annotation and return it.

    Integral floats become ints for int fields; ints stay ints for float
    fields.  NaN is rejected everywhere, infinity unless allow_inf.
    """
    options = typing.get_args(typ)
    if options:                  # X | None
        if value is None:
            return None
        (typ,) = (t for t in options if t is not type(None))
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[typ]):
        raise ValueError(f"{where}: expected {typ.__name__}, got {type(value).__name__}")
    if isinstance(value, float):
        if math.isnan(value) or (math.isinf(value) and not allow_inf):
            raise ValueError(f"{where}: expected a finite number, got {value}")
        if typ is int:
            if not value.is_integer():
                raise ValueError(f"{where}: expected integer, got {value}")
            return int(value)
    elif typ is float and abs(value) > sys.float_info.max:
        raise ValueError(f"{where}: integer too large for a float")
    return value


def _material(value) -> MaterialConstants:
    if not isinstance(value, str):
        raise ValueError("material must be a preset name or a mapping")
    if value not in MATERIAL_PRESETS:
        raise ValueError(f"unknown material preset {value!r}; "
                         f"have {sorted(MATERIAL_PRESETS)}")
    return MATERIAL_PRESETS[value]


def _build(cls, data, where: str = ""):
    """Construct dataclass cls from a JSON mapping, typing each field.

    where is the dotted path of the mapping, empty at the top level.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where or 'the config root'} must be a mapping")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ValueError(f"unknown key(s) in {where or 'the top level'}: "
                         f"{sorted(unknown, key=str)}")
    kwargs = {}
    for f in fields(cls):
        path = f"{where}.{f.name}" if where else f.name
        if f.name not in data:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{path} is required")
            continue
        value, typ = data[f.name], hints[f.name]
        if typ is MaterialConstants and not isinstance(value, dict):
            kwargs[f.name] = _material(value)
        elif dataclasses.is_dataclass(typ):
            kwargs[f.name] = _build(typ, value, path)
        else:
            kwargs[f.name] = _coerce(value, typ, path, f.metadata.get("allow_inf", False))
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def config_from_dict(raw: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, raw)


def apply_override(raw: dict, assignment: str):
    """Apply one dotted key=value override to the raw config mapping."""
    if "=" not in assignment:
        raise ValueError(f"override {assignment!r} is not key=value")
    key, text = assignment.split("=", 1)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text  # bare strings allowed, e.g. material=ZnSe
    parts = key.strip().split(".")
    node = raw
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ValueError(f"override {key!r} descends into a non-mapping")
    node[parts[-1]] = value


def load_config(path=None, overrides=(), seed=None, out_dir=None) -> ExperimentConfig:
    raw = {}
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config root must be a JSON object")
    for assignment in overrides:
        apply_override(raw, assignment)
    if seed is not None:
        raw["seed"] = seed
    if out_dir is not None:
        raw["out_dir"] = out_dir
    return config_from_dict(raw)


def derive_rng(seed: int, module: str, index: int = 0) -> np.random.Generator:
    """Independent stream for (seed, module, index), stable across platforms."""
    tag = int.from_bytes(hashlib.sha256(module.encode()).digest()[:8], "big")
    ss = np.random.SeedSequence([int(seed) & (2 ** 63 - 1), tag, int(index)])
    return np.random.default_rng(ss)
