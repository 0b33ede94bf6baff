"""Configuration loading, validation, hashing, and deterministic seeding.

One JSON file holds every knob, grouped into sections.  Each section is a
dataclass whose field annotations are the schema: the loader checks every
value's JSON type against its field's annotation, and the dataclass's own
__post_init__ checks its range.  Unknown keys are rejected so typos fail
loudly.  Dotted command-line overrides (section.key=value) are applied to
the raw mapping before any validation runs.  A section never resolves its
own null field; the module that consumes the section derives it: photonlink
the efficiency for link.eta_override, repeater the Werner weight for chain.w0.

The sections live here, except `dot` and `material`, which come from the
numpy-free dotmodel, so loading a config imports no numpy and no numeric
module; each numeric module re-exports the sections it consumes.  numpy is
imported by derive_rng, draw_geometric and PulsedDrive.omega only when
called, and hashlib by derive_rng and config_hash.  Since
`import dotlink` is lazy and each CLI runner imports its own module,
`dotlink tune` loads only cli, config, dotmodel and units; every other
subcommand adds numpy and its numeric modules (gate: gatesim, qcore;
phonon: phonon; link: photonlink; readout: readout; repeater: repeater,
photonlink), and a sweep those of its parameter's subcommand.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields

from .dotmodel import MATERIAL_PRESETS, DotConfig, MaterialConstants

# the phonon table evaluates J once per grid point
MAX_GRID_POINTS = 10_000
# sample_link_times draws one int64 per sample: 80 MB at the cap in one
# call; simulate_chain calls it once per block, so there the cap bounds work
MAX_LINK_SAMPLES = 10_000_000
# simulate_readout draws a few int64 arrays of n_shots: ~80 MB each at the cap
MAX_SHOTS = 10_000_000
# histograms have n_cycles + 1 bins; poisson_limit_error loops to threshold
MAX_CYCLES = 1_000_000
# pulse support: clip where the envelope falls to 1e-6 of its peak
_SUPPORT_SIGMAS = math.sqrt(math.log(1e6))


@dataclass
class PulsedDrive:
    """Gaussian pulse omega0*exp(-t^2/tau^2) at detuning delta, in rad/ps."""

    omega0: float = 1.0
    tau_ps: float = 11.0
    delta: float = 0.75

    def __post_init__(self):
        if self.omega0 < 0:
            raise ValueError("omega0 must be nonnegative")
        if self.tau_ps <= 0:
            raise ValueError("tau_ps must be positive")
        try:
            area = self.omega_sq_integral()
        except OverflowError:
            area = math.inf
        if not math.isfinite(area):
            raise ValueError(f"omega0 = {self.omega0} and tau_ps = {self.tau_ps} give a pulse "
                             f"area omega0^2 * tau_ps * sqrt(pi/2) that is not a finite float")

    def omega(self, t_ps):
        import numpy as np
        return self.omega0 * np.exp(-(t_ps / self.tau_ps) ** 2)

    def support(self) -> tuple[float, float]:
        half = _SUPPORT_SIGMAS * self.tau_ps
        return (-half, half)

    def omega_sq_integral(self) -> float:
        """Analytic integral of omega^2 over all time, rad^2/ps."""
        return self.omega0 ** 2 * self.tau_ps * math.sqrt(math.pi / 2.0)


@dataclass
class RamanConfig:
    gamma_trion_per_s: float = 3e10
    delta_raman_mev: float = 30.0

    def __post_init__(self):
        if self.gamma_trion_per_s < 0:
            raise ValueError("decoherence rate must be nonnegative")
        if self.delta_raman_mev <= 0:
            raise ValueError("raman detuning must be positive")


@dataclass
class LinkBudget:
    """Per-photon efficiency factors, link geometry, and emitter quality.

    eta_override, when set, replaces the whole chain with one combined
    collection and detection efficiency.  delta_e_uev is the spectral
    mismatch between the two emitters and t_deph_ps their dephasing time.
    """

    eta_wg: float = 0.95
    t_switch_ps: float = 100.0
    eta_det: float = 1.0
    alpha_db_km: float = 0.0
    l0_km: float = 20.0
    c_fiber_km_ms: float = 200.0
    eta_override: float | None = 0.25
    delta_e_uev: float = 0.2
    t_deph_ps: float = 30000.0

    def __post_init__(self):
        for name in ("eta_wg", "eta_det"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.eta_override is not None and not 0.0 <= self.eta_override <= 1.0:
            raise ValueError("eta_override must be in [0, 1]")
        if self.l0_km <= 0 or self.c_fiber_km_ms <= 0:
            raise ValueError("l0_km and c_fiber_km_ms must be positive")
        if self.t_switch_ps < 0 or self.alpha_db_km < 0:
            raise ValueError("t_switch_ps and alpha_db_km must be nonnegative")
        if self.delta_e_uev < 0 or self.t_deph_ps <= 0:
            raise ValueError("delta_e_uev must be >= 0 and t_deph_ps > 0")


@dataclass
class ReadoutConfig:
    p_forbidden: float = 1e-3
    eta_det: float = 0.1
    n_cycles: int = 200
    threshold: int = 10
    n_shots: int = 100_000

    def __post_init__(self):
        if not 0.0 <= self.p_forbidden <= 1.0:
            raise ValueError("p_forbidden must be in [0, 1]")
        if not 0.0 <= self.eta_det <= 1.0:
            raise ValueError("eta_det must be in [0, 1]")
        # n_shots >= 2: the shelving-cycle standard error uses ddof=1
        for name, low, cap in (("n_cycles", 1, MAX_CYCLES), ("threshold", 1, MAX_CYCLES),
                               ("n_shots", 2, MAX_SHOTS)):
            if not low <= getattr(self, name) <= cap:
                raise ValueError(f"{name} must be in [{low}, {cap}]")


@dataclass
class ChainConfig:
    n_links: int = 64
    eps_gate: float = 0.005
    eps_meas: float = 0.005
    w0: float | None = None      # None: simulate_chain derives it from the link
    n_trials: int = 2000

    def __post_init__(self):
        if self.n_links < 1 or self.n_links & (self.n_links - 1):
            raise ValueError("n_links must be a power of two")
        for name in ("eps_gate", "eps_meas"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.w0 is not None and not 0.0 <= self.w0 <= 1.0:
            raise ValueError("w0 must be in [0, 1]")
        # the reported standard error (ddof=1) needs two trials
        if self.n_trials < 2:
            raise ValueError("n_trials must be at least 2")
        if self.n_trials * self.n_links > MAX_LINK_SAMPLES:
            raise ValueError(f"n_trials x n_links must be at most {MAX_LINK_SAMPLES}")


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

    def config_hash(self) -> str:
        import hashlib

        # out_dir is an execution detail: the same physics configuration must
        # hash identically wherever the results land
        blob = dataclasses.asdict(self)
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
    import hashlib

    import numpy as np
    tag = int.from_bytes(hashlib.sha256(module.encode()).digest()[:8], "big")
    ss = np.random.SeedSequence([int(seed) & (2 ** 63 - 1), tag, int(index)])
    return np.random.default_rng(ss)


def draw_geometric(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """rng.geometric(p, size=n), draw for draw, and faster below p = 1/3.

    For 0 < p < 1/3 numpy draws ceil(E / -log1p(-p)) for a standard
    exponential E and returns INT64_MAX from 2^63 up; the same arithmetic
    over one standard_exponential array skips its per-draw call.  From
    p = 1/3 numpy searches instead, so those draws stay with it.
    """
    import numpy as np
    if not 0.0 < p < 1.0 / 3.0:
        return rng.geometric(p, size=n)
    z = rng.standard_exponential(n)
    z /= -np.log1p(-p)
    np.ceil(z, out=z)
    with np.errstate(invalid="ignore"):   # a cast past INT64_MAX, replaced next
        draws = z.astype(np.int64)
    draws[z >= 2.0 ** 63] = np.iinfo(np.int64).max
    return draws
