"""Configuration loading, overrides, hashing, and RNG stream derivation."""

import dataclasses
import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dotlink
from dotlink import config
from dotlink.config import (
    ExperimentConfig,
    apply_override,
    config_from_dict,
    derive_rng,
    draw_geometric,
    load_config,
)


def test_defaults_and_hash_stability():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 64
    c = config_from_dict({"drive": {"tau_ps": 22.0}})
    assert c.config_hash() != a.config_hash()
    assert c.drive.tau_ps == 22.0
    # where the results land must not change the configuration identity
    assert config_from_dict({"out_dir": "elsewhere"}).config_hash() == a.config_hash()
    assert config_from_dict({"seed": 1}).config_hash() != a.config_hash()
    # untouched sections keep defaults
    assert c.readout.n_shots == 100_000
    assert c.material.name == "GaAs"


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown key.*top level"):
        config_from_dict({"dirve": {"tau_ps": 22.0}})
    with pytest.raises(ValueError, match="unknown key"):
        config_from_dict({"drive": {"tau": 22.0}})
    with pytest.raises(ValueError, match="mapping"):
        config_from_dict({"drive": 3.0})
    # knobs that nothing read are gone
    for key in ("g_e", "hole_levels_mev", "e_level1_mev", "p_forbidden"):
        with pytest.raises(ValueError, match="unknown key"):
            config_from_dict({"dot": {key: 1.0}})


def test_material_presets_and_inline():
    cfg = config_from_dict({"material": "ZnSe"})
    assert cfg.material.name == "ZnSe"
    inline = config_from_dict({"material": {
        "name": "toy", "eps_r": 10.0, "rho_kg_m3": 5000.0, "c_s_m_s": 5000.0,
        "d_c_ev": -7.0, "d_v_ev": 1.0, "varshni_alpha_mev_k": 0.5,
        "varshni_beta_k": 200.0}})
    assert inline.material.eps_r == 10.0
    with pytest.raises(ValueError, match="preset"):
        config_from_dict({"material": "diamond"})
    with pytest.raises(ValueError, match="preset name or a mapping"):
        config_from_dict({"material": ["GaAs"]})
    with pytest.raises(ValueError, match="required"):
        config_from_dict({"material": {"name": "toy"}})


def test_integer_fields_coerced_strictly():
    cfg = config_from_dict({"chain": {"n_links": 32.0}, "seed": 7.0})
    assert cfg.chain.n_links == 32 and isinstance(cfg.chain.n_links, int)
    assert cfg.seed == 7 and isinstance(cfg.seed, int)
    with pytest.raises(ValueError, match="integer"):
        config_from_dict({"chain": {"n_links": 32.5}})
    with pytest.raises(ValueError, match="expected int, got bool"):
        config_from_dict({"readout": {"n_shots": True}})


@pytest.mark.parametrize("raw,match", [
    ({"gate": {"e_dd_mev": "5"}}, "expected float, got str"),
    ({"readout": {"n_cycles": "64"}}, "expected int, got str"),
    ({"drive": {"tau_ps": [11.0]}}, "expected float, got list"),
    ({"link": {"eta_override": {}}}, "expected float, got dict"),
    ({"drive": {"delta": None}}, "expected float, got NoneType"),
    ({"out_dir": 5}, "expected str, got int"),
    ({"link": {"l0_km": math.nan}}, "finite"),
    ({"raman": {"gamma_trion_per_s": math.nan}}, "finite"),
    ({"drive": {"delta": math.inf}}, "finite"),
    ({"gate": {"e_dd_mev": math.nan}}, "finite"),
    ({"chain": {"n_trials": math.inf}}, "finite"),
    ({"link": {"l0_km": 10 ** 400}}, "too large"),
])
def test_field_types_from_annotations(raw, match):
    with pytest.raises(ValueError, match=match):
        config_from_dict(raw)


def test_optional_and_infinite_fields():
    cfg = config_from_dict({"link": {"eta_override": None}, "chain": {"w0": 0.5},
                            "gate": {"e_dd_mev": math.inf}})
    assert cfg.link.eta_override is None and cfg.chain.w0 == 0.5
    # the perfect-blockade limit is the one infinite value accepted
    assert cfg.gate.e_dd_mev == math.inf
    assert config_from_dict({"gate": {"e_dd_mev": -math.inf}}).gate.e_dd_mev == -math.inf
    # ints stay ints in float fields, so configs and hashes round-trip exactly
    assert config_from_dict({"drive": {"tau_ps": 11}}).drive.tau_ps == 11


def test_invalid_values_propagate():
    with pytest.raises(ValueError, match="chain"):
        config_from_dict({"chain": {"n_links": 3}})
    with pytest.raises(ValueError, match="readout"):
        config_from_dict({"readout": {"n_shots": 0}})
    # size bounds: the benchmark's 1e6 shots and 64 x 1e5 chain samples load
    config_from_dict({"readout": {"n_shots": 1_000_000},
                      "chain": {"n_links": 64, "n_trials": 100_000}})
    for raw in ({"readout": {"n_shots": 10 ** 8}},
                {"chain": {"n_links": 64, "n_trials": 10 ** 6}},
                {"phonon": {"delta_step_mev": 1e-6}}):
        with pytest.raises(ValueError, match="must be|exceeds"):
            config_from_dict(raw)


def test_overrides():
    raw = {}
    apply_override(raw, "drive.tau_ps=22")
    apply_override(raw, "material=ZnSe")
    apply_override(raw, "chain.n_links=8")
    cfg = config_from_dict(raw)
    assert cfg.drive.tau_ps == 22
    assert cfg.material.name == "ZnSe"
    assert cfg.chain.n_links == 8
    with pytest.raises(ValueError, match="key=value"):
        apply_override(raw, "drive.tau_ps")


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7, "drive": {"omega0": 0.9}}))
    cfg = load_config(str(path), overrides=["drive.omega0=1.1"], out_dir="o")
    assert cfg.seed == 7
    assert cfg.drive.omega0 == 1.1
    assert cfg.out_dir == "o"
    # CLI seed wins over the file
    assert load_config(str(path), seed=9).seed == 9
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_config(str(bad))


def test_derive_rng_streams():
    a = derive_rng(12345, "readout")
    b = derive_rng(12345, "readout")
    assert np.array_equal(a.integers(0, 1 << 30, 8), b.integers(0, 1 << 30, 8))
    base = derive_rng(12345, "readout").integers(0, 1 << 30, 8)
    # different module, seed, or index each give an independent stream
    for other in (derive_rng(12345, "repeater"),
                  derive_rng(54321, "readout"),
                  derive_rng(12345, "readout", index=1)):
        assert not np.array_equal(other.integers(0, 1 << 30, 8), base)


@pytest.mark.parametrize("p", [1e-20, 9.488e-4, 0.04419, math.nextafter(1 / 3, 0), 1 / 3, 0.5,
                               1.0])
def test_draw_geometric_equals_numpy(p):
    # numpy's inversion below 1/3, whose draws clip at INT64_MAX (every one
    # at p = 1e-20), the last p before its switch, and its search from 1/3
    # on: the same draws, dtype and stream position
    ours, numpy = np.random.default_rng(3), np.random.default_rng(3)
    draws, expected = draw_geometric(ours, p, 20_000), numpy.geometric(p, size=20_000)
    assert draws.dtype == expected.dtype and np.array_equal(draws, expected)
    assert ours.random() == numpy.random()


SECTION_KEYS = {name: [f.name for f in dataclasses.fields(section)] + ["bogus"]
                for name, section in vars(ExperimentConfig()).items()
                if dataclasses.is_dataclass(section)}
TOP_KEYS = list(vars(ExperimentConfig())) + ["bogus"]
JSON_VALUES = st.one_of(
    st.sampled_from([0, 1, 2, 16, 64, 0.5, 1e-3, -1.0, 7.5, 300.0, "GaAs", "ZnSe",
                     2 ** 63, 10 ** 20, 10 ** 400, -10 ** 400]),
    st.none(), st.booleans(), st.text(max_size=4), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@st.composite
def raw_configs(draw):
    raw = {}
    for name in draw(st.lists(st.sampled_from(TOP_KEYS), max_size=4, unique=True)):
        if name in SECTION_KEYS and draw(st.booleans()):
            raw[name] = draw(st.dictionaries(st.sampled_from(SECTION_KEYS[name]),
                                             JSON_VALUES, max_size=4))
        else:
            raw[name] = draw(JSON_VALUES)
    return raw


# each example takes well under a millisecond; the deadline and the health
# check only need slack for a stalled process on a shared host
@settings(max_examples=100, deadline=1000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw_configs())
def test_any_mapping_loads_or_raises_value_error(raw):
    try:
        cfg = config_from_dict(raw)
    except ValueError:
        return
    assert len(cfg.config_hash()) == 64


# the package's 47 public names by defining module: the sections came to
# config from the numeric modules that consume them, which still export them
PUBLIC_API = {
    "config": "ChainConfig LinkBudget PulsedDrive RamanConfig ReadoutConfig",
    "dotmodel": "DotConfig MaterialConstants NodePlan GAAS ZNSE addressing_plan "
                "control_precision dipole_dipole_energy photon_energies varshni_shift "
                "varshni_slope",
    "gatesim": "GateReport calibrate_phase raman_gate_error simulate_conditional_gate",
    "phonon": "EnvelopeWavefunction PhononModel min_separation model_from_dot phonon_error "
              "spectral_density",
    "photonlink": "BellOutcome bsa_coincidence dephasing_error link_attempt_stats "
                  "photon_efficiency sample_link_times wavepacket_overlap_error",
    "qcore": "TimeDependentHamiltonian Trajectory basis_state evolve_lindblad "
             "evolve_schrodinger pure_density",
    "readout": "ReadoutReport poisson_limit_error simulate_readout",
    "repeater": "ChainResult WernerPair analytic_mean_time simulate_chain swap",
}
MOVED = {"gatesim": "PulsedDrive RamanConfig", "photonlink": "LinkBudget MAX_LINK_SAMPLES",
         "readout": "ReadoutConfig MAX_SHOTS MAX_CYCLES", "repeater": "ChainConfig"}


def test_public_api_unchanged():
    exported = [(module, name) for module, names in PUBLIC_API.items()
                for name in names.split()]
    assert len(exported) == 47
    assert sorted(dotlink.__all__) == sorted(name for _, name in exported)
    for module, name in exported:
        assert name in dir(dotlink)
        assert getattr(dotlink, name) is getattr(importlib.import_module(f"dotlink.{module}"),
                                                 name), name
    for module, names in MOVED.items():
        old = importlib.import_module(f"dotlink.{module}")
        for name in names.split():
            assert getattr(old, name) is getattr(config, name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dotlink.no_such_name
