"""Simulator and error budget for spin-photon links between driven quantum dots.

The public names below are imported from their modules on first use, so
`import dotlink` loads no submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in (
    ("config", "ChainConfig LinkBudget PulsedDrive RamanConfig ReadoutConfig"),
    ("dotmodel", "DotConfig MaterialConstants NodePlan GAAS ZNSE addressing_plan "
                 "control_precision dipole_dipole_energy photon_energies varshni_shift "
                 "varshni_slope"),
    ("gatesim", "GateReport calibrate_phase raman_gate_error simulate_conditional_gate"),
    ("phonon", "EnvelopeWavefunction PhononModel min_separation model_from_dot "
               "phonon_error spectral_density"),
    ("photonlink", "BellOutcome bsa_coincidence dephasing_error link_attempt_stats "
                   "photon_efficiency sample_link_times wavepacket_overlap_error"),
    ("qcore", "TimeDependentHamiltonian Trajectory basis_state evolve_lindblad "
              "evolve_schrodinger pure_density"),
    ("readout", "ReadoutReport poisson_limit_error simulate_readout"),
    ("repeater", "ChainResult WernerPair analytic_mean_time simulate_chain swap"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
