"""Simulator and error budget for spin-photon links between driven quantum dots."""

__version__ = "0.1.0"

from .dotmodel import (DotConfig, MaterialConstants, NodePlan, GAAS, ZNSE,
                       addressing_plan, control_precision, dipole_dipole_energy,
                       photon_energies, varshni_shift, varshni_slope)
from .gatesim import (GateReport, PulsedDrive, RamanConfig, calibrate_phase,
                      raman_gate_error, simulate_conditional_gate)
from .phonon import (EnvelopeWavefunction, PhononModel, min_separation,
                     model_from_dot, phonon_error, spectral_density)
from .photonlink import (BellOutcome, LinkBudget, bsa_coincidence,
                         dephasing_error, link_attempt_stats,
                         photon_efficiency, sample_link_times,
                         wavepacket_overlap_error)
from .qcore import (TimeDependentHamiltonian, Trajectory, basis_state,
                    evolve_lindblad, evolve_schrodinger, pure_density)
from .readout import (ReadoutConfig, ReadoutReport, poisson_limit_error,
                      simulate_readout)
from .repeater import (ChainConfig, ChainResult, WernerPair,
                       analytic_mean_time, simulate_chain, swap)
