"""Raman gate error estimate and the adiabatic two-dot controlled-phase gate.

The controlled-phase gate drives both dots with one detuned Gaussian pulse.
Only the |1/2> ground state couples to its trion, so the four computational
inputs reduce to: an uncoupled spectator pair, two copies of a driven
two-level system {g, T}, and a four-level system {gg, Tg, gT, TT} whose
doubly excited level is shifted by the dipole-dipole energy.

Frame convention: the rotating frame of the drive laser, tuned above the
trion line by delta, puts the trion level at -delta on the diagonal.  The
doubly excited level sits at -2*delta plus the dipole-dipole shift, which is
repulsive (positive) by default for the stacked-dot geometry; a negative
e_dd_mev flips it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .qcore import (TimeDependentHamiltonian, Trajectory, accumulated_phase,
                    basis_state, evolve_lindblad, evolve_schrodinger,
                    pure_density)
from .units import HBAR_MEV_PS

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

    def omega(self, t_ps):
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
class GateReport:
    """Everything measurable about one conditional-gate simulation.

    Input 00 stays uncoupled, so its phase and trion exposure are 0 by
    construction, and input 10 is a copy of 01, the single driven dot: the
    single and double fields are the 01 and 11 inputs.  eps_spont uses the
    single-dot trion exposure; eps_spont_avg averages the exposure over the
    four inputs instead, and eps_spont_lindblad is an independent
    master-equation estimate of the same error.
    """

    phi_cond_rad: float
    phase_single_rad: float
    phase_double_rad: float
    exposure_single_ps: float
    exposure_double_ps: float
    eps_spont: float
    eps_spont_avg: float
    eps_spont_lindblad: float | None
    adiabatic: bool
    end_excited_max: float
    norm_drift: float
    e_dd_mev: float
    gamma_per_ps: float
    trajectories: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        for name in ("eps_spont", "eps_spont_avg"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")
        if self.exposure_single_ps < 0 or self.exposure_double_ps < 0:
            raise ValueError("negative trion exposure")


def raman_gate_error(cfg: RamanConfig) -> float:
    """Error of a pi rotation driven through the far-detuned trion.

    The two-photon Raman rotation spends an integrated time pi/(2*Delta/hbar)
    in the trion state; multiplying by the trion decoherence rate gives
    eps = pi*hbar*gamma/(2*Delta).
    """
    gamma_per_ps = cfg.gamma_trion_per_s * 1e-12
    delta_per_ps = cfg.delta_raman_mev / HBAR_MEV_PS
    return math.pi * gamma_per_ps / (2.0 * delta_per_ps)


# basis levels by trion occupation per dot, keyed by system size: the single
# dot {g, T}, the blockaded pair {gg, Tg, gT}, whose doubly excited level is
# projected out, and the full pair {gg, Tg, gT, TT}
LEVELS = {
    2: ((0,), (1,)),
    3: ((0, 0), (1, 0), (0, 1)),
    4: ((0, 0), (1, 0), (0, 1), (1, 1)),
}


def pulse_hamiltonian(levels, delta: float,
                      shift: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(h0, v) with H(t) = h0 + omega(t) * v on the given levels, in rad/ps.

    A level holding n trions sits at -n*delta, and the doubly excited level
    also carries the dipole-dipole shift; v couples, with weight 1/2, every
    pair of levels that differ by one trion on one dot.
    """
    n = len(levels)
    h0 = np.zeros((n, n), dtype=complex)
    v = np.zeros((n, n), dtype=complex)
    for i, a in enumerate(levels):
        n_trions = sum(a)
        if n_trions:
            h0[i, i] = -n_trions * delta
        if n_trions == 2:
            h0[i, i] += shift
        for j, b in enumerate(levels):
            if sum(abs(x - y) for x, y in zip(a, b)) == 1:
                v[i, j] = 0.5
    return h0, v


def _sink_hamiltonian(delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-dot (h0, v) padded by an uncoupled sink level at zero energy."""
    h0, v = pulse_hamiltonian(LEVELS[2], delta)
    return np.pad(h0, (0, 1)), np.pad(v, (0, 1))


def _driven(drive: PulsedDrive, h0: np.ndarray, v: np.ndarray) -> TimeDependentHamiltonian:
    return TimeDependentHamiltonian(len(h0), lambda t: h0 + drive.omega(t) * v,
                                    drive.support())


def _lindblad_spont_error(drive: PulsedDrive, gamma_per_ps: float, tol: float) -> float:
    """Driven two-level system with decay routed to a sink level.

    Population reaching the sink by pulse end is the spontaneous-emission
    error of the single driven dot, free of the first-order Gamma*exposure
    approximation.
    """
    ham = _driven(drive, *_sink_hamiltonian(drive.delta))
    jump = np.zeros((3, 3), dtype=complex)
    jump[2, 1] = 1.0
    rho0 = pure_density(basis_state(3, 0))
    traj = evolve_lindblad(ham, [(jump, gamma_per_ps)], rho0, tol=tol)
    return float(traj.populations(2)[-1])


def excited_population(traj: Trajectory) -> np.ndarray:
    """Trion number at each step, the integrand of the trion exposure."""
    total = np.zeros(len(traj.times))
    for idx, level in enumerate(LEVELS[traj.states.shape[1]]):
        total += sum(level) * traj.populations(idx)
    return total


ADIABATIC_END_POP = 1e-3


def simulate_conditional_gate(drive: PulsedDrive, e_dd_mev: float,
                              gamma_per_ps: float = 0.0, tol: float = 1e-9,
                              lindblad_check: bool = True) -> GateReport:
    """Simulate all four computational inputs and assemble the gate report.

    e_dd_mev is the dipole-dipole shift of the doubly excited level
    (positive = repulsive); math.inf selects the perfect-blockade limit
    where that level is projected out.  gamma_per_ps only scales the error
    bookkeeping; the coherent evolution is always unitary.
    """
    if gamma_per_ps < 0:
        raise ValueError("gamma_per_ps must be nonnegative")

    def evolve(levels, shift=0.0):
        ham = _driven(drive, *pulse_hamiltonian(levels, drive.delta, shift))
        return evolve_schrodinger(ham, basis_state(len(levels), 0), tol=tol)

    traj_single = evolve(LEVELS[2])
    if math.isinf(e_dd_mev):
        traj_double = evolve(LEVELS[3])
    else:
        traj_double = evolve(LEVELS[4], e_dd_mev / HBAR_MEV_PS)
    end_excited_double = 1.0 - float(traj_double.populations(0)[-1])

    exposure_single = float(np.trapezoid(excited_population(traj_single),
                                         traj_single.times))
    exposure_double = float(np.trapezoid(excited_population(traj_double),
                                         traj_double.times))

    phi_single = accumulated_phase(traj_single, 0)
    phi_double = accumulated_phase(traj_double, 0)

    end_excited = max(float(traj_single.populations(1)[-1]), end_excited_double)

    eps_lind = None
    if lindblad_check and gamma_per_ps > 0:
        eps_lind = _lindblad_spont_error(drive, gamma_per_ps, tol=max(tol, 1e-9))

    return GateReport(
        # the four inputs 11 - 01 - 10 + 00, summed in that order
        phi_cond_rad=phi_double - phi_single - phi_single + 0.0,
        phase_single_rad=phi_single,
        phase_double_rad=phi_double,
        exposure_single_ps=exposure_single,
        exposure_double_ps=exposure_double,
        eps_spont=gamma_per_ps * exposure_single,
        eps_spont_avg=gamma_per_ps * (2.0 * exposure_single + exposure_double) / 4,
        eps_spont_lindblad=eps_lind,
        adiabatic=end_excited < ADIABATIC_END_POP,
        end_excited_max=end_excited,
        norm_drift=max(traj_single.norm_drift, traj_double.norm_drift),
        e_dd_mev=e_dd_mev,
        gamma_per_ps=gamma_per_ps,
        trajectories={"single": traj_single, "double": traj_double},
    )


# calibrate_phase accepts a scan point within this of the target phase, and
# scans e_dd in steps of this size
PHASE_TOL_RAD = 1e-3
SCAN_STEP_MEV = 0.05


def calibrate_phase(drive: PulsedDrive, target_rad: float,
                    e_dd_range: tuple[float, float] = (0.0, 10.0)) -> float:
    """Find the smallest dipole-dipole energy giving the target conditional phase.

    Scans e_dd upward, keeping only points where the gate is adiabatic
    (the phase is ill-conditioned across the two-photon resonance where
    population escapes), and root-finds inside the first adjacent pair of
    good points that brackets the target.  Raises RuntimeError with the
    attainable phase range when no such bracket exists.
    """
    lo, hi = e_dd_range
    if not (0.0 <= lo < hi):
        raise ValueError(f"bad e_dd range ({lo}, {hi})")

    def probe(e_dd):
        rep = simulate_conditional_gate(drive, e_dd, gamma_per_ps=0.0,
                                        tol=1e-8, lindblad_check=False)
        return rep.phi_cond_rad - target_rad, rep.adiabatic

    grid = np.arange(lo, hi, SCAN_STEP_MEV)
    if grid[-1] < hi:
        grid = np.append(grid, hi)

    prev_e, prev_f, seen = None, None, []
    for e in grid:
        f, ok = probe(float(e))
        if not ok:
            prev_e = None
            continue
        seen.append(f + target_rad)
        if abs(f) <= PHASE_TOL_RAD:
            return float(e)
        if prev_e is not None and prev_f * f < 0:
            root = brentq(lambda x: probe(x)[0], prev_e, float(e), xtol=1e-4)
            return float(root)
        prev_e, prev_f = float(e), f

    if seen:
        msg = (f"target {target_rad:.4f} rad not bracketed; attainable phases "
               f"span [{min(seen):.4f}, {max(seen):.4f}] rad on the scanned grid")
    else:
        msg = "no adiabatic operating point found in the scanned range"
    raise RuntimeError(msg)
