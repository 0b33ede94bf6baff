"""Raman gate error estimate and the adiabatic two-dot controlled-phase gate.

The controlled-phase gate drives both dots with one detuned Gaussian pulse.
Only the |1/2> ground state couples to its trion, so the four computational
inputs reduce to: an uncoupled spectator pair, two copies of a driven
two-level system {g, T}, and the pair {gg, Tg, gT, TT}, whose doubly excited
level is shifted by the dipole-dipole energy.  The pulse is the same on both
dots, so from gg the pair never leaves the symmetric chain {gg, S, TT},
S = (Tg + gT)/sqrt(2).  Every leg is thus a chain whose level k holds k
trions, driven between neighbours (see pulse_hamiltonian).

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

from .config import PulsedDrive, RamanConfig
from .qcore import (MAX_PHASE_STEP, Trajectory, depleted, magnus_propagate, norm_drift,
                    phase_steps)
from .units import HBAR_MEV_PS


@dataclass
class GateReport:
    """Everything measurable about one conditional-gate simulation.

    Input 00 stays uncoupled, so its phase and trion exposure are 0 by
    construction, and input 10 is a copy of 01, the single driven dot: the
    single and double fields are the 01 and 11 inputs, and the trajectories
    of the same names hold their chains, {g, T} and {gg, S, TT} ({gg, S} in
    the blockade).  eps_spont uses the single-dot trion exposure;
    eps_spont_avg averages the exposure over the four inputs instead, and
    eps_spont_lindblad is the exact no-jump estimate of the same error, free
    of the first-order Gamma*exposure approximation (see _spont_error).
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


def pulse_hamiltonian(delta: float, dots: int = 1,
                      shift: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """(h0, v) with H(t) = h0 + omega(t) * v on a trion chain, in rad/ps.

    Level k of the chain holds k trions and sits at -k*delta.  One driven
    dot is the chain {g, T}, coupled by 1/2.  Two dots under the same pulse
    never leave the symmetric chain {gg, S, TT}, S = (Tg + gT)/sqrt(2), whose
    neighbours are coupled by 1/sqrt(2); TT also carries the dipole-dipole
    shift, and an infinite shift projects it out, leaving the blockade
    {gg, S}.
    """
    n = 3 if dots == 2 and math.isfinite(shift) else 2
    h0 = np.diag(-delta * np.arange(n))
    if n == 3:
        h0[2, 2] += shift
    v = math.sqrt(dots) / 2.0 * (np.eye(n, k=1) + np.eye(n, k=-1))
    return h0, v


def excited_population(traj: Trajectory) -> np.ndarray:
    """Trion number at each step, the integrand of the trion exposure."""
    return np.abs(traj.states) ** 2 @ np.arange(traj.states.shape[1])


ADIABATIC_END_POP = 1e-3
# a gate leg starts at this many Magnus steps, unless calibrate_phase's scan
# sets fewer, and doubles them until the phases at n and 2n steps agree
# within PHASE_TOL_PER_TOL * tol rad
START_STEPS = 400
PHASE_TOL_PER_TOL = 1e2
# a settled no-jump loss below -LOSS_ROUNDING is rounding, not a loss
LOSS_ROUNDING = 1e-15


def _evolve_ground(drive: PulsedDrive, h0: np.ndarray, v: np.ndarray, tol: float,
                   adiabatic_only: bool = False, start_steps: int = START_STEPS):
    """Grid times, states and ground-state phases under h0 + omega(t) * v.

    h0 is one (d, d) Hamiltonian or a (B, d, d) stack, each started in level
    0.  The step count doubles from start_steps until, for every element
    whose ground amplitude is not depleted (and, with adiabatic_only, ends
    with less than ADIABATIC_END_POP outside it), the phases at n and 2n
    steps agree within PHASE_TOL_PER_TOL * tol rad and no phase step of the
    2n grid exceeds MAX_PHASE_STEP; the 2n result is returned.  At 4th order
    its phase error is about a fifteenth of the n-to-2n difference, so
    below 10 * tol rad: 1e-8 rad at the gate's default tol of 1e-9.  A low
    start_steps saves work only where a loose tol settles early, as in
    calibrate_phase's scan; a tight tol doubles past it anyway.  Other
    elements get a NaN phase: near the two-photon resonance the ground
    amplitude can pass close to zero mid-pulse, and resolving its winding
    there takes tens of thousands of steps.  Past qcore.MAX_MAGNUS_STEPS
    the propagator raises RuntimeError.
    """
    n_steps, previous = start_steps, None
    while True:
        times, states = magnus_propagate(h0, v, drive.omega, drive.support(), n_steps)
        amps = states[..., 0]
        steps = phase_steps(amps)
        usable = ~depleted(amps)
        if adiabatic_only:
            usable &= 1.0 - np.abs(amps[..., -1]) ** 2 < ADIABATIC_END_POP
        phases = np.where(usable, np.sum(steps, axis=-1), np.nan)
        if previous is not None:
            settled = ((np.abs(phases - previous) <= PHASE_TOL_PER_TOL * tol)
                       & (np.max(np.abs(steps), axis=-1) <= MAX_PHASE_STEP))
            if np.all(settled | np.isnan(phases)):
                return times, states, phases
        previous = phases
        n_steps *= 2


def _spont_error(drive: PulsedDrive, gamma_per_ps: float, tol: float) -> float:
    """Population the single driven dot loses to trion decay by pulse end.

    A decay jump only moves T into a sink that couples to nothing, so the
    {g, T} block follows i dpsi/dt = (h0 + omega(t) v - i gamma/2 |T><T|) psi
    exactly and the sink holds 1 - |psi(t_end)|^2: the no-jump evolution of
    the quantum-trajectory method (Dalibard, Castin & Molmer, PRL 68, 580
    (1992); Plenio & Knight, RMP 70, 101 (1998)).  It runs on
    magnus_propagate like the coherent legs, the decay term on h0's
    diagonal, and reads the last state.  The step count doubles
    from START_STEPS until the 2n-step value is within tol, its error at
    4th order being about a fifteenth of the n-to-2n difference (as in
    _evolve_ground), and is no more negative than LOSS_ROUNDING; that value
    is returned.  Far detuned, the loss is near the rounding of 1 - |psi|^2
    and may settle below zero; more steps then move it by that rounding.
    Past qcore.MAX_MAGNUS_STEPS the propagator raises RuntimeError.
    """
    h0, v = pulse_hamiltonian(drive.delta)
    h0 = h0 - 0.5j * gamma_per_ps * np.diag([0.0, 1.0])
    n_steps, previous = START_STEPS, None
    while True:
        psi = magnus_propagate(h0, v, drive.omega, drive.support(), n_steps)[1][-1]
        lost = 1.0 - float(np.vdot(psi, psi).real)
        if (previous is not None and abs(lost - previous) / 15 <= tol
                and lost >= -LOSS_ROUNDING):
            return lost
        previous = lost
        n_steps *= 2


def _pair_gate(drive: PulsedDrive, single, e_dd_mev: np.ndarray, tol: float,
               adiabatic_only: bool = False, start_steps: int = START_STEPS):
    """The pair propagated at each e_dd and combined with the single-dot leg.

    single is _evolve_ground's (times, states, phase) for one dot; e_dd_mev
    is a 1-D array.  A shift s = e_dd/hbar puts phi_cond within
    int omega^2 dt / (2 |s - delta|) of its blockade value: the doubly
    excited level, |s - delta| away and coupled by omega/sqrt(2), shifts
    the singly excited ones by omega^2 / (2 (s - delta)).  When that bound
    is under 10 * tol, the phase error of the step doubling, for every e_dd
    of the batch (an infinite one included), the pair runs as the blockade
    {gg, S}: so large a diagonal would swamp the drive in the step
    exponentials.  Otherwise it runs on {gg, S, TT}, which needs every e_dd
    finite.  Returns the pair's grid, states and phases, and per e_dd
    phi_cond, the largest end-of-pulse excited population and whether it is
    adiabatic.
    """
    shifts = np.asarray(e_dd_mev) / HBAR_MEV_PS
    blockaded = drive.omega_sq_integral() < 20.0 * tol * np.abs(shifts - drive.delta)
    if np.all(blockaded):
        shifts = np.full_like(shifts, math.inf)
    pairs = [pulse_hamiltonian(drive.delta, 2, s) for s in shifts]
    times, states, phases = _evolve_ground(
        drive, np.stack([h0 for h0, _ in pairs]), pairs[0][1], tol, adiabatic_only, start_steps)
    _, single_states, phi_single = single
    # the four inputs 11 - 01 - 10 + 00, summed in that order
    phi_cond = phases - phi_single - phi_single + 0.0
    # the excited levels' own population, free of the propagator's norm drift
    end_excited = np.maximum(abs(single_states[-1, 1]) ** 2,
                             np.sum(np.abs(states[:, -1, 1:]) ** 2, axis=-1))
    return times, states, phases, phi_cond, end_excited, end_excited < ADIABATIC_END_POP


def simulate_conditional_gate(drive: PulsedDrive, e_dd_mev: float,
                              gamma_per_ps: float = 0.0, tol: float = 1e-9,
                              lindblad_check: bool = True) -> GateReport:
    """Simulate all four computational inputs and assemble the gate report.

    e_dd_mev is the dipole-dipole shift of the doubly excited level
    (positive = repulsive); math.inf selects the perfect-blockade limit
    where that level is projected out, as does a shift so large that the
    limit is within 10 * tol of it (see _pair_gate).  gamma_per_ps only scales the error
    bookkeeping; the coherent evolution is always unitary.  tol sets the
    step doubling of each input's propagation (see _evolve_ground).
    Either leg's ground amplitude depleted at an end raises RuntimeError,
    and an eps_spont outside [0, 1] raises ValueError before the
    spontaneous-emission check runs.
    """
    if gamma_per_ps < 0:
        raise ValueError("gamma_per_ps must be nonnegative")
    if not 0.0 < tol <= 1e-3:
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")

    single = _evolve_ground(drive, *pulse_hamiltonian(drive.delta), tol)
    times, states, phases, phi_cond, end_excited, adiabatic = _pair_gate(
        drive, single, np.array([e_dd_mev], dtype=float), tol)
    trajs = {"single": Trajectory(*single[:2]), "double": Trajectory(times, states[0])}
    for traj, phase in zip(trajs.values(), (single[2], phases[0])):
        if np.isnan(phase):   # _evolve_ground's mark of a depleted amplitude
            amps = traj.amplitudes(0)
            raise RuntimeError(f"component 0 too depleted for a phase (|a| = "
                               f"{abs(amps[0]):.3f} start, {abs(amps[-1]):.3f} end)")
    exposure_single, exposure_double = (float(np.trapezoid(excited_population(t), t.times))
                                        for t in trajs.values())

    report = GateReport(
        phi_cond_rad=float(phi_cond[0]),
        phase_single_rad=float(single[2]),
        phase_double_rad=float(phases[0]),
        exposure_single_ps=exposure_single,
        exposure_double_ps=exposure_double,
        eps_spont=gamma_per_ps * exposure_single,
        eps_spont_avg=gamma_per_ps * (2.0 * exposure_single + exposure_double) / 4,
        eps_spont_lindblad=None,
        adiabatic=bool(adiabatic[0]),
        end_excited_max=float(end_excited[0]),
        norm_drift=max(norm_drift(single[1]), norm_drift(states)),
        e_dd_mev=e_dd_mev,
        gamma_per_ps=gamma_per_ps,
        trajectories=trajs,
    )
    # the report refuses an eps_spont outside [0, 1] before the no-jump leg
    # runs, whose step exponentials overflow at a lifetime like 1e-300 ps
    if lindblad_check and gamma_per_ps > 0:
        report.eps_spont_lindblad = _spont_error(drive, gamma_per_ps, tol)
    return report


# calibrate_phase accepts a scan point within PHASE_TOL_RAD of the target
# phase, scans e_dd in steps of SCAN_STEP_MEV, SCAN_CHUNK points per batch and
# at most MAX_SCAN_POINTS in all, and narrows a bracket to XTOL_MEV,
# propagating at CALIBRATION_TOL
PHASE_TOL_RAD = 1e-3
SCAN_STEP_MEV = 0.05
SCAN_CHUNK = 32
MAX_SCAN_POINTS = 10_000
XTOL_MEV = 1e-4
CALIBRATION_TOL = 1e-8
# the scan only locates: it propagates from SCAN_START_STEPS at SCAN_TOL, whose
# n- and 2n-step phases agree within 1e-4 rad, a tenth of PHASE_TOL_RAD
SCAN_TOL = 1e-6
SCAN_START_STEPS = 100


def calibrate_phase(drive: PulsedDrive, target_rad: float,
                    e_dd_range: tuple[float, float] = (0.0, 10.0)) -> float:
    """Find the smallest dipole-dipole energy giving the target conditional phase.

    Scans e_dd upward, a batch of points at a time, keeping only points
    where the gate is adiabatic and the ground amplitude is not depleted
    (the phase is ill-conditioned across the two-photon resonance where
    population escapes).  The scan propagates at SCAN_TOL and only locates:
    before it accepts a point within PHASE_TOL_RAD of the target, or takes
    the first adjacent pair of good points that brackets it, it propagates
    that point, or both ends, again at CALIBRATION_TOL, and goes on with
    those values where they overturn the decision.  Inside the bracket it
    runs false position until the phase is within the propagator's accuracy
    of the target or the bracket is narrower than XTOL_MEV.  The single-dot
    leg, the same at every e_dd, is propagated once.  A range that is not
    finite, or that spans more than MAX_SCAN_POINTS grid steps, raises
    ValueError; no bracket raises RuntimeError with the attainable phase
    range.
    """
    lo, hi = e_dd_range
    if not (0.0 <= lo < hi < math.inf):
        raise ValueError(f"bad e_dd range ({lo}, {hi}): need 0 <= lo < hi, both finite")
    if (hi - lo) / SCAN_STEP_MEV > MAX_SCAN_POINTS:
        raise ValueError(f"e_dd range ({lo}, {hi}) spans more than {MAX_SCAN_POINTS} "
                         f"grid steps of {SCAN_STEP_MEV} meV")

    single = _evolve_ground(
        drive, *pulse_hamiltonian(drive.delta), CALIBRATION_TOL, True)

    def probe(e_dd, tol=CALIBRATION_TOL, start_steps=START_STEPS, adiabatic_only=True):
        """Offset from the target phase, and whether each point is usable."""
        *_, phi_cond, _, adiabatic = _pair_gate(drive, single, np.asarray(e_dd, dtype=float),
                                                tol, adiabatic_only, start_steps)
        offset = phi_cond - target_rad
        return offset, adiabatic & np.isfinite(offset)

    def refine(a, fa, b, fb):
        """Illinois false position inside the bracket [a, b]."""
        kept = 0
        while b - a > XTOL_MEV:
            c = (a * fb - b * fa) / (fb - fa)
            # false position needs a phase at every point inside the bracket,
            # adiabatic or not; only an undefined phase stops it
            offset, _ = probe([c], adiabatic_only=False)
            fc = float(offset[0])
            if math.isnan(fc):
                raise RuntimeError(f"phase undefined at e_dd = {c:.6f} meV "
                                   f"inside the bracket")
            if abs(fc) <= PHASE_TOL_PER_TOL * CALIBRATION_TOL:
                return c
            # halve the weight of an end kept twice running, so both ends move
            if fa * fc < 0:
                b, fb = c, fc
                fa, kept = (fa / 2, -1) if kept == -1 else (fa, -1)
            else:
                a, fa = c, fc
                fb, kept = (fb / 2, 1) if kept == 1 else (fb, 1)
        return (a * fb - b * fa) / (fb - fa)

    grid = np.arange(lo, hi, SCAN_STEP_MEV)
    if grid[-1] < hi:
        grid = np.append(grid, hi)

    prev, seen = None, []   # the last usable point and its offset
    for start in range(0, len(grid), SCAN_CHUNK):
        chunk = grid[start:start + SCAN_CHUNK]
        for e, f, ok in zip(chunk.tolist(), *probe(chunk, SCAN_TOL, SCAN_START_STEPS)):
            if ok:
                seen.append(f + target_rad)
            # accept or bracket only on values confirmed at CALIBRATION_TOL
            if ok and abs(f) <= PHASE_TOL_RAD:
                (f,), (ok,) = probe([e])
                if ok and abs(f) <= PHASE_TOL_RAD:
                    return e
            if ok and prev is not None and prev[1] * f < 0:
                (prev_f, f), (prev_ok, ok) = probe([prev[0], e])
                prev = (prev[0], prev_f) if prev_ok else None
                if ok and abs(f) <= PHASE_TOL_RAD:
                    return e
                if ok and prev is not None and prev[1] * f < 0:
                    return float(refine(*prev, e, f))
            prev = (e, f) if ok else None

    if seen:
        msg = (f"target {target_rad:.4f} rad not bracketed; attainable phases "
               f"span [{min(seen):.4f}, {max(seen):.4f}] rad on the scanned grid")
    else:
        msg = "no adiabatic operating point found in the scanned range"
    raise RuntimeError(msg)
