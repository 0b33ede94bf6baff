"""Small time-dependent quantum solvers used by the gate and readout models.

Wraps scipy's RK45 for Schrodinger and Lindblad evolution of few-level
systems.  States are plain complex vectors, density matrices plain complex
arrays.  Norm and trace drift are recorded on the trajectory and never
silently corrected; callers decide what drift is acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-9
# work budget per evolution, about 100x the 8,583 RHS calls of the default
# 4-level gate solve; extreme drives hit it instead of running for minutes
MAX_RHS_CALLS = 1_000_000
# times at which each evolution spot-checks the Hamiltonian for hermiticity
HERMITIAN_SAMPLES = 7


def basis_state(dim: int, index: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def pure_density(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


@dataclass
class TimeDependentHamiltonian:
    """Hamiltonian H(t) in rad/ps, supplied as evaluator(t_ps) -> (dim, dim) array.

    support is the integration window (t0_ps, t1_ps).  The evaluator must
    return a Hermitian array; this is spot-checked at a handful of times
    before each evolution rather than at every step.
    """

    dim: int
    evaluator: Callable[[float], np.ndarray]
    support: tuple[float, float]

    def __post_init__(self):
        t0, t1 = self.support
        if not t1 > t0:
            raise ValueError(f"empty support ({t0}, {t1})")

    def check_hermitian(self):
        t0, t1 = self.support
        for t in np.linspace(t0, t1, HERMITIAN_SAMPLES):
            h = np.asarray(self.evaluator(float(t)), dtype=complex)
            if h.shape != (self.dim, self.dim):
                raise ValueError(f"evaluator returned shape {h.shape} at t={t:.3f}")
            dev = float(np.max(np.abs(h - h.conj().T)))
            if dev > HERMITICITY_TOL:
                raise ValueError(f"hamiltonian not hermitian at t={t:.3f} ps (dev {dev:.2e})")


@dataclass
class Trajectory:
    """States on the solver's step grid: (steps, dim) amplitudes for a pure
    evolution, (steps, dim, dim) density matrices for a mixed one."""

    times: np.ndarray
    states: np.ndarray
    norm_drift: float = 0.0

    def populations(self, index: int) -> np.ndarray:
        if self.states.ndim == 2:
            return np.abs(self.states[:, index]) ** 2
        return self.states[:, index, index].real

    def amplitudes(self, index: int) -> np.ndarray:
        if self.states.ndim != 2:
            raise TypeError("amplitudes only defined for pure-state trajectories")
        return self.states[:, index]


def _initial_state(y0, shape: tuple[int, ...], tol: float) -> np.ndarray:
    """y0 as a complex array, after the tolerance and shape checks."""
    if not (0.0 < tol <= 1e-3):
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")
    y0 = np.asarray(y0, dtype=complex)
    if y0.shape != shape:
        raise ValueError(f"initial state shape {y0.shape} != {shape}")
    return y0


def _solve(rhs, support: tuple[float, float], y0: np.ndarray, tol: float):
    """RK45 over the support, raising RuntimeError past MAX_RHS_CALLS."""
    calls = 0

    def budgeted(t, y):
        nonlocal calls
        calls += 1
        if calls > MAX_RHS_CALLS:
            raise RuntimeError(f"solver work budget exceeded ({MAX_RHS_CALLS} RHS calls)")
        return rhs(t, y)

    t0, t1 = support
    sol = solve_ivp(budgeted, (t0, t1), y0, method="RK45",
                    rtol=tol, atol=max(tol * 1e-3, 1e-14),
                    max_step=(t1 - t0) / 64.0)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    return sol


def evolve_schrodinger(ham: TimeDependentHamiltonian, psi0: np.ndarray,
                       tol: float = 1e-9) -> Trajectory:
    """Integrate i d|psi>/dt = H(t)|psi> over the Hamiltonian's support.

    Returns a Trajectory sampled at the solver's accepted steps, with the
    worst norm deviation recorded in norm_drift.
    """
    psi0 = _initial_state(psi0, (ham.dim,), tol)
    err = abs(float(np.sum(np.abs(psi0) ** 2)) - 1.0)
    if err > NORM_TOL:
        raise ValueError(f"state norm off by {err:.3e} (tol {NORM_TOL:.0e})")
    ham.check_hermitian()

    def rhs(t, y):
        return -1j * (ham.evaluator(t) @ y)

    sol = _solve(rhs, ham.support, psi0, tol)
    states = sol.y.T
    drift = float(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)))
    return Trajectory(times=sol.t, states=states, norm_drift=drift)


def evolve_lindblad(ham: TimeDependentHamiltonian,
                    jumps: Sequence[tuple[np.ndarray, float]],
                    rho0: np.ndarray, tol: float = 1e-9) -> Trajectory:
    """Integrate the Lindblad master equation with jump operators.

    jumps is a sequence of (operator, rate_per_ps) pairs; each contributes
    rate * (L rho L+ - {L+ L, rho}/2).  Trace drift is recorded, not fixed.
    """
    rho0 = _initial_state(rho0, (ham.dim, ham.dim), tol)
    if np.max(np.abs(rho0 - rho0.conj().T)) > 1e3 * NORM_TOL:
        raise ValueError("density matrix not hermitian")
    err = abs(float(np.trace(rho0).real) - 1.0)
    if err > NORM_TOL:
        raise ValueError(f"trace off by {err:.3e}")
    if float(np.linalg.eigvalsh(rho0).min()) < -10.0 * NORM_TOL:
        raise ValueError("density matrix has a significantly negative eigenvalue")
    ham.check_hermitian()

    ops = []
    for op, rate in jumps:
        op = np.asarray(op, dtype=complex)
        if op.shape != (ham.dim, ham.dim):
            raise ValueError(f"jump operator shape {op.shape} != ({ham.dim}, {ham.dim})")
        if rate < 0:
            raise ValueError(f"negative jump rate {rate}")
        ops.append((op, op.conj().T @ op, float(rate)))

    dim = ham.dim

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        h = ham.evaluator(t)
        drho = -1j * (h @ rho - rho @ h)
        for op, opdag_op, rate in ops:
            drho += rate * (op @ rho @ op.conj().T
                            - 0.5 * (opdag_op @ rho + rho @ opdag_op))
        return drho.ravel()

    sol = _solve(rhs, ham.support, rho0.ravel(), tol)
    states = sol.y.T.reshape(-1, dim, dim)
    drift = float(np.max(np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)))
    return Trajectory(times=sol.t, states=states, norm_drift=drift)


def accumulated_phase(traj: Trajectory, index: int) -> float:
    """Unwrapped phase gained by one basis amplitude over a pure trajectory.

    For a state parked on a diagonal level of energy E this equals -E*T/hbar.
    The tracked component must stay populated at both ends (|amplitude| >
    0.5); otherwise its phase is not meaningful and RuntimeError is raised.
    """
    amps = traj.amplitudes(index)
    if abs(amps[0]) <= 0.5 or abs(amps[-1]) <= 0.5:
        raise RuntimeError(
            f"component {index} too depleted for a phase "
            f"(|a| = {abs(amps[0]):.3f} start, {abs(amps[-1]):.3f} end)")
    phases = np.unwrap(np.angle(amps))
    return float(phases[-1] - phases[0])
