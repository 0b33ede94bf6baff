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


@dataclass
class QuantumState:
    """Pure state of a dim-level system, amplitudes in a fixed basis."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} amplitudes, got shape {self.amplitudes.shape}")

    def norm_error(self) -> float:
        return abs(float(np.sum(np.abs(self.amplitudes) ** 2)) - 1.0)

    def validate(self, tol: float = NORM_TOL):
        if self.norm_error() > tol:
            raise ValueError(f"state norm off by {self.norm_error():.3e} (tol {tol:.0e})")

    def population(self, index: int) -> float:
        return float(np.abs(self.amplitudes[index]) ** 2)


def basis_state(dim: int, index: int) -> QuantumState:
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return QuantumState(dim, amps)


@dataclass
class DensityMatrix:
    """Mixed state; Hermitian, unit trace, positive within solver tolerance."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim} matrix, got {self.matrix.shape}")

    def trace_error(self) -> float:
        return abs(float(np.trace(self.matrix).real) - 1.0)

    def validate(self, tol: float = NORM_TOL):
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > 1e3 * tol:
            raise ValueError("density matrix not hermitian")
        if self.trace_error() > tol:
            raise ValueError(f"trace off by {self.trace_error():.3e}")
        if float(np.linalg.eigvalsh(self.matrix).min()) < -10.0 * tol:
            raise ValueError("density matrix has a significantly negative eigenvalue")

    def population(self, index: int) -> float:
        return float(self.matrix[index, index].real)


def pure_density(state: QuantumState) -> DensityMatrix:
    a = state.amplitudes
    return DensityMatrix(state.dim, np.outer(a, a.conj()))


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

    def check_hermitian(self, n_samples: int = 7):
        t0, t1 = self.support
        for t in np.linspace(t0, t1, n_samples):
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

    def final(self):
        last = self.states[-1]
        if last.ndim == 1:
            return QuantumState(len(last), last)
        return DensityMatrix(len(last), last)


def _validate_tol(tol: float):
    if not (0.0 < tol <= 1e-3):
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")


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


def evolve_schrodinger(ham: TimeDependentHamiltonian, psi0: QuantumState,
                       tol: float = 1e-9) -> Trajectory:
    """Integrate i d|psi>/dt = H(t)|psi> over the Hamiltonian's support.

    Returns a Trajectory sampled at the solver's accepted steps, with the
    worst norm deviation recorded in norm_drift.
    """
    _validate_tol(tol)
    if psi0.dim != ham.dim:
        raise ValueError(f"state dim {psi0.dim} != hamiltonian dim {ham.dim}")
    psi0.validate()
    ham.check_hermitian()

    def rhs(t, y):
        return -1j * (ham.evaluator(t) @ y)

    sol = _solve(rhs, ham.support, psi0.amplitudes, tol)
    states = sol.y.T
    drift = float(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)))
    return Trajectory(times=sol.t, states=states, norm_drift=drift)


def evolve_lindblad(ham: TimeDependentHamiltonian,
                    jumps: Sequence[tuple[np.ndarray, float]],
                    rho0: DensityMatrix, tol: float = 1e-9) -> Trajectory:
    """Integrate the Lindblad master equation with jump operators.

    jumps is a sequence of (operator, rate_per_ps) pairs; each contributes
    rate * (L rho L+ - {L+ L, rho}/2).  Trace drift is recorded, not fixed.
    """
    _validate_tol(tol)
    if rho0.dim != ham.dim:
        raise ValueError(f"state dim {rho0.dim} != hamiltonian dim {ham.dim}")
    rho0.validate()
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

    sol = _solve(rhs, ham.support, rho0.matrix.ravel(), tol)
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
