"""Integrator and state-container checks against closed-form dynamics."""

import math

import numpy as np
import pytest

from dotlink import qcore
from dotlink import (
    DensityMatrix,
    PulsedDrive,
    QuantumState,
    TimeDependentHamiltonian,
    accumulated_phase,
    basis_state,
    evolve_lindblad,
    evolve_schrodinger,
    pure_density,
)
from oracles import single_dot_quadrature


def rabi_hamiltonian(omega):
    h = np.array([[0.0, omega / 2.0], [omega / 2.0, 0.0]], dtype=complex)
    return TimeDependentHamiltonian(2, lambda t: h, support=(0.0, 4.0 * math.pi / omega))


def single_dot_hamiltonian(drive):
    # the driven {g, T} pair, written out here so these checks do not lean on
    # the gate module's level table
    def h(t):
        om = drive.omega(t)
        return np.array([[0.0, om / 2.0], [om / 2.0, -drive.delta]], dtype=complex)

    return TimeDependentHamiltonian(2, h, support=drive.support())


def test_rabi_populations_match_closed_form():
    omega = 1.0
    ham = rabi_hamiltonian(omega)
    traj = evolve_schrodinger(ham, basis_state(2, 0), tol=1e-9)
    p1 = traj.populations(1)
    expected = np.sin(omega * traj.times / 2.0) ** 2
    assert np.max(np.abs(p1 - expected)) <= 1e-6
    assert traj.norm_drift < 1e-8


def test_free_decay_matches_exponential():
    gamma = 0.05
    ham = TimeDependentHamiltonian(
        2, lambda t: np.zeros((2, 2), dtype=complex), support=(0.0, 40.0))
    jump = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rho0 = pure_density(basis_state(2, 1))
    traj = evolve_lindblad(ham, [(jump, gamma)], rho0, tol=1e-9)
    p_e = traj.populations(1)
    expected = np.exp(-gamma * traj.times)
    assert np.max(np.abs(p_e - expected)) <= 1e-6
    assert traj.norm_drift < 1e-8


def test_lindblad_zero_rate_reduces_to_schrodinger():
    omega = 0.7
    h = np.array([[0.0, omega / 2.0], [omega / 2.0, 0.0]], dtype=complex)
    ham = TimeDependentHamiltonian(2, lambda t: h, support=(0.0, 3.0))
    jump = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    traj_rho = evolve_lindblad(ham, [(jump, 0.0)], pure_density(basis_state(2, 0)))
    traj_psi = evolve_schrodinger(ham, basis_state(2, 0))
    # same solver grid is not guaranteed, so compare at the final time
    assert traj_rho.times[-1] == traj_psi.times[-1]
    final = math.sin(omega * 3.0 / 2.0) ** 2
    assert abs(traj_rho.populations(1)[-1] - final) <= 1e-7
    assert abs(traj_psi.populations(1)[-1] - final) <= 1e-7


def test_nonhermitian_hamiltonian_rejected():
    h = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex)
    ham = TimeDependentHamiltonian(2, lambda t: h, support=(0.0, 1.0))
    with pytest.raises(ValueError):
        ham.check_hermitian()
    with pytest.raises(ValueError):
        evolve_schrodinger(ham, basis_state(2, 0))


def test_state_validation():
    with pytest.raises(ValueError):
        QuantumState(2, np.array([1.0, 1.0], dtype=complex)).validate()
    with pytest.raises(ValueError):
        QuantumState(3, np.array([1.0, 0.0], dtype=complex))
    bad = np.array([[0.6, 0.0], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(2, bad).validate()
    with pytest.raises(ValueError):
        evolve_schrodinger(rabi_hamiltonian(1.0), basis_state(2, 0), tol=0.1)
    with pytest.raises(ValueError):
        evolve_schrodinger(rabi_hamiltonian(1.0), basis_state(2, 0), tol=0.0)


def test_accumulated_phase_diagonal_hamiltonian():
    # psi(t) = exp(-i E t) psi(0): phase winds far past pi and must unwrap
    energy = 10.0
    h = np.diag([energy, 0.0]).astype(complex)
    ham = TimeDependentHamiltonian(2, lambda t: h, support=(0.0, 10.0))
    traj = evolve_schrodinger(ham, basis_state(2, 0), tol=1e-10)
    phase = accumulated_phase(traj, 0)
    assert abs(phase - (-energy * 10.0)) <= 1e-6


def test_accumulated_phase_rejects_depleted_component():
    omega = 1.0
    h = np.array([[0.0, omega / 2.0], [omega / 2.0, 0.0]], dtype=complex)
    # pi pulse: ground amplitude passes through zero at the end
    ham = TimeDependentHamiltonian(2, lambda t: h, support=(0.0, math.pi / omega))
    traj = evolve_schrodinger(ham, basis_state(2, 0))
    with pytest.raises(RuntimeError, match="too depleted"):
        accumulated_phase(traj, 0)


def test_trajectory_amplitudes_only_for_pure_states():
    ham = rabi_hamiltonian(1.0)
    jump = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    traj = evolve_lindblad(ham, [(jump, 0.01)], pure_density(basis_state(2, 0)))
    with pytest.raises(TypeError):
        traj.amplitudes(0)
    pops = traj.populations(0)
    assert pops.shape == traj.times.shape


def test_trajectory_holds_solver_arrays():
    ham = rabi_hamiltonian(1.0)
    jump = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    pure = evolve_schrodinger(ham, basis_state(2, 0))
    mixed = evolve_lindblad(ham, [(jump, 0.01)], pure_density(basis_state(2, 0)))
    assert pure.states.shape == (len(pure.times), 2)
    assert mixed.states.shape == (len(mixed.times), 2, 2)
    assert isinstance(pure.final(), QuantumState)
    assert isinstance(mixed.final(), DensityMatrix)
    assert np.array_equal(pure.final().amplitudes, pure.states[-1])
    assert np.array_equal(mixed.final().matrix, mixed.states[-1])
    # drift is the worst step, as each step's own state object reports it
    assert pure.norm_drift == max(QuantumState(2, a).norm_error() for a in pure.states)
    assert mixed.norm_drift == max(DensityMatrix(2, m).trace_error() for m in mixed.states)
    assert np.array_equal(pure.populations(1), np.abs(pure.amplitudes(1)) ** 2)
    assert np.array_equal(mixed.populations(1), mixed.states[:, 1, 1].real)


def test_work_budget_stops_long_solves(monkeypatch):
    ham = rabi_hamiltonian(1.0)
    jump = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    # every RK45 step costs several RHS calls, so one call per step runs out
    steps = len(evolve_schrodinger(ham, basis_state(2, 0)).times)
    monkeypatch.setattr(qcore, "MAX_RHS_CALLS", steps)
    with pytest.raises(RuntimeError, match="work budget"):
        evolve_schrodinger(ham, basis_state(2, 0))
    with pytest.raises(RuntimeError, match="work budget"):
        evolve_lindblad(ham, [(jump, 0.01)], pure_density(basis_state(2, 0)))


def test_tolerance_halving_stability():
    drive = PulsedDrive()
    ham = single_dot_hamiltonian(drive)
    tol = 1e-7
    a = accumulated_phase(evolve_schrodinger(ham, basis_state(2, 0), tol=tol), 0)
    b = accumulated_phase(evolve_schrodinger(ham, basis_state(2, 0), tol=tol / 2), 0)
    assert abs(a - b) <= 10.0 * tol


def test_single_dot_phase_regression():
    drive = PulsedDrive()
    ham = single_dot_hamiltonian(drive)
    traj = evolve_schrodinger(ham, basis_state(2, 0), tol=1e-10)
    phase = accumulated_phase(traj, 0)
    assert abs(phase - (-3.7363732)) <= 1e-5


@pytest.mark.xfail(reason="finite-pulse nonadiabatic correction is ~0.028 rad "
                   "at tau=11 ps, larger than the quoted 1e-3 agreement",
                   strict=True)
def test_single_dot_phase_matches_quadrature_to_1e3():
    drive = PulsedDrive()
    ham = single_dot_hamiltonian(drive)
    traj = evolve_schrodinger(ham, basis_state(2, 0), tol=1e-10)
    phase = accumulated_phase(traj, 0)
    assert abs(phase - single_dot_quadrature(drive)) <= 1e-3


def test_single_dot_nonadiabatic_deviation_value():
    # companion to the strict xfail above: the deviation itself is stable
    drive = PulsedDrive()
    ham = single_dot_hamiltonian(drive)
    phase = accumulated_phase(evolve_schrodinger(ham, basis_state(2, 0), tol=1e-10), 0)
    dev = phase - single_dot_quadrature(drive)
    assert abs(dev - (-0.028353)) <= 2e-4
    # and it shrinks like 1/tau
    slow = PulsedDrive(tau_ps=22.0)
    ham2 = single_dot_hamiltonian(slow)
    phase2 = accumulated_phase(evolve_schrodinger(ham2, basis_state(2, 0), tol=1e-10), 0)
    dev2 = phase2 - single_dot_quadrature(slow)
    assert abs(dev2) < 0.6 * abs(dev)
