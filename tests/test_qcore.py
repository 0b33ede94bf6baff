"""Integrator and input checks against closed-form dynamics."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from dotlink import qcore
from dotlink import (
    PulsedDrive,
    TimeDependentHamiltonian,
    Trajectory,
    basis_state,
    evolve_lindblad,
    evolve_schrodinger,
    pure_density,
)
from dotlink.units import HBAR_MEV_PS
import oracles
from oracles import accumulated_phase, single_dot_quadrature


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


def pair_hamiltonian(delta, e_dd_mev):
    # (h0, v) of the driven pair on its symmetric chain {gg, S, TT},
    # S = (Tg + gT)/sqrt(2), with the dipole shift on TT; math.inf drops TT,
    # leaving the blockade {gg, S}
    if math.isinf(e_dd_mev):
        return np.diag([0.0, -delta]), np.array([[0, 1], [1, 0]]) / math.sqrt(2.0)
    h0 = np.diag([0.0, -delta, -2.0 * delta + e_dd_mev / HBAR_MEV_PS])
    v = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2.0)
    return h0, v


def full_pair_hamiltonian(delta, e_dd_mev):
    # (h0, v, trion numbers) of the driven pair {gg, Tg, gT, TT}, whose
    # couplings gg-Tg-TT-gT-gg form a cycle; math.inf drops TT
    h0 = np.diag([0.0, -delta, -delta, -2.0 * delta + e_dd_mev / HBAR_MEV_PS])
    v = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]) / 2.0
    n = 3 if math.isinf(e_dd_mev) else 4
    return h0[:n, :n], v[:n, :n], np.array([0, 1, 1, 2])[:n]


def expm_chain(k):
    # the 3-level step exponentials, from their (3, 3, n) planes to an (n, 3, 3) stack
    return np.moveaxis(qcore._expm_chain(k), (0, 1), (-2, -1))


def magnus_states(drive, h0, v, n_steps):
    return qcore.magnus_propagate(h0, v, drive.omega, drive.support(), n_steps)


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
    with pytest.raises(ValueError, match="h0 not hermitian"):
        magnus_states(PulsedDrive(), h, np.eye(2), 10)
    with pytest.raises(ValueError, match="v not hermitian"):
        magnus_states(PulsedDrive(), np.eye(2), h, 10)


def test_magnus_rejects_hamiltonians_off_the_chain():
    # the full pair's couplings form a cycle, which a tridiagonal gauge
    # cannot make real: run on the chain kernel, gg-gT and Tg-TT would drop
    h0, v, _ = full_pair_hamiltonian(0.75, 5.0)
    with pytest.raises(ValueError, match="v not tridiagonal"):
        magnus_states(PulsedDrive(), h0, v, 10)
    rabi = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError, match="h0 not diagonal"):
        magnus_states(PulsedDrive(), np.stack([np.eye(2), rabi]), rabi, 10)


@pytest.mark.parametrize("e_dd", [0.5, 1.4446, 5.0, math.inf])
def test_pair_chain_matches_full_pair(e_dd):
    # the chain on the Magnus kernel against the full pair on RK45: the
    # ground phase, and the trion exposure by Simpson's rule on each grid
    drive = PulsedDrive()
    h0, v, trions = full_pair_hamiltonian(drive.delta, e_dd)
    ham = TimeDependentHamiltonian(len(h0), lambda t: h0 + drive.omega(t) * v,
                                   support=drive.support())
    full = evolve_schrodinger(ham, basis_state(len(h0), 0), tol=1e-10)
    chain = Trajectory(*magnus_states(drive, *pair_hamiltonian(drive.delta, e_dd), 1600))
    assert abs(accumulated_phase(chain, 0) - accumulated_phase(full, 0)) <= 1e-6
    exposure = [simpson(np.abs(traj.states) ** 2 @ n, x=traj.times) for traj, n in
                ((chain, np.arange(chain.states.shape[1])), (full, trions))]
    assert abs(exposure[0] / exposure[1] - 1.0) <= 1e-6


def test_gauge_exponential_matches_complex_eigh():
    # random Hermitian tridiagonal stacks, some couplings zero and some
    # diagonals degenerate, the step exponents of an undriven pair and of
    # one whose S and TT are level at the pulse wings (shift = delta), and
    # those of the single dot; each through the step exponential that
    # magnus_propagate takes on its number of levels
    rng = np.random.default_rng(7)
    stacks = []
    for dim in (2, 3):
        k = np.zeros((64, dim, dim), dtype=complex)
        off = rng.normal(size=(64, dim - 1)) + 1j * rng.normal(size=(64, dim - 1))
        off[::3, 0] = 0.0
        idx = np.arange(dim - 1)
        k[:, idx, idx + 1] = off
        k[:, idx + 1, idx] = off.conj()
        diag = rng.normal(size=(64, dim)) * 5.0
        diag[::2, 1:] = diag[::2, :1]
        k[:, np.arange(dim), np.arange(dim)] = diag
        stacks.append(k)
    delta = 0.75
    for drive, shift in ((PulsedDrive(omega0=0.0), 5.0), (PulsedDrive(), delta * HBAR_MEV_PS)):
        h0, v = pair_hamiltonian(delta, shift)
        _, exponents = qcore._magnus_exponents(h0[None].astype(complex), v.astype(complex),
                                               drive.omega, drive.support(), 400)
        stacks.append(exponents(slice(None))[:, 0])
    h0, v = pair_hamiltonian(delta, 5.0)
    _, exponents = qcore._magnus_exponents(h0[None, :2, :2].astype(complex),
                                           v[:2, :2].astype(complex), PulsedDrive().omega,
                                           PulsedDrive().support(), 400)
    stacks.append(exponents(slice(None))[:, 0])
    for k in stacks:
        w, q = np.linalg.eigh(k)
        ref = (q * np.exp(-1j * w)[..., None, :]) @ q.conj().swapaxes(-1, -2)
        expm = qcore._expm_2x2 if k.shape[-1] == 2 else expm_chain
        assert np.max(np.abs(expm(k) - ref)) <= 1e-13


def _chain_stack(diag, off):
    """Hermitian tridiagonal 3 x 3 stack from (n, 3) diagonals and (n, 2) couplings."""
    k = np.zeros((len(diag), 3, 3), dtype=complex)
    k[:, [0, 1, 2], [0, 1, 2]] = diag
    k[:, [0, 1], [1, 2]] = off
    k[:, [1, 2], [0, 1]] = np.conj(off)
    return k


def test_closed_form_exponential_matches_eigh_oracle():
    # the closed form against the eigh route it replaced, to a few ulps of
    # each stack's largest entry: graded pair steps whose TT sits 1e3 to 1e8
    # meV up, every pattern of degenerate diagonals and zero couplings, and
    # tiny couplings beside a gap; and, unitary and free of warnings, entries
    # past 1e150, whose squares overflow unless the kernel scales them
    delta, drive = 0.75, PulsedDrive()
    stacks = []
    for e_dd in (1e3, 1e5, 1e8):
        h0, v = pair_hamiltonian(delta, e_dd)
        _, exponents = qcore._magnus_exponents(h0[None].astype(complex), v.astype(complex),
                                               drive.omega, drive.support(), 400)
        stacks.append(exponents(slice(None))[:, 0])
    rng = np.random.default_rng(5)
    diag = rng.normal(size=(96, 3))
    for rows, pattern in ((slice(0, 16), [0, 0, 0]), (slice(16, 32), [0, 0, 1]),
                          (slice(32, 48), [0, 1, 1]), (slice(48, 64), [0, 1, 0])):
        diag[rows] = diag[rows][:, pattern]
    off = rng.normal(size=(96, 2)) + 1j * rng.normal(size=(96, 2))
    off[::2, 0] = 0.0
    off[::3, 1] = 0.0
    off[64:80] *= 1e-9
    stacks.append(_chain_stack(diag, off))
    for k in stacks:
        bound = 1e-14 + 8 * np.finfo(float).eps * np.max(np.abs(k))
        assert np.max(np.abs(expm_chain(k) - oracles.expm_eigh(k))) <= bound
    u = expm_chain(_chain_stack(diag * 1e200, off * 1e200))
    assert np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(3))) <= 1e-13


@pytest.mark.parametrize("rows", [1, 2, 32])
@pytest.mark.parametrize("n_steps", [400, 333])
def test_blocked_product_matches_step_loop(rows, n_steps):
    # the blocked product and closed forms against eigh and one matmul per
    # step: pair chains at rows of e_dd, and decaying single dots, over a
    # step count that blocks of 16 divide and an odd one, which no block
    # divides, so it multiplies step by step
    drive = PulsedDrive()
    v = pair_hamiltonian(drive.delta, 0.0)[1]
    pairs = np.stack([pair_hamiltonian(drive.delta, e)[0] for e in np.linspace(0.3, 5.0, rows)])
    decaying = np.stack([np.diag([0.0, -drive.delta - 0.5j * g])
                         for g in np.geomspace(1e-3, 10.0, rows)])
    for h0, vv in ((pairs, v), (decaying, v[:2, :2])):
        states = magnus_states(drive, h0, vv, n_steps)[1]
        loop = oracles.magnus_states_loop(h0, vv, drive.omega, drive.support(), n_steps)
        assert np.max(np.abs(states - loop)) <= 1e-13


def test_state_validation():
    ham = rabi_hamiltonian(1.0)
    jump = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

    def pure(psi0, tol=1e-9):
        return lambda: evolve_schrodinger(ham, psi0, tol=tol)

    def mixed(rho0):
        return lambda: evolve_lindblad(ham, [(jump, 0.01)], rho0)

    def magnus(n_steps):
        h0, v = pair_hamiltonian(0.75, 5.0)
        return lambda: qcore.magnus_propagate(h0, v, PulsedDrive().omega, (-1.0, 1.0),
                                              n_steps)

    def decaying(dim, gamma):
        # a decay term -i gamma/2 on the last level, allowed on 2 levels only;
        # a negative gamma is a gain
        h0, v = pair_hamiltonian(0.75, 5.0)
        h0 = h0[:dim, :dim].astype(complex)
        h0[-1, -1] -= 0.5j * gamma
        return lambda: qcore.magnus_propagate(h0, v[:dim, :dim], PulsedDrive().omega,
                                              (-1.0, 1.0), 10)

    bad_inputs = [
        (pure([1.0, 1.0]), "state norm off"),
        (pure([1.0, 0.0, 0.0]), "initial state shape"),
        (pure([[1.0, 0.0], [0.0, 0.0]]), "initial state shape"),
        (pure(basis_state(2, 0), tol=0.1), "tol must be"),
        (pure(basis_state(2, 0), tol=0.0), "tol must be"),
        (mixed([[0.5, 0.1], [0.0, 0.5]]), "not hermitian"),
        (mixed([[0.6, 0.0], [0.0, 0.5]]), "trace off"),
        (mixed([[1.5, 0.0], [0.0, -0.5]]), "negative eigenvalue"),
        (mixed(basis_state(2, 0)), "initial state shape"),
        (mixed(pure_density(basis_state(3, 0))), "initial state shape"),
        (magnus(n_steps=0), "at least one step"),
        (lambda: qcore.magnus_propagate(np.eye(4), np.eye(4, k=1) + np.eye(4, k=-1),
                                        PulsedDrive().omega, (-1.0, 1.0), 10), "on 2 or 3 levels"),
        (decaying(3, 0.1), "h0 not hermitian"),
        (decaying(2, -0.1), "h0 has gain"),
    ]
    for call, message in bad_inputs:
        with pytest.raises(ValueError, match=message):
            call()
    # a valid state given as a plain list is accepted
    assert evolve_schrodinger(ham, [1.0, 0.0]).states.shape[1] == 2


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


def test_accumulated_phase_rejects_coarse_grid():
    # one step of 2 rad could as well have been 2 - 2 pi: too coarse to unwrap
    traj = Trajectory(times=np.array([0.0, 1.0]),
                      states=np.array([[1.0, 0.0], [np.exp(-2j), 0.0]]))
    with pytest.raises(RuntimeError, match="too coarse"):
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
    assert pure.states.dtype == mixed.states.dtype == complex
    # drift is the worst step's deviation of the norm, or of the trace, from 1
    assert pure.norm_drift == max(abs(float(np.sum(np.abs(a) ** 2)) - 1.0)
                                  for a in pure.states)
    assert mixed.norm_drift == max(abs(float(np.trace(m).real) - 1.0)
                                   for m in mixed.states)
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
    monkeypatch.setattr(qcore, "MAX_MAGNUS_STEPS", 399)
    with pytest.raises(RuntimeError, match="work budget"):
        magnus_states(PulsedDrive(), *pair_hamiltonian(0.75, 5.0), 400)


@pytest.mark.parametrize("e_dd", [1.4446, 5.0])
def test_magnus_is_fourth_order(e_dd):
    # halving the step cuts the error 16-fold; with the commutator term's
    # sign flipped the method is 2nd order and the ratio is 4
    drive = PulsedDrive()
    h0, v = pair_hamiltonian(drive.delta, e_dd)

    def phase(n_steps):
        return accumulated_phase(Trajectory(*magnus_states(drive, h0, v, n_steps)), 0)

    exact = phase(12800)
    err = [abs(phase(n) - exact) for n in (400, 800)]
    assert err[0] / err[1] >= 12.0


def test_magnus_batch_matches_single_runs():
    drive = PulsedDrive()
    pairs = [pair_hamiltonian(drive.delta, e) for e in (0.5, 1.4446, 5.0)]
    v = pairs[0][1]
    _, batch = magnus_states(drive, np.stack([h0 for h0, _ in pairs]), v, 400)
    assert batch.shape == (3, 401, 3)
    for (h0, _), states in zip(pairs, batch):
        assert np.max(np.abs(magnus_states(drive, h0, v, 400)[1] - states)) <= 1e-13


def test_magnus_blocks_do_not_change_results(monkeypatch):
    drive = PulsedDrive()
    h0 = np.stack([pair_hamiltonian(drive.delta, e)[0] for e in (0.5, 1.4446, 5.0)])
    v = pair_hamiltonian(drive.delta, 0.0)[1]
    # and the single dot with a decay term, on the 2-level closed form
    single = pair_hamiltonian(drive.delta, 0.0)[0][:2, :2] - 0.05j * np.diag([0.0, 1.0])
    inputs = [(h0, v), (single, v[:2, :2])]
    whole = [magnus_states(drive, *args, 400)[1] for args in inputs]
    # two step matrices per chunk: each chunk is then one product block, 4
    # steps for the 3-row stack, whose rows always propagate together, and
    # 16 for the single dot
    monkeypatch.setattr(qcore, "MAGNUS_BLOCK_STEPS", 2)
    for args, states in zip(inputs, whole):
        assert np.array_equal(magnus_states(drive, *args, 400)[1], states)


def test_end_state_keeps_norm_far_detuned():
    # step exponents of ~2e4 rad: sin s / s must be taken of s itself, or
    # cos^2 + sin^2 drifts from 1 by ~1e-12 per step
    drive = PulsedDrive(delta=1e5)
    h0, v = pair_hamiltonian(drive.delta, 5.0)
    end = magnus_states(drive, h0[:2, :2], v[:2, :2], 400)[1][-1]
    assert abs(np.vdot(end, end).real - 1.0) <= 1e-12


def test_expm_2x2_keeps_huge_hermitian_steps_unitary():
    # the single dot's step exponents at tau = 1e154 ps, whose commutator
    # term is ~1e304 rad, and random Hermitian stacks up to 1e300: s^2 must
    # neither overflow nor take a rounding imaginary part past the
    # |Im s| = 1 switch, either of which gave NaN steps (a warning fails
    # the test)
    rng = np.random.default_rng(3)
    drive = PulsedDrive(tau_ps=1e154)
    h0, v = pair_hamiltonian(drive.delta, 5.0)
    _, exponents = qcore._magnus_exponents(h0[None, :2, :2].astype(complex),
                                           v[:2, :2].astype(complex), drive.omega,
                                           drive.support(), 400)
    stacks = [exponents(slice(None))[:, 0]]
    for size in (1e20, 1e160, 1e300):
        k = np.zeros((64, 2, 2), dtype=complex)
        k[:, [0, 1], [0, 1]] = rng.uniform(-size, size, size=(64, 2))
        k[:, 0, 1] = size * (rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64)) / 2
        k[:, 1, 0] = k[:, 0, 1].conj()
        stacks.append(k)
    for k in stacks:
        u = qcore._expm_2x2(k)
        assert np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(2))) <= 1e-12


def test_expm_2x2_with_large_decay_matches_scipy():
    # the no-jump step exponents of a trion decaying at gamma from 1 to
    # 1e6 /ps, far and near detuned, and random complex 2 x 2 stacks whose
    # diagonals carry decay terms up to 1e6: where |Im s| passes 710, cos s
    # and sin s overflow while e^{-i m} underflows, which gave NaN steps (a
    # warning fails the test)
    from scipy.linalg import expm

    rng = np.random.default_rng(11)
    v = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    stacks = []
    for delta in (0.75, 1e5):
        drive = PulsedDrive(delta=delta)
        for gamma in (1.0, 1e2, 1e4, 1e6):
            h0 = np.diag([0.0, -delta - 0.5j * gamma])
            _, exponents = qcore._magnus_exponents(h0[None], v, drive.omega,
                                                   drive.support(), 400)
            stacks.append(exponents(slice(None))[:, 0])
    k = rng.normal(size=(256, 2, 2)) + 1j * rng.normal(size=(256, 2, 2))
    k[:, [0, 1], [0, 1]] -= 1j * 10.0 ** rng.uniform(0.0, 6.0, size=(256, 2))
    stacks.append(k)
    for k in stacks:
        ref = np.array([expm(-1j * kk) for kk in k])
        # scipy's scaling and squaring is itself off by ~1e-11 at |K| ~ 1e5
        assert np.max(np.abs(qcore._expm_2x2(k) - ref)) <= 1e-10


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
