"""Conditional-phase gate: phases, trion exposure, calibration, Raman error."""

import math
import re

import numpy as np
import pytest

from dotlink import (
    GateReport,
    PulsedDrive,
    RamanConfig,
    Trajectory,
    calibrate_phase,
    raman_gate_error,
    simulate_conditional_gate,
)
from dotlink import gatesim, qcore
from dotlink.gatesim import (CALIBRATION_TOL, PHASE_TOL_RAD, SCAN_START_STEPS, SCAN_STEP_MEV,
                             SCAN_TOL, _evolve_ground, _pair_gate, _spont_error,
                             excited_population, pulse_hamiltonian)
from dotlink.units import HBAR_MEV_PS
from oracles import blockade_quadrature, gate_phases_rk45, spont_error_master_equation

DRIVE = PulsedDrive()  # omega0 = 1 rad/ps, tau = 11 ps, delta = 0.75 rad/ps


def test_raman_gate_error_value():
    eps = raman_gate_error(RamanConfig())
    # pi * hbar * gamma / (2 * Delta)
    expected = math.pi * (3e10 * 1e-12) / (2.0 * 30.0 / HBAR_MEV_PS)
    assert abs(eps - expected) <= 1e-15
    assert abs(eps - 1.03e-3) <= 1e-5
    assert abs(eps - 1.0339e-3) <= 1e-7


def test_raman_gate_error_scaling():
    base = raman_gate_error(RamanConfig())
    assert raman_gate_error(RamanConfig(delta_raman_mev=60.0)) == pytest.approx(
        base / 2.0, rel=1e-12)
    assert raman_gate_error(RamanConfig(gamma_trion_per_s=0.0)) == 0.0
    with pytest.raises(ValueError):
        RamanConfig(delta_raman_mev=0.0)
    with pytest.raises(ValueError):
        RamanConfig(gamma_trion_per_s=-1.0)


def test_level_table_builds_the_pulse_hamiltonians():
    # the single dot is the hand-written {g, T}; the pair is the full
    # {gg, Tg, gT, TT}, at delta d and shift s, projected on its symmetric
    # chain gg, S = (Tg + gT)/sqrt(2), TT, which the drive never leaves, and
    # the blockade drops TT
    d, s, h = 0.73, 3.3 / HBAR_MEV_PS, 0.5
    full_h0 = np.diag([0.0, -d, -d, -2.0 * d + s])
    full_v = np.array([[0, h, h, 0], [h, 0, 0, h], [h, 0, 0, h], [0, h, h, 0]])
    r = 1.0 / math.sqrt(2.0)
    chain = np.array([[1, 0, 0], [0, r, 0], [0, r, 0], [0, 0, 1]])
    expected = {
        "single": (pulse_hamiltonian(d), (np.diag([0.0, -d]), np.array([[0, h], [h, 0]])),
                   np.eye(2)),
        "blockaded": (pulse_hamiltonian(d, 2), (full_h0[:3, :3], full_v[:3, :3]),
                      chain[:3, :2]),
        "pair": (pulse_hamiltonian(d, 2, s), (full_h0, full_v), chain),
    }
    for name, (built, full, basis) in expected.items():
        for m, m_full in zip(built, full):
            assert m.dtype == float, name
            assert np.max(np.abs(m - basis.T @ m_full @ basis)) <= 1e-15, name
            # the chain's span is invariant under the full operator
            assert np.max(np.abs(m_full @ basis - basis @ m)) <= 1e-15, name


def test_exposure_weights_count_trions():
    # a trajectory that visits each chain level in turn reads off its trion
    # number, and a superposition its mean trion number
    for dim in (2, 3):
        visit = Trajectory(times=np.arange(float(dim)), states=np.eye(dim, dtype=complex))
        assert np.array_equal(excited_population(visit), np.arange(dim))
    mixed = Trajectory(times=np.zeros(1), states=np.array([[0.6, 0.0, 0.8j]]))
    assert abs(excited_population(mixed)[0] - 2.0 * 0.64) <= 1e-15


def test_zero_drive_is_identity():
    rep = simulate_conditional_gate(PulsedDrive(omega0=0.0), 5.0)
    assert abs(rep.phi_cond_rad) <= 1e-9
    assert rep.exposure_single_ps <= 1e-9
    assert rep.eps_spont == 0.0
    assert rep.adiabatic
    # with decay the undriven no-jump leg settles on no loss
    rep = simulate_conditional_gate(PulsedDrive(omega0=0.0), 5.0, gamma_per_ps=1.0 / 300.0)
    assert abs(rep.eps_spont_lindblad) <= 1e-15


def test_default_gate_exposure_and_errors():
    gamma = 1.0 / 300.0
    rep = simulate_conditional_gate(DRIVE, 5.0, gamma_per_ps=gamma)
    # trion exposure of one driven dot, ps
    assert abs(rep.exposure_single_ps - 3.476) <= 0.01
    assert abs(rep.exposure_single_ps - 3.4) <= 0.34
    assert abs(rep.eps_spont - rep.exposure_single_ps * gamma) <= 1e-15
    assert abs(rep.eps_spont - 0.0116) <= 3e-4
    # input average: 00 contributes nothing, 01 and 10 one driven dot each,
    # 11 counts both trions but the blockade keeps its exposure below twice
    # the single-dot value
    mean_exposure = (0.0 + 2.0 * rep.exposure_single_ps + rep.exposure_double_ps) / 4.0
    assert abs(rep.eps_spont_avg - gamma * mean_exposure) <= 1e-15
    assert rep.exposure_double_ps < 2.0 * rep.exposure_single_ps
    assert abs(rep.eps_spont_avg - 0.00982) <= 2e-4
    assert rep.eps_spont_lindblad is not None
    assert abs(rep.eps_spont_lindblad - rep.eps_spont) / rep.eps_spont <= 0.15
    assert rep.adiabatic
    assert rep.norm_drift < 1e-8
    assert abs(rep.phase_single_rad - (-3.7363732)) <= 1e-5
    assert abs(rep.phi_cond_rad - 1.1722086) <= 1e-4
    # phi_cond = phi_11 - phi_01 - phi_10 + phi_00, with 10 a copy of 01
    assert abs(rep.phi_cond_rad
               - (rep.phase_double_rad - 2.0 * rep.phase_single_rad)) <= 1e-12


@pytest.mark.parametrize("delta", [0.5, 0.75, 2.0])
def test_spont_error_matches_master_equation(delta):
    # the no-jump norm loss against the sink population of the Lindblad
    # equation, integrated by RK45 in the oracle
    drive = PulsedDrive(delta=delta)
    gamma = 1.0 / 300.0
    rep = simulate_conditional_gate(drive, math.inf, gamma_per_ps=gamma)
    assert abs(rep.eps_spont_lindblad - spont_error_master_equation(drive, gamma)) <= 1e-9


def test_spont_error_vanishes_without_decay():
    # with no decay the no-jump leg keeps the norm up to rounding
    assert abs(_spont_error(DRIVE, 0.0, 1e-9)) <= 1e-12
    rep = simulate_conditional_gate(DRIVE, 5.0, gamma_per_ps=1e-30)
    assert abs(rep.eps_spont_lindblad) <= 1e-12


def test_no_decay_skips_lindblad_branch():
    rep = simulate_conditional_gate(DRIVE, 5.0, gamma_per_ps=0.0)
    assert rep.eps_spont == 0.0
    assert rep.eps_spont_lindblad is None


def test_longer_lifetime_cuts_error():
    rep = simulate_conditional_gate(DRIVE, 5.0, gamma_per_ps=1e-3,
                                    lindblad_check=False)
    assert abs(rep.eps_spont - 0.0034760) <= 1e-6
    assert abs(rep.eps_spont - 0.0034) <= 5e-4


def test_single_dot_exposure_independent_of_coupling():
    a = simulate_conditional_gate(DRIVE, 1.0, lindblad_check=False)
    b = simulate_conditional_gate(DRIVE, 8.0, lindblad_check=False)
    # the 01/10 subsystem never sees the dipole shift
    assert a.exposure_single_ps == b.exposure_single_ps
    assert a.phase_single_rad == b.phase_single_rad
    assert a.phi_cond_rad != b.phi_cond_rad


def test_stronger_drive_increases_exposure():
    weak = simulate_conditional_gate(DRIVE, 5.0, lindblad_check=False)
    strong = simulate_conditional_gate(PulsedDrive(omega0=1.4), 5.0,
                                       lindblad_check=False)
    assert strong.exposure_single_ps > weak.exposure_single_ps


def test_blockade_limit_matches_adiabatic_quadrature():
    rep = simulate_conditional_gate(DRIVE, math.inf, lindblad_check=False)
    quad = blockade_quadrature(DRIVE)
    assert abs(quad - 0.894002) <= 1e-4
    assert abs(rep.phi_cond_rad - 0.913848) <= 2e-4
    assert abs(rep.phi_cond_rad - quad) <= 0.02


@pytest.mark.xfail(reason="at finite dipole shift the quoted 0.02 rad "
                   "agreement with the dressed-state quadrature is not met "
                   "for this pulse (deviation is 0.041 rad at 50 meV)",
                   strict=True)
def test_large_coupling_matches_blockade_quadrature():
    rep = simulate_conditional_gate(DRIVE, 50.0, tol=1e-8, lindblad_check=False)
    assert abs(rep.phi_cond_rad - blockade_quadrature(DRIVE)) <= 0.02


def test_conditional_phase_is_odd():
    plus = simulate_conditional_gate(DRIVE, 2.0, lindblad_check=False, tol=1e-8)
    mirrored = simulate_conditional_gate(PulsedDrive(delta=-DRIVE.delta), -2.0,
                                         lindblad_check=False, tol=1e-8)
    assert abs(plus.phi_cond_rad + mirrored.phi_cond_rad) <= 1e-3


def test_fast_pulse_flagged_nonadiabatic():
    rep = simulate_conditional_gate(PulsedDrive(tau_ps=1.0), 5.0,
                                    lindblad_check=False, tol=1e-8)
    assert not rep.adiabatic
    assert rep.end_excited_max > 1e-3


def test_end_excited_sums_the_excited_levels():
    # the end-excited population is the excited levels' own, not one minus
    # the ground population, which would also hold the propagator's norm drift
    for e_dd in (5.0, math.inf):
        rep = simulate_conditional_gate(DRIVE, e_dd, lindblad_check=False)
        ends = [np.sum(np.abs(t.states[-1, 1:]) ** 2) for t in rep.trajectories.values()]
        assert rep.end_excited_max == max(ends)
        ground = 1.0 - abs(rep.trajectories["double"].states[-1, 0]) ** 2
        assert abs(rep.end_excited_max - max(ends[0], ground)) <= 1e-12


def test_omega_sq_integral_closed_form():
    assert abs(DRIVE.omega_sq_integral()
               - 11.0 * math.sqrt(math.pi / 2.0)) <= 1e-12
    assert abs(DRIVE.omega_sq_integral() - 13.7865) <= 1e-3


def test_gate_report_validation():
    good = dict(phi_cond_rad=0.0, phase_single_rad=0.0, phase_double_rad=0.0,
                exposure_single_ps=0.0, exposure_double_ps=0.0, eps_spont=0.0,
                eps_spont_avg=0.0, eps_spont_lindblad=None, adiabatic=True,
                end_excited_max=0.0, norm_drift=0.0, e_dd_mev=5.0, gamma_per_ps=0.0)
    GateReport(**good)
    for bad in ({"eps_spont": 1.5}, {"exposure_double_ps": -1.0}):
        with pytest.raises(ValueError):
            GateReport(**{**good, **bad})
    with pytest.raises(ValueError):
        simulate_conditional_gate(DRIVE, 5.0, gamma_per_ps=-0.1)
    with pytest.raises(ValueError):
        PulsedDrive(tau_ps=-1.0)
    # a pulse area omega0^2 * tau * sqrt(pi/2) past the largest float, from
    # a float or an int omega0
    for omega0, tau in ((1e200, 11.0), (10 ** 200, 11.0), (1e154, 1e10)):
        with pytest.raises(ValueError, match="omega0 .* tau_ps"):
            PulsedDrive(omega0=omega0, tau_ps=tau)
    assert math.isfinite(PulsedDrive(omega0=1e150).omega_sq_integral())


@pytest.mark.parametrize("omega0", [1.0, 3.0])
def test_blockade_bound_holds(omega0):
    # phi_cond lies within int omega^2 dt / (2 |s - delta|) of its blockade
    # value, the bound _pair_gate maps huge shifts to the blockade by
    drive = PulsedDrive(omega0=omega0)
    blockade = simulate_conditional_gate(drive, math.inf, lindblad_check=False).phi_cond_rad
    for e_dd in (-50.0, 50.0, 1e4):
        rep = simulate_conditional_gate(drive, e_dd, lindblad_check=False)
        gap = abs(e_dd / HBAR_MEV_PS - drive.delta)
        assert 0.0 < abs(rep.phi_cond_rad - blockade) <= drive.omega_sq_integral() / (2.0 * gap)


def test_huge_dipole_shift_is_the_blockade():
    # a shift whose distance from the blockade is far below the phase
    # tolerance runs as the blockade; an eigh of the 4-level step exponent
    # returned 7.4727 rad at 1e20 meV, with the pair never driven
    blockade = simulate_conditional_gate(DRIVE, math.inf, lindblad_check=False)
    for e_dd in (1e20, -1e20, 1e308):
        rep = simulate_conditional_gate(DRIVE, e_dd, lindblad_check=False)
        assert rep.phi_cond_rad == blockade.phi_cond_rad
        assert rep.exposure_double_ps == blockade.exposure_double_ps
        assert rep.e_dd_mev == e_dd


def test_pair_batch_matches_single_runs():
    # a batch doubles its steps until every point settles, so it may take
    # more steps than a point alone; the phases agree within the tolerance
    tol = 1e-9
    single = _evolve_ground(DRIVE, *pulse_hamiltonian(DRIVE.delta), tol)
    for e_dd in (np.array([1.4446, 3.0, 5.0]), np.array([math.inf, math.inf])):
        _, _, _, phi_cond, end_excited, adiabatic = _pair_gate(DRIVE, single, e_dd, tol)
        for e, phi, end, ok in zip(e_dd, phi_cond, end_excited, adiabatic):
            rep = simulate_conditional_gate(DRIVE, e, tol=tol, lindblad_check=False)
            assert abs(phi - rep.phi_cond_rad) <= 1e2 * tol
            assert abs(end - rep.end_excited_max) <= 1e2 * tol
            assert ok == rep.adiabatic


def test_calibrate_zero_target_at_zero_coupling():
    assert calibrate_phase(DRIVE, 0.0, e_dd_range=(0.0, 1.0)) == 0.0


def test_calibrate_pi_phase():
    e_star = calibrate_phase(DRIVE, math.pi, e_dd_range=(1.0, 2.0))
    assert abs(e_star - 1.4446) <= 2e-3
    check = simulate_conditional_gate(DRIVE, e_star, lindblad_check=False)
    assert abs(check.phi_cond_rad - math.pi) <= 1e-3


def test_calibration_brackets_rk45_root():
    # the oracle's phase crosses pi within 1e-4 meV of the calibrated e_dd
    e_star = calibrate_phase(DRIVE, math.pi)
    assert abs(e_star - 1.444592580676581) <= 1e-9
    below = gate_phases_rk45(DRIVE, e_star - 1e-4)[0]
    above = gate_phases_rk45(DRIVE, e_star + 1e-4)[0]
    assert (below - math.pi) * (above - math.pi) < 0


def test_calibration_step_count_ignores_skipped_points(monkeypatch):
    # at e_dd = 0.95 meV the ground amplitude of this drive passes within
    # 6e-4 of zero mid-pulse, and unwrapping its phase takes 25,600 steps;
    # the point is not adiabatic, so the scan skips it and must not refine it
    drive = PulsedDrive(delta=0.7377, tau_ps=11.3077)
    monkeypatch.setattr(qcore, "MAX_MAGNUS_STEPS", 1600)
    assert abs(calibrate_phase(drive, 3.045682) - 1.48948) <= 1e-4
    with pytest.raises(RuntimeError, match="work budget"):
        simulate_conditional_gate(drive, 0.95, lindblad_check=False)


def test_calibration_work_and_pins(monkeypatch):
    # the scan locates at SCAN_TOL and confirms at CALIBRATION_TOL: 16,800
    # step exponentials at the default drive, where a scan at CALIBRATION_TOL
    # took 43,200; gate-design inputs (delta, tau_ps, target) keep their e_dd
    work, calls = [], []
    propagate, pair_gate = gatesim.magnus_propagate, gatesim._pair_gate

    def counted(h0, v, omega, support, n_steps):
        work.append(n_steps * (len(h0) if np.ndim(h0) == 3 else 1))
        return propagate(h0, v, omega, support, n_steps)

    def logged(drive, single, e_dd, tol, *args):
        calls.append((len(e_dd), tol))
        return pair_gate(drive, single, e_dd, tol, *args)

    monkeypatch.setattr(gatesim, "magnus_propagate", counted)
    monkeypatch.setattr(gatesim, "_pair_gate", logged)
    calibrate_phase(PulsedDrive(), math.pi)
    assert sum(work) <= 20_000
    # one scan chunk, both bracket ends confirmed in one call, then the
    # false-position probes
    assert calls[:2] == [(32, SCAN_TOL), (2, CALIBRATION_TOL)]
    assert set(calls[2:]) == {(1, CALIBRATION_TOL)}
    for delta, tau_ps, target, e_dd in ((0.7556, 11.2129, 3.058758, 1.480983105394789),
                                        (0.735, 11.3351, 3.098623, 1.4765547812391489),
                                        (0.7551, 11.3915, 3.000021, 1.509560632409866)):
        drive = PulsedDrive(delta=delta, tau_ps=tau_ps)
        assert abs(calibrate_phase(drive, target) - e_dd) <= 1e-9


def test_calibration_confirms_before_accepting():
    # a target PHASE_TOL_RAD - |d|/2 from a grid point's phase as the scan
    # batch sees it (SCAN_TOL), on the side away from its phase alone at
    # CALIBRATION_TOL (d apart), is accepted by the scan and refused by the
    # confirmation, so the scan goes on and refines a bracket
    lo, hi = 1.35, 2.35
    grid = np.arange(lo, hi, SCAN_STEP_MEV)
    if grid[-1] < hi:
        grid = np.append(grid, hi)
    single = _evolve_ground(DRIVE, *pulse_hamiltonian(DRIVE.delta), CALIBRATION_TOL, True)
    coarse = _pair_gate(DRIVE, single, grid, SCAN_TOL, True, SCAN_START_STEPS)[3][1]
    exact = _pair_gate(DRIVE, single, grid[1:2], CALIBRATION_TOL, True)[3][0]
    d = exact - coarse
    assert d != 0.0
    target = coarse - math.copysign(PHASE_TOL_RAD - abs(d) / 2, d)
    assert abs(coarse - target) <= PHASE_TOL_RAD < abs(exact - target)
    e_star = calibrate_phase(DRIVE, target, (lo, hi))
    assert e_star not in grid
    assert grid[0] < e_star < grid[2]
    check = simulate_conditional_gate(DRIVE, e_star, tol=CALIBRATION_TOL, lindblad_check=False)
    assert abs(check.phi_cond_rad - target) <= 1e-6
    # a nonzero target at that confirmed phase returns the grid point itself
    assert calibrate_phase(DRIVE, float(exact), (lo, hi)) == grid[1]


def test_calibration_range_checks(monkeypatch):
    # refused before any propagation: an infinite bound made numpy's arange
    # fail with its own message, and (0, 1e7) would build a 2e8-point grid
    def no_propagation(*args):
        raise AssertionError("propagated")

    monkeypatch.setattr(gatesim, "magnus_propagate", no_propagation)
    for e_dd_range in ((0.0, math.inf), (0.0, math.nan), (-1.0, 1.0)):
        with pytest.raises(ValueError, match=re.escape(f"e_dd range {e_dd_range}")):
            calibrate_phase(DRIVE, math.pi, e_dd_range)
    with pytest.raises(ValueError, match=r"e_dd range \(0.0, 10000000.0\) spans more than"):
        calibrate_phase(DRIVE, math.pi, (0.0, 1e7))


@pytest.mark.parametrize("e_dd", [0.5, 1.4446, 3.0, 5.0, 50.0, math.inf])
def test_gate_phases_match_rk45_oracle(e_dd):
    rep = simulate_conditional_gate(DRIVE, e_dd, lindblad_check=False)
    phi, single, double = gate_phases_rk45(DRIVE, e_dd)
    assert abs(rep.phi_cond_rad - phi) <= 1e-6
    assert abs(rep.phase_single_rad - single) <= 1e-6
    assert abs(rep.phase_double_rad - double) <= 1e-6


def test_calibrate_unreachable_target():
    with pytest.raises(RuntimeError, match="attainable"):
        calibrate_phase(DRIVE, 50.0, e_dd_range=(4.8, 5.2))
    # at delta = 1 the pair's ground amplitude empties near e_dd = 1.25 meV;
    # those scan points count as non-adiabatic, and pi lies across that window
    with pytest.raises(RuntimeError, match="attainable"):
        calibrate_phase(PulsedDrive(delta=1.0), math.pi)
    with pytest.raises(ValueError):
        calibrate_phase(DRIVE, math.pi, e_dd_range=(5.0, 2.0))
