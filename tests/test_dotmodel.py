"""Static dot-model quantities: optical lines, thermal drift, dipole shifts."""

import dataclasses
import math

import pytest

from dotlink.dotmodel import (
    GAAS,
    ZNSE,
    DotConfig,
    MATERIAL_PRESETS,
    MAX_PLAN_SLOTS,
    NodePlan,
    addressing_plan,
    control_precision,
    dipole_dipole_energy,
    photon_energies,
    tune_report,
    varshni_shift,
    varshni_slope,
)


def test_photon_energies_default_dot():
    e_hi, e_lo = photon_energies(DotConfig())
    # lines at E_T +/- gX muB B with gX = 2, B = 1 T
    e_z = 2.0 * 0.057883 * 1.0
    assert abs(e_hi - (1650.0 + e_z)) <= 1e-9
    assert abs(e_lo - (1650.0 - e_z)) <= 1e-9
    assert abs(e_hi - 1650.11577) <= 1e-4
    assert abs(e_lo - 1649.88423) <= 1e-4


def test_photon_energies_linear_in_field():
    d1 = DotConfig(b_field_t=1.0)
    d3 = DotConfig(b_field_t=3.0)
    s1 = photon_energies(d1)[0] - photon_energies(d1)[1]
    s3 = photon_energies(d3)[0] - photon_energies(d3)[1]
    assert abs(s3 - 3.0 * s1) <= 1e-12


def test_photon_energies_degenerate_at_zero_field():
    e_hi, e_lo = photon_energies(DotConfig(b_field_t=0.0))
    assert e_hi == e_lo == 1650.0


def test_varshni_shift_and_slope():
    assert varshni_shift(0.0, GAAS) == 0.0
    # alpha T^2 / (T + beta) at 30 K
    expected = 0.5405 * 900.0 / 234.0
    assert abs(varshni_shift(30.0, GAAS) - expected) <= 1e-9
    assert abs(expected - 2.079) <= 1e-3
    slope = varshni_slope(30.0, GAAS)
    assert abs(slope - 0.129707) <= 1e-5
    # derivative consistency by central difference
    h = 1e-3
    fd = (varshni_shift(30.0 + h, GAAS) - varshni_shift(30.0 - h, GAAS)) / (2 * h)
    assert abs(slope - fd) <= 1e-6 * abs(slope)
    # shift grows with temperature
    assert varshni_shift(60.0, GAAS) > varshni_shift(30.0, GAAS)
    with pytest.raises(ValueError):
        varshni_shift(-1.0, GAAS)


def test_control_precision_values():
    dt_mk, db_mt = control_precision(DotConfig(), GAAS, de_target_uev=0.2)
    # dB = dE / (gX muB), dT = dE / varshni slope, both in milli units
    assert abs(db_mt - 0.2e-3 / (2.0 * 0.057883) * 1e3) <= 1e-9
    assert abs(db_mt - 1.7277) <= 1e-3
    assert abs(dt_mk - 1.5420) <= 1e-3
    # zero target allows zero drift
    dt0, db0 = control_precision(DotConfig(), GAAS, de_target_uev=0.0)
    assert dt0 == 0.0 and db0 == 0.0


def test_control_precision_degenerate_slope():
    # a zero Varshni or Zeeman slope would make a tolerance infinite
    with pytest.raises(ValueError, match="t_op_k must be positive"):
        DotConfig(t_op_k=0.0)
    with pytest.raises(ValueError, match="g_x must be nonzero"):
        DotConfig(g_x=0.0)
    with pytest.raises(ValueError, match="varshni alpha and beta must be positive"):
        dataclasses.replace(GAAS, varshni_alpha_mev_k=0.0)


def test_dipole_energy_values():
    # four charges at d = 5 nm, r = 10 nm in GaAs
    e4 = dipole_dipole_energy(5.0, 10.0, GAAS.eps_r, geometry="four-charge")
    ep = dipole_dipole_energy(5.0, 10.0, GAAS.eps_r, geometry="point-dipole")
    scale = 1439.964 / 12.9
    assert abs(e4 - scale * (2.0 / 10.0 - 2.0 / math.hypot(5.0, 10.0))) <= 1e-12
    assert abs(ep - scale * 25.0 / 1000.0) <= 1e-12
    assert abs(e4 - 2.3569) <= 1e-3
    assert abs(ep - 2.7906) <= 1e-3


def test_point_dipole_scaling_is_exact():
    e1 = dipole_dipole_energy(5.0, 10.0, 12.9, geometry="point-dipole")
    e2 = dipole_dipole_energy(5.0, 20.0, 12.9, geometry="point-dipole")
    assert abs(e1 / e2 - 8.0) <= 1e-12


def test_geometries_converge_at_separation():
    d = 5.0
    for r, rel_tol in [(2.0 * d, 0.20), (10.0 * d, 0.01)]:
        e4 = dipole_dipole_energy(d, r, 12.9, geometry="four-charge")
        ep = dipole_dipole_energy(d, r, 12.9, geometry="point-dipole")
        assert abs(e4 - ep) / ep <= rel_tol
    # far field: both essentially vanish
    assert dipole_dipole_energy(d, 1e4, 12.9, geometry="four-charge") < 1e-8


def test_dipole_energy_validation():
    with pytest.raises(ValueError):
        dipole_dipole_energy(5.0, 0.0, 12.9)
    with pytest.raises(ValueError):
        dipole_dipole_energy(5.0, 10.0, 12.9, geometry="octupole")


def test_addressing_plan_counts():
    plan = addressing_plan(15.0, 7.5)
    assert plan.n_qubits == 2
    assert plan.slots_mev == (0.0, 7.5)
    assert addressing_plan(15.0, 5.0).n_qubits == 3
    # spacing wider than the window still fits one line
    assert addressing_plan(5.0, 7.5).n_qubits == 1
    with pytest.raises(ValueError):
        addressing_plan(0.0, 7.5)
    with pytest.raises(ValueError):
        addressing_plan(15.0, 0.0)


def test_addressing_plan_slot_cap():
    assert addressing_plan(15.0, 1.5e-3).n_qubits == MAX_PLAN_SLOTS
    # refused before any slot is built; the last ratio is infinite
    for e_w, e_s in ((15.0, 1e-3), (15.0, 1e-300), (1e300, 7.5), (1e300, 1e-10)):
        with pytest.raises(ValueError, match="addressing plan exceeds"):
            addressing_plan(e_w, e_s)


def test_addressing_plan_far_slots():
    # the rounding of i * e_s grows with i, past an absolute spacing tolerance
    plan = addressing_plan(16981.3, 1.7)
    assert plan.n_qubits == 9989 and plan.slots_mev[-1] < 16981.3
    # 1e12 - 1e-6 rounds to 1e12, so an absolute window margin put a slot on e_w
    plan = addressing_plan(1e12, 1e9)
    assert plan.n_qubits == 1000 and all(s < 1e12 for s in plan.slots_mev)


def test_tune_report_sections():
    rep = tune_report(DotConfig(), GAAS, 0.2, 10.0, 15.0, 7.5)
    assert list(rep) == ["photon_energies", "control", "varshni", "dipole_dipole", "plan"]
    assert rep["plan"]["n_qubits"] == 2


def test_node_plan_invariants():
    plan = NodePlan(e_w_mev=15.0, e_s_mev=5.0, slots_mev=(0.0, 5.0, 10.0))
    assert plan.n_qubits == 3
    for a, b in zip(plan.slots_mev, plan.slots_mev[1:]):
        assert b - a >= plan.e_s_mev - 1e-12
        assert b < plan.e_w_mev
    with pytest.raises(ValueError):
        NodePlan(e_w_mev=15.0, e_s_mev=5.0, slots_mev=(0.0, 3.0))
    with pytest.raises(ValueError):
        NodePlan(e_w_mev=4.0, e_s_mev=5.0, slots_mev=(0.0, 5.0))


def test_material_presets():
    assert MATERIAL_PRESETS["GaAs"] is GAAS
    assert MATERIAL_PRESETS["ZnSe"] is ZNSE
    assert GAAS.d_c_ev == -8.0 and GAAS.d_v_ev == 1.0
    assert GAAS.rho_kg_m3 == 5317.0 and GAAS.c_s_m_s == 5110.0
    assert ZNSE.c_s_m_s < GAAS.c_s_m_s


def test_dot_config_validation():
    with pytest.raises(ValueError):
        DotConfig(diameter_nm=3.0, thickness_nm=4.0)
    for sizes in ({"diameter_nm": 1.1e6}, {"d_eh_nm": -1.1e6}, {"thickness_nm": 9e-4}):
        with pytest.raises(ValueError, match="thickness_nm must be at least"):
            DotConfig(**sizes)
    DotConfig(diameter_nm=1e6, thickness_nm=1e-3, d_eh_nm=-1e6)
    with pytest.raises(ValueError):
        DotConfig(e_t_mev=-1.0)
    with pytest.raises(ValueError):
        DotConfig(t_rad_ps=0.0)
