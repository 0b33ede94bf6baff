"""Two-photon interference, efficiency chain, and link timing."""

import math

import numpy as np
import pytest

from dotlink.photonlink import (
    MAX_LINK_SAMPLES,
    LinkBudget,
    bsa_coincidence,
    dephasing_error,
    link_attempt_stats,
    link_report,
    overlap_error_small_mismatch,
    photon_efficiency,
    sample_link_times,
    wavepacket_overlap_error,
)
from dotlink.units import HBAR_MEV_PS


def test_overlap_error_zero_mismatch():
    assert wavepacket_overlap_error(0.0, 300.0) == 0.0


def test_overlap_error_half_at_linewidth():
    # dE = hbar*gamma makes dw = gamma, so the error is exactly 1/2
    de_uev = HBAR_MEV_PS / 300.0 * 1e3
    assert abs(wavepacket_overlap_error(de_uev, 300.0) - 0.5) <= 1e-12


def test_overlap_error_reference_point():
    err = wavepacket_overlap_error(0.2, 300.0)
    assert abs(err - 0.0082409) <= 1e-6


def test_overlap_error_shape():
    # even in dE, monotone in |dE|, bounded by 1
    grid = np.linspace(0.0, 5.0, 40)
    vals = [wavepacket_overlap_error(d, 300.0) for d in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v < 1.0 for v in vals)
    assert wavepacket_overlap_error(-0.7, 300.0) == wavepacket_overlap_error(0.7, 300.0)
    with pytest.raises(ValueError):
        wavepacket_overlap_error(0.2, 0.0)


def test_leading_order_agreement():
    gamma_uev = HBAR_MEV_PS / 300.0 * 1e3
    for frac in (0.02, 0.1, 0.2):
        de = frac * gamma_uev
        exact = wavepacket_overlap_error(de, 300.0)
        approx = overlap_error_small_mismatch(de, 300.0)
        assert abs(approx - exact) / exact <= 0.05


def test_bsa_perfect_overlap():
    minus = bsa_coincidence("psi_minus", 0.0, 300.0)
    plus = bsa_coincidence("psi_plus", 0.0, 300.0)
    assert minus.coincidence == 1.0
    assert plus.coincidence == 0.0
    # coincidence splits linearly between the two Bell states
    assert minus.coincidence + plus.coincidence == 1.0


def test_bsa_mismatch_and_product():
    minus = bsa_coincidence("psi_minus", 0.2, 300.0)
    plus = bsa_coincidence("psi_plus", 0.2, 300.0)
    err = wavepacket_overlap_error(0.2, 300.0)
    assert abs(minus.coincidence - (2.0 - err) / 2.0) <= 1e-12
    assert abs(plus.coincidence - err / 2.0) <= 1e-12
    # distinguishable-photon limit: product input at 1/2 regardless
    prod = bsa_coincidence("product", 30.0, 300.0)
    assert prod.coincidence == 0.5
    assert abs(bsa_coincidence("psi_minus", 1e4, 300.0).coincidence - 0.5) <= 5e-3
    with pytest.raises(ValueError):
        bsa_coincidence("phi_plus", 0.0, 300.0)


def test_photon_efficiency_chain():
    # no override: eta_wg * exp(-t_switch/T_rad) * fiber * eta_det
    budget = LinkBudget(eta_wg=0.95, t_switch_ps=100.0, eta_det=1.0,
                        alpha_db_km=0.0, eta_override=None)
    assert abs(photon_efficiency(budget, 300.0)
               - 0.95 * math.exp(-1.0 / 3.0)) <= 1e-12
    # ideal everything
    ideal = LinkBudget(eta_wg=1.0, t_switch_ps=0.0, eta_det=1.0,
                       alpha_db_km=0.0, eta_override=None)
    assert photon_efficiency(ideal, 300.0) == 1.0
    # fiber loss: 0.2 dB/km over half of 20 km is 2 dB
    lossy = LinkBudget(eta_wg=1.0, t_switch_ps=0.0, alpha_db_km=0.2,
                       eta_override=None)
    assert abs(photon_efficiency(lossy, 300.0) - 10.0 ** (-0.2)) <= 1e-12
    # the override short-circuits the chain
    assert photon_efficiency(LinkBudget(eta_override=0.25), 300.0) == 0.25


def test_link_attempt_stats_reference():
    stats = link_attempt_stats(LinkBudget(), 300.0)
    assert abs(stats["p_success"] - 0.03125) <= 1e-12
    assert abs(stats["period_ms"] - 0.1) <= 1e-12
    assert abs(stats["mean_time_ms"] - 3.2) <= 1e-12
    # mean_time = period / P identically
    eta1 = link_attempt_stats(LinkBudget(eta_override=1.0), 300.0)
    # unit efficiency leaves the heralding-sector chance, 1/2
    assert eta1["p_success"] == 0.5
    assert eta1["mean_time_ms"] == 2.0 * eta1["period_ms"]
    with pytest.raises(ValueError):
        link_attempt_stats(LinkBudget(eta_override=0.0), 300.0)


def test_link_report_keys_and_mean_time():
    rep = link_report(LinkBudget(), 300.0, 1000, np.random.default_rng(1))
    assert list(rep) == ["p_success", "period_ms", "mean_time_ms", "eta_per_photon",
                         "mc_mean_ms", "mc_se_ms", "n_trials", "overlap_error",
                         "overlap_error_leading_order", "dephasing_error",
                         "coincidence_psi_minus", "coincidence_psi_plus"]
    assert rep["mean_time_ms"] == link_attempt_stats(LinkBudget(), 300.0)["mean_time_ms"]


def test_sample_link_times_mean():
    rng = np.random.default_rng(42)
    times = sample_link_times(LinkBudget(), 300.0, 100_000, rng)
    assert times.min() >= 0.1
    assert abs(times.mean() - 3.2) / 3.2 <= 0.02


def test_dephasing_error():
    assert abs(dephasing_error(300.0, 30_000.0) - 1.0 / 101.0) <= 1e-15
    assert dephasing_error(300.0, 300.0) == 0.5
    assert dephasing_error(300.0, 3e9) < 1e-6
    with pytest.raises(ValueError):
        dephasing_error(300.0, 0.0)


def test_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(eta_wg=1.2)
    with pytest.raises(ValueError):
        LinkBudget(l0_km=0.0)
    with pytest.raises(ValueError):
        LinkBudget(eta_override=2.0)
    with pytest.raises(ValueError):
        LinkBudget(delta_e_uev=-0.1)
    with pytest.raises(ValueError):
        LinkBudget(t_deph_ps=0.0)
    with pytest.raises(ValueError):
        sample_link_times(LinkBudget(), 300.0, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_link_times(LinkBudget(), 300.0, MAX_LINK_SAMPLES + 1,
                          np.random.default_rng(0))