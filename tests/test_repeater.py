"""Swap algebra against a brute-force density matrix, and chain timing."""

import math

import numpy as np
import pytest
from scipy.stats import geom

from dotlink import repeater
from dotlink.photonlink import (MAX_LINK_SAMPLES, LinkBudget, link_attempt_stats,
                                sample_link_times, wavepacket_overlap_error)
from dotlink.repeater import (
    ChainConfig,
    WernerPair,
    analytic_mean_time,
    simulate_chain,
    swap,
)
from oracles import repeater_time_quantile, swap_werner_bruteforce


def test_werner_pair_basics():
    pair = WernerPair(w=0.8, left=0, right=1)
    assert pair.fidelity() == (1.0 + 3.0 * 0.8) / 4.0
    assert WernerPair(w=1.0, left=0, right=1).fidelity() == 1.0
    assert WernerPair(w=0.0, left=0, right=1).fidelity() == 0.25
    with pytest.raises(ValueError):
        WernerPair(w=1.2, left=0, right=1)
    with pytest.raises(ValueError):
        WernerPair(w=0.5, left=1, right=1)


def test_swap_perfect_operations():
    a = WernerPair(w=1.0, left=0, right=1)
    b = WernerPair(w=1.0, left=1, right=2)
    out = swap(a, b, eps_gate=0.0, eps_meas=0.0)
    assert out.w == 1.0
    assert (out.left, out.right) == (0, 2)
    # one dead input kills the output
    dead = swap(WernerPair(w=0.0, left=0, right=1), b, 0.0, 0.0)
    assert dead.w == 0.0


def test_swap_rejects_nonadjacent():
    a = WernerPair(w=0.9, left=0, right=1)
    c = WernerPair(w=0.9, left=2, right=3)
    with pytest.raises(ValueError):
        swap(a, c, 0.0, 0.0)


def test_swap_ready_time_accounting():
    a = WernerPair(w=0.9, left=0, right=1, ready_ms=3.0)
    b = WernerPair(w=0.9, left=1, right=2, ready_ms=5.0)
    out = swap(a, b, 0.005, 0.005, delay_ms_per_link=0.1)
    assert abs(out.ready_ms - (5.0 + 2 * 0.1)) <= 1e-12
    # one ready time per trial: the same as swapping trial by trial
    ready_a, ready_b = np.array([3.0, 6.0, 1.0]), np.array([5.0, 2.0, 1.0])
    batch = swap(WernerPair(0.9, 0, 1, ready_a), WernerPair(0.9, 1, 2, ready_b),
                 0.005, 0.005, delay_ms_per_link=0.1)
    each = [swap(WernerPair(0.9, 0, 1, x), WernerPair(0.9, 1, 2, y),
                 0.005, 0.005, delay_ms_per_link=0.1) for x, y in zip(ready_a, ready_b)]
    assert np.array_equal(batch.ready_ms, [p.ready_ms for p in each])
    assert batch.w == out.w == each[0].w


def test_swap_formula_value():
    a = WernerPair(w=0.98, left=0, right=1)
    b = WernerPair(w=0.98, left=1, right=2)
    out = swap(a, b, eps_gate=0.005, eps_meas=0.005)
    depol = (1 - 0.005) * (1 - 0.005) ** 2
    assert abs(out.w - 0.98 ** 2 * depol) <= 1e-15
    assert abs(out.w - 0.9461) <= 1e-4


def test_swap_against_bruteforce_density_matrix():
    for w_a, w_b, eg, em in [(0.98, 0.98, 0.005, 0.005),
                             (0.9, 0.7, 0.02, 0.01),
                             (1.0, 1.0, 0.0, 0.0),
                             (0.6, 1.0, 0.0, 0.05)]:
        expected = swap(WernerPair(w_a, 0, 1), WernerPair(w_b, 1, 2), eg, em).w
        oracle = swap_werner_bruteforce(w_a, w_b, eg, em)
        assert abs(expected - oracle) <= 1e-3, (w_a, w_b, eg, em)


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(n_links=3)
    with pytest.raises(ValueError):
        ChainConfig(eps_gate=1.0)
    with pytest.raises(ValueError):
        ChainConfig(w0=1.5)
    with pytest.raises(ValueError):
        ChainConfig(n_trials=0)
    # the sample cap covers 64 links x 1e5 trials, not 64 x 1e6
    ChainConfig(n_links=64, n_trials=100_000)
    with pytest.raises(ValueError):
        ChainConfig(n_links=64, n_trials=MAX_LINK_SAMPLES // 64 + 1)
    # a null w0 is derived by the chain from the heralded-pair error
    one = ChainConfig(n_links=1)
    assert abs(simulate_chain(one, 10).w0 - (1.0 - 0.0082409)) <= 1e-6
    assert simulate_chain(ChainConfig(n_links=1, w0=0.7), 10).w0 == 0.7
    assert simulate_chain(one, 10, link=LinkBudget(delta_e_uev=0.0)).w0 == 1.0


def test_single_link_mean_time():
    cfg = ChainConfig(n_links=1)
    res = simulate_chain(cfg, n_trials=20_000, seed=5)
    assert abs(res.times_ms["mean_ms"] - 3.2) <= 3.0 * res.times_ms["se_ms"]
    assert abs(res.times_ms["mean_ms"] - 3.2) / 3.2 <= 0.02
    assert res.analytic_mean_ms == 3.2
    assert res.times_ms["min_ms"] >= res.period_ms
    # one link: the exact quantile is the geometric quantile times the period
    for f in (0.1, 0.5, 0.9):
        assert repeater_time_quantile(1, res.p_success, res.period_ms, 0.0, f) \
            == res.period_ms * geom.ppf(f, res.p_success)
    # one link's trial times are the link sampler's draws
    one = simulate_chain(cfg, n_trials=100, seed=np.random.default_rng(5))
    assert np.array_equal(one.trial_times_ms, sample_link_times(
        LinkBudget(), 300.0, 100, np.random.default_rng(5)))


def test_two_link_analytic_agreement():
    cfg = ChainConfig(n_links=2)
    res = simulate_chain(cfg, n_trials=20_000, seed=6)
    # one doubling level: (period/P)*1.5 + 2*delay
    assert abs(res.analytic_mean_ms - (3.2 * 1.5 + 2 * 0.1)) <= 1e-12
    assert abs(res.analytic_mean_ms - res.times_ms["mean_ms"]) \
        / res.times_ms["mean_ms"] <= 0.15


@pytest.mark.xfail(reason="the 1.5^levels doubling heuristic drifts past "
                   "the stated factor 1.5 by 64 links (ratio is about 1.8)",
                   strict=True)
def test_deep_chain_analytic_within_factor():
    cfg = ChainConfig()
    res = simulate_chain(cfg, n_trials=4000, seed=7)
    ratio = res.analytic_mean_ms / res.times_ms["p50_ms"]
    assert 1.0 / 1.5 <= ratio <= 1.5


def test_default_chain_fidelity():
    res = simulate_chain(ChainConfig(), n_trials=500, seed=8)
    # 6 swap levels square the Werner weight each time
    w = 1.0 - wavepacket_overlap_error(0.2, 300.0)
    depol = (1 - 0.005) * (1 - 0.005) ** 2
    for _ in range(6):
        w = w * w * depol
    assert abs(res.w_final - w) <= 1e-12
    assert abs(res.w_final - 0.2283270) <= 1e-6
    assert abs(res.fidelity_final - 0.4212453) <= 1e-6
    assert res.fidelity_final == (1.0 + 3.0 * res.w_final) / 4.0
    # every trial pays at least one attempt plus all heralding delays
    delays = sum(2 ** k * 0.1 for k in range(1, 7))
    assert res.times_ms["min_ms"] >= 0.1 + delays


def test_perfect_chain_keeps_fidelity():
    cfg = ChainConfig(n_links=8, eps_gate=0.0, eps_meas=0.0, w0=1.0)
    res = simulate_chain(cfg, n_trials=200, seed=9)
    assert res.w_final == 1.0
    assert res.fidelity_final == 1.0


def test_chain_monotone_in_gate_error_and_depth():
    w_by_eps = [simulate_chain(ChainConfig(eps_gate=e), n_trials=10, seed=1).w_final
                for e in (0.0, 0.005, 0.01)]
    assert w_by_eps[0] > w_by_eps[1] > w_by_eps[2]
    w_by_depth = [simulate_chain(ChainConfig(n_links=n), n_trials=10, seed=1).w_final
                  for n in (16, 32, 64)]
    assert w_by_depth[0] > w_by_depth[1] > w_by_depth[2]


def test_chain_reproducible_and_trials_kept():
    a = simulate_chain(ChainConfig(n_links=8), n_trials=300, seed=42)
    b = simulate_chain(ChainConfig(n_links=8), n_trials=300, seed=42)
    assert a.times_ms == b.times_ms
    assert np.array_equal(a.trial_times_ms, b.trial_times_ms)
    c = simulate_chain(ChainConfig(n_links=8), n_trials=300, seed=np.random.default_rng(42))
    assert len(c.trial_times_ms) == 300
    assert float(np.mean(c.trial_times_ms)) == a.times_ms["mean_ms"]
    # each trial waits for its slowest link, then pays the delays of 3 levels
    attempts = np.random.default_rng(42).geometric(c.p_success, size=(300, 8))
    delays = (2 + 4 + 8) * 0.1
    assert np.max(np.abs(c.trial_times_ms
                         - (c.period_ms * attempts.max(axis=1) + delays))) <= 1e-12
    with pytest.raises(ValueError):
        simulate_chain(ChainConfig(), n_trials=0)


def test_per_level_bookkeeping():
    res = simulate_chain(ChainConfig(n_links=4), n_trials=100, seed=2)
    assert [lv["level"] for lv in res.per_level] == [0, 1, 2]
    assert [lv["span_links"] for lv in res.per_level] == [1, 2, 4]
    ws = [lv["w"] for lv in res.per_level]
    assert all(b < a for a, b in zip(ws, ws[1:]))
    readies = [lv["mean_ready_ms"] for lv in res.per_level]
    assert all(b > a for a, b in zip(readies, readies[1:]))
    assert link_attempt_stats(LinkBudget(), 300.0)["p_success"] == res.p_success


@pytest.mark.parametrize("n_links,n_trials,block", [(8, 301, 20), (4, 1000, 64), (1, 7, 3)])
def test_blocked_chain_matches_one_block(monkeypatch, n_links, n_trials, block):
    cfg = ChainConfig(n_links=n_links)
    whole = simulate_chain(cfg, n_trials=n_trials, seed=3)
    drawn = []

    def counted(budget, t_rad_ps, n, rng):
        drawn.append(n)
        return sample_link_times(budget, t_rad_ps, n, rng)

    monkeypatch.setattr(repeater, "BLOCK_SAMPLES", block)
    monkeypatch.setattr(repeater, "sample_link_times", counted)
    blocked = simulate_chain(cfg, n_trials=n_trials, seed=3)
    # one stream drawn in trial order: the same totals, bit for bit
    assert len(drawn) > 1 and sum(drawn) == n_trials * n_links
    assert np.array_equal(blocked.trial_times_ms, whole.trial_times_ms)
    assert blocked.times_ms == whole.times_ms
    for a, b in zip(blocked.per_level, whole.per_level):
        assert a["w"] == b["w"] and a["span_links"] == b["span_links"]
        assert abs(a["mean_ready_ms"] - b["mean_ready_ms"]) <= 1e-15 * b["mean_ready_ms"]
    if n_links == 1:
        # 7 trials in blocks of 3 would leave one trial, a single sample,
        # which sample_link_times refuses; it joins the block before it
        assert drawn == [3, 4]


def test_chain_working_set_bounded(fresh_peak_mb):
    # 64 links x 1e5 trials drawn at once took ~135 MB; in blocks the chain
    # keeps one block and the (n_trials,) totals
    code = ("from dotlink.repeater import ChainConfig, simulate_chain\n"
            "simulate_chain(ChainConfig(), n_trials=100_000)\n")
    assert fresh_peak_mb(code) < 80.0
