"""Shelved-cycling readout Monte Carlo against exact count statistics."""

import math

import numpy as np
import pytest
from scipy import stats

from dotlink.readout import (MAX_CYCLES, MAX_SHOTS, ReadoutConfig,
                             poisson_limit_error, simulate_readout)


def test_poisson_limit_against_scipy():
    assert abs(poisson_limit_error(20.0, 10) - stats.poisson.cdf(9, 20.0)) <= 1e-12
    assert abs(poisson_limit_error(20.0, 10) - 0.004995) <= 1e-5
    # threshold 1: only the empty outcome fails
    assert abs(poisson_limit_error(3.0, 1) - math.exp(-3.0)) <= 1e-15


def test_poisson_limit_monotone_in_mean():
    vals = [poisson_limit_error(m, 10) for m in (5.0, 10.0, 20.0, 40.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        poisson_limit_error(0.0, 10)
    with pytest.raises(ValueError):
        poisson_limit_error(20.0, 0)


def test_readout_no_shelving_matches_binomial():
    # p_forbidden = 0 removes shelving: counts ~ Binomial(n_cycles, eta)
    cfg = ReadoutConfig(p_forbidden=0.0, n_shots=100_000)
    rep = simulate_readout(cfg, seed=7)
    exact = float(stats.binom.cdf(cfg.threshold - 1, cfg.n_cycles, cfg.eta_det))
    assert abs(exact - 3.528566e-3) <= 1e-8
    assert abs(rep.eps_bright - exact) <= 3.0 * max(rep.eps_bright_se, 1e-6)
    assert abs(rep.mean_counts - cfg.n_cycles * cfg.eta_det) <= 0.1


def test_readout_deterministic_bright():
    # perfect detection, no shelving: every shot counts all n_cycles
    cfg = ReadoutConfig(p_forbidden=0.0, eta_det=1.0, n_cycles=20,
                        threshold=10, n_shots=1000)
    rep = simulate_readout(cfg, seed=1)
    assert rep.eps_bright == 0.0
    assert rep.histogram_bright[20] == 1.0
    assert rep.mean_counts == 20.0


def test_readout_defaults():
    rep = simulate_readout(ReadoutConfig(), seed=12345)
    # shelving truncates the count distribution well below the Poisson limit
    assert abs(rep.mean_shelving_cycles - 1000.0) <= 3.0 * rep.mean_shelving_cycles_se
    assert abs(rep.poisson_limit - 0.004995) <= 1e-5
    assert 0.05 <= rep.eps_bright <= 0.15
    assert rep.eps_bright > rep.poisson_limit
    assert abs(float(np.sum(rep.histogram_bright)) - 1.0) <= 1e-12
    assert rep.mean_counts < 200 * 0.1


def test_readout_monotone_in_efficiency():
    errs = [simulate_readout(ReadoutConfig(eta_det=eta, n_shots=40_000), seed=3).eps_bright
            for eta in (0.08, 0.10, 0.14)]
    assert errs[0] > errs[1] > errs[2]


def test_readout_monotone_in_cycle_budget():
    errs = [simulate_readout(ReadoutConfig(n_cycles=n, n_shots=40_000), seed=4).eps_bright
            for n in (120, 200, 400)]
    assert errs[0] > errs[1] > errs[2]


def test_readout_reproducible():
    a = simulate_readout(ReadoutConfig(n_shots=20_000), seed=11)
    b = simulate_readout(ReadoutConfig(n_shots=20_000), seed=11)
    assert a.eps_bright == b.eps_bright
    assert a.mean_counts == b.mean_counts
    assert np.array_equal(a.histogram_bright, b.histogram_bright)
    # a generator may be passed directly
    c = simulate_readout(ReadoutConfig(n_shots=20_000), np.random.default_rng(11))
    assert c.eps_bright == a.eps_bright


def test_readout_config_validation():
    with pytest.raises(ValueError):
        ReadoutConfig(n_shots=0)
    with pytest.raises(ValueError):
        ReadoutConfig(threshold=0)
    with pytest.raises(ValueError):
        ReadoutConfig(eta_det=1.2)
    with pytest.raises(ValueError):
        ReadoutConfig(p_forbidden=-0.1)
    # size caps: 1e6 shots stay allowed
    ReadoutConfig(n_shots=1_000_000)
    with pytest.raises(ValueError):
        ReadoutConfig(n_shots=MAX_SHOTS + 1)
    with pytest.raises(ValueError):
        ReadoutConfig(n_cycles=MAX_CYCLES + 1)
    with pytest.raises(ValueError):
        ReadoutConfig(threshold=MAX_CYCLES + 1)
