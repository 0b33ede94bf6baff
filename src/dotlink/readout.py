"""Cycling-fluorescence spin readout with shelving, by direct Monte Carlo.

A bright spin scatters photons on its cycling transition until a forbidden
decay shelves it into the dark state; each completed cycle is detected with
some efficiency.  The spin is declared bright when the count reaches a
threshold.  The dark state scatters nothing in this model, so all the error
lives on the bright side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# simulate_readout draws a few int64 arrays of n_shots: ~80 MB each at the cap
MAX_SHOTS = 10_000_000
# histograms have n_cycles + 1 bins; poisson_limit_error loops to threshold
MAX_CYCLES = 1_000_000


@dataclass
class ReadoutConfig:
    p_forbidden: float = 1e-3
    eta_det: float = 0.1
    n_cycles: int = 200
    threshold: int = 10
    n_shots: int = 100_000

    def __post_init__(self):
        if not 0.0 <= self.p_forbidden <= 1.0:
            raise ValueError("p_forbidden must be in [0, 1]")
        if not 0.0 <= self.eta_det <= 1.0:
            raise ValueError("eta_det must be in [0, 1]")
        # n_shots >= 2: the shelving-cycle standard error uses ddof=1
        for name, low, cap in (("n_cycles", 1, MAX_CYCLES), ("threshold", 1, MAX_CYCLES),
                               ("n_shots", 2, MAX_SHOTS)):
            if not low <= getattr(self, name) <= cap:
                raise ValueError(f"{name} must be in [{low}, {cap}]")


@dataclass
class ReadoutReport:
    eps_bright: float            # P(declare dark | bright)
    eps_bright_se: float
    poisson_limit: float         # analytic error ignoring shelving
    mean_counts: float
    mean_shelving_cycles: float
    mean_shelving_cycles_se: float
    histogram_bright: np.ndarray  # P(counts = k), k = 0..n_cycles

    def __post_init__(self):
        if not 0.0 <= self.eps_bright <= 1.0:
            raise ValueError("eps_bright outside [0, 1]")
        if abs(float(np.sum(self.histogram_bright)) - 1.0) > 1e-12:
            raise ValueError("histogram mass must sum to 1")


def poisson_limit_error(mean: float, threshold: int) -> float:
    """Exact Poisson lower tail P(N <= threshold - 1 | mean), by recurrence."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    term = math.exp(-mean)
    total = term
    for k in range(1, threshold):
        term *= mean / k
        total += term
    return total


def simulate_readout(cfg: ReadoutConfig, seed) -> ReadoutReport:
    """Monte Carlo of n_shots bright-spin measurements."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = cfg.n_shots

    # cycle index of the shelving event, drawn on the full geometric support
    if cfg.p_forbidden > 0:
        shelve = rng.geometric(cfg.p_forbidden, size=n)
    else:
        shelve = np.full(n, cfg.n_cycles + 1, dtype=np.int64)
    cycles = np.minimum(shelve - 1, cfg.n_cycles)
    counts = rng.binomial(cycles, cfg.eta_det)

    eps_bright = float(np.mean(counts < cfg.threshold))
    eps_bright_se = math.sqrt(max(eps_bright * (1.0 - eps_bright), 0.0) / n)
    hist_bright = np.bincount(counts, minlength=cfg.n_cycles + 1) / n

    return ReadoutReport(
        eps_bright=eps_bright,
        eps_bright_se=eps_bright_se,
        poisson_limit=poisson_limit_error(cfg.n_cycles * cfg.eta_det, cfg.threshold),
        mean_counts=float(np.mean(counts)),
        mean_shelving_cycles=float(np.mean(shelve)),
        mean_shelving_cycles_se=float(np.std(shelve, ddof=1) / math.sqrt(n)),
        histogram_bright=hist_bright,
    )
