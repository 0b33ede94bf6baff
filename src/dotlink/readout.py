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

# the config section and its caps, re-exported under their old path
from .config import MAX_CYCLES, MAX_SHOTS, ReadoutConfig
from .config import draw_geometric


@dataclass
class ReadoutReport:
    eps_bright: float            # P(declare dark | bright)
    eps_bright_se: float
    poisson_limit: float         # analytic error ignoring shelving
    mean_counts: float
    mean_shelving_cycles: float | None       # None with shelving off
    mean_shelving_cycles_se: float | None
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
    rng = np.random.default_rng(seed)
    n = cfg.n_shots

    # cycle index of the shelving event, drawn on the full geometric support;
    # with shelving off every shot runs the whole cycle budget
    shelve = None
    if cfg.p_forbidden > 0:
        shelve = draw_geometric(rng, cfg.p_forbidden, n)
        cycles = np.minimum(shelve - 1, cfg.n_cycles)
    else:
        cycles = np.full(n, cfg.n_cycles)
    counts = rng.binomial(cycles, cfg.eta_det)

    eps_bright = float(np.mean(counts < cfg.threshold))
    eps_bright_se = math.sqrt(max(eps_bright * (1.0 - eps_bright), 0.0) / n)
    hist_bright = np.bincount(counts, minlength=cfg.n_cycles + 1) / n

    return ReadoutReport(
        eps_bright=eps_bright,
        eps_bright_se=eps_bright_se,
        poisson_limit=poisson_limit_error(cfg.n_cycles * cfg.eta_det, cfg.threshold),
        mean_counts=float(np.mean(counts)),
        mean_shelving_cycles=None if shelve is None else float(np.mean(shelve)),
        mean_shelving_cycles_se=(None if shelve is None
                                 else float(np.std(shelve, ddof=1) / math.sqrt(n))),
        histogram_bright=hist_bright,
    )
