"""Monte Carlo of a nested repeater chain built from heralded links.

Each elementary link completes after a geometric number of attempts; swaps
merge adjacent pairs level by level, waiting for both children and paying a
classical-signal delay over the spanned distance.  Swaps are deterministic
(the gates are not probabilistic) and only degrade the Werner parameter, so
fidelity evolves identically in every trial while the time is stochastic.

No purification rounds are modeled; the final fidelity output makes the
cost of that omission visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .photonlink import LinkBudget, link_attempt_stats, wavepacket_overlap_error


@dataclass
class WernerPair:
    """Entangled pair between two nodes with Werner weight w; F = (1+3w)/4."""

    w: float
    left: int
    right: int
    ready_ms: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("werner parameter must be in [0, 1]")
        if not self.left < self.right:
            raise ValueError("left node index must be below right")

    def fidelity(self) -> float:
        return (1.0 + 3.0 * self.w) / 4.0


# simulate_chain holds a few arrays of n_trials x n_links numbers: ~80 MB each
# at the cap
MAX_CHAIN_SAMPLES = 10_000_000


@dataclass
class ChainConfig:
    n_links: int = 64
    eps_gate: float = 0.005
    eps_meas: float = 0.005
    w0: float | None = None      # derived from the heralded-pair error if None
    n_trials: int = 2000

    def __post_init__(self):
        if self.n_links < 1 or self.n_links & (self.n_links - 1):
            raise ValueError("n_links must be a power of two")
        for name in ("eps_gate", "eps_meas"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.w0 is not None and not 0.0 <= self.w0 <= 1.0:
            raise ValueError("w0 must be in [0, 1]")
        # the reported standard error (ddof=1) needs two trials
        if self.n_trials < 2:
            raise ValueError("n_trials must be at least 2")
        if self.n_trials * self.n_links > MAX_CHAIN_SAMPLES:
            raise ValueError(f"n_trials x n_links must be at most {MAX_CHAIN_SAMPLES}")

    def initial_werner(self, link: LinkBudget, t_rad_ps: float) -> float:
        if self.w0 is not None:
            return self.w0
        return 1.0 - wavepacket_overlap_error(link.delta_e_uev, t_rad_ps)


@dataclass
class ChainResult:
    n_links: int
    n_trials: int
    p_success: float
    period_ms: float
    w0: float
    w_final: float
    fidelity_final: float
    times_ms: dict
    per_level: list
    analytic_mean_ms: float
    trial_times_ms: np.ndarray | None = None


def swap(a: WernerPair, b: WernerPair, eps_gate: float, eps_meas: float,
         delay_ms_per_link: float = 0.0) -> WernerPair:
    """Entanglement swap at the shared node of two adjacent pairs.

    Gate and measurement noise act as depolarizing channels, multiplying the
    Werner weights by (1-eps_gate)(1-eps_meas)^2 (one gate, two measured
    qubits).  The merged pair is ready once both children are and the
    heralding signal has crossed the spanned distance.
    """
    if a.right != b.left:
        raise ValueError(f"pairs not adjacent: {a.left}-{a.right} and {b.left}-{b.right}")
    depol = (1.0 - eps_gate) * (1.0 - eps_meas) ** 2
    span = b.right - a.left
    return WernerPair(
        w=a.w * b.w * depol,
        left=a.left, right=b.right,
        ready_ms=max(a.ready_ms, b.ready_ms) + span * delay_ms_per_link)


def analytic_mean_time(cfg: ChainConfig, link: LinkBudget, t_rad_ps: float) -> float:
    """Doubling estimate (period/P)*(3/2)^levels plus classical delays, ms.

    The 3/2 per level is the standard waiting-for-both heuristic; it is an
    approximation, not a bound, and degrades with depth.
    """
    stats = link_attempt_stats(link, t_rad_ps)
    levels = int(math.log2(cfg.n_links))
    delay_per_link = link.l0_km / link.c_fiber_km_ms
    delays = sum(2 ** k * delay_per_link for k in range(1, levels + 1))
    return stats["mean_time_ms"] * 1.5 ** levels + delays


def simulate_chain(cfg: ChainConfig, n_trials: int | None = None, seed=0,
                   keep_trials: bool = False, link: LinkBudget | None = None,
                   t_rad_ps: float = 300.0) -> ChainResult:
    """Distribution of end-to-end entanglement time and fidelity.

    All elementary links start attempting at t = 0; each level swaps as soon
    as both children are ready.  Werner weights are deterministic, so only
    the times are sampled.  n_trials, when given, replaces cfg.n_trials;
    link defaults to LinkBudget().
    """
    if n_trials is not None:
        cfg = replace(cfg, n_trials=n_trials)
    n_trials = cfg.n_trials
    link = LinkBudget() if link is None else link
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    stats = link_attempt_stats(link, t_rad_ps)
    delay_per_link = link.l0_km / link.c_fiber_km_ms
    depol = (1.0 - cfg.eps_gate) * (1.0 - cfg.eps_meas) ** 2

    attempts = rng.geometric(stats["p_success"], size=(n_trials, cfg.n_links))
    ready = attempts * stats["period_ms"]

    w0 = w = cfg.initial_werner(link, t_rad_ps)
    levels = int(math.log2(cfg.n_links))
    per_level = [{"level": 0, "span_links": 1, "w": w,
                  "mean_ready_ms": float(np.mean(ready))}]
    span = 1
    for level in range(1, levels + 1):
        span *= 2
        ready = np.maximum(ready[:, 0::2], ready[:, 1::2]) + span * delay_per_link
        w = w * w * depol
        per_level.append({"level": level, "span_links": span, "w": w,
                          "mean_ready_ms": float(np.mean(ready))})

    total = ready[:, 0]
    q10, q50, q90 = (float(q) for q in np.quantile(total, [0.1, 0.5, 0.9]))
    times = {
        "mean_ms": float(np.mean(total)),
        "se_ms": float(np.std(total, ddof=1) / math.sqrt(n_trials)),
        "p10_ms": q10, "p50_ms": q50, "p90_ms": q90,
        "min_ms": float(np.min(total)), "max_ms": float(np.max(total)),
    }
    return ChainResult(
        n_links=cfg.n_links, n_trials=n_trials,
        p_success=stats["p_success"], period_ms=stats["period_ms"],
        w0=w0, w_final=w, fidelity_final=(1.0 + 3.0 * w) / 4.0,
        times_ms=times, per_level=per_level,
        analytic_mean_ms=analytic_mean_time(cfg, link, t_rad_ps),
        trial_times_ms=total.copy() if keep_trials else None)
