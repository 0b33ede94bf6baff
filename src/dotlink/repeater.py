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

from .config import ChainConfig, LinkBudget
from .photonlink import link_attempt_stats, sample_link_times, wavepacket_overlap_error

# simulate_chain draws and merges about this many link samples at a time
BLOCK_SAMPLES = 2 ** 19


@dataclass
class WernerPair:
    """Entangled pair between two nodes with Werner weight w; F = (1+3w)/4."""

    w: float
    left: int
    right: int
    ready_ms: float | np.ndarray = 0.0

    def __post_init__(self):
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("werner parameter must be in [0, 1]")
        if not self.left < self.right:
            raise ValueError("left node index must be below right")

    def fidelity(self) -> float:
        return (1.0 + 3.0 * self.w) / 4.0


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
    trial_times_ms: np.ndarray


def swap(a: WernerPair, b: WernerPair, eps_gate: float, eps_meas: float,
         delay_ms_per_link: float = 0.0) -> WernerPair:
    """Entanglement swap at the shared node of two adjacent pairs.

    Gate and measurement noise act as depolarizing channels, multiplying the
    Werner weights by (1-eps_gate)(1-eps_meas)^2 (one gate, two measured
    qubits).  The merged pair is ready once both children are and the
    heralding signal has crossed the spanned distance; ready times may be
    arrays, one entry per trial.
    """
    if a.right != b.left:
        raise ValueError(f"pairs not adjacent: {a.left}-{a.right} and {b.left}-{b.right}")
    depol = (1.0 - eps_gate) * (1.0 - eps_meas) ** 2
    span = b.right - a.left
    return WernerPair(
        w=a.w * b.w * depol,
        left=a.left, right=b.right,
        ready_ms=np.maximum(a.ready_ms, b.ready_ms) + span * delay_ms_per_link)


def analytic_mean_time(cfg: ChainConfig, link: LinkBudget, t_rad_ps: float) -> float:
    """Doubling estimate (period/P)*(3/2)^levels plus classical delays, ms.

    The 3/2 per level is the standard waiting-for-both heuristic; it is an
    approximation, not a bound, and degrades with depth.
    """
    stats = link_attempt_stats(link, t_rad_ps)
    levels = int(math.log2(cfg.n_links))
    delays = sum(2 ** k * stats["period_ms"] for k in range(1, levels + 1))
    return stats["mean_time_ms"] * 1.5 ** levels + delays


@np.errstate(over="raise", invalid="raise")
def simulate_chain(cfg: ChainConfig, n_trials: int | None = None, seed=0,
                   link: LinkBudget | None = None, t_rad_ps: float = 300.0) -> ChainResult:
    """Distribution of end-to-end entanglement time and fidelity.

    All elementary links start attempting at t = 0; each level swaps as soon
    as both children are ready.  Werner weights are deterministic, so only
    the times are sampled.  Trials are drawn and merged in blocks of about
    BLOCK_SAMPLES link samples, from one stream in trial order, so the
    working set is one block plus the per-trial totals, trial_times_ms.
    n_trials, when given, replaces cfg.n_trials; link defaults to
    LinkBudget(), and a null cfg.w0 to 1 minus its wavepacket-overlap error.
    A time or statistic that overflows raises FloatingPointError.
    """
    if n_trials is not None:
        cfg = replace(cfg, n_trials=n_trials)
    n_trials = cfg.n_trials
    link = LinkBudget() if link is None else link
    rng = np.random.default_rng(seed)

    stats = link_attempt_stats(link, t_rad_ps)
    w0 = (1.0 - wavepacket_overlap_error(link.delta_e_uev, t_rad_ps)
          if cfg.w0 is None else cfg.w0)
    levels = int(math.log2(cfg.n_links))
    rows = max(2, BLOCK_SAMPLES // cfg.n_links)
    # block edges; a remainder of one trial joins the block before it, since
    # sample_link_times refuses a single sample
    edges = [*range(0, n_trials - 1, rows), n_trials]
    total = np.empty(n_trials)
    ready_sums = [0.0] * (levels + 1)
    level_w = [w0] * (levels + 1)
    for start, stop in zip(edges, edges[1:]):
        link_times = sample_link_times(link, t_rad_ps, (stop - start) * cfg.n_links, rng)
        # one pair per level stands for every pair of its span: row i of its
        # ready times is trial i of the block, column j the j-th such pair
        pair = WernerPair(w0, 0, 1, ready_ms=link_times.reshape(-1, cfg.n_links))
        for level in range(levels + 1):
            if level:
                span = pair.right
                pair = swap(WernerPair(pair.w, 0, span, pair.ready_ms[:, 0::2]),
                            WernerPair(pair.w, span, 2 * span, pair.ready_ms[:, 1::2]),
                            cfg.eps_gate, cfg.eps_meas, stats["period_ms"])
            level_w[level] = pair.w
            ready_sums[level] += float(np.sum(pair.ready_ms))
        total[start:stop] = pair.ready_ms[:, 0]
    per_level = [{"level": level, "span_links": 1 << level, "w": w,
                  "mean_ready_ms": ready_sum / (n_trials * (cfg.n_links >> level))}
                 for level, (w, ready_sum) in enumerate(zip(level_w, ready_sums))]

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
        w0=w0, w_final=pair.w, fidelity_final=pair.fidelity(),
        times_ms=times, per_level=per_level,
        analytic_mean_ms=analytic_mean_time(cfg, link, t_rad_ps),
        trial_times_ms=total)
