"""Photon interference, efficiency budget, and elementary-link statistics.

Emitted photons are modeled as one-sided exponential wavepackets (Lorentzian
lines of width hbar/T_rad).  A spectral mismatch dE between the two emitters
reduces the two-photon overlap and with it the heralded-pair quality at the
midpoint Bell-state analyzer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_LINK_SAMPLES, LinkBudget, draw_geometric
from .units import HBAR_MEV_PS

PAIR_STATES = ("psi_minus", "psi_plus", "product")


@dataclass
class BellOutcome:
    coincidence: float           # cross-port coincidence probability per pair

    def __post_init__(self):
        if not -1e-12 <= self.coincidence <= 1.0 + 1e-12:
            raise ValueError(f"coincidence = {self.coincidence} outside [0, 1]")


def wavepacket_overlap_error(de_uev: float, t_rad_ps: float) -> float:
    """Heralded-state error from spectral mismatch of the two emitters.

    Exact for exponential wavepackets: dw^2 / (gamma^2 + dw^2) with
    gamma = 1/T_rad and dw = dE/hbar.  Reduces to (dE/(hbar*gamma))^2 at
    small mismatch.
    """
    if t_rad_ps <= 0:
        raise ValueError("t_rad_ps must be positive")
    gamma = 1.0 / t_rad_ps
    dw = de_uev * 1e-3 / HBAR_MEV_PS
    return dw ** 2 / (gamma ** 2 + dw ** 2)


def overlap_error_small_mismatch(de_uev: float, t_rad_ps: float) -> float:
    """Leading-order (dE/(hbar*gamma))^2 of the overlap error, for comparison."""
    if t_rad_ps <= 0:
        raise ValueError("t_rad_ps must be positive")
    return (de_uev * 1e-3 * t_rad_ps / HBAR_MEV_PS) ** 2


def bsa_coincidence(pair_state: str, de_uev: float, t_rad_ps: float) -> BellOutcome:
    """Cross-port coincidence probability at the Bell-state analyzer.

    Perfectly overlapping photons give coincidence 1 for a psi- input and 0
    for psi+; a polarization-product input sits at 1/2 for any mismatch.
    """
    x = 1.0 - wavepacket_overlap_error(de_uev, t_rad_ps)  # squared wavepacket overlap
    if pair_state == "psi_minus":
        coincidence = (1.0 + x) / 2.0
    elif pair_state == "psi_plus":
        coincidence = (1.0 - x) / 2.0
    elif pair_state == "product":
        coincidence = 0.5
    else:
        raise ValueError(f"pair_state must be one of {PAIR_STATES}")
    return BellOutcome(coincidence=coincidence)


def photon_efficiency(budget: LinkBudget, t_rad_ps: float) -> float:
    """Total per-photon efficiency from emission to detection."""
    if budget.eta_override is not None:
        return budget.eta_override
    capture = math.exp(-budget.t_switch_ps / t_rad_ps)
    fiber = 10.0 ** (-budget.alpha_db_km * (budget.l0_km / 2.0) / 10.0)
    return budget.eta_wg * capture * fiber * budget.eta_det


def link_attempt_stats(budget: LinkBudget, t_rad_ps: float) -> dict:
    """Success probability, attempt period, and mean time for one link.

    One attempt per heralding round trip: period = L0/c_fiber.  Both photons
    must arrive and the pair must land in the heralding sector.  With
    polarization-resolving detectors every opposite-polarization pair
    produces some two-click herald, so that sector's chance is 1/2 per
    attempt: P = eta^2 / 2 and the attempt count is geometric with mean 1/P.
    """
    eta = photon_efficiency(budget, t_rad_ps)
    p = 0.5 * eta * eta
    if p <= 0.0:
        raise ValueError("success probability is zero; no finite mean time")
    period = budget.l0_km / budget.c_fiber_km_ms
    return {"p_success": p, "period_ms": period, "mean_time_ms": period / p}


def dephasing_error(t_rad_ps: float, t_deph_ps: float) -> float:
    """Error from emitter dephasing during emission: gamma_d/(gamma + gamma_d)."""
    if t_rad_ps <= 0 or t_deph_ps <= 0:
        raise ValueError("lifetimes must be positive")
    return t_rad_ps / (t_rad_ps + t_deph_ps)


@np.errstate(over="raise", invalid="raise")
def sample_link_times(budget: LinkBudget, t_rad_ps: float, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw n elementary-link completion times (ms), geometric attempts.

    n >= 2, so the sample standard error (ddof=1) callers report is finite.
    A time that overflows raises FloatingPointError instead of becoming inf.
    """
    if not 2 <= n <= MAX_LINK_SAMPLES:
        raise ValueError(f"sample count must be in [2, {MAX_LINK_SAMPLES}], got {n}")
    stats = link_attempt_stats(budget, t_rad_ps)
    attempts = draw_geometric(rng, stats["p_success"], n)
    return attempts * stats["period_ms"]


@np.errstate(over="raise", invalid="raise")
def link_report(budget: LinkBudget, t_rad_ps: float, n: int,
                rng: np.random.Generator) -> dict:
    """One link's attempt statistics, n-sample Monte Carlo mean and pair errors.

    A mean or spread that overflows raises FloatingPointError.
    """
    times = sample_link_times(budget, t_rad_ps, n, rng)
    de = budget.delta_e_uev
    return {
        **link_attempt_stats(budget, t_rad_ps),
        "eta_per_photon": photon_efficiency(budget, t_rad_ps),
        "mc_mean_ms": float(np.mean(times)),
        "mc_se_ms": float(np.std(times, ddof=1) / math.sqrt(n)),
        "n_trials": n,
        "overlap_error": wavepacket_overlap_error(de, t_rad_ps),
        "overlap_error_leading_order": overlap_error_small_mismatch(de, t_rad_ps),
        "dephasing_error": dephasing_error(t_rad_ps, budget.t_deph_ps),
        "coincidence_psi_minus": bsa_coincidence("psi_minus", de, t_rad_ps).coincidence,
        "coincidence_psi_plus": bsa_coincidence("psi_plus", de, t_rad_ps).coincidence,
    }
