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

from .units import HBAR_MEV_PS

PAIR_STATES = ("psi_minus", "psi_plus", "product")

# sample_link_times draws one int64 per sample: 80 MB at the cap
MAX_LINK_SAMPLES = 10_000_000


@dataclass
class LinkBudget:
    """Per-photon efficiency factors, link geometry, and emitter quality.

    eta_override, when set, replaces the whole chain with one combined
    collection and detection efficiency.  delta_e_uev is the spectral
    mismatch between the two emitters and t_deph_ps their dephasing time.
    """

    eta_wg: float = 0.95
    t_switch_ps: float = 100.0
    eta_det: float = 1.0
    alpha_db_km: float = 0.0
    l0_km: float = 20.0
    c_fiber_km_ms: float = 200.0
    eta_override: float | None = 0.25
    delta_e_uev: float = 0.2
    t_deph_ps: float = 30000.0

    def __post_init__(self):
        for name in ("eta_wg", "eta_det"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.eta_override is not None and not 0.0 <= self.eta_override <= 1.0:
            raise ValueError("eta_override must be in [0, 1]")
        if self.l0_km <= 0 or self.c_fiber_km_ms <= 0:
            raise ValueError("l0_km and c_fiber_km_ms must be positive")
        if self.t_switch_ps < 0 or self.alpha_db_km < 0:
            raise ValueError("t_switch_ps and alpha_db_km must be nonnegative")
        if self.delta_e_uev < 0 or self.t_deph_ps <= 0:
            raise ValueError("delta_e_uev must be >= 0 and t_deph_ps > 0")


@dataclass
class BellOutcome:
    coincidence: float           # cross-port coincidence probability per pair
    heralded_error: float        # infidelity of the heralded state
    p_success: float             # herald probability per attempt, unit efficiency

    def __post_init__(self):
        for name in ("coincidence", "heralded_error", "p_success"):
            v = getattr(self, name)
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"{name} = {v} outside [0, 1]")


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
    With polarization-resolving detectors every opposite-polarization pair
    produces some two-click herald, so p_success is 1/2 per attempt: the
    chance the emitted pair lands in the opposite-polarization sector.
    """
    err = wavepacket_overlap_error(de_uev, t_rad_ps)
    x = 1.0 - err  # squared wavepacket overlap
    if pair_state == "psi_minus":
        coincidence = (1.0 + x) / 2.0
    elif pair_state == "psi_plus":
        coincidence = (1.0 - x) / 2.0
    elif pair_state == "product":
        coincidence = 0.5
    else:
        raise ValueError(f"pair_state must be one of {PAIR_STATES}")
    return BellOutcome(coincidence=coincidence, heralded_error=err, p_success=0.5)


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
    must arrive and the pair must land in the heralding sector, so
    P = eta^2 / 2 and the attempt count is geometric with mean 1/P.
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


def sample_link_times(budget: LinkBudget, t_rad_ps: float, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw n elementary-link completion times (ms), geometric attempts.

    n >= 2, so the sample standard error (ddof=1) callers report is finite.
    """
    if not 2 <= n <= MAX_LINK_SAMPLES:
        raise ValueError(f"sample count must be in [2, {MAX_LINK_SAMPLES}], got {n}")
    stats = link_attempt_stats(budget, t_rad_ps)
    attempts = rng.geometric(stats["p_success"], size=n)
    return attempts * stats["period_ms"]
