"""Acoustic-phonon spectral density and phonon-assisted addressing error.

A laser addressing one dot can excite a spectrally detuned neighbor by
emitting the energy difference as an acoustic phonon.  The rate is set by
the deformation-potential spectral density J at the detuning, with the dot
size entering through Gaussian envelope form factors.  Longitudinal branch
only, linear dispersion omega = c|k|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dotmodel import DotConfig, MaterialConstants
from .gatesim import PulsedDrive
from .units import EV_SI, HBAR_MEV_PS, HBAR_SI

MAX_QUADRATURE_ORDER = 2048


@dataclass
class EnvelopeWavefunction:
    """Anisotropic Gaussian probability density for a confined carrier.

    sigma values are standard deviations of the density |psi|^2; the center
    is a 3-vector in nm with z along the growth axis.
    """

    sigma_xy_nm: float
    sigma_z_nm: float
    center_nm: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.sigma_xy_nm <= 0 or self.sigma_z_nm <= 0:
            raise ValueError("envelope widths must be positive")
        if len(self.center_nm) != 3:
            raise ValueError("center must be a 3-vector")


@dataclass
class PhononModel:
    material: MaterialConstants
    electron: EnvelopeWavefunction
    hole: EnvelopeWavefunction
    order: int = 128

    def __post_init__(self):
        if not 16 <= self.order <= MAX_QUADRATURE_ORDER:
            raise ValueError(f"quadrature order must be in [16, {MAX_QUADRATURE_ORDER}]")


def model_from_dot(dot: DotConfig, mat: MaterialConstants, order: int = 128) -> PhononModel:
    """Gaussian envelopes sized from the dot geometry, hole offset by d_eh."""
    sxy = dot.diameter_nm / 4.0
    sz = dot.thickness_nm / 4.0
    return PhononModel(
        material=mat,
        electron=EnvelopeWavefunction(sxy, sz, (0.0, 0.0, 0.0)),
        hole=EnvelopeWavefunction(sxy, sz, (dot.d_eh_nm, 0.0, 0.0)),
        order=order)


# deltas go through the polar rule in blocks of at most this many
# (delta, node) pairs, so temporaries stay a few MB at any order or grid size
BLOCK_NODES = 1 << 18


@lru_cache(maxsize=16)
def _polar_nodes(order: int):
    from scipy.special import roots_legendre

    x, w = roots_legendre(order)          # cos(theta) nodes
    return x, np.sqrt(1.0 - x ** 2), w


def _spectral_density_at_order(model: PhononModel, deltas, order: int) -> np.ndarray:
    """J(delta) in 1/ps for positive deltas (meV) from an order-node polar rule.

    Gaussian envelopes average |D(k)|^2 over the azimuth exactly, to Dv^2 Fv^2
    + Dc^2 Fc^2 - 2 Dv Dc Fv Fc J0(k sin(t) |d_xy|) cos(k cos(t) d_z), with F the
    envelope amplitudes and d the hole center minus the electron center.
    """
    from scipy.special import j0

    mat, hole, elec = model.material, model.hole, model.electron
    x, sin_t, w = _polar_nodes(order)
    # per node, the k^2 coefficient of each envelope amplitude's exponent
    a_v, a_c = (((sin_t * env.sigma_xy_nm) ** 2 + (x * env.sigma_z_nm) ** 2) / 2.0
                for env in (hole, elec))
    dx, dy, dz = np.subtract(hole.center_nm, elec.center_nm)
    delta_j = np.ravel(deltas) * 1e-3 * EV_SI
    k_per_nm = delta_j / (HBAR_SI * mat.c_s_m_s) * 1e-9
    integral_ev2 = np.empty_like(delta_j)
    step = max(1, BLOCK_NODES // order)
    for i in range(0, len(k_per_nm), step):
        k = k_per_nm[i:i + step, None]
        fv, fc = mat.d_v_ev * np.exp(-k ** 2 * a_v), mat.d_c_ev * np.exp(-k ** 2 * a_c)
        cross = j0(k * sin_t * math.hypot(dx, dy)) * np.cos(k * x * dz)
        integral_ev2[i:i + step] = (fv ** 2 + fc ** 2 - 2.0 * fv * fc * cross) @ w
    j_per_s = delta_j ** 3 * 2.0 * math.pi * integral_ev2 * EV_SI ** 2 / (
        16.0 * math.pi ** 3 * mat.rho_kg_m3 * mat.c_s_m_s ** 5 * HBAR_SI ** 4)
    return (j_per_s * 1e-12).reshape(np.shape(deltas))


def spectral_density(model: PhononModel, delta_mev):
    """Phonon spectral density J(delta) in 1/ps, for one delta (a float) or an array.

    The polar order doubles from model.order until two orders agree to 1e-4
    relative; the finer value is kept, and only unconverged deltas are refined.
    """
    deltas = np.asarray(delta_mev, dtype=float)
    if not np.all(np.isfinite(deltas) & (deltas >= 0)):
        raise ValueError("delta must be finite and nonnegative")
    out = np.zeros(deltas.size)
    todo = np.flatnonzero(deltas)
    order = model.order
    value = _spectral_density_at_order(model, deltas.flat[todo], order)
    while todo.size and order <= MAX_QUADRATURE_ORDER:
        finer = _spectral_density_at_order(model, deltas.flat[todo], 2 * order)
        done = np.abs(finer - value) <= 1e-4 * np.maximum(np.abs(finer), 1e-300)
        out[todo[done]] = finer[done]
        todo, value = todo[~done], finer[~done]
        order *= 2
    if todo.size:
        raise RuntimeError(
            f"spectral density not converged at delta = {deltas.flat[todo[0]]} meV "
            f"(max order {MAX_QUADRATURE_ORDER})")
    return float(out[0]) if deltas.ndim == 0 else out.reshape(deltas.shape)


def phonon_error(model: PhononModel, drive: PulsedDrive, e_s_mev):
    """Probability of phonon-assisted excitation of a neighbor detuned by e_s.

    First-order rate 2*pi*J(delta)*Omega(t)^2/delta^2 integrated over the
    pulse; the Gaussian pulse integral is analytic.  One e_s gives a float,
    an array gives an array.
    """
    e_s = np.asarray(e_s_mev, dtype=float)
    if not np.all(e_s > 0):
        raise ValueError("spectral separation must be positive")
    delta_rad = e_s / HBAR_MEV_PS
    j = spectral_density(model, e_s)
    eps = 2.0 * math.pi * j * drive.omega_sq_integral() / delta_rad ** 2
    return float(eps) if e_s.ndim == 0 else eps


def min_separation(model: PhononModel, drive: PulsedDrive,
                   eps_budget: float, search_mev: tuple[float, float] = (0.5, 30.0),
                   resolution_mev: float = 0.01) -> float:
    """Smallest spectral separation keeping the phonon error within budget.

    The error estimate is capped at 1 (it is a probability; the first-order
    formula overshoots near its peak), so the peak of the scan is its first
    saturated point when there is one.  The search takes the decreasing
    branch beyond that peak and bisects to the requested resolution.
    """
    if eps_budget <= 0:
        raise ValueError("error budget must be positive")
    lo, hi = search_mev

    def eff(e_s):
        return np.minimum(phonon_error(model, drive, e_s), 1.0)

    if eff(lo) <= eps_budget:
        return lo
    if eff(hi) > eps_budget:
        raise RuntimeError(
            f"budget {eps_budget} unattainable: error at {hi} meV still "
            f"{eff(hi):.3e}")

    grid = np.arange(lo, hi + 0.25, 0.25)
    peak = float(grid[int(np.argmax(eff(grid)))])

    a, b = peak, hi
    while b - a > resolution_mev:
        mid = 0.5 * (a + b)
        if eff(mid) <= eps_budget:
            b = mid
        else:
            a = mid
    return b
