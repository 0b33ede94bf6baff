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
from scipy.special import roots_legendre

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


def _envelope_transform(env: EnvelopeWavefunction, kx, ky, kz):
    """Fourier transform of the density: exp(-(k_xy^2 s_xy^2 + k_z^2 s_z^2)/2 - i k.r0)."""
    gauss = np.exp(-((kx ** 2 + ky ** 2) * env.sigma_xy_nm ** 2
                     + kz ** 2 * env.sigma_z_nm ** 2) / 2.0)
    x0, y0, z0 = env.center_nm
    return gauss * np.exp(-1j * (kx * x0 + ky * y0 + kz * z0))


def form_factor(model: PhononModel, k_per_nm) -> complex:
    """Coupling form factor D(k) in eV for wavevector k (1/nm 3-vector)."""
    kx, ky, kz = (np.asarray(c, dtype=float) for c in k_per_nm)
    dv = model.material.d_v_ev * _envelope_transform(model.hole, kx, ky, kz)
    dc = model.material.d_c_ev * _envelope_transform(model.electron, kx, ky, kz)
    return dv - dc


@lru_cache(maxsize=32)
def _sphere_nodes(order: int):
    x, w = roots_legendre(order)          # cos(theta) nodes
    m = max(64, order)
    phi = 2.0 * math.pi * np.arange(m) / m
    sin_t = np.sqrt(1.0 - x ** 2)
    nx = np.outer(sin_t, np.cos(phi)).ravel()
    ny = np.outer(sin_t, np.sin(phi)).ravel()
    nz = np.outer(x, np.ones(m)).ravel()
    weights = np.outer(w, np.full(m, 2.0 * math.pi / m)).ravel()
    return nx, ny, nz, weights


def _spectral_density_at_order(model: PhononModel, delta_mev: float, order: int) -> float:
    delta_j = delta_mev * 1e-3 * EV_SI
    c = model.material.c_s_m_s
    k_per_m = delta_j / (HBAR_SI * c)
    k_per_nm = k_per_m * 1e-9
    nx, ny, nz, w = _sphere_nodes(order)
    d_ev = form_factor(model, (k_per_nm * nx, k_per_nm * ny, k_per_nm * nz))
    integral_j2 = float(np.sum(w * np.abs(d_ev * EV_SI) ** 2))
    j_per_s = delta_j ** 3 * integral_j2 / (16.0 * math.pi ** 3
                                            * model.material.rho_kg_m3
                                            * c ** 5 * HBAR_SI ** 4)
    return j_per_s * 1e-12


def spectral_density(model: PhononModel, delta_mev: float) -> float:
    """Phonon spectral density J(delta) in 1/ps, converged by order doubling."""
    if delta_mev < 0:
        raise ValueError("delta must be nonnegative")
    if delta_mev == 0.0:
        return 0.0
    order = model.order
    value = _spectral_density_at_order(model, delta_mev, order)
    while order <= MAX_QUADRATURE_ORDER:
        finer = _spectral_density_at_order(model, delta_mev, 2 * order)
        if abs(finer - value) <= 1e-4 * max(abs(finer), 1e-300):
            return finer
        order *= 2
        value = finer
    raise RuntimeError(
        f"spectral density not converged at delta = {delta_mev} meV "
        f"(max order {MAX_QUADRATURE_ORDER})")


def phonon_error(model: PhononModel, drive: PulsedDrive, e_s_mev: float) -> float:
    """Probability of phonon-assisted excitation of a neighbor detuned by e_s.

    First-order rate 2*pi*J(delta)*Omega(t)^2/delta^2 integrated over the
    pulse; the Gaussian pulse integral is analytic.
    """
    if e_s_mev <= 0:
        raise ValueError("spectral separation must be positive")
    delta_rad = e_s_mev / HBAR_MEV_PS
    j = spectral_density(model, e_s_mev)
    return 2.0 * math.pi * j * drive.omega_sq_integral() / delta_rad ** 2


def min_separation(model: PhononModel, drive: PulsedDrive,
                   eps_budget: float, search_mev: tuple[float, float] = (0.5, 30.0),
                   resolution_mev: float = 0.01) -> float:
    """Smallest spectral separation keeping the phonon error within budget.

    The error estimate is capped at 1 (it is a probability; the first-order
    formula overshoots near its peak).  The search takes the decreasing
    branch beyond the error maximum and bisects to the requested resolution.
    """
    if eps_budget <= 0:
        raise ValueError("error budget must be positive")
    lo, hi = search_mev

    def eff(e_s):
        return min(phonon_error(model, drive, e_s), 1.0)

    if eff(lo) <= eps_budget:
        return lo
    if eff(hi) > eps_budget:
        raise RuntimeError(
            f"budget {eps_budget} unattainable: error at {hi} meV still "
            f"{eff(hi):.3e}")

    grid = np.arange(lo, hi + 0.25, 0.25)
    peak = float(grid[int(np.argmax([eff(float(e)) for e in grid]))])

    a, b = peak, hi
    while b - a > resolution_mev:
        mid = 0.5 * (a + b)
        if eff(mid) <= eps_budget:
            b = mid
        else:
            a = mid
    return b
