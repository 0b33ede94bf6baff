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

from .config import PulsedDrive
from .dotmodel import DotConfig, MaterialConstants
from .units import EV_SI, HBAR_MEV_PS, HBAR_SI

# polar nodes: START_ORDER, doubled per detuning up to 2 * MAX_QUADRATURE_ORDER
START_ORDER = 128
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


def model_from_dot(dot: DotConfig, mat: MaterialConstants) -> PhononModel:
    """Gaussian envelopes sized from the dot geometry, hole offset by d_eh."""
    sxy = dot.diameter_nm / 4.0
    sz = dot.thickness_nm / 4.0
    return PhononModel(
        material=mat,
        electron=EnvelopeWavefunction(sxy, sz, (0.0, 0.0, 0.0)),
        hole=EnvelopeWavefunction(sxy, sz, (dot.d_eh_nm, 0.0, 0.0)))


# deltas go through the polar rule in blocks of at most this many
# (delta, node) pairs, so temporaries stay a few MB at any order or grid size
BLOCK_NODES = 1 << 18
# Tricomi's estimate is within 4e-5 of every root at orders >= 16, and
# Newton's method from it settles to rounding in at most four steps
NEWTON_MAX_STEPS = 10
# exp(-t) is exactly 0.0 in double precision for t above 745.2
EXP_UNDERFLOW = 746.0
# min_separation bisects to this width
SEPARATION_RESOLUTION_MEV = 0.01


# Cephes j0 (S. L. Moshier, Cephes Math Library release 2.8, 2000): rational
# approximations in z^2 for |z| <= 5 and Hankel-form modulus and phase
# corrections in 25/z^2 beyond, highest power first; DR1 and DR2 are the
# first two zeros of J0, squared
_J0_DR1, _J0_DR2 = 5.78318596294678452118, 30.4712623436620863991
_J0_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12,
          -2.49248344360967716204e14, 9.70862251047306323952e15)
_J0_RQ = (1.0, 4.99563147152651017219e2, 1.73785401676374683123e5,
          4.84409658339962045305e7, 1.11855537045356834862e10,
          2.11277520115489217587e12, 3.10518229857422583814e14,
          3.18121955943204943306e16, 1.71086294081043136091e18)
_J0_PP = (7.96936729297347051624e-4, 8.28352392107440799803e-2,
          1.23953371646414299388, 5.44725003058768775090,
          8.74716500199817011941, 5.30324038235394892183,
          9.99999999999999997821e-1)
_J0_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2,
          1.25352743901058953537, 5.47097740330417105182,
          8.76190883237069594232, 5.30605288235394617618,
          1.00000000000000000218)
_J0_QP = (-1.13663838898469149931e-2, -1.28252718670509318512,
          -1.95539544257735972385e1, -9.32060152123768231369e1,
          -1.77681167980488050595e2, -1.47077505154951170175e2,
          -5.14105326766599330220e1, -6.05014350600728481186)
_J0_QQ = (1.0, 6.43178256118178023184e1, 8.56430025976980587198e2,
          3.88240183605401609683e3, 7.24046774195652478189e3,
          5.93072701187316984827e3, 2.06209331660327847417e3,
          2.42005740240291393179e2)


def _horner(coeffs, y):
    acc = np.full_like(y, coeffs[0])
    for c in coeffs[1:]:
        acc *= y
        acc += c
    return acc


def bessel_j0(z):
    """Bessel function J0 of a real array, elementwise, with Cephes' j0 coefficients.

    (z^2 - j1^2)(z^2 - j2^2) R(z^2) for |z| <= 5, with j1, j2 the first two
    zeros; sqrt(2/(pi z)) (P cos(chi) - Q sin(chi)), chi = z - pi/4, beyond.
    """
    x = np.abs(np.asarray(z, dtype=float))
    out = np.empty_like(x)
    near = x <= 5.0
    y = x[near] ** 2
    out[near] = (y - _J0_DR1) * (y - _J0_DR2) * _horner(_J0_RP, y) / _horner(_J0_RQ, y)
    far = ~near
    r = x[far]
    w = 5.0 / r
    q = w * w   # not 25 / r^2, which overflows past 1e154
    p = _horner(_J0_PP, q) / _horner(_J0_PQ, q)
    q = _horner(_J0_QP, q) / _horner(_J0_QQ, q)
    chi = r - math.pi / 4.0
    out[far] = (p * np.cos(chi) - w * q * np.sin(chi)) * math.sqrt(2.0 / math.pi) / np.sqrt(r)
    return out


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=16)
def _polar_nodes(order: int):
    """cos(theta) nodes, sin(theta) and weights of the order-point Gauss-Legendre rule.

    Newton's method on the recurrence refines Tricomi's estimate of each
    nonnegative root; the rule is mirrored, so it is exactly symmetric.
    """
    theta = math.pi * (np.arange(1, (order + 1) // 2 + 1) - 0.25) / (order + 0.5)
    x = (1.0 - (order - 1) / (8.0 * order ** 3)) * np.cos(theta)
    for _ in range(NEWTON_MAX_STEPS):
        p, dp = _legendre(order, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes of order {order} not converged")
    if order % 2:
        x[-1] = 0.0
    w = 2.0 / ((1.0 - x ** 2) * _legendre(order, x)[1] ** 2)
    x = np.concatenate((-x, x[::-1][order % 2:]))
    w = np.concatenate((w, w[::-1][order % 2:]))
    return x, np.sqrt(1.0 - x ** 2), w


def _spectral_density_at_order(model: PhononModel, deltas, order: int) -> np.ndarray:
    """J(delta) in 1/ps for positive deltas (meV) from an order-node polar rule.

    Gaussian envelopes average |D(k)|^2 over the azimuth exactly, to Dv^2 Fv^2
    + Dc^2 Fc^2 - 2 Dv Dc Fv Fc J0(k sin(t) |d_xy|) cos(k cos(t) d_z), with F the
    envelope amplitudes and d the hole center minus the electron center.
    """
    mat, hole, elec = model.material, model.hole, model.electron
    x, sin_t, w = _polar_nodes(order)
    # the integrand is even in cos(t), so the rule's nonnegative half with doubled
    # weights (an odd order's zero node counted once) gives the same sum
    half = order // 2
    x, sin_t, w = x[half:], sin_t[half:], np.where(x[half:] > 0.0, 2.0, 1.0) * w[half:]
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
        cross = bessel_j0(k * sin_t * math.hypot(dx, dy)) * np.cos(k * x * dz)
        integral_ev2[i:i + step] = (fv ** 2 + fc ** 2 - 2.0 * fv * fc * cross) @ w
    j_per_s = delta_j ** 3 * 2.0 * math.pi * integral_ev2 * EV_SI ** 2 / (
        16.0 * math.pi ** 3 * mat.rho_kg_m3 * mat.c_s_m_s ** 5 * HBAR_SI ** 4)
    return (j_per_s * 1e-12).reshape(np.shape(deltas))


def spectral_density(model: PhononModel, delta_mev):
    """Phonon spectral density J(delta) in 1/ps, for one delta (a float) or an array.

    The polar order doubles from START_ORDER until two orders agree to 1e-4
    relative; the finer value is kept, and only unconverged deltas are refined.
    """
    deltas = np.asarray(delta_mev, dtype=float)
    if not np.all(np.isfinite(deltas) & (deltas >= 0)):
        raise ValueError("delta must be finite and nonnegative")
    # every envelope exponent is -k^2 a with a >= sigma^2 / 2 for the narrowest
    # width sigma, so beyond k_cut each factor exp(-k^2 a) underflows to 0 at
    # every node and J is exactly 0
    sigma = min(min(env.sigma_xy_nm, env.sigma_z_nm) for env in (model.hole, model.electron))
    k_cut = math.sqrt(2.0 * EXP_UNDERFLOW) / sigma
    delta_cut_mev = k_cut * 1e9 * HBAR_SI * model.material.c_s_m_s / (1e-3 * EV_SI)
    out = np.zeros(deltas.size)
    todo = np.flatnonzero((deltas > 0) & (deltas <= delta_cut_mev))
    order = START_ORDER
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


def error_from_density(drive: PulsedDrive, e_s_mev, j_per_ps):
    """Phonon-assisted error at separation e_s from the spectral density J(e_s).

    First-order rate 2*pi*J(delta)*Omega(t)^2/delta^2 integrated over the
    pulse; the Gaussian pulse integral is analytic.  One e_s gives a float,
    an array gives an array.
    """
    e_s = np.asarray(e_s_mev, dtype=float)
    if not np.all(e_s > 0):
        raise ValueError("spectral separation must be positive")
    # J / delta^2 stays finite at any e_s (J is exactly 0 where delta^2 over-
    # or underflows), so divide by e_s twice and leave the constants for last
    eps = j_per_ps / e_s / e_s * (2.0 * math.pi * drive.omega_sq_integral() * HBAR_MEV_PS ** 2)
    return float(eps) if e_s.ndim == 0 else eps


def phonon_error(model: PhononModel, drive: PulsedDrive, e_s_mev):
    """Probability of phonon-assisted excitation of a neighbor detuned by e_s."""
    return error_from_density(drive, e_s_mev, spectral_density(model, e_s_mev))


def phonon_report(model: PhononModel, drive: PulsedDrive, e_s_mev: float,
                  error_budget: float, grid) -> dict:
    """J and the phonon error at e_s, min_separation for error_budget, and under
    "table" J and the error on grid; J is evaluated once per detuning."""
    deltas = np.append(grid, e_s_mev)
    j = spectral_density(model, deltas)
    eps = error_from_density(drive, deltas, j)
    return {
        "material": model.material.name,
        "e_s_mev": e_s_mev,
        "j_at_e_s_per_ps": float(j[-1]),
        "error_at_e_s": float(eps[-1]),
        "pulse_sq_integral_rad2_ps": drive.omega_sq_integral(),
        "error_budget": error_budget,
        "min_separation_mev": min_separation(model, drive, error_budget),
        "table": {"delta_mev": grid, "spectral_density_per_ps": j[:-1],
                  "phonon_error": eps[:-1]},
    }


def min_separation(model: PhononModel, drive: PulsedDrive,
                   eps_budget: float, search_mev: tuple[float, float] = (0.5, 30.0)) -> float:
    """Smallest spectral separation keeping the phonon error within budget.

    The error estimate is capped at 1 (it is a probability; the first-order
    formula overshoots near its peak), so the peak of the scan is its first
    saturated point when there is one.  The search takes the decreasing
    branch beyond that peak and bisects to SEPARATION_RESOLUTION_MEV.
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
    while b - a > SEPARATION_RESOLUTION_MEV:
        mid = 0.5 * (a + b)
        if eff(mid) <= eps_budget:
            b = mid
        else:
            a = mid
    return b
