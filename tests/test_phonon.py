"""Phonon spectral density against independent quadratures, and the
addressing error derived from it."""

import math

import numpy as np
import pytest

from dotlink import DotConfig, PulsedDrive
from dotlink.dotmodel import GAAS
from dotlink.phonon import (
    MAX_QUADRATURE_ORDER,
    EnvelopeWavefunction,
    PhononModel,
    _spectral_density_at_order,
    form_factor,
    min_separation,
    model_from_dot,
    phonon_error,
    spectral_density,
)
from oracles import spectral_density_bessel

MODEL = model_from_dot(DotConfig(), GAAS)
DRIVE = PulsedDrive()


def test_model_from_dot_geometry():
    assert MODEL.electron.sigma_xy_nm == 4.0
    assert MODEL.electron.sigma_z_nm == 1.0
    assert MODEL.hole.center_nm == (5.0, 0.0, 0.0)
    assert MODEL.electron.center_nm == (0.0, 0.0, 0.0)


def test_form_factor_at_zero_wavevector():
    # envelopes normalize to 1, so D(0) = Dv - Dc = 1 - (-8) = 9 eV
    d0 = form_factor(MODEL, (0.0, 0.0, 0.0))
    assert abs(d0 - 9.0) <= 1e-12


def test_form_factor_gaussian_tail():
    k = 10.0 / MODEL.electron.sigma_xy_nm
    assert abs(form_factor(MODEL, (k, 0.0, 0.0))) <= 9.0 * 1e-8


def test_form_factor_against_direct_quadrature():
    # brute-force the density Fourier transform on a real-space grid
    def transform(env, k):
        half = 8.0
        n = 121
        kx, ky, kz = k
        acc = 1.0 + 0.0j
        for sigma, kk, c0 in [(env.sigma_xy_nm, kx, env.center_nm[0]),
                              (env.sigma_xy_nm, ky, env.center_nm[1]),
                              (env.sigma_z_nm, kz, env.center_nm[2])]:
            x = np.linspace(c0 - half * sigma, c0 + half * sigma, n)
            dens = np.exp(-((x - c0) / sigma) ** 2 / 2.0)
            dens /= np.trapezoid(dens, x)
            acc *= np.trapezoid(dens * np.exp(-1j * kk * x), x)
        return acc

    for k in [(0.3, 0.1, 0.2), (1.1, -0.4, 0.6)]:
        direct = (GAAS.d_v_ev * transform(MODEL.hole, k)
                  - GAAS.d_c_ev * transform(MODEL.electron, k))
        assert abs(form_factor(MODEL, k) - direct) <= 1e-6 * abs(direct)


def test_spectral_density_zero_and_positivity():
    assert spectral_density(MODEL, 0.0) == 0.0
    for delta in (0.5, 2.0, 7.5):
        assert spectral_density(MODEL, delta) > 0.0
    with pytest.raises(ValueError):
        spectral_density(MODEL, -1.0)


def test_spectral_density_reference_value():
    j = spectral_density(MODEL, 7.5)
    assert abs(j - 1.7387503e-3) <= 1e-6 * j


def test_spectral_density_low_frequency_slope():
    # J ~ delta^3 when k*sigma << 1
    lo, hi = 0.01, 0.02
    slope = (math.log(spectral_density(MODEL, hi))
             - math.log(spectral_density(MODEL, lo))) / math.log(hi / lo)
    assert abs(slope - 3.0) <= 0.05


def test_spectral_density_matches_bessel_route():
    for delta in (1.0, 5.0, 7.5, 12.0):
        j = spectral_density(MODEL, delta)
        j_bessel = spectral_density_bessel(MODEL, delta)
        assert abs(j - j_bessel) <= 1e-6 * j


def test_spectral_density_quadrature_converged():
    for delta in (1.0, 7.5, 15.0):
        coarse = _spectral_density_at_order(MODEL, delta, 128)
        fine = _spectral_density_at_order(MODEL, delta, 256)
        assert abs(fine - coarse) <= 1e-4 * abs(fine)


def test_spectral_density_continuity():
    for delta in (1.0, 3.0, 7.5, 12.0):
        a = spectral_density(MODEL, delta)
        b = spectral_density(MODEL, delta + 0.01)
        assert abs(b - a) / a <= 0.05


def test_phonon_error_reference_and_bracket():
    eps = phonon_error(MODEL, DRIVE, 7.5)
    assert abs(eps - 1.1600552e-3) <= 1e-6
    assert 5e-4 <= eps <= 5e-3
    with pytest.raises(ValueError):
        phonon_error(MODEL, DRIVE, 0.0)


def test_phonon_error_scales_with_pulse_area():
    base = phonon_error(MODEL, DRIVE, 7.5)
    double = phonon_error(MODEL, PulsedDrive(omega0=math.sqrt(2.0)), 7.5)
    assert abs(double - 2.0 * base) <= 1e-12
    assert phonon_error(MODEL, PulsedDrive(omega0=0.0), 7.5) == 0.0


def test_phonon_error_negligible_far_out():
    # Gaussian form factors cut the spectral density off exponentially
    assert phonon_error(MODEL, DRIVE, 30.0) < 1e-6 * phonon_error(MODEL, DRIVE, 7.5)


def test_min_separation_roundtrip():
    budget = 0.0014
    e_min = min_separation(MODEL, DRIVE, budget)
    assert 3.75 <= e_min <= 15.0
    assert abs(e_min - 7.37) <= 0.05
    assert phonon_error(MODEL, DRIVE, e_min) <= budget
    # one resolution step tighter violates the budget
    assert phonon_error(MODEL, DRIVE, e_min - 0.02) > budget


def test_min_separation_saturated_budget():
    # error capped at unit probability, so a budget of 1 is met anywhere
    assert min_separation(MODEL, DRIVE, 1.0) == 0.5


def test_min_separation_unattainable_budget():
    with pytest.raises(RuntimeError, match="unattainable"):
        min_separation(MODEL, DRIVE, 1e-40)
    with pytest.raises(ValueError):
        min_separation(MODEL, DRIVE, 0.0)


def test_envelope_and_model_validation():
    with pytest.raises(ValueError):
        EnvelopeWavefunction(0.0, 1.0)
    with pytest.raises(ValueError):
        EnvelopeWavefunction(4.0, 1.0, center_nm=(0.0, 0.0))
    with pytest.raises(ValueError):
        PhononModel(GAAS, MODEL.electron, MODEL.hole, order=8)
    with pytest.raises(ValueError):
        PhononModel(GAAS, MODEL.electron, MODEL.hole, order=MAX_QUADRATURE_ORDER + 1)
