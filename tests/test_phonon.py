"""Phonon spectral density against independent quadratures, and the
addressing error derived from it."""

import math

import numpy as np
import pytest
from scipy.special import j0, roots_legendre

from dotlink import DotConfig, PulsedDrive, phonon
from dotlink.dotmodel import GAAS, ZNSE
from dotlink.phonon import (
    EnvelopeWavefunction,
    PhononModel,
    _polar_nodes,
    _spectral_density_at_order,
    bessel_j0,
    min_separation,
    model_from_dot,
    phonon_error,
    phonon_report,
    spectral_density,
)
from oracles import (form_factor, gauss_legendre_mpmath, spectral_density_bessel,
                     spectral_density_sphere)

MODEL = model_from_dot(DotConfig(), GAAS)
DRIVE = PulsedDrive()


def test_model_from_dot_geometry():
    assert MODEL.electron.sigma_xy_nm == 4.0
    assert MODEL.electron.sigma_z_nm == 1.0
    assert MODEL.hole.center_nm == (5.0, 0.0, 0.0)
    assert MODEL.electron.center_nm == (0.0, 0.0, 0.0)


# the form factor is the sphere-rule oracle's; these pin it independently
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


def test_bessel_j0_matches_scipy():
    z = np.concatenate((np.geomspace(1e-300, 1.0, 301), np.linspace(0.0, 100.0, 100_001),
                        np.geomspace(100.0, 1e8, 1001), [1e200, np.finfo(float).max]))
    assert np.max(np.abs(bessel_j0(z) - j0(z))) <= 2e-15
    assert np.array_equal(bessel_j0(-z), bessel_j0(z))
    assert bessel_j0(0.0) == 1.0


@pytest.mark.parametrize("order", [16, 17, 128, 255, 256, 512, 1024, 2048, 4096])
def test_polar_rule_matches_scipy_nodes(order):
    x, sin_t, w = _polar_nodes(order)
    assert np.max(np.abs(x - roots_legendre(order)[0])) <= 1e-15
    assert abs(w.sum() - 2.0) <= 1e-14
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.array_equal(sin_t, np.sqrt(1.0 - x ** 2))


def test_polar_rule_matches_mpmath():
    # end nodes included: there scipy's weights are 1.3e-10 off
    x, _, w = _polar_nodes(256)
    ref_x, ref_w = gauss_legendre_mpmath(256)
    assert np.max(np.abs(x[128:] - ref_x)) <= 2e-16
    assert np.max(np.abs(w[128:] / ref_w - 1.0)) <= 2e-12


def test_spectral_density_zero_and_positivity():
    assert spectral_density(MODEL, 0.0) == 0.0
    for delta in (0.5, 2.0, 7.5):
        assert spectral_density(MODEL, delta) > 0.0
    with pytest.raises(ValueError):
        spectral_density(MODEL, -1.0)


def test_spectral_density_zero_at_huge_detuning():
    # past ~120 meV every envelope factor underflows at every node, so the
    # quadrature itself gives exactly 0; far beyond, k and delta^3 overflow
    assert np.all(_spectral_density_at_order(MODEL, np.array([150.0, 1e3]), 128) == 0.0)
    deltas = np.array([150.0, 1e3, 1e300, np.finfo(float).max])
    assert np.all(spectral_density(MODEL, deltas) == 0.0)
    assert spectral_density(MODEL, 1e300) == 0.0
    assert phonon_error(MODEL, DRIVE, 1e300) == 0.0
    # and at a tiny separation J underflows while delta^2 would
    assert phonon_error(MODEL, DRIVE, 1e-300) == 0.0


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


@pytest.mark.parametrize("mat", [GAAS, ZNSE], ids=lambda m: m.name)
def test_spectral_density_matches_sphere_rule_general_offset(mat):
    # offset along x, y and z with unequal widths: the Bessel oracle assumes
    # an x-only offset, the sphere rule sums the full complex form factor
    model = PhononModel(mat, EnvelopeWavefunction(4.0, 1.0, (0.5, -1.0, 0.3)),
                        EnvelopeWavefunction(3.0, 1.5, (3.0, 2.0, 1.5)))
    for delta in (1.0, 5.0, 7.5, 12.0):
        # same polar nodes: the analytic azimuth is exact
        x, _, w = _polar_nodes(256)
        same = _spectral_density_at_order(model, delta, 256)
        assert abs(same - spectral_density_sphere(model, delta, 256, (x, w))) <= 1e-12 * same
        j = spectral_density(model, delta)
        ref = spectral_density_sphere(model, delta, 512)
        assert abs(j - ref) <= 1e-9 * ref


def test_spectral_density_array_matches_scalar_calls():
    deltas = np.array([[0.0, 0.01, 1.0], [7.5, 12.0, 30.0]])
    j = spectral_density(MODEL, deltas)
    assert j.shape == deltas.shape
    for got, delta in zip(j.ravel(), deltas.ravel()):
        ref = spectral_density(MODEL, float(delta))
        assert isinstance(ref, float)
        assert abs(got - ref) <= 1e-13 * abs(ref)
    eps = phonon_error(MODEL, DRIVE, deltas[1])
    for got, e_s in zip(eps, deltas[1]):
        assert abs(got - phonon_error(MODEL, DRIVE, float(e_s))) <= 1e-13 * got
    with pytest.raises(ValueError):
        spectral_density(MODEL, np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        phonon_error(MODEL, DRIVE, np.array([7.5, 0.0]))


def test_spectral_density_blocks_agree(monkeypatch):
    deltas = np.linspace(0.5, 15.0, 59)
    one_block = spectral_density(MODEL, deltas)
    # 300 nodes per block: one delta per block at order 256, none shared
    monkeypatch.setattr(phonon, "BLOCK_NODES", 300)
    blocked = spectral_density(MODEL, deltas)
    assert np.all(np.abs(blocked - one_block) <= 1e-13 * one_block)


def test_spectral_density_working_set_bounded(fresh_peak_mb):
    # a start order of 2048 doubles to a 4096-node rule for every delta;
    # evaluated in one block the temporaries alone would take ~300 MB
    code = (
        "import numpy as np\n"
        "from dotlink import DotConfig, phonon\n"
        "from dotlink.dotmodel import GAAS\n"
        "phonon.START_ORDER = 2048\n"
        "model = phonon.model_from_dot(DotConfig(), GAAS)\n"
        "phonon.spectral_density(model, np.linspace(0.5, 15.0, 2000))\n")
    assert fresh_peak_mb(code) < 200.0


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


def test_phonon_report_keys_and_error():
    grid = np.arange(0.5, 15.1, 0.25)
    rep = phonon_report(MODEL, DRIVE, 7.5, 0.0014, grid)
    assert list(rep) == ["material", "e_s_mev", "j_at_e_s_per_ps", "error_at_e_s",
                         "pulse_sq_integral_rad2_ps", "error_budget", "min_separation_mev",
                         "table"]
    assert list(rep["table"]) == ["delta_mev", "spectral_density_per_ps", "phonon_error"]
    assert all(len(column) == len(grid) for column in rep["table"].values())
    error = phonon_error(MODEL, DRIVE, 7.5)
    assert abs(rep["error_at_e_s"] - error) <= 1e-15 * error


def test_min_separation_roundtrip():
    budget = 0.0014
    e_min = min_separation(MODEL, DRIVE, budget)
    assert 3.75 <= e_min <= 15.0
    assert abs(e_min - 7.37) <= 0.05
    assert phonon_error(MODEL, DRIVE, e_min) <= budget
    # one resolution step tighter violates the budget
    assert phonon_error(MODEL, DRIVE, e_min - 0.02) > budget


def test_min_separation_default_pinned():
    assert abs(min_separation(MODEL, DRIVE, 0.0014) - 7.370849609375) <= 1e-9


def _bisect_from(peak, hi, budget, resolution=0.01):
    a, b = peak, hi
    while b - a > resolution:
        mid = 0.5 * (a + b)
        if min(phonon_error(MODEL, DRIVE, mid), 1.0) <= budget:
            b = mid
        else:
            a = mid
    return b


def test_min_separation_peak_is_first_saturated_point():
    # from 0.25 meV the scan rises through 0.83 to saturate at 0.5 to 1.25 meV;
    # the uncapped formula peaks at 0.75 meV, and bisecting from there
    # lands on a different point
    lo, hi, budget = 0.25, 30.0, 0.05
    grid = np.arange(lo, hi + 0.25, 0.25)
    err = np.array([phonon_error(MODEL, DRIVE, float(e)) for e in grid])
    saturated = np.flatnonzero(err >= 1.0)
    assert len(saturated) >= 2 and saturated[0] > 0
    first = float(grid[saturated[0]])
    uncapped = float(grid[np.argmax(err)])
    assert uncapped != first
    expected = _bisect_from(first, hi, budget)
    assert expected != _bisect_from(uncapped, hi, budget)
    assert min_separation(MODEL, DRIVE, budget, search_mev=(lo, hi)) == expected


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
