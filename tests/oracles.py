"""Independent reference computations used by several test modules.

Everything here is derived by a different route than the library code:
adiabatic quadratures via direct numerical integration of dressed-state
eigenvalues, gate phases via adaptive RK45 on Hamiltonians written out
here (the library propagates with fixed-step Magnus) and read off a
trajectory by summing principal-value increments, Magnus steps
exponentiated by eigh and multiplied one at a time (the library's kernel
before its closed form and blocked product), the spontaneous-emission
error via RK45 on the Lindblad master equation with a sink level (the library
takes the norm lost under the no-jump generator), the swap channel via a
brute-force 4-qubit density matrix,
the phonon spectral density via the complex form factor summed over the
whole sphere of phonon directions (and via a Bessel-function reduction of
the azimuthal integral for an x-only offset, written apart from the
library's), Gauss-Legendre rules from mpmath's Legendre functions in
extended precision, and repeater completion-time quantiles from the exact
distribution of the slowest elementary link.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import j0, roots_legendre

from dotlink.units import EV_SI, HBAR_MEV_PS, HBAR_SI


def single_dot_quadrature(drive) -> float:
    """Adiabatic phase of the driven ground state: integral of the lower
    dressed eigenvalue (delta - sqrt(delta^2 + omega^2))/2 over the pulse."""
    lam = lambda t: 0.5 * (drive.delta - math.sqrt(
        drive.delta ** 2 + drive.omega(t) ** 2))
    t0, t1 = drive.support()
    val, _ = quad(lam, t0, t1, limit=400)
    return val


def blockade_quadrature(drive) -> float:
    """Adiabatic conditional phase in the perfect-blockade limit:
    integral of lambda2 - 2*lambda1 with the sqrt(2)-enhanced coupling."""
    def integrand(t):
        om2 = drive.omega(t) ** 2
        lam1 = 0.5 * (drive.delta - math.sqrt(drive.delta ** 2 + om2))
        lam2 = 0.5 * (drive.delta - math.sqrt(drive.delta ** 2 + 2.0 * om2))
        return lam2 - 2.0 * lam1
    t0, t1 = drive.support()
    val, _ = quad(integrand, t0, t1, limit=400)
    return val


# ---- gate phases by adaptive RK45 -------------------------------------------

def _ground_phase_rk45(drive, h0: np.ndarray, v: np.ndarray, tol: float) -> float:
    """Unwrapped phase of level 0 under h0 + omega(t) v, started in level 0,
    from RK45 at rtol tol on steps of at most a 64th of the pulse support."""
    def rhs(t, y):
        return -1j * ((h0 + drive.omega(t) * v) @ y)

    t0, t1 = drive.support()
    y0 = np.zeros(len(h0), dtype=complex)
    y0[0] = 1.0
    sol = solve_ivp(rhs, (t0, t1), y0, method="RK45", rtol=tol,
                    atol=max(tol * 1e-3, 1e-14), max_step=(t1 - t0) / 64.0)
    assert sol.success, sol.message
    return float(np.unwrap(np.angle(sol.y[0]))[-1])


def spont_error_master_equation(drive, gamma_per_ps: float, tol: float = 1e-10) -> float:
    """Spontaneous-emission error of the single driven dot from the master equation.

    The dot is {g, T} plus a sink level at zero energy that couples to
    nothing; the jump |sink><T| at rate gamma_per_ps carries trion decay
    there.  Returns the sink population at pulse end, from RK45 on the
    Lindblad equation for the 3 x 3 density matrix started in g.
    """
    h0 = np.diag([0.0, -drive.delta, 0.0]).astype(complex)
    v = np.zeros((3, 3), dtype=complex)
    v[0, 1] = v[1, 0] = 0.5
    jump = np.zeros((3, 3), dtype=complex)
    jump[2, 1] = 1.0
    decay = jump.conj().T @ jump

    def rhs(t, y):
        rho = y.reshape(3, 3)
        h = h0 + drive.omega(t) * v
        drho = (-1j * (h @ rho - rho @ h)
                + gamma_per_ps * (jump @ rho @ jump.conj().T
                                  - 0.5 * (decay @ rho + rho @ decay)))
        return drho.ravel()

    t0, t1 = drive.support()
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    sol = solve_ivp(rhs, (t0, t1), rho0.ravel(), method="RK45", rtol=tol,
                    atol=max(tol * 1e-3, 1e-14), max_step=(t1 - t0) / 64.0)
    assert sol.success, sol.message
    return float(sol.y[8, -1].real)


def gate_phases_rk45(drive, e_dd_mev: float, tol: float = 1e-10):
    """(phi_cond, phase of input 01, phase of input 11) of the pulsed gate.

    The single driven dot is {g, T}; the pair is {gg, Tg, gT, TT} with the
    dipole-dipole shift on TT, or {gg, Tg, gT} when e_dd_mev is infinite.
    A level with n trions sits at -n*delta and the drive couples levels one
    trion apart with omega/2.
    """
    d = drive.delta
    h_single = np.diag([0.0, -d]).astype(complex)
    v_single = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    if math.isinf(e_dd_mev):
        h_pair = np.diag([0.0, -d, -d]).astype(complex)
        v_pair = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=complex) / 2.0
    else:
        h_pair = np.diag([0.0, -d, -d, -2.0 * d + e_dd_mev / HBAR_MEV_PS]).astype(complex)
        v_pair = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]],
                          dtype=complex) / 2.0
    single = _ground_phase_rk45(drive, h_single, v_single, tol)
    double = _ground_phase_rk45(drive, h_pair, v_pair, tol)
    return double - 2.0 * single, single, double


# a tracked amplitude needs this modulus at both ends for a meaningful phase,
# and an increment between grid points larger than this may have wrapped
_MIN_PHASE_AMPLITUDE = 0.5
_MAX_PHASE_STEP = np.pi / 2


def accumulated_phase(traj, index: int) -> float:
    """Unwrapped phase gained by one basis amplitude over a pure trajectory.

    For a state parked on a diagonal level of energy E this equals -E*T/hbar.
    It is the sum of the principal-value increments of traj.states[:, index]
    between grid points.  RuntimeError is raised when the tracked component
    is depleted at either end (|amplitude| <= 0.5), so its phase is not
    meaningful, or when an increment exceeds pi/2, so the grid is too coarse
    to unwrap.
    """
    amps = traj.states[:, index]
    if min(abs(amps[0]), abs(amps[-1])) <= _MIN_PHASE_AMPLITUDE:
        raise RuntimeError(
            f"component {index} too depleted for a phase "
            f"(|a| = {abs(amps[0]):.3f} start, {abs(amps[-1]):.3f} end)")
    steps = np.angle(amps[1:] * amps[:-1].conj())
    worst = float(np.max(np.abs(steps), initial=0.0))
    if worst > _MAX_PHASE_STEP:
        raise RuntimeError(f"phase step of {worst:.3f} rad too coarse to unwrap")
    return float(np.sum(steps))


# ---- Magnus steps by eigendecomposition, multiplied one at a time --------

def expm_eigh(k: np.ndarray) -> np.ndarray:
    """exp(-i K) for a stack of Hermitian tridiagonal matrices K, by a real eigh.

    The diagonal gauge D with D[0] = 1 and D[j+1] = D[j] exp(-i arg K[j, j+1])
    makes T = D* K D real symmetric, with off-diagonals |K[j, j+1]|, so
    exp(-i K) = D exp(-i T) D*.  This was the library's 3-level step
    exponential before its closed form.
    """
    w, q = np.linalg.eigh(np.where(np.eye(k.shape[-1], dtype=bool), k.real, np.abs(k)))
    arg = np.cumsum(np.angle(np.diagonal(k, 1, -2, -1)), axis=-1)
    gauge = np.exp(-1j * np.concatenate((np.zeros(arg.shape[:-1] + (1,)), arg), axis=-1))
    u = (q * np.exp(-1j * w)[..., None, :]) @ q.swapaxes(-1, -2)
    return gauge[..., :, None] * u * gauge.conj()[..., None, :]


def magnus_states_loop(h0, v, omega, support, n_steps: int) -> np.ndarray:
    """States under h0 + omega(t) v from level 0, one step at a time.

    Takes the library's Magnus step exponents, exponentiates them by
    expm_eigh (by scipy's expm where h0 carries a decay term) and
    multiplies them in order, one np.matmul per step: the library's
    propagator before its blocked product.  Returns (..., n_steps + 1, d)
    states, as qcore.magnus_propagate does.
    """
    from scipy.linalg import expm

    from dotlink.qcore import _magnus_exponents

    h0, v = np.asarray(h0, dtype=complex), np.asarray(v, dtype=complex)
    dim = v.shape[-1]
    stack = h0.reshape(-1, dim, dim)
    k = _magnus_exponents(stack, v, omega, support, n_steps)[1](slice(None))
    u = expm_eigh(k) if np.array_equal(k, k.conj().swapaxes(-1, -2)) else expm(-1j * k)
    states = np.zeros((n_steps + 1, len(stack), dim, 1), dtype=complex)
    states[0, :, 0] = 1.0
    for j, u_j in enumerate(u):
        np.matmul(u_j, states[j], out=states[j + 1])
    return np.moveaxis(states[..., 0], 0, -2).reshape(h0.shape[:-2] + (n_steps + 1, dim))


# ---- brute-force entanglement swap ----------------------------------------

_PAULI = [np.eye(2, dtype=complex),
          np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex)]

_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def _embed(op: np.ndarray, qubits: tuple[int, ...], n: int = 4) -> np.ndarray:
    """Expand an operator acting on the given qubits to the full register."""
    per_qubit = {}
    dim = op.shape[0]
    assert dim == 2 ** len(qubits)
    full = np.eye(1, dtype=complex)
    # build by kron over qubit slots, inserting the operator as one block
    # only contiguous qubit groups appear here, so a single reshape works
    lo = min(qubits)
    assert tuple(qubits) == tuple(range(lo, lo + len(qubits)))
    for q in range(n):
        if q == lo:
            full = np.kron(full, op)
        elif q in qubits:
            continue
        else:
            full = np.kron(full, _PAULI[0])
    return full


def _depolarize_two(rho: np.ndarray, qubits: tuple[int, int], p: float) -> np.ndarray:
    """Two-qubit depolarizing channel via the 16-Pauli twirl."""
    if p == 0.0:
        return rho
    acc = np.zeros_like(rho)
    for a in _PAULI:
        for b in _PAULI:
            op = _embed(np.kron(a, b), qubits)
            acc += op @ rho @ op.conj().T
    return (1.0 - p) * rho + (p / 16.0) * acc


def _depolarize_one(rho: np.ndarray, qubit: int, p: float) -> np.ndarray:
    if p == 0.0:
        return rho
    acc = np.zeros_like(rho)
    for a in _PAULI:
        op = _embed(a, (qubit,))
        acc += op @ rho @ op.conj().T
    return (1.0 - p) * rho + (p / 4.0) * acc


def swap_werner_bruteforce(w_a: float, w_b: float, eps_gate: float,
                           eps_meas: float) -> float:
    """Werner parameter after a noisy swap, from the full 4-qubit state.

    Qubits 0..3; pairs (0,1) and (2,3) start as psi- Werner states, the
    Bell measurement acts on (1,2) with a depolarizing gate error and
    per-qubit depolarizing measurement errors, then the psi- outcome is
    projected and the outer pair (0,3) read out.
    """
    def werner(w):
        return (w * np.outer(_PSI_MINUS, _PSI_MINUS.conj())
                + (1.0 - w) * np.eye(4, dtype=complex) / 4.0)

    rho = np.kron(werner(w_a), werner(w_b))
    rho = _depolarize_two(rho, (1, 2), eps_gate)
    rho = _depolarize_one(rho, 1, eps_meas)
    rho = _depolarize_one(rho, 2, eps_meas)

    proj = _embed(np.outer(_PSI_MINUS, _PSI_MINUS.conj()), (1, 2))
    rho = proj @ rho @ proj
    rho /= np.trace(rho).real

    # trace out qubits 1 and 2, keeping (0, 3)
    t = rho.reshape(2, 2, 2, 2, 2, 2, 2, 2)
    rho_out = np.einsum("aijbcijd->abcd", t).reshape(4, 4)
    fid = float(np.real(_PSI_MINUS.conj() @ rho_out @ _PSI_MINUS))
    return (4.0 * fid - 1.0) / 3.0


# ---- Bessel route for the phonon spectral density --------------------------

def spectral_density_bessel(model, delta_mev: float, order: int = 400) -> float:
    """J(delta) with the azimuthal integral done analytically.

    For envelopes offset along x by d, the azimuthal average of
    |D(k)|^2 gives 2*pi*(Dv^2 Fv^2 + Dc^2 Fc^2 - 2 Dv Dc Fv Fc J0(k_xy d)),
    leaving a single polar quadrature.  Assumes equal envelope centers in
    y, z and arbitrary widths.
    """
    mat = model.material
    delta_j = delta_mev * 1e-3 * EV_SI
    k = delta_j / (HBAR_SI * mat.c_s_m_s) * 1e-9  # 1/nm
    d = model.hole.center_nm[0] - model.electron.center_nm[0]

    x, wts = roots_legendre(order)
    sin2 = 1.0 - x ** 2
    def f2(env):
        return np.exp(-(k ** 2) * (sin2 * env.sigma_xy_nm ** 2
                                   + x ** 2 * env.sigma_z_nm ** 2))
    fv2 = f2(model.hole)
    fc2 = f2(model.electron)
    dv, dc = mat.d_v_ev, mat.d_c_ev
    integrand = (dv ** 2 * fv2 + dc ** 2 * fc2
                 - 2.0 * dv * dc * np.sqrt(fv2 * fc2)
                 * j0(k * np.sqrt(sin2) * d))
    integral_ev2 = 2.0 * math.pi * float(np.sum(wts * integrand))
    integral_j2 = integral_ev2 * EV_SI ** 2
    j_per_s = delta_j ** 3 * integral_j2 / (16.0 * math.pi ** 3 * mat.rho_kg_m3
                                            * mat.c_s_m_s ** 5 * HBAR_SI ** 4)
    return j_per_s * 1e-12


# ---- form factor and 2-D sphere rule for the phonon spectral density ------

def _envelope_transform(env, kx, ky, kz):
    """Fourier transform of the density: exp(-(k_xy^2 s_xy^2 + k_z^2 s_z^2)/2 - i k.r0)."""
    gauss = np.exp(-((kx ** 2 + ky ** 2) * env.sigma_xy_nm ** 2
                     + kz ** 2 * env.sigma_z_nm ** 2) / 2.0)
    x0, y0, z0 = env.center_nm
    return gauss * np.exp(-1j * (kx * x0 + ky * y0 + kz * z0))


def form_factor(model, k_per_nm):
    """Coupling form factor D(k) in eV for wavevector k (1/nm 3-vector)."""
    kx, ky, kz = (np.asarray(c, dtype=float) for c in k_per_nm)
    return (model.material.d_v_ev * _envelope_transform(model.hole, kx, ky, kz)
            - model.material.d_c_ev * _envelope_transform(model.electron, kx, ky, kz))


def spectral_density_sphere(model, delta_mev: float, order: int, nodes=None) -> float:
    """J(delta) in 1/ps from |D(k)|^2 summed over the whole sphere.

    Gauss-Legendre in cos(theta) with `order` nodes times a trapezoid rule
    with max(64, order) azimuths, applied to the complex form factor with
    each envelope's full Fourier transform, phase included: any centers and
    widths, no analytic reduction.  `nodes`, a (cos(theta), weight) pair,
    replaces scipy's order-node polar rule.
    """
    mat = model.material
    delta_j = delta_mev * 1e-3 * EV_SI
    k = delta_j / (HBAR_SI * mat.c_s_m_s) * 1e-9  # 1/nm

    x, wts = roots_legendre(order) if nodes is None else nodes
    m = max(64, order)
    phi = 2.0 * math.pi * np.arange(m) / m
    sin_t = np.sqrt(1.0 - x ** 2)
    d_ev = form_factor(model, (k * np.outer(sin_t, np.cos(phi)),
                               k * np.outer(sin_t, np.sin(phi)),
                               k * np.outer(x, np.ones(m))))
    weights = np.outer(wts, np.full(m, 2.0 * math.pi / m))
    integral_j2 = float(np.sum(weights * np.abs(d_ev * EV_SI) ** 2))
    j_per_s = delta_j ** 3 * integral_j2 / (16.0 * math.pi ** 3 * mat.rho_kg_m3
                                            * mat.c_s_m_s ** 5 * HBAR_SI ** 4)
    return j_per_s * 1e-12


# ---- Gauss-Legendre rule in extended precision ------------------------------

def gauss_legendre_mpmath(n: int, dps: int = 30):
    """Positive nodes (ascending) and their weights of the n-point
    Gauss-Legendre rule for even n, rounded to double from `dps`-digit
    arithmetic.

    Newton's method on mpmath's hypergeometric P_n from cos(pi (i - 1/4) /
    (n + 1/2)); weights 2 (1 - x^2) / (n P_{n-1}(x))^2.  mpmath is imported
    here, so the benchmark's references, which load this module, do not need it.
    """
    import mpmath

    nodes, weights = [], []
    with mpmath.workdps(dps):
        tol = mpmath.mpf(10) ** (4 - dps)
        for i in range(n // 2, 0, -1):
            x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
            for _ in range(50):
                p, q = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
                step = p * (x * x - 1) / (n * (x * p - q))
                x -= step
                if abs(step) < tol:
                    break
            else:
                raise RuntimeError(f"root {i} of P_{n} not converged")
            nodes.append(float(x))
            weights.append(float(2 * (1 - x * x) / (n * mpmath.legendre(n - 1, x)) ** 2))
    return np.array(nodes), np.array(weights)


# ---- exact repeater completion-time quantiles ------------------------------

def repeater_time_quantile(n_links: int, p_success: float, period_ms: float,
                           delay_ms: float, f: float) -> float:
    """Quantile f of the nested chain's end-to-end time, ms, in closed form.

    Link i completes after G_i iid geometric attempts (success probability
    p, one attempt per period), so it is ready at period * G_i.  All links
    start at t = 0, swaps are deterministic, and each level waits for both
    children and then adds the same span delay c to both.  Because
    max(a + c, b + c) = max(a, b) + c, every delay moves out of the maxima:

        T = period * max_i G_i + D,   D = sum over levels of span * L0/c,

    with delay_ms = D.  P(max_i G_i <= m) = (1 - (1 - p)^m)^n_links, so the
    quantile is delay_ms + period_ms * m for the smallest integer m with
    (1 - (1 - p)^m)^n_links >= f.
    """
    if n_links < 1 or not 0.0 < p_success < 1.0 or not 0.0 < f < 1.0:
        raise ValueError("need n_links >= 1, p_success in (0, 1), f in (0, 1)")
    q = 1.0 - p_success

    def cdf(m):
        return (1.0 - q ** m) ** n_links

    # the inverse CDF, then a step either way in case rounding moved it
    m = max(1, math.ceil(math.log1p(-f ** (1.0 / n_links)) / math.log(q)))
    while m > 1 and cdf(m - 1) >= f:
        m -= 1
    while cdf(m) < f:
        m += 1
    return delay_ms + period_ms * m
