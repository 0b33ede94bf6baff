"""Small time-dependent quantum solvers for few-level systems.

The gate model propagates H(t) = h0 + omega(t)*v, the form of every gate
Hamiltonian, with one fixed-step 4th-order Magnus propagator,
magnus_propagate, batched over a stack of diagonal h0 with one Hermitian
tridiagonal v: the trion chains of the gate, and on 2 levels also the
no-jump generator, whose h0 carries a decay term.  Schrodinger and
Lindblad evolution under any Hamiltonian wrap scipy's RK45; they serve the
public API and the tests, and no gate run reaches them.  States are plain
complex vectors, density matrices plain complex arrays.  Norm and trace
drift are recorded on the trajectory and never silently corrected; callers
decide what drift is acceptable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-9
# work budget per RK45 evolution: stiff or extreme Hamiltonians hit it
# instead of running for minutes
MAX_RHS_CALLS = 1_000_000
# largest Magnus step count, 256x the 400 steps a default gate leg starts
# from; extreme drives hit it instead of running for minutes
MAX_MAGNUS_STEPS = 400 * 2 ** 8
# Magnus step unitaries are built at most this many at a time (144 bytes each on
# 3 levels), so their temporaries fit a few MB, and a cache, at any batch or step count
MAGNUS_BLOCK_STEPS = 1 << 11
# B rows multiply their steps in blocks of at most PRODUCT_ROWS / B steps, the
# largest power of 2 that also divides the step count
PRODUCT_ROWS = 16
# a tracked amplitude needs this modulus at both ends for a meaningful phase
MIN_PHASE_AMPLITUDE = 0.5
# a phase increment this large between grid points may have wrapped
MAX_PHASE_STEP = math.pi / 2
# times at which each evolution spot-checks the Hamiltonian for hermiticity
HERMITIAN_SAMPLES = 7


def basis_state(dim: int, index: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def pure_density(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


@dataclass
class TimeDependentHamiltonian:
    """Hamiltonian H(t) in rad/ps, supplied as evaluator(t_ps) -> (dim, dim) array.

    support is the integration window (t0_ps, t1_ps).  The evaluator must
    return a Hermitian array; this is spot-checked at a handful of times
    before each evolution rather than at every step.
    """

    dim: int
    evaluator: Callable[[float], np.ndarray]
    support: tuple[float, float]

    def __post_init__(self):
        t0, t1 = self.support
        if not t1 > t0:
            raise ValueError(f"empty support ({t0}, {t1})")

    def check_hermitian(self):
        t0, t1 = self.support
        for t in np.linspace(t0, t1, HERMITIAN_SAMPLES):
            h = np.asarray(self.evaluator(float(t)), dtype=complex)
            if h.shape != (self.dim, self.dim):
                raise ValueError(f"evaluator returned shape {h.shape} at t={t:.3f}")
            dev = float(np.max(np.abs(h - h.conj().T)))
            if dev > HERMITICITY_TOL:
                raise ValueError(f"hamiltonian not hermitian at t={t:.3f} ps (dev {dev:.2e})")


@dataclass
class Trajectory:
    """States on the solver's step grid: (steps, dim) amplitudes for a pure
    evolution, (steps, dim, dim) density matrices for a mixed one."""

    times: np.ndarray
    states: np.ndarray
    norm_drift: float = 0.0

    def populations(self, index: int) -> np.ndarray:
        if self.states.ndim == 2:
            return np.abs(self.states[:, index]) ** 2
        return self.states[:, index, index].real

    def amplitudes(self, index: int) -> np.ndarray:
        if self.states.ndim != 2:
            raise TypeError("amplitudes only defined for pure-state trajectories")
        return self.states[:, index]


def _initial_state(y0, shape: tuple[int, ...], tol: float) -> np.ndarray:
    """y0 as a complex array, after the tolerance and shape checks."""
    if not (0.0 < tol <= 1e-3):
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")
    y0 = np.asarray(y0, dtype=complex)
    if y0.shape != shape:
        raise ValueError(f"initial state shape {y0.shape} != {shape}")
    return y0


def _solve(rhs, support: tuple[float, float], y0: np.ndarray, tol: float):
    """RK45 over the support, raising RuntimeError past MAX_RHS_CALLS."""
    from scipy.integrate import solve_ivp

    calls = 0

    def budgeted(t, y):
        nonlocal calls
        calls += 1
        if calls > MAX_RHS_CALLS:
            raise RuntimeError(f"solver work budget exceeded ({MAX_RHS_CALLS} RHS calls)")
        return rhs(t, y)

    t0, t1 = support
    sol = solve_ivp(budgeted, (t0, t1), y0, method="RK45",
                    rtol=tol, atol=max(tol * 1e-3, 1e-14),
                    max_step=(t1 - t0) / 64.0)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    return sol


def evolve_schrodinger(ham: TimeDependentHamiltonian, psi0: np.ndarray,
                       tol: float = 1e-9) -> Trajectory:
    """Integrate i d|psi>/dt = H(t)|psi> over the Hamiltonian's support.

    Returns a Trajectory sampled at the solver's accepted steps, with the
    worst norm deviation recorded in norm_drift.
    """
    psi0 = _initial_state(psi0, (ham.dim,), tol)
    err = abs(float(np.sum(np.abs(psi0) ** 2)) - 1.0)
    if err > NORM_TOL:
        raise ValueError(f"state norm off by {err:.3e} (tol {NORM_TOL:.0e})")
    ham.check_hermitian()

    def rhs(t, y):
        return -1j * (ham.evaluator(t) @ y)

    sol = _solve(rhs, ham.support, psi0, tol)
    states = sol.y.T
    return Trajectory(times=sol.t, states=states, norm_drift=norm_drift(states))


def norm_drift(states: np.ndarray) -> float:
    """Worst deviation of a state's norm from 1 over (..., dim) amplitudes."""
    return float(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=-1) - 1.0)))


# Gauss-Legendre nodes of one step, as fractions of it
_GL_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


def _magnus_exponents(stack: np.ndarray, v: np.ndarray, omega: Callable,
                      support: tuple[float, float], n_steps: int):
    """Grid times and the 4th-order Magnus step exponents of h0 + omega(t)*v.

    stack is (B, d, d).  Step j's exponent is
    K = dt/2 (H1 + H2) + i (sqrt(3)/12) dt^2 [H1, H2] at the two
    Gauss-Legendre nodes (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
    (2009)); the opposite sign of the commutator term is only 2nd order.
    [H1, H2] = (omega2 - omega1) [h0, v], so the commutator is formed once.
    Returns the n_steps + 1 grid times and exponents(steps), the
    (len(steps), B, d, d) exponents of a slice of steps.
    """
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    if n_steps > MAX_MAGNUS_STEPS:
        raise RuntimeError(
            f"solver work budget exceeded ({MAX_MAGNUS_STEPS} Magnus steps)")
    t0, t1 = support
    if not t1 > t0:
        raise ValueError(f"empty support ({t0}, {t1})")

    # checked before linspace, which an infinite support would fill with NaN
    dt = (t1 - t0) / n_steps
    if not math.isfinite(dt * dt):
        raise RuntimeError(f"Magnus step width {dt:.3e} ps is too wide: its square overflows")
    comm = stack @ v - v @ stack
    times = np.linspace(t0, t1, n_steps + 1)
    w1, w2 = (np.asarray(omega(times[:-1] + c * dt), dtype=float) for c in _GL_NODES)
    # per step, broadcast over (batch, d, d)
    mean_w = (0.5 * dt * (w1 + w2))[:, None, None, None]
    comm_w = (1j * math.sqrt(3.0) / 12.0 * dt ** 2 * (w2 - w1))[:, None, None, None]

    def exponents(steps: slice) -> np.ndarray:
        return dt * stack + mean_w[steps] * v + comm_w[steps] * comm

    return times, exponents


def _expm_tridiagonal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(-i T) for real symmetric tridiagonal 3 x 3 T, as (3, 3, *S) planes.

    T is structure of arrays, diagonal a = (a0, a1, a2) and couplings b = (b0, b1)
    of one shape S, scaled by a power of 2 so no square or cube overflows.  Its
    extreme eigenvalue lam is the trigonometric root of the cubic, x a column of
    adj(T - lam).  On a unit pair (u, w) normal to x, T is mid + [[d, k], [k, -d]];
    as in _expm_2x2, s^2 = d^2 + k^2, n = d (u u^T - w w^T) + k (u w^T + w u^T) =
    u p^T + w q^T and exp(-i T) = e^{-i lam} x x^T + e^{-i mid} [cos s (1 - x x^T)
    - i (sin s / s) n], unitary however close the eigenvalues; sets the upper triangle.
    """
    big = np.maximum(np.maximum(np.abs(a[0]), np.abs(a[1])),
                     np.maximum(np.abs(a[2]), np.maximum(np.abs(b[0]), np.abs(b[1]))))
    scale = np.ldexp(1.0, -np.minimum(np.frexp(big)[1], 1000))
    a0, a1, a2, b0, b1 = (y * scale for y in (*a, *b))
    m = (a0 + a1 + a2) / 3
    c0, c1, c2, bb0, bb1 = a0 - m, a1 - m, a2 - m, b0 * b0, b1 * b1
    rad = np.sqrt((c0 * c0 + c1 * c1 + c2 * c2) / 6 + (bb0 + bb1) / 3)
    # det(T - m) / (2 rad^3) = cos(3 theta) puts lam at m + 2 rad cos(theta), 1.7 rad from the rest
    r = (c0 * (c1 * c2 - bb1) - bb0 * c2) / np.maximum(2.0 * rad * rad * rad, 1e-300)
    lam = m + np.copysign(2.0 * rad, r) * np.cos(np.arccos(np.minimum(np.abs(r), 1)) / 3)
    # adj(T - lam) = c x x^T: its column of largest diagonal entry, unless T is lam I
    e0, e1, e2 = a0 - lam, a1 - lam, a2 - lam
    diag, b0e2, e0b1, b0b1 = (e1 * e2 - bb1, e0 * e2, e0 * e1 - bb0), b0 * e2, e0 * b1, b0 * b1
    d0, d1, d2 = np.abs(diag)
    x = np.where(d1 > np.maximum(d0, d2), [-b0e2, diag[1], -e0b1],
                 np.where(d0 >= d2, [diag[0], -b0e2, b0b1], [b0b1, -e0b1, diag[2]]))
    norm = np.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
    x = list(x / np.where(norm < 1e-100, 1.0, norm))
    x[0] = np.where(norm < 1e-100, 1.0, x[0])
    # u normal to x and to the axis of the larger of |x0|, |x1|; w = x cross u
    flip, zero = np.abs(x[0]) > np.abs(x[1]), np.zeros_like(lam)
    u = np.where(flip, [-x[2], zero, x[0]], [zero, x[2], -x[1]])
    u = list(u / np.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]))
    w = [x[(i + 1) % 3] * u[(i + 2) % 3] - x[(i + 2) % 3] * u[(i + 1) % 3] for i in range(3)]
    tu, tw = ([a0 * v[0] + b0 * v[1], b0 * v[0] + a1 * v[1] + b1 * v[2], b1 * v[1] + a2 * v[2]]
              for v in (u, w))
    uu, ww, k = (sum(vi * ti for vi, ti in zip(v, t)) for v, t in ((u, tu), (w, tw), (w, tu)))
    mid, d = (uu + ww) / 2, (uu - ww) / 2
    s = np.sqrt(d * d + k * k)
    # cos and sin in T's units from tan of the half angle, which numpy vectorizes
    t = np.tan(np.array([lam, mid, s]) / (2.0 * scale))
    (cos_lam, cos_mid, cos_s), (sin_lam, sin_mid, sin_s) = 2 / (1 + t * t) - 1, 2 * t / (1 + t * t)
    sinc = sin_s / np.where(s > 0, s, 1.0)   # over the scaled s, as n is scaled; n = 0 at s = 0
    plane = (cos_mid - 1j * sin_mid) * cos_s
    ex, en = cos_lam - 1j * sin_lam - plane, (-sin_mid - 1j * cos_mid) * sinc
    p, q = [d * ui + k * wi for ui, wi in zip(u, w)], [k * ui - d * wi for ui, wi in zip(u, w)]
    out = np.empty((3, 3) + lam.shape, dtype=complex)
    for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)):
        out[i, j] = ex * (x[i] * x[j]) + en * (u[i] * p[j] + w[i] * q[j]) + (plane if i == j else 0)
    return out


def _expm_chain(k: np.ndarray) -> np.ndarray:
    """exp(-i K) for Hermitian tridiagonal K (..., 3, 3), as (3, 3, ...) planes: D exp(-i T) D*
    for T = D* K D real, D = diag(1, e^{-i phi0}, e^{-i (phi0 + phi1)}), phi_j = arg K[j, j+1]."""
    z = np.array([k[..., 0, 1], k[..., 1, 2]])
    b = np.abs(z)
    u = _expm_tridiagonal([k[..., i, i].real for i in range(3)], b)
    ph = np.divide(z, b, out=np.ones(b.shape, dtype=complex), where=b > 0)
    for (i, j), f in (((0, 1), ph[0]), ((1, 2), ph[1]), ((0, 2), ph[0] * ph[1])):
        np.multiply(u[i, j], f.conj(), out=u[j, i])
        u[i, j] *= f
    return u


def magnus_propagate(h0: np.ndarray, v: np.ndarray, omega: Callable,
                     support: tuple[float, float],
                     n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """States under H(t) = h0 + omega(t)*v on n_steps equal steps of the support.

    h0 is one real diagonal (d, d) Hamiltonian or a (B, d, d) stack of them,
    each propagated from level 0; v is a Hermitian tridiagonal (d, d), d = 2
    or 3, and omega maps an array of times to drive amplitudes.  On 2 levels
    the diagonal of h0 may also carry a decay term -i gamma/2, so the norm is
    not kept; a gain (positive imaginary part) is refused.  Each step is the
    4th-order Magnus exponential exp(-i K) (see _magnus_exponents), taken
    MAGNUS_BLOCK_STEPS at a time by _expm_2x2 or _expm_chain.  Blocks of steps
    (see PRODUCT_ROWS) multiply as prefix products, one pass over the block
    ends and one batched product.  Returns the grid and (..., n_steps + 1, d) states.
    """
    h0, v = np.asarray(h0, dtype=complex), np.asarray(v, dtype=complex)
    dim = v.shape[-1]
    if v.shape != (dim, dim) or h0.shape[-2:] != (dim, dim) or h0.ndim > 3:
        raise ValueError(f"h0 {h0.shape} and v {v.shape} are not (B,) d x d")
    # on 2 levels the diagonal may carry a decay term; the rest is Hermitian
    decay = h0.imag * np.eye(dim) if dim == 2 else 0.0
    for name, h in (("h0", h0 - 1j * decay), ("v", v)):
        if not np.array_equal(h, h.conj().swapaxes(-1, -2)):
            raise ValueError(f"{name} not hermitian")
    if np.any(h0[..., ~np.eye(dim, dtype=bool)]):
        raise ValueError("h0 not diagonal")
    if np.any(decay > 0.0):
        raise ValueError("h0 has gain: a positive imaginary part on its diagonal")
    if np.any(np.triu(v, 2)) or dim not in (2, 3):
        raise ValueError("v not tridiagonal on 2 or 3 levels")
    stack = h0.reshape(-1, dim, dim)
    rows = len(stack)
    times, exponents = _magnus_exponents(stack, v, omega, support, n_steps)
    block = min(1 << max(0, (PRODUCT_ROWS // rows).bit_length() - 1), n_steps & -n_steps)
    per_block = max(1, MAGNUS_BLOCK_STEPS // (rows * block)) * block
    states = np.zeros((n_steps + 1, rows, dim, 1), dtype=complex)
    states[0, :, 0] = 1.0
    for s in range(0, n_steps, per_block):
        steps = exponents(slice(s, s + per_block))
        u = _expm_chain(steps) if dim == 3 else _expm_2x2(steps).transpose(2, 3, 0, 1)
        # prefix[i, j, k, b, row]: step k of block b; no copy when block = 1
        prefix = np.ascontiguousarray(u.reshape(dim, dim, -1, block, rows).swapaxes(2, 3))
        for k in range(1, block):
            prefix[:, :, k] = np.einsum("ijbr,jkbr->ikbr", prefix[:, :, k], prefix[:, :, k - 1])
        mats, ends = prefix.transpose(3, 2, 4, 0, 1), states[s:s + u.shape[2] + 1:block]
        for j, last in enumerate(mats[:, -1]):
            np.matmul(last, ends[j], out=ends[j + 1])
        inner = states[s + 1:s + u.shape[2] + 1].reshape(-1, block, rows, dim, 1)
        np.matmul(mats[:, :-1], ends[:-1, None], out=inner[:, :-1])
    return times, states[..., 0].transpose(1, 0, 2).reshape(h0.shape[:-2] + (n_steps + 1, dim))


def _expm_2x2(k: np.ndarray) -> np.ndarray:
    """exp(-i K) for a stack of 2 x 2 matrices K of any kind, in closed form.

    With m = tr K / 2 and A = K - m I, A^2 = s^2 I where s^2 = -det A, so
    exp(-i K) = e^{-i m} [cos s I - i (sin s / s) A]; both factors are even
    in s, so either square root serves.  Past |Im s| = 1, as where a decay
    term dwarfs the rest of a step, cos s and sin s can overflow while
    e^{-i m} underflows; there the factors come from the exponentials
    E+- = e^{-i (m +- s)} of K's eigenvalues, which are no larger than the
    result: exp(-i K) = (E+ + E-) / 2 I + (E+ - E-) / (2 s) A, and |s| > 1
    keeps the difference from cancelling.  The sign of s is chosen so that
    m + s is the larger eigenvalue; the smaller, det K / (m + s), is then
    free of the cancellation in m - s.
    """
    m = 0.5 * (k[..., 0, 0] + k[..., 1, 1])
    a = k - m[..., None, None] * np.eye(2)
    # s^2 on A scaled exactly by a power of 2, so it cannot overflow past
    # entries of 1e154, and its off-diagonal product from real parts, so a
    # Hermitian A gives it exactly real: an imaginary part rounded to
    # ~1e-16 |s|^2 would cross the |Im s| = 1 switch past |s| ~ 1e16
    scale = np.ldexp(1.0, -np.frexp(np.max(np.abs(a), axis=(-2, -1)))[1])
    b = a * scale[..., None, None]
    p, q = b[..., 0, 1], b[..., 1, 0]
    s = np.sqrt(b[..., 0, 0] ** 2 + (p.real * q.real - p.imag * q.imag)
                + 1j * (p.real * q.imag + p.imag * q.real)) / scale
    big = np.abs(s.imag) > 1.0
    near = np.where(big, 0.0, s)
    # sin s / s of s itself: np.sinc's pi * (s / pi) moves a large s enough
    # to break cos^2 + sin^2 = 1 by ~1e-12 per step
    zero = near == 0
    sinc = np.where(zero, 1.0, np.sin(near) / np.where(zero, 1.0, near))
    u = np.cos(near)[..., None, None] * np.eye(2) - 1j * sinc[..., None, None] * a
    u = np.exp(-1j * np.where(big, 0.0, m))[..., None, None] * u
    if np.any(big):
        kb, mb, sb = k[big], m[big], s[big]
        sb = np.where((mb.conj() * sb).real < 0, -sb, sb)
        det = kb[:, 0, 0] * kb[:, 1, 1] - kb[:, 0, 1] * kb[:, 1, 0]
        ep, em = np.exp(-1j * (mb + sb)), np.exp(-1j * det / (mb + sb))
        u[big] = (0.5 * (ep + em)[:, None, None] * np.eye(2)
                  + (0.5 * (ep - em) / sb)[:, None, None] * a[big])
    return u


def evolve_lindblad(ham: TimeDependentHamiltonian,
                    jumps: Sequence[tuple[np.ndarray, float]],
                    rho0: np.ndarray, tol: float = 1e-9) -> Trajectory:
    """Integrate the Lindblad master equation with jump operators.

    jumps is a sequence of (operator, rate_per_ps) pairs; each contributes
    rate * (L rho L+ - {L+ L, rho}/2).  Trace drift is recorded, not fixed.
    """
    rho0 = _initial_state(rho0, (ham.dim, ham.dim), tol)
    if np.max(np.abs(rho0 - rho0.conj().T)) > 1e3 * NORM_TOL:
        raise ValueError("density matrix not hermitian")
    err = abs(float(np.trace(rho0).real) - 1.0)
    if err > NORM_TOL:
        raise ValueError(f"trace off by {err:.3e}")
    if float(np.linalg.eigvalsh(rho0).min()) < -10.0 * NORM_TOL:
        raise ValueError("density matrix has a significantly negative eigenvalue")
    ham.check_hermitian()

    ops = []
    for op, rate in jumps:
        op = np.asarray(op, dtype=complex)
        if op.shape != (ham.dim, ham.dim):
            raise ValueError(f"jump operator shape {op.shape} != ({ham.dim}, {ham.dim})")
        if rate < 0:
            raise ValueError(f"negative jump rate {rate}")
        ops.append((op, op.conj().T @ op, float(rate)))

    dim = ham.dim

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        h = ham.evaluator(t)
        drho = -1j * (h @ rho - rho @ h)
        for op, opdag_op, rate in ops:
            drho += rate * (op @ rho @ op.conj().T
                            - 0.5 * (opdag_op @ rho + rho @ opdag_op))
        return drho.ravel()

    sol = _solve(rhs, ham.support, rho0.ravel(), tol)
    states = sol.y.T.reshape(-1, dim, dim)
    drift = float(np.max(np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)))
    return Trajectory(times=sol.t, states=states, norm_drift=drift)


def phase_steps(amps: np.ndarray) -> np.ndarray:
    """Principal-value phase increments along the last axis of amplitudes."""
    return np.angle(amps[..., 1:] * amps[..., :-1].conj())


def depleted(amps: np.ndarray) -> np.ndarray:
    """Whether amplitude histories (last axis) end or start too empty for a phase."""
    return np.minimum(np.abs(amps[..., 0]), np.abs(amps[..., -1])) <= MIN_PHASE_AMPLITUDE
