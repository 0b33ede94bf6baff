"""Output checks against references computed without the library's routes.

Each `check_<sub>` takes an op (inputs as the benchmark passed them) and the
directory the op wrote, and returns None when the outputs agree with the
reference, or a message saying what disagreed.  Checks run after the timed
loop.  The gate phases, the only costly reference, are cached by input in a
JSON file that persists across runs in the same checkout.

References:
- gate phase: the benchmark's own 2- and 4-level Hamiltonians, integrated
  with scipy's DOP853 at rtol 1e-11 on a fine grid;
- J(delta): `tests/oracles.py::spectral_density_bessel`, loaded read-only;
- min separation: the budget holds at the returned value and fails one
  resolution step below it, by the Bessel-route J;
- readout: the exact binomial-geometric eps_bright, within 5 SE;
- repeater: the exact median of period * max_i G_i + D, whose CDF is
  (1 - q^floor((t - D)/period))^N, within a 5-sigma band of the sample median;
- link: the geometric mean period/p, within 5 SE.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.stats import binom

HBAR_MEV_PS = 0.6582119
MU_B_MEV_PER_T = 5.7883818060e-2
SUPPORT_SIGMAS = math.sqrt(math.log(1e6))   # pulse clipped at 1e-6 of its peak
PHASE_TOL_RAD = 1e-3
REL_TOL = 1e-3
N_SE = 5.0

# deformation-potential constants of the two material presets
MATERIALS = {
    "GaAs": SimpleNamespace(rho_kg_m3=5317.0, c_s_m_s=5110.0, d_c_ev=-8.0, d_v_ev=1.0),
    "ZnSe": SimpleNamespace(rho_kg_m3=5266.0, c_s_m_s=4040.0, d_c_ev=-4.17, d_v_ev=1.65),
}


class References:
    def __init__(self, root: str, cache_path: str):
        sys.path.insert(0, os.path.join(root, "src"))   # the oracles import dotlink.units
        spec = importlib.util.spec_from_file_location(
            "perfbench_oracles", os.path.join(root, "tests", "oracles.py"))
        self.oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.oracles)
        self.cache_path = cache_path
        try:
            with open(cache_path) as fh:
                self.cache = json.load(fh)
        except (OSError, ValueError):
            self.cache = {}

    def save(self):
        tmp = self.cache_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.cache, fh)
        os.replace(tmp, self.cache_path)

    def check(self, op: dict, out_dir: str) -> str | None:
        try:
            return getattr(self, f"check_{op['sub']}")(op["params"], op, out_dir)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    # ---- gate ---------------------------------------------------------------

    def phi_cond(self, omega0: float, tau_ps: float, delta: float, e_dd_mev: float) -> float:
        key = repr(("phi_cond", omega0, tau_ps, delta, e_dd_mev))
        if key not in self.cache:
            self.cache[key] = (_ground_phase(omega0, tau_ps, delta, e_dd_mev)
                               - 2.0 * _ground_phase(omega0, tau_ps, delta, None))
        return self.cache[key]

    def check_calibrate(self, p, op, out_dir):
        e_dd = _read_json(out_dir, "calibration.json")["e_dd_mev"]
        phi = self.phi_cond(1.0, p["tau_ps"], p["delta"], e_dd)
        if abs(phi - p["target_rad"]) > PHASE_TOL_RAD:
            return (f"phase at e_dd = {e_dd:.6f} meV is {phi:.6f} rad, "
                    f"target {p['target_rad']:.6f}")
        return None

    def check_gate(self, p, op, out_dir):
        rep = _read_json(out_dir, "gate_report.json")
        phi = self.phi_cond(p["drive.omega0"], p["drive.tau_ps"], p["drive.delta"],
                            p["gate.e_dd_mev"])
        if abs(rep["phi_cond_rad"] - phi) > PHASE_TOL_RAD:
            return f"phi_cond {rep['phi_cond_rad']:.6f} rad, reference {phi:.6f}"
        rows = _read_csv(out_dir, "gate_trajectories.csv")
        if {r[0] for r in rows[1:]} != {"single", "double"}:
            return "gate_trajectories.csv lacks a single or double trajectory"
        return None

    def check_sweep(self, p, op, out_dir):
        rows = _read_csv(out_dir, "sweep.csv")[1:]
        values = [float(v) for v in op["flags"][op["flags"].index("--values") + 1].split(",")]
        if len(rows) != len(values):
            return f"{len(rows)} sweep rows for {len(values)} values"
        param = op["flags"][op["flags"].index("--param") + 1]
        for row, v in zip(rows, values):
            if param == "gate.e_dd_mev":
                ref = self.phi_cond(p["drive.omega0"], p["drive.tau_ps"],
                                    p["drive.delta"], float(row[0]))
                if abs(float(row[1]) - ref) > PHASE_TOL_RAD:
                    return f"phi_cond at {row[0]} meV: {row[1]} vs reference {ref:.6f}"
            else:
                ref = self.phonon_error(p, float(row[0]))
                if not _close(float(row[1]), ref):
                    return f"phonon error at {row[0]} meV: {row[1]} vs reference {ref:.6e}"
            if abs(float(row[0]) - v) > 1e-5 * max(1.0, abs(v)):
                return f"sweep row {row[0]} for value {v}"
        return None

    # ---- phonon -------------------------------------------------------------

    def spectral_density(self, p, delta_mev: float) -> float:
        sxy, sz = p["dot.diameter_nm"] / 4.0, p["dot.thickness_nm"] / 4.0
        model = SimpleNamespace(
            material=MATERIALS[p["material"]],
            electron=SimpleNamespace(sigma_xy_nm=sxy, sigma_z_nm=sz,
                                     center_nm=(0.0, 0.0, 0.0)),
            hole=SimpleNamespace(sigma_xy_nm=sxy, sigma_z_nm=sz,
                                 center_nm=(p["dot.d_eh_nm"], 0.0, 0.0)))
        return self.oracles.spectral_density_bessel(model, delta_mev)

    def phonon_error(self, p, e_s_mev: float) -> float:
        return _error_from_j(p, e_s_mev, self.spectral_density(p, e_s_mev))

    def check_phonon(self, p, op, out_dir):
        rep = _read_json(out_dir, "phonon_report.json")
        rows = _read_csv(out_dir, "phonon_table.csv")[1:]
        grid = np.arange(p["phonon.delta_min_mev"],
                         p["phonon.delta_max_mev"] + p["phonon.delta_step_mev"] / 2,
                         p["phonon.delta_step_mev"])
        if len(rows) != len(grid):
            return f"{len(rows)} table rows for a {len(grid)}-point grid"
        for row, delta in zip(rows, grid):
            d, j, eps = (float(x) for x in row)
            if abs(d - delta) > 1e-4:
                return f"table row at {d} meV, expected {delta}"
            j_ref = self.spectral_density(p, d)
            if not (_close(j, j_ref) and _close(eps, _error_from_j(p, d, j_ref))):
                return f"J or error at {d} meV off the Bessel route: {j:.6e} vs {j_ref:.6e}"
        e_s = p["phonon.e_s_mev"]
        if not (_close(rep["j_at_e_s_per_ps"], self.spectral_density(p, e_s))
                and _close(rep["error_at_e_s"], self.phonon_error(p, e_s))):
            return f"J or error at e_s = {e_s} meV off the Bessel route"
        budget, sep = p["phonon.error_budget"], rep["min_separation_mev"]
        if min(self.phonon_error(p, sep), 1.0) > budget * (1.0 + REL_TOL):
            return f"budget {budget} fails at the returned separation {sep} meV"
        below = sep - 0.01   # the library's default resolution
        if below >= 0.5 and min(self.phonon_error(p, below), 1.0) <= budget * (1.0 - REL_TOL):
            return f"budget {budget} already holds one step below {sep} meV"
        return None

    # ---- network ------------------------------------------------------------

    def check_link(self, p, op, out_dir):
        rep = _read_json(out_dir, "link_report.json")
        prob = 0.5 * p["link.eta_override"] ** 2
        period = p["link.l0_km"] / p["link.c_fiber_km_ms"]
        mean = period / prob
        se = period * math.sqrt(1.0 - prob) / prob / math.sqrt(p["trials"])
        if not _close(rep["mean_time_ms"], mean, 1e-9):
            return f"mean link time {rep['mean_time_ms']} vs exact {mean}"
        if abs(rep["mc_mean_ms"] - mean) > N_SE * se:
            return f"MC mean {rep['mc_mean_ms']} ms vs exact {mean} +- {se}"
        return None

    def check_readout(self, p, op, out_dir):
        rep = _read_json(out_dir, "readout_report.json")
        pf, n = p["readout.p_forbidden"], p["readout.n_cycles"]
        cycles = np.arange(n + 1)
        weight = pf * (1.0 - pf) ** cycles
        weight[-1] = (1.0 - pf) ** n        # no shelving within n cycles
        exact = float(np.sum(weight * binom.cdf(p["readout.threshold"] - 1, cycles,
                                                p["readout.eta_det"])))
        se = math.sqrt(exact * (1.0 - exact) / p["trials"])
        if abs(rep["eps_bright"] - exact) > N_SE * se:
            return f"eps_bright {rep['eps_bright']} vs exact {exact:.6f} +- {se:.2e}"
        return None

    def check_repeater(self, p, op, out_dir):
        rep = _read_json(out_dir, "repeater_report.json")
        n_links, trials = p["chain.n_links"], p["trials"]
        q = 1.0 - 0.5 * p["link.eta_override"] ** 2
        period = p["link.l0_km"] / p["link.c_fiber_km_ms"]
        levels = int(math.log2(n_links))
        delay = sum(2 ** k * period for k in range(1, levels + 1))

        def quantile_step(f):   # smallest attempt count m with CDF(m) >= f
            return math.ceil(math.log(1.0 - f ** (1.0 / n_links)) / math.log(q))

        band = N_SE * 0.5 / math.sqrt(trials)
        lo = delay + period * quantile_step(0.5 - band)
        hi = delay + period * quantile_step(0.5 + band)
        p50 = rep["times_ms"]["p50_ms"]
        if not lo - 1e-9 <= p50 <= hi + 1e-9:
            exact = delay + period * quantile_step(0.5)
            return f"median {p50} ms outside [{lo}, {hi}] around exact {exact}"
        if len(_read_csv(out_dir, "repeater_trials.csv")) != trials + 1:
            return "repeater_trials.csv row count differs from the trial count"
        return None

    def check_tune(self, p, op, out_dir):
        rep = _read_json(out_dir, "tune_report.json")
        split = 2.0 * p["dot.g_x"] * MU_B_MEV_PER_T * p["dot.b_field_t"]
        if not _close(rep["photon_energies"]["splitting_mev"], split):
            return f"line splitting {rep['photon_energies']['splitting_mev']} vs {split}"
        n_qubits = 1 + int((p["phonon.e_w_mev"] - 1e-6) / p["phonon.e_s_mev"])
        if rep["plan"]["n_qubits"] != n_qubits:
            return f"{rep['plan']['n_qubits']} qubits planned, expected {n_qubits}"
        return None


def _ground_phase(omega0: float, tau_ps: float, delta: float, e_dd_mev) -> float:
    """Unwrapped phase of |g> (2 levels) or |gg> (4 levels, e_dd_mev given)."""
    if e_dd_mev is None:
        h0 = np.diag([0.0, -delta]).astype(complex)
        v = np.array([[0, 1], [1, 0]], dtype=complex)
    else:
        h0 = np.diag([0.0, -delta, -delta, -2.0 * delta + e_dd_mev / HBAR_MEV_PS]
                     ).astype(complex)
        v = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]],
                     dtype=complex)

    def rhs(t, y):
        return -1j * (h0 @ y + 0.5 * omega0 * math.exp(-(t / tau_ps) ** 2) * (v @ y))

    half = SUPPORT_SIGMAS * tau_ps
    y0 = np.zeros(h0.shape[0], dtype=complex)
    y0[0] = 1.0
    sol = solve_ivp(rhs, (-half, half), y0, method="DOP853", rtol=1e-11, atol=1e-13,
                    t_eval=np.linspace(-half, half, 4001))
    if not sol.success:
        raise ValueError(f"reference integration failed: {sol.message}")
    return float(np.unwrap(np.angle(sol.y[0]))[-1])


def _error_from_j(p, e_s_mev: float, j_per_ps: float) -> float:
    """First-order phonon error 2 pi J Omega^2-integral / delta^2 of a Gaussian pulse."""
    pulse_sq = p["drive.omega0"] ** 2 * p["drive.tau_ps"] * math.sqrt(math.pi / 2.0)
    return 2.0 * math.pi * j_per_ps * pulse_sq / (e_s_mev / HBAR_MEV_PS) ** 2


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _read_csv(out_dir: str, name: str) -> list:
    with open(os.path.join(out_dir, name), newline="") as fh:
        return list(csv.reader(fh))
