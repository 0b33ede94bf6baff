"""Command-line entry point: config-driven runs with deterministic outputs.

Every subcommand loads the same JSON configuration (all sections optional,
defaults apply), runs one module, and writes JSON/CSV results plus a run
manifest into the output directory.  Result files depend only on config and
seed; timestamps live in the manifest alone, so reruns are byte-identical.

Exit codes: 0 success, 1 usage or validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_from_dict, derive_rng, load_config
from .dotmodel import (addressing_plan, control_precision, dipole_dipole_energy,
                       photon_energies, varshni_shift, varshni_slope)
from .gatesim import excited_population, raman_gate_error, simulate_conditional_gate
from .phonon import min_separation, model_from_dot, phonon_error, spectral_density
from .photonlink import (bsa_coincidence, dephasing_error, link_attempt_stats,
                         overlap_error_small_mismatch, photon_efficiency,
                         sample_link_times, wavepacket_overlap_error)
from .readout import simulate_readout
from .repeater import simulate_chain

SUBCOMMANDS = ("gate", "phonon", "link", "readout", "repeater", "tune", "sweep")
TRIAL_SUBCOMMANDS = ("link", "readout", "repeater")


def _atomic_write(path: str, text: str):
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(outdir: str, name: str, payload: dict) -> str:
    path = os.path.join(outdir, name)
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return name


def _write_csv(outdir: str, name: str, header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(os.path.join(outdir, name), buf.getvalue())
    return name


# per-step and per-shot arrays go to CSV files, never into a JSON report
_ARRAY_FIELDS = ("trajectories", "histogram_bright", "trial_times_ms")


def _report_fields(report) -> dict:
    """A report dataclass's fields by name, less its array fields."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
            if f.name not in _ARRAY_FIELDS}


def run_gate(cfg: ExperimentConfig, outdir: str, args) -> list[str]:
    gamma = 1.0 / cfg.dot.t_rad_ps
    report = simulate_conditional_gate(cfg.drive, cfg.gate.e_dd_mev,
                                       gamma_per_ps=gamma, tol=cfg.gate.tol)
    payload = {**_report_fields(report), "drive": dataclasses.asdict(cfg.drive),
               "raman_gate_error": raman_gate_error(cfg.raman)}
    written = [_write_json(outdir, "gate_report.json", payload)]
    if args.trajectories:
        rows = [(label, f"{t:.6f}", f"{p:.9e}")
                for label, traj in report.trajectories.items()
                for t, p in zip(traj.times, excited_population(traj))]
        written.append(_write_csv(outdir, "gate_trajectories.csv",
                                  ["input", "time_ps", "excited_population"], rows))
    print(f"phi_cond = {report.phi_cond_rad:.6f} rad, "
          f"single-dot exposure = {report.exposure_single_ps:.4f} ps, "
          f"eps_spont = {report.eps_spont:.4%}")
    return written


def run_phonon(cfg: ExperimentConfig, outdir: str, args) -> list[str]:
    ps = cfg.phonon
    model = model_from_dot(cfg.dot, cfg.material, order=ps.order)
    grid = np.arange(ps.delta_min_mev, ps.delta_max_mev + ps.delta_step_mev / 2,
                     ps.delta_step_mev)
    j = spectral_density(model, grid)
    eps = phonon_error(model, cfg.drive, grid)
    table = _write_csv(outdir, "phonon_table.csv",
                       ["delta_mev", "spectral_density_per_ps", "phonon_error"],
                       [(f"{d:.4f}", f"{jd:.9e}", f"{ed:.9e}")
                        for d, jd, ed in zip(grid, j, eps)])
    payload = {
        "material": cfg.material.name,
        "order": ps.order,
        "e_s_mev": ps.e_s_mev,
        "j_at_e_s_per_ps": spectral_density(model, ps.e_s_mev),
        "error_at_e_s": phonon_error(model, cfg.drive, ps.e_s_mev),
        "pulse_sq_integral_rad2_ps": cfg.drive.omega_sq_integral(),
        "error_budget": ps.error_budget,
        "min_separation_mev": min_separation(model, cfg.drive, ps.error_budget),
    }
    written = [_write_json(outdir, "phonon_report.json", payload), table]
    print(f"phonon error at {ps.e_s_mev} meV = {payload['error_at_e_s']:.4e}, "
          f"min separation for {ps.error_budget} = {payload['min_separation_mev']:.2f} meV")
    return written


def run_link(cfg: ExperimentConfig, outdir: str, args) -> list[str]:
    budget = cfg.link
    t_rad = cfg.dot.t_rad_ps
    n = 100_000 if args.trials is None else args.trials
    rng = derive_rng(cfg.seed, "link")
    times = sample_link_times(budget, t_rad, n, rng)
    payload = {
        **link_attempt_stats(budget, t_rad),
        "eta_per_photon": photon_efficiency(budget, t_rad),
        "mc_mean_ms": float(np.mean(times)),
        "mc_se_ms": float(np.std(times, ddof=1) / math.sqrt(n)),
        "n_trials": n,
        "overlap_error": wavepacket_overlap_error(cfg.link.delta_e_uev, t_rad),
        "overlap_error_leading_order": overlap_error_small_mismatch(
            cfg.link.delta_e_uev, t_rad),
        "dephasing_error": dephasing_error(t_rad, cfg.link.t_deph_ps),
        "coincidence_psi_minus": bsa_coincidence(
            "psi_minus", cfg.link.delta_e_uev, t_rad).coincidence,
        "coincidence_psi_plus": bsa_coincidence(
            "psi_plus", cfg.link.delta_e_uev, t_rad).coincidence,
    }
    written = [_write_json(outdir, "link_report.json", payload)]
    print(f"P_success = {payload['p_success']:.5f}, "
          f"mean link time = {payload['mean_time_ms']:.3f} ms "
          f"(MC {payload['mc_mean_ms']:.3f} ms)")
    return written


def run_readout(cfg: ExperimentConfig, outdir: str, args) -> list[str]:
    rcfg = cfg.readout
    if args.trials is not None:
        rcfg = dataclasses.replace(rcfg, n_shots=args.trials)
    report = simulate_readout(rcfg, derive_rng(cfg.seed, "readout"))
    payload = {**_report_fields(report), "n_shots": rcfg.n_shots,
               "threshold": rcfg.threshold}
    hist = _write_csv(outdir, "readout_histogram.csv",
                      ["counts", "probability_bright"],
                      [(k, f"{pb:.9e}") for k, pb in enumerate(report.histogram_bright)])
    written = [_write_json(outdir, "readout_report.json", payload), hist]
    print(f"eps_bright = {report.eps_bright:.4%} +- {report.eps_bright_se:.4%} "
          f"(poisson limit {report.poisson_limit:.4%})")
    return written


def run_repeater(cfg: ExperimentConfig, outdir: str, args) -> list[str]:
    n_trials = cfg.chain.n_trials if args.trials is None else args.trials
    result = simulate_chain(cfg.chain, n_trials=n_trials,
                            seed=derive_rng(cfg.seed, "repeater"),
                            keep_trials=args.per_trial, link=cfg.link,
                            t_rad_ps=cfg.dot.t_rad_ps)
    written = [_write_json(outdir, "repeater_report.json", _report_fields(result))]
    if args.per_trial:
        written.append(_write_csv(
            outdir, "repeater_trials.csv", ["trial", "total_time_ms"],
            [(i, f"{t:.6f}") for i, t in enumerate(result.trial_times_ms)]))
    print(f"median time = {result.times_ms['p50_ms']:.2f} ms over "
          f"{result.n_links} links, final fidelity = {result.fidelity_final:.4f}")
    return written


def run_tune(cfg: ExperimentConfig, outdir: str, args) -> list[str]:
    e_plus, e_minus = photon_energies(cfg.dot)
    # hold each line to the same precision the link budget assumes for dE
    de_target = cfg.link.delta_e_uev
    dt_mk, db_mt = control_precision(cfg.dot, cfg.material, de_target)
    plan = addressing_plan(cfg.phonon.e_w_mev, cfg.phonon.e_s_mev)
    payload = {
        "photon_energies": {
            "sigma_plus_mev": e_plus,
            "sigma_minus_mev": e_minus,
            "splitting_mev": e_plus - e_minus,
            "degenerate": e_plus == e_minus,
        },
        "control": {
            "de_target_uev": de_target,
            "dt_max_mk": dt_mk,
            "db_max_mt": db_mt,
            "t_op_assumed_k": cfg.dot.t_op_k,
        },
        "varshni": {
            "shift_mev": varshni_shift(cfg.dot.t_op_k, cfg.material),
            "slope_mev_per_k": varshni_slope(cfg.dot.t_op_k, cfg.material),
        },
        "dipole_dipole": {
            "r_nm": cfg.gate.r_dd_nm,
            "point_mev": dipole_dipole_energy(cfg.dot.d_eh_nm, cfg.gate.r_dd_nm,
                                              cfg.material.eps_r, "point-dipole"),
            "four_charge_mev": dipole_dipole_energy(cfg.dot.d_eh_nm, cfg.gate.r_dd_nm,
                                                    cfg.material.eps_r, "four-charge"),
        },
        "plan": dataclasses.asdict(plan),
    }
    written = [_write_json(outdir, "tune_report.json", payload)]
    print(f"lines at {e_plus:.5f}/{e_minus:.5f} meV, dT_max = {dt_mk:.2f} mK, "
          f"dB_max = {db_mt:.2f} mT, {plan.n_qubits} qubit(s) per node")
    return written


SWEEPABLE = ("phonon.e_s_mev", "gate.e_dd_mev", "link.delta_e_uev")


def run_sweep(cfg: ExperimentConfig, outdir: str, args) -> list[str]:
    if args.param not in SWEEPABLE:
        raise ValueError(f"sweep parameter must be one of {SWEEPABLE}")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad sweep values {args.values!r}") from exc
    if not values:
        raise ValueError("no sweep values given")
    # each value must load as that config key would: NaN, say, is refused
    section, key = args.param.split(".")
    for v in values:
        raw = cfg.canonical_dict()
        raw[section][key] = v
        config_from_dict(raw)

    rows = []
    if args.param == "phonon.e_s_mev":
        model = model_from_dot(cfg.dot, cfg.material, order=cfg.phonon.order)
        header = ["e_s_mev", "phonon_error"]
        rows = [(f"{v:.6g}", f"{e:.9e}")
                for v, e in zip(values, phonon_error(model, cfg.drive, np.array(values)))]
    elif args.param == "gate.e_dd_mev":
        header = ["e_dd_mev", "phi_cond_rad", "adiabatic"]
        for v in values:
            rep = simulate_conditional_gate(cfg.drive, v, gamma_per_ps=0.0,
                                            tol=cfg.gate.tol, lindblad_check=False)
            rows.append((f"{v:.6g}", f"{rep.phi_cond_rad:.9f}", int(rep.adiabatic)))
    else:
        header = ["delta_e_uev", "overlap_error"]
        rows = [(f"{v:.6g}",
                 f"{wavepacket_overlap_error(v, cfg.dot.t_rad_ps):.9e}")
                for v in values]
    name = _write_csv(outdir, "sweep.csv", header, rows)
    print(f"swept {args.param} over {len(values)} value(s)")
    return [name]


RUNNERS = {
    "gate": run_gate,
    "phonon": run_phonon,
    "link": run_link,
    "readout": run_readout,
    "repeater": run_repeater,
    "tune": run_tune,
    "sweep": run_sweep,
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors to main, which exits 1, instead of exiting 2."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dotlink",
        description="error-budget simulator for optically linked quantum-dot spins")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted config override")
        p.add_argument("--seed", type=int, help="global seed override")
        p.add_argument("--out", help="output directory")
        p.add_argument("--trials", type=int, help="Monte Carlo trial count")
        if name == "gate":
            p.add_argument("--trajectories", action="store_true",
                           help="also write per-step populations CSV")
        if name == "repeater":
            p.add_argument("--per-trial", dest="per_trial", action="store_true",
                           help="also write per-trial times CSV")
        if name == "sweep":
            p.add_argument("--param", required=True,
                           help=f"one of {', '.join(SWEEPABLE)}")
            p.add_argument("--values", required=True,
                           help="comma-separated values")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    started = datetime.now(timezone.utc).isoformat()
    try:
        cfg = load_config(args.config, args.overrides, args.seed, args.out)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    outdir = cfg.out_dir
    try:
        if args.trials is not None and args.subcommand not in TRIAL_SUBCOMMANDS:
            raise ValueError(f"--trials is not used by {args.subcommand}")
        os.makedirs(outdir, exist_ok=True)
        results = RUNNERS[args.subcommand](cfg, outdir, args)
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2

    manifest = {
        "tool_version": __version__,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "subcommand": args.subcommand,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "results": results,
    }
    _write_json(outdir, "run_manifest.json", manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
