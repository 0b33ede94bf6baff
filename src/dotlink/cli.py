"""Command-line entry point: config-driven runs with deterministic outputs.

Every subcommand loads the same JSON configuration (all sections optional,
defaults apply), runs one module, and writes JSON/CSV results plus a run
manifest into the output directory.  Result files depend only on config and
seed; timestamps live in the manifest alone, so reruns are byte-identical.

Exit codes: 0 success, 1 usage or validation error, 2 numerical failure,
which includes a result that is not a finite number.

Each runner imports its own library calls, so a run loads only the modules
it uses: `tune` loads no numpy, and no run loads scipy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from datetime import datetime, timezone

from . import __version__
from .config import ExperimentConfig, config_from_dict, derive_rng, load_config

# large CSVs are formatted this many rows at a time: one chunk in memory, not the file
CHUNK_ROWS = 1 << 12


def _indexed_rows(values, fmt: str):
    """CSV lines "index,value", fmt a %-format of each value, a chunk per string."""
    for start in range(0, len(values), CHUNK_ROWS):
        chunk = values[start:start + CHUNK_ROWS].tolist()
        fields = [0] * (2 * len(chunk))
        fields[::2], fields[1::2] = range(start, start + len(chunk)), chunk
        yield f"%d,{fmt}\r\n" * len(chunk) % tuple(fields)


def _write_results(outdir: str, results: dict) -> None:
    """Write each result, a .json payload or a .csv (header, lines), all or none.

    A CSV is its header's names joined by commas and then its text lines, each
    ending in CRLF as the csv module writes them; every field is a number or
    a fixed label, so none needs quoting.

    Each streams into its own temporary in outdir, made as open() makes files,
    so its mode follows the umask.  The temporaries are renamed into place, in
    order, once every one is complete; on any exception they are deleted.
    """
    os.makedirs(outdir, exist_ok=True)
    temps = []
    try:
        for name, result in results.items():
            tmp = os.path.join(outdir, f".tmp-{os.urandom(6).hex()}-{name}")
            with open(tmp, "x", newline="") as fh:
                temps.append((tmp, name))
                if name.endswith(".json"):
                    try:
                        text = json.dumps(result, indent=2, sort_keys=True, allow_nan=False)
                    except ValueError:
                        raise ArithmeticError(f"{name} holds a non-finite number") from None
                    fh.write(text + "\n")
                else:
                    header, lines = result
                    fh.write(",".join(header) + "\r\n")
                    fh.writelines(lines)
        # a directory in a target's place would fail its rename after the
        # earlier ones: refuse it before any
        for _, name in temps:
            if os.path.isdir(os.path.join(outdir, name)):
                raise IsADirectoryError(f"{os.path.join(outdir, name)} is a directory")
        for tmp, name in temps:
            os.replace(tmp, os.path.join(outdir, name))
    except BaseException:
        for tmp, _ in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


# per-step and per-shot arrays go to CSV files, never into a JSON report
_ARRAY_FIELDS = ("trajectories", "histogram_bright", "trial_times_ms")


def _report_fields(report) -> dict:
    """A report dataclass's fields by name, less its array fields."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
            if f.name not in _ARRAY_FIELDS}


def run_gate(cfg: ExperimentConfig, args) -> tuple[dict, str]:
    from .gatesim import excited_population, raman_gate_error, simulate_conditional_gate
    gamma = 1.0 / cfg.dot.t_rad_ps
    report = simulate_conditional_gate(cfg.drive, cfg.gate.e_dd_mev, gamma_per_ps=gamma)
    e_dd = report.e_dd_mev
    results = {"gate_report.json": {
        **_report_fields(report), "drive": dataclasses.asdict(cfg.drive),
        "raman_gate_error": raman_gate_error(cfg.raman),
        # the perfect blockade's infinite shift, as the string "Infinity" or
        # "-Infinity", which stays strict JSON
        "e_dd_mev": json.dumps(e_dd) if math.isinf(e_dd) else e_dd}}
    if args.trajectories:
        results["gate_trajectories.csv"] = (
            ["input", "time_ps", "excited_population"],
            ("%s,%.6f,%.9e\r\n" % (label, t, p)
             for label, traj in report.trajectories.items()
             for t, p in zip(traj.times.tolist(), excited_population(traj).tolist())))
    return results, (f"phi_cond = {report.phi_cond_rad:.6f} rad, "
                     f"single-dot exposure = {report.exposure_single_ps:.4f} ps, "
                     f"eps_spont = {report.eps_spont:.4%}")


def run_phonon(cfg: ExperimentConfig, args) -> tuple[dict, str]:
    import numpy as np

    from .phonon import model_from_dot, phonon_report
    ps = cfg.phonon
    grid = np.arange(ps.delta_min_mev, ps.delta_max_mev + ps.delta_step_mev / 2,
                     ps.delta_step_mev)
    payload = phonon_report(model_from_dot(cfg.dot, cfg.material), cfg.drive,
                            ps.e_s_mev, ps.error_budget, grid)
    table = payload.pop("table")
    lines = ("%.4f,%.9e,%.9e\r\n" % row for row in zip(*table.values()))
    return {"phonon_report.json": payload, "phonon_table.csv": (list(table), lines)}, (
        f"phonon error at {ps.e_s_mev} meV = {payload['error_at_e_s']:.4e}, "
        f"min separation for {ps.error_budget} = {payload['min_separation_mev']:.2f} meV")


def run_link(cfg: ExperimentConfig, args) -> tuple[dict, str]:
    from .photonlink import link_report
    n = 100_000 if args.trials is None else args.trials
    payload = link_report(cfg.link, cfg.dot.t_rad_ps, n, derive_rng(cfg.seed, "link"))
    return {"link_report.json": payload}, (
        f"P_success = {payload['p_success']:.5f}, "
        f"mean link time = {payload['mean_time_ms']:.3f} ms "
        f"(MC {payload['mc_mean_ms']:.3f} ms)")


def run_readout(cfg: ExperimentConfig, args) -> tuple[dict, str]:
    from .readout import simulate_readout
    rcfg = cfg.readout
    if args.trials is not None:
        rcfg = dataclasses.replace(rcfg, n_shots=args.trials)
    report = simulate_readout(rcfg, derive_rng(cfg.seed, "readout"))
    payload = {**_report_fields(report), "n_shots": rcfg.n_shots, "threshold": rcfg.threshold}
    hist = (["counts", "probability_bright"], _indexed_rows(report.histogram_bright, "%.9e"))
    return {"readout_report.json": payload, "readout_histogram.csv": hist}, (
        f"eps_bright = {report.eps_bright:.4%} +- {report.eps_bright_se:.4%} "
        f"(poisson limit {report.poisson_limit:.4%})")


def run_repeater(cfg: ExperimentConfig, args) -> tuple[dict, str]:
    from .repeater import simulate_chain
    result = simulate_chain(cfg.chain, args.trials, derive_rng(cfg.seed, "repeater"),
                            link=cfg.link, t_rad_ps=cfg.dot.t_rad_ps)
    results = {"repeater_report.json": _report_fields(result)}
    if args.per_trial:
        results["repeater_trials.csv"] = (["trial", "total_time_ms"],
                                          _indexed_rows(result.trial_times_ms, "%.6f"))
    return results, (f"median time = {result.times_ms['p50_ms']:.2f} ms over "
                     f"{result.n_links} links, final fidelity = {result.fidelity_final:.4f}")


def run_tune(cfg: ExperimentConfig, args) -> tuple[dict, str]:
    from .dotmodel import tune_report
    # hold each line to the same precision the link budget assumes for dE
    payload = tune_report(cfg.dot, cfg.material, cfg.link.delta_e_uev, cfg.gate.r_dd_nm,
                          cfg.phonon.e_w_mev, cfg.phonon.e_s_mev)
    lines, control = payload["photon_energies"], payload["control"]
    return {"tune_report.json": payload}, (
        f"lines at {lines['sigma_plus_mev']:.5f}/{lines['sigma_minus_mev']:.5f} meV, "
        f"dT_max = {control['dt_max_mk']:.2f} mK, dB_max = {control['db_max_mt']:.2f} mT, "
        f"{payload['plan']['n_qubits']} qubit(s) per node")


SWEEPABLE = ("phonon.e_s_mev", "gate.e_dd_mev", "link.delta_e_uev")


def run_sweep(cfg: ExperimentConfig, args) -> tuple[dict, str]:
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
        raw = dataclasses.asdict(cfg)
        raw[section][key] = v
        config_from_dict(raw)

    if args.param == "phonon.e_s_mev":
        import numpy as np

        from .phonon import model_from_dot, phonon_error
        model = model_from_dot(cfg.dot, cfg.material)
        header = ["e_s_mev", "phonon_error"]
        lines = ["%.6g,%.9e\r\n" % row
                 for row in zip(values, phonon_error(model, cfg.drive, np.array(values)).tolist())]
    elif args.param == "gate.e_dd_mev":
        from .gatesim import simulate_conditional_gate
        header = ["e_dd_mev", "phi_cond_rad", "adiabatic"]
        lines = []
        for v in values:
            rep = simulate_conditional_gate(cfg.drive, v)
            lines.append("%.6g,%.9f,%d\r\n" % (v, rep.phi_cond_rad, rep.adiabatic))
    else:
        from .photonlink import wavepacket_overlap_error
        header = ["delta_e_uev", "overlap_error"]
        lines = ["%.6g,%.9e\r\n" % (v, wavepacket_overlap_error(v, cfg.dot.t_rad_ps))
                 for v in values]
    return {"sweep.csv": (header, lines)}, f"swept {args.param} over {len(values)} value(s)"


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
    """Raises usage errors to main, which exits 1, instead of exiting 2.

    An argument such as -1,5 or -.5 is a value, not an option, as Python
    3.13 reads it: 3.11 takes only -1 or -1.5 for a negative number.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dotlink",
        description="error-budget simulator for optically linked quantum-dot spins")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted config override")
        p.add_argument("--seed", type=int, help="global seed override")
        p.add_argument("--out", help="output directory")
        if name in ("link", "readout", "repeater"):
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

    try:
        results, summary = RUNNERS[args.subcommand](cfg, args)
        manifest = {
            "tool_version": __version__,
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "subcommand": args.subcommand,
            "started_utc": started,
            "finished_utc": datetime.now(timezone.utc).isoformat(),
            "results": list(results),
            # run inputs outside the config that shape the results
            **{k: getattr(args, k) for k in ("trials", "param", "values") if hasattr(args, k)},
            # what the process has loaded; under python -m this module is __main__
            "modules": sorted({__spec__.name, *(m for m in sys.modules if m in ("numpy", "scipy")
                                                or m.startswith("dotlink."))}),
        }
        _write_results(cfg.out_dir, {**results, "run_manifest.json": manifest})
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
