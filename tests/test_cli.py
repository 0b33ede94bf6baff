"""End-to-end CLI runs: exit codes, output files, reproducibility."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import dotlink
from dotlink import PulsedDrive, cli, phonon, simulate_conditional_gate
from dotlink.cli import main
from dotlink.phonon import spectral_density


def run(tmp_path, sub, *extra, seed=None):
    argv = [sub, "--out", str(tmp_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    argv += list(extra)
    return main(argv)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def read_json(tmp_path, name):
    """A result file, parsed strictly: NaN or Infinity in it fails the test."""
    with open(os.path.join(str(tmp_path), name)) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def read_rows(tmp_path, name):
    with open(os.path.join(str(tmp_path), name)) as fh:
        return list(csv.reader(fh))


def test_gate_run(tmp_path):
    assert run(tmp_path, "gate", "--trajectories") == 0
    rep = read_json(tmp_path, "gate_report.json")
    assert abs(rep["exposure_single_ps"] - 3.4) <= 0.34
    assert abs(rep["phi_cond_rad"] - 1.1722) <= 1e-3
    assert rep["adiabatic"] is True
    assert abs(rep["raman_gate_error"] - 1.0339e-3) <= 1e-6
    rows = read_rows(tmp_path, "gate_trajectories.csv")
    assert rows[0] == ["input", "time_ps", "excited_population"]
    assert {r[0] for r in rows[1:]} == {"single", "double"}
    manifest = read_json(tmp_path, "run_manifest.json")
    assert manifest["subcommand"] == "gate"
    assert len(manifest["config_hash"]) == 64
    assert "gate_report.json" in manifest["results"]
    # infinity is the perfect-blockade limit, accepted from the command line
    assert run(tmp_path, "gate", "--set", "gate.e_dd_mev=Infinity") == 0
    blockade = simulate_conditional_gate(PulsedDrive(), math.inf, lindblad_check=False)
    # the report echoes e_dd_mev = Infinity, so it is read leniently
    with open(tmp_path / "gate_report.json") as fh:
        assert json.load(fh)["phi_cond_rad"] == blockade.phi_cond_rad


def test_tune_run_and_degenerate_field(tmp_path):
    assert run(tmp_path, "tune") == 0
    rep = read_json(tmp_path, "tune_report.json")
    assert abs(rep["photon_energies"]["sigma_plus_mev"] - 1650.11577) <= 1e-4
    assert abs(rep["control"]["db_max_mt"] - 1.73) <= 0.01
    assert abs(rep["control"]["dt_max_mk"] - 1.54) <= 0.01
    assert rep["plan"]["n_qubits"] == 2
    assert rep["photon_energies"]["degenerate"] is False
    assert run(tmp_path, "tune", "--set", "dot.b_field_t=0") == 0
    rep0 = read_json(tmp_path, "tune_report.json")
    assert rep0["photon_energies"]["degenerate"] is True


def test_link_run(tmp_path):
    assert run(tmp_path, "link", "--trials", "50000", seed=1) == 0
    rep = read_json(tmp_path, "link_report.json")
    assert rep["p_success"] == 0.03125
    assert abs(rep["mean_time_ms"] - 3.2) <= 1e-9
    assert abs(rep["mc_mean_ms"] - 3.2) / 3.2 <= 0.03
    assert abs(rep["overlap_error"] - 0.0082409) <= 1e-6
    assert abs(rep["dephasing_error"] - 1.0 / 101.0) <= 1e-12


def test_readout_run_and_bad_config(tmp_path, capsys):
    assert run(tmp_path, "readout", "--trials", "20000", seed=2) == 0
    rep = read_json(tmp_path, "readout_report.json")
    assert rep["n_shots"] == 20000
    assert 0.05 <= rep["eps_bright"] <= 0.15
    rows = read_rows(tmp_path, "readout_histogram.csv")
    assert rows[0] == ["counts", "probability_bright"]
    assert len(rows) == 1 + 200 + 1
    # invalid shot count is a configuration error, not a crash
    assert run(tmp_path, "readout", "--set", "readout.n_shots=0") == 1
    assert "configuration error" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    assert run(tmp_path, "gate", "--set", "drive.bogus=1") == 1
    assert "configuration error" in capsys.readouterr().err
    # removed dot knobs are unknown keys now
    assert run(tmp_path, "gate", "--set", "dot.p_forbidden=0.001") == 1
    assert "configuration error" in capsys.readouterr().err
    # so are the solver settings, which are library constants
    for assignment in ("phonon.order=128", "gate.tol=1e-9"):
        assert run(tmp_path, "gate", "--set", assignment) == 1
        assert "unknown key" in capsys.readouterr().err
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"not_a_section": {}}))
    assert main(["gate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_config_file_applies(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"drive": {"tau_ps": 8.0}}))
    out = tmp_path / "out"
    assert main(["gate", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_json(out, "gate_report.json")
    assert rep["drive"]["tau_ps"] == 8.0
    assert rep["exposure_single_ps"] < 3.0


def test_phonon_run_and_unattainable_budget(tmp_path, capsys):
    assert run(tmp_path, "phonon") == 0
    rep = read_json(tmp_path, "phonon_report.json")
    assert abs(rep["error_at_e_s"] - 1.16e-3) <= 1e-5
    assert abs(rep["min_separation_mev"] - 7.37) <= 0.05
    rows = read_rows(tmp_path, "phonon_table.csv")
    assert rows[0] == ["delta_mev", "spectral_density_per_ps", "phonon_error"]
    assert len(rows) == 1 + 59
    # impossible budget surfaces as a numerical failure
    assert run(tmp_path, "phonon", "--set", "phonon.error_budget=1e-40") == 2
    assert "numerical failure" in capsys.readouterr().err


def test_failed_phonon_run_writes_nothing(tmp_path, capsys):
    assert run(tmp_path, "phonon") == 0
    before = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    # a pulse this strong puts every separation over the budget, after the
    # table is computed
    assert run(tmp_path, "phonon", "--set", "drive.omega0=1e150") == 2
    assert "budget 0.0014 unattainable" in capsys.readouterr().err
    after = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert after == before


def test_phonon_run_evaluates_j_once_per_detuning(tmp_path, monkeypatch):
    sizes = []

    def counted(model, delta_mev):
        sizes.append(np.size(delta_mev))
        return spectral_density(model, delta_mev)

    monkeypatch.setattr(cli, "spectral_density", counted)
    monkeypatch.setattr(phonon, "spectral_density", counted)
    monkeypatch.setattr(cli, "min_separation", lambda *args: 7.37)
    assert run(tmp_path, "phonon") == 0
    assert sizes == [59 + 1]   # the grid and e_s


def test_phonon_extreme_separations_give_zero(tmp_path):
    # at a huge e_s J is exactly 0; the run must neither warn nor climb the orders
    assert run(tmp_path, "phonon", "--set", "phonon.e_s_mev=1e300") == 0
    rep = read_json(tmp_path, "phonon_report.json")
    assert rep["j_at_e_s_per_ps"] == 0.0 and rep["error_at_e_s"] == 0.0
    assert run(tmp_path, "sweep", "--param", "phonon.e_s_mev", "--values", "7.5,1e300") == 0
    assert float(read_rows(tmp_path, "sweep.csv")[2][1]) == 0.0
    # at a tiny one J underflows; the error must not become 0 * inf = NaN
    assert run(tmp_path, "phonon", "--set", "phonon.e_s_mev=1e-300") == 0
    assert read_json(tmp_path, "phonon_report.json")["error_at_e_s"] == 0.0


def test_repeater_run(tmp_path):
    assert run(tmp_path, "repeater", "--trials", "400", "--per-trial",
               "--set", "chain.n_links=8", seed=3) == 0
    rep = read_json(tmp_path, "repeater_report.json")
    assert rep["n_links"] == 8
    assert rep["n_trials"] == 400
    rows = read_rows(tmp_path, "repeater_trials.csv")
    assert len(rows) == 1 + 400
    times = [float(r[1]) for r in rows[1:]]
    assert min(times) >= rep["period_ms"]


def test_sweep_monotone(tmp_path):
    assert run(tmp_path, "sweep", "--param", "phonon.e_s_mev",
               "--values", "5,7.5,10") == 0
    rows = read_rows(tmp_path, "sweep.csv")
    assert rows[0] == ["e_s_mev", "phonon_error"]
    errs = [float(r[1]) for r in rows[1:]]
    assert len(errs) == 3
    assert errs[0] > errs[1] > errs[2]


def test_sweep_conditional_phase(tmp_path):
    assert run(tmp_path, "sweep", "--param", "gate.e_dd_mev",
               "--values", "1.4446,5,Infinity,1e20") == 0
    rows = read_rows(tmp_path, "sweep.csv")
    assert rows[0] == ["e_dd_mev", "phi_cond_rad", "adiabatic"]
    assert len(rows) == 1 + 4
    for row, v in zip(rows[1:], (1.4446, 5.0, math.inf)):
        rep = simulate_conditional_gate(PulsedDrive(), v, lindblad_check=False)
        assert row[1:] == [f"{rep.phi_cond_rad:.9f}", str(int(rep.adiabatic))]
    # a huge finite shift is the blockade
    assert rows[4][1:] == rows[3][1:]


def test_sweep_bad_arguments(tmp_path, capsys):
    assert run(tmp_path, "sweep", "--param", "dot.e_t_mev",
               "--values", "1,2") == 1
    assert "validation error" in capsys.readouterr().err
    assert run(tmp_path, "sweep", "--param", "phonon.e_s_mev",
               "--values", "a,b") == 1


def test_reruns_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["readout", "--trials", "20000", "--seed", "77",
                     "--out", str(out)]) == 0
        assert main(["repeater", "--trials", "200", "--seed", "77",
                     "--set", "chain.n_links=8", "--out", str(out)]) == 0
    for name in ("readout_report.json", "readout_histogram.csv",
                 "repeater_report.json"):
        a = (out_a / name).read_bytes()
        b = (out_b / name).read_bytes()
        assert a == b, name
    # the manifest alone carries timestamps
    ma = read_json(out_a, "run_manifest.json")
    mb = read_json(out_b, "run_manifest.json")
    assert ma["config_hash"] == mb["config_hash"]
    assert ma["seed"] == mb["seed"] == 77


# every input ends in exit 1 (bad input) or 2 (numerical failure) with a
# one-line message; none raises out of main
BAD_INPUTS = [
    (["gate", "--set", 'gate.e_dd_mev="5"'], 1, "configuration error"),
    (["phonon", "--set", 'phonon.order="64"'], 1, "configuration error"),
    (["phonon", "--set", "phonon.order=1e5"], 1, "configuration error"),
    (["link", "--set", "link.l0_km=NaN"], 1, "configuration error"),
    (["gate", "--set", "raman.gamma_trion_per_s=NaN"], 1, "configuration error"),
    (["gate", "--set", "drive.delta=Infinity"], 1, "configuration error"),
    (["readout", "--set", "readout.n_shots=1e8"], 1, "configuration error"),
    (["repeater", "--set", "chain.n_trials=1e6"], 1, "configuration error"),
    (["link", "--trials", "0"], 1, "validation error"),
    (["readout", "--trials", "0"], 1, "validation error"),
    (["repeater", "--trials", "0"], 1, "validation error"),
    (["link", "--trials", "100000000"], 1, "validation error"),
    (["sweep", "--param", "phonon.e_s_mev", "--values", "7.5,nan"], 1, "validation error"),
    (["sweep", "--param", "link.delta_e_uev", "--values", "-0.1"], 1, "validation error"),
    (["sweep", "--param", "gate.e_dd_mev", "--values", "5", "--set", "drive.omega0=1e4"], 2,
     "numerical failure: solver work budget"),
    # a shift this far above the drive swamps the pair's step exponents, yet
    # lies under the bound where the pair runs as the perfect blockade
    (["gate", "--set", "gate.e_dd_mev=3e8"], 2, "numerical failure: solver work budget"),
    (["gate", "--set", "drive.omega0=1e4"], 2, "numerical failure: solver work budget"),
    (["gate", "--set", "drive.tau_ps=1e7"], 2, "numerical failure: solver work budget"),
    (["gate", "--set", "drive.delta=1.0", "--set", "gate.e_dd_mev=1.25"], 2,
     "numerical failure: component 0 too depleted"),
    (["gate", "--trials", "10"], 1, "usage error: unrecognized arguments: --trials"),
    (["phonon", "--trials", "10"], 1, "usage error: unrecognized arguments: --trials"),
    (["tune", "--trials", "10"], 1, "usage error: unrecognized arguments: --trials"),
    (["sweep", "--param", "phonon.e_s_mev", "--values", "7.5", "--trials", "10"], 1,
     "usage error: unrecognized arguments: --trials"),
    (["sweep"], 1, "usage error: the following arguments are required"),
    (["link", "--trials", "abc"], 1, "usage error: argument --trials"),
    (["gate", "--bogus"], 1, "usage error: unrecognized arguments: --bogus"),
    # every Monte Carlo reports a ddof=1 standard error, so one sample is refused
    (["link", "--trials", "1"], 1, "validation error"),
    (["readout", "--trials", "1"], 1, "validation error"),
    (["repeater", "--trials", "1"], 1, "validation error"),
    (["readout", "--set", "readout.n_shots=1"], 1, "configuration error"),
    (["repeater", "--set", "chain.n_trials=1"], 1, "configuration error"),
    # the Varshni slope vanishes at 0 K, which made dT_max infinite
    (["tune", "--set", "dot.t_op_k=0"], 1, "configuration error: dot: t_op_k"),
    # and the Zeeman slope at g_x = 0, which divided dB_max by zero
    (["tune", "--set", "dot.g_x=0"], 1, "configuration error: dot: g_x"),
    # omega0^2 overflows the pulse area the phonon error scales with
    (["phonon", "--set", "drive.omega0=1e200"], 1, "configuration error"),
    (["gate", "--set", "drive.omega0=1e200"], 1, "configuration error"),
    (["sweep", "--param", "phonon.e_s_mev", "--values", "7.5", "--set", "drive.omega0=1e200"],
     1, "configuration error"),
    # a trion lifetime this short is refused before the no-jump leg's decay
    # overflows its step exponentials
    (["gate", "--set", "dot.t_rad_ps=1e-300"], 1, "validation error: eps_spont = "),
    # a decay term far above the drive: the no-jump leg's step exponentials
    # no longer overflow into NaN, and its loss, ~1.3e-5, still moves by
    # 1.2e-9 from 51,200 to 102,400 steps, so it settles past the step cap
    (["gate", "--set", "drive.delta=1e5", "--set", "dot.t_rad_ps=1e-6"], 2,
     "numerical failure: solver work budget"),
    # a step this wide overflows the square in the Magnus commutator term
    (["gate", "--set", "drive.tau_ps=1e300"], 2, "numerical failure: Magnus step width"),
]


@pytest.mark.parametrize("argv,code,prefix", BAD_INPUTS)
def test_bad_input_exit_codes(tmp_path, capsys, argv, code, prefix):
    # the extreme drives run past the Magnus step cap, in about a second
    assert main(argv + ["--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("delta", ["1e3", "1e5"])
def test_far_detuned_gate_run(tmp_path, delta):
    # a gate runs on the Magnus propagator alone, spontaneous-emission check
    # included, so a far-detuned drive settles in about a second; the check
    # agrees with Gamma * exposure to its absolute tolerance, 1e-9, and at
    # 1e3 to a few per mille of it; at 1e5, where the loss of ~1e-12 is near
    # the rounding of 1 - |psi|^2, it is still no loss below zero
    start = time.perf_counter()
    assert run(tmp_path, "gate", "--set", f"drive.delta={delta}") == 0
    assert time.perf_counter() - start <= 10.0
    rep = read_json(tmp_path, "gate_report.json")
    assert rep["eps_spont_lindblad"] >= 0.0
    assert abs(rep["eps_spont_lindblad"] - rep["eps_spont"]) <= 1e-9
    if delta == "1e3":
        assert abs(rep["eps_spont_lindblad"] - rep["eps_spont"]) <= 0.15 * rep["eps_spont"]
    else:
        assert abs(rep["eps_spont_lindblad"] - rep["eps_spont"]) <= 1e-12


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dotlink gate")


def test_out_path_is_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["tune", "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith("output error")


def test_light_runs_load_no_scipy_solvers(tmp_path):
    # scipy takes 0.3 to 1 s to import, and only the public RK45 integrators
    # need it (scipy.integrate, imported on first use): a gate run, a
    # calibration, a phonon run and a phonon sweep load no scipy module at all
    code = ("import math, sys\n"
            "import dotlink, dotlink.cli\n"
            "dotlink.calibrate_phase(dotlink.PulsedDrive(), math.pi)\n"
            f"out = {str(tmp_path)!r}\n"
            "assert dotlink.cli.main(['gate', '--trajectories', '--out', out]) == 0\n"
            "assert dotlink.cli.main(['phonon', '--out', out]) == 0\n"
            "assert dotlink.cli.main(['sweep', '--param', 'phonon.e_s_mev',"
            " '--values', '5,7.5', '--out', out]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(dotlink.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"
