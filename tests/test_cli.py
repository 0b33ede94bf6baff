"""End-to-end CLI runs: exit codes, output files, reproducibility."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotlink import PulsedDrive, cli, gatesim, phonon, qcore, simulate_conditional_gate
from dotlink.cli import main
from dotlink.config import ExperimentConfig
from dotlink.gatesim import excited_population
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
    # the report echoes e_dd_mev as the string "Infinity", so it stays strict JSON
    rep = read_json(tmp_path, "gate_report.json")
    assert rep["phi_cond_rad"] == blockade.phi_cond_rad
    assert rep["e_dd_mev"] == "Infinity"


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


def test_failed_phonon_run_writes_nothing(tmp_path, capsys, monkeypatch):
    def snapshot():
        """Names and hashes of every file, temporaries included."""
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}

    assert run(tmp_path, "phonon") == 0
    assert run(tmp_path, "gate", "--trajectories") == 0
    before = snapshot()
    assert not any(name.startswith(".tmp-") for name in before)
    # a pulse this strong puts every separation over the budget, after the
    # table is computed
    assert run(tmp_path, "phonon", "--set", "drive.omega0=1e150") == 2
    assert "budget 0.0014 unattainable" in capsys.readouterr().err
    assert snapshot() == before
    # bad input found by the runner, not by the config loader
    assert run(tmp_path, "sweep", "--param", "phonon.e_s_mev", "--values", "7.5,nan") == 1
    assert snapshot() == before
    # a step this wide fails the gate's propagation
    assert run(tmp_path, "gate", "--set", "drive.tau_ps=1e300") == 2
    assert "numerical failure: Magnus step width" in capsys.readouterr().err
    assert snapshot() == before
    # a failure while the trajectory rows stream: the report's temporary,
    # which differs from the file it would replace, is complete and the first
    # trajectory's rows are written when it raises.  The gate's exposures
    # make the first two calls, the rows of its two trajectories the next two
    calls = []

    def fails_fourth_call(traj):
        calls.append(traj)
        if len(calls) == 4:
            raise RuntimeError("populations unavailable")
        return excited_population(traj)

    monkeypatch.setattr(gatesim, "excited_population", fails_fourth_call)
    assert run(tmp_path, "gate", "--trajectories", "--set", "gate.e_dd_mev=4") == 2
    assert "numerical failure: populations unavailable" in capsys.readouterr().err
    assert len(calls) == 4 and calls[2] is calls[0] and calls[3] is calls[1]
    assert snapshot() == before


def test_directory_in_a_target_place_replaces_nothing(tmp_path, capsys):
    # the report would be renamed before the per-trial CSV fails on the
    # directory in its place; every target is checked before any rename
    def snapshot():
        return {p.name: p.is_dir() or hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.iterdir()}

    assert run(tmp_path, "repeater", "--trials", "200") == 0
    (tmp_path / "repeater_trials.csv").mkdir()
    before = snapshot()
    assert run(tmp_path, "repeater", "--trials", "300", "--per-trial") == 1
    assert capsys.readouterr().err.startswith("output error")
    assert snapshot() == before
    assert not any(name.startswith(".tmp-") for name in before)


def test_manifest_records_inputs_outside_the_config(tmp_path):
    # two trial counts share a config hash but not their results
    manifests = []
    for trials in ("1000", "2000"):
        assert run(tmp_path, "readout", "--trials", trials) == 0
        manifests.append(read_json(tmp_path, "run_manifest.json"))
    assert manifests[0]["config_hash"] == manifests[1]["config_hash"]
    assert [m["trials"] for m in manifests] == [1000, 2000]
    assert run(tmp_path, "link", "--trials", "100") == 0
    assert read_json(tmp_path, "run_manifest.json")["trials"] == 100
    assert run(tmp_path, "readout") == 0
    assert read_json(tmp_path, "run_manifest.json")["trials"] is None
    assert run(tmp_path, "sweep", "--param", "link.delta_e_uev", "--values", "0,0.1") == 0
    manifest = read_json(tmp_path, "run_manifest.json")
    assert (manifest["param"], manifest["values"]) == ("link.delta_e_uev", "0,0.1")


def test_manifest_records_loaded_modules(tmp_path):
    # as the console script runs it: this module is __main__, named by its spec
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    subprocess.run([sys.executable, "-m", "dotlink.cli", "tune", "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    assert read_json(tmp_path, "run_manifest.json")["modules"] == [
        "dotlink.cli", "dotlink.config", "dotlink.dotmodel", "dotlink.units"]
    assert run(tmp_path, "gate") == 0
    assert {"dotlink.gatesim", "numpy"} <= set(read_json(tmp_path, "run_manifest.json")["modules"])


def test_result_file_modes_follow_umask(tmp_path):
    # 0o022 gives 0o644 from open(); a private temporary's 0o600 would differ
    old = os.umask(0o022)
    try:
        assert run(tmp_path, "repeater", "--trials", "200", "--per-trial") == 0
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode for p in tmp_path.iterdir()}
    assert set(modes) == {"repeater_report.json", "repeater_trials.csv",
                          "run_manifest.json", "plain.txt"}
    assert set(modes.values()) == {modes["plain.txt"]}


def test_per_trial_csv_is_streamed(tmp_path, fresh_peak_mb):
    # the 1e5-row CSV, ~1.7 MB on disk, must not be held in memory: at most
    # one chunk of formatted rows is, so the peak stays that of the chain
    def peak(*flags):
        argv = ["repeater", "--trials", "100000", "--out", str(tmp_path), *flags]
        return fresh_peak_mb("import contextlib, io\n"
                             "from dotlink.cli import main\n"
                             "with contextlib.redirect_stdout(io.StringIO()):\n"
                             f"    assert main({argv!r}) == 0\n")

    assert peak("--per-trial") - peak() <= 5.0


def test_phonon_run_evaluates_j_once_per_detuning(tmp_path, monkeypatch):
    sizes = []

    def counted(model, delta_mev):
        sizes.append(np.size(delta_mev))
        return spectral_density(model, delta_mev)

    monkeypatch.setattr(phonon, "spectral_density", counted)
    monkeypatch.setattr(phonon, "min_separation", lambda *args: 7.37)
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


def test_repeater_run(tmp_path, monkeypatch):
    assert run(tmp_path, "repeater", "--trials", "400", "--per-trial",
               "--set", "chain.n_links=8", seed=3) == 0
    rep = read_json(tmp_path, "repeater_report.json")
    assert rep["n_links"] == 8
    assert rep["n_trials"] == 400
    rows = read_rows(tmp_path, "repeater_trials.csv")
    assert len(rows) == 1 + 400
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(400)]
    times = [float(r[1]) for r in rows[1:]]
    assert min(times) >= rep["period_ms"]
    # rows formatted in chunks, the last one short, read as one formatting
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    assert run(tmp_path / "chunked", "repeater", "--trials", "400", "--per-trial",
               "--set", "chain.n_links=8", seed=3) == 0
    assert read_rows(tmp_path / "chunked", "repeater_trials.csv") == rows


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


def test_sweep_values_may_start_negative(tmp_path, capsys):
    # a list led by a negative number is a value, not an unknown option
    assert run(tmp_path, "sweep", "--param", "gate.e_dd_mev", "--values", "-1,5") == 0
    rows = read_rows(tmp_path, "sweep.csv")
    assert [r[0] for r in rows[1:]] == ["-1", "5"]
    capsys.readouterr()
    for values in ([], ["--seed", "3"]):
        assert run(tmp_path, "sweep", "--param", "gate.e_dd_mev", "--values", *values) == 1
        assert "expected one argument" in capsys.readouterr().err


def test_sweep_bad_arguments(tmp_path, capsys):
    assert run(tmp_path, "sweep", "--param", "dot.e_t_mev",
               "--values", "1,2") == 1
    assert "validation error" in capsys.readouterr().err
    assert run(tmp_path, "sweep", "--param", "phonon.e_s_mev",
               "--values", "a,b") == 1


def test_reruns_byte_identical(tmp_path):
    # every result file of every subcommand, JSON and CSV alike
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    runs = [["gate", "--trajectories"], ["phonon"], ["link", "--trials", "20000"],
            ["tune"], ["sweep", "--param", "phonon.e_s_mev", "--values", "5,7.5"],
            ["readout", "--trials", "20000"],
            ["repeater", "--trials", "200", "--per-trial", "--set", "chain.n_links=8"]]
    manifests = {}
    for out in (out_a, out_b):
        for argv in runs:
            assert main(argv + ["--seed", "77", "--out", str(out)]) == 0
            manifests[out, argv[0]] = read_json(out, "run_manifest.json")
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    assert len(names) == 11 + 1   # and the manifest
    for name in names:
        if name != "run_manifest.json":
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    # the manifest alone carries timestamps
    for argv in runs:
        ma, mb = manifests[out_a, argv[0]], manifests[out_b, argv[0]]
        assert ma["config_hash"] == mb["config_hash"]
        assert ma["results"] == mb["results"]
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
    # a step this wide overflows the square in the Magnus commutator term
    (["gate", "--set", "drive.tau_ps=1e300"], 2, "numerical failure: Magnus step width"),
    # plans of ~1e301 slots, refused before any slot is built
    (["tune", "--set", "phonon.e_s_mev=1e-300"], 1, "validation error: addressing plan exceeds"),
    (["tune", "--set", "phonon.e_w_mev=1e300"], 1, "validation error: addressing plan exceeds"),
    # dot sizes that overflowed the phonon envelope exponents with a warning
    (["phonon", "--set", "dot.diameter_nm=1e308"], 1, "configuration error: dot: thickness_nm"),
    (["phonon", "--set", "dot.d_eh_nm=1e308"], 1, "configuration error: dot: thickness_nm"),
    (["phonon", "--set", "dot.thickness_nm=1e-300", "--set", "phonon.e_s_mev=1e300"], 1,
     "configuration error: dot: thickness_nm"),
    # link times whose sums overflow: a non-finite number is never written as success
    (["link", "--set", "link.l0_km=1e308", "--trials", "2000"], 2, "numerical failure"),
    (["repeater", "--set", "link.l0_km=1e308", "--trials", "2000"], 2, "numerical failure"),
    # a support of +-inf, refused before linspace fills the grid with NaN
    (["gate", "--set", "drive.tau_ps=1e308"], 2, "numerical failure: Magnus step width"),
    (["sweep", "--param", "gate.e_dd_mev", "--values", "1,5", "--set", "drive.tau_ps=1e308"],
     2, "numerical failure: Magnus step width"),
]


@pytest.mark.parametrize("argv,code,prefix", BAD_INPUTS)
def test_bad_input_exit_codes(tmp_path, capsys, argv, code, prefix):
    # the extreme drives run past the Magnus step cap, in about a second
    assert main(argv + ["--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


# every subcommand at small Monte Carlo sizes, each sweep over two values
CONTRACT_RUNS = [
    ["gate"], ["phonon"], ["tune"],
    ["link", "--trials", "200"], ["readout", "--trials", "200"], ["repeater", "--trials", "200"],
    ["sweep", "--param", "phonon.e_s_mev", "--values", "2,8"],
    ["sweep", "--param", "gate.e_dd_mev", "--values", "1,5"],
    ["sweep", "--param", "link.delta_e_uev", "--values", "0,0.5"],
]


def _numeric_keys():
    """section.key for every int or float field a section's --set can change.

    Read from the section dataclasses, so a new key is fuzzed without an edit.
    A field without a default (material's) is set only with its whole section.
    """
    keys = []
    for section in dataclasses.fields(ExperimentConfig):
        cls = typing.get_type_hints(ExperimentConfig)[section.name]
        if not dataclasses.is_dataclass(cls):
            continue
        hints = typing.get_type_hints(cls)
        keys += [f"{section.name}.{f.name}" for f in dataclasses.fields(cls)
                 if f.init and f.default is not dataclasses.MISSING
                 and {int, float} & {hints[f.name], *typing.get_args(hints[f.name])}]
    return keys


FUZZ_VALUES = ["0", "-1", "1e-300", "1e-8", "1e6", "1e20", "5e307", "1e308", "-1e308"]


class _RunHung(Exception):
    """Raised by the alarm: main maps no exception of this type to an exit code."""


def _hung(signum, frame):
    raise _RunHung("a run took over 20 s")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=st.sampled_from(CONTRACT_RUNS),
       overrides=st.lists(st.tuples(st.sampled_from(_numeric_keys()),
                                    st.sampled_from(FUZZ_VALUES)), min_size=1, max_size=2))
def test_run_contract(argv, overrides):
    # any input ends in exit 0, 1 or 2 with strict JSON results: no traceback,
    # no warning (the suite raises them) and no hang.  A sixteenth of the
    # Magnus step cap keeps a gate that runs to it at ~50 ms.
    sets = [arg for key, value in overrides for arg in ("--set", f"{key}={value}")]
    previous = signal.signal(signal.SIGALRM, _hung)
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcore, "MAX_MAGNUS_STEPS", qcore.MAX_MAGNUS_STEPS // 16)
        signal.alarm(20)
        try:
            code = main(argv + sets + ["--out", out])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1, 2)
        for name in os.listdir(out):
            if name.endswith(".json"):
                read_json(out, name)


def test_phonon_at_dot_size_bounds(tmp_path, capsys):
    # at the bounds every envelope exponent stays finite: the runs end
    # without a warning, which the suite raises as an error
    bounds = ["--set", "dot.thickness_nm=1e-3", "--set", "phonon.e_s_mev=1e300"]
    assert run(tmp_path, "phonon", *bounds, "--set", "dot.diameter_nm=1e6",
               "--set", "dot.d_eh_nm=-1e6") == 0
    assert run(tmp_path, "phonon", *bounds) == 2
    assert "budget 0.0014 unattainable" in capsys.readouterr().err


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


def test_decay_far_above_drive_settles(tmp_path):
    # the no-jump loss, ~1.3e-5, moves by 1.2e-9 from 51,200 to 102,400
    # steps; at 4th order the 102,400-step value is within a fifteenth of
    # that, under the gate's tol of 1e-9, so it settles inside the step cap.
    # With decay far above the drive the trion follows adiabatically, and the
    # loss is 1 - exp(-(gamma / 4) int omega^2 dt / (delta^2 + gamma^2 / 4))
    assert run(tmp_path, "gate", "--set", "drive.delta=1e5", "--set", "dot.t_rad_ps=1e-6") == 0
    rep = read_json(tmp_path, "gate_report.json")
    gamma, delta = rep["gamma_per_ps"], rep["drive"]["delta"]
    area = PulsedDrive(**rep["drive"]).omega_sq_integral()
    eliminated = -math.expm1(-gamma / 4 * area / (delta ** 2 + gamma ** 2 / 4))
    assert abs(rep["eps_spont_lindblad"] - 1.3256038e-5) <= 1e-9
    assert abs(rep["eps_spont_lindblad"] - eliminated) <= 1e-5 * eliminated


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


@pytest.mark.parametrize("module", ["dotlink.cli", "dotlink.gatesim"])
def test_light_imports_stay_light(module):
    # the CLI's import and a gate op's import load no hashlib (the config
    # hash imports it when called), no csv and no scipy
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in ('hashlib', 'csv', 'scipy') if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["[]"]


# LIGHT is what `import dotlink.cli` loads; each run adds the modules it uses
LIGHT = {"cli", "config", "dotmodel", "units"}
CLI = "from dotlink.cli import main\nassert main({!r} + ['--out', {!r}]) == {}\n"
MODULES_LOADED = [
    # (id, code or CLI argv and exit code, dotlink modules, numpy loaded)
    ("package", "import dotlink", set(), False),
    ("cli", "import dotlink.cli", LIGHT, False),
    ("usage-error", (["gate", "--bogus"], 1), LIGHT, False),
    ("config-error", (["gate", "--set", "drive.bogus=1"], 1), LIGHT, False),
    ("tune", (["tune"], 0), LIGHT, False),
    ("gate", (["gate", "--trajectories"], 0), LIGHT | {"gatesim", "qcore"}, True),
    ("phonon", (["phonon"], 0), LIGHT | {"phonon"}, True),
    ("link", (["link", "--trials", "1000"], 0), LIGHT | {"photonlink"}, True),
    ("readout", (["readout", "--trials", "1000"], 0), LIGHT | {"readout"}, True),
    ("repeater", (["repeater", "--trials", "200", "--per-trial"], 0),
     LIGHT | {"repeater", "photonlink"}, True),
    ("sweep-gate", (["sweep", "--param", "gate.e_dd_mev", "--values", "5"], 0),
     LIGHT | {"gatesim", "qcore"}, True),
    ("sweep-phonon", (["sweep", "--param", "phonon.e_s_mev", "--values", "5,7.5"], 0),
     LIGHT | {"phonon"}, True),
    ("sweep-link", (["sweep", "--param", "link.delta_e_uev", "--values", "0.1"], 0),
     LIGHT | {"photonlink"}, True),
    ("calibrate",
     "import math, dotlink\ndotlink.calibrate_phase(dotlink.PulsedDrive(), math.pi)\n",
     {"config", "dotmodel", "units", "gatesim", "qcore"}, True),
]


@pytest.mark.parametrize("run_,modules,numpy", [pytest.param(*row[1:], id=row[0])
                                                for row in MODULES_LOADED])
def test_runs_load_only_what_they_use(tmp_path, fresh_modules, run_, modules, numpy):
    # numpy is most of a light run's startup; scipy takes 0.3 to 1 s to
    # import, and only the public RK45 integrators need it, on first use, so
    # no row loads it
    code = run_ if isinstance(run_, str) else CLI.format(run_[0], str(tmp_path), run_[1])
    expected = {f"dotlink.{m}" for m in modules} | ({"numpy"} if numpy else set())
    assert fresh_modules(code) == expected
