"""Seeded op inputs for the three workloads.

An op is one fresh process.  Inputs come from `random.Random(seed)` only and
are drawn in rounds; a run ends on a round boundary, so every run holds the
same mix of op kinds.  Every input the reference checks need is passed
explicitly, so the checks never rely on the library's defaults.  The
generator never redraws or drops an input: a failing one stays in the run and
is listed in the result.

Ranges sit around the paper's operating point (delta = 0.75 rad/ps,
tau = 11 ps, target phase pi, GaAs/ZnSe dots of 16 nm x 4 nm).  Inputs known
to fail at the seed commit lie outside them and are listed in README.md.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("gate-design", "phonon-budget", "network-mix")

# entry point each workload's ops import; setup_s times importing it
ENTRY_MODULE = {"gate-design": "dotlink", "phonon-budget": "dotlink.cli",
                "network-mix": "dotlink.cli"}

PHONON_GRID = {"phonon.delta_min_mev": 0.5, "phonon.delta_max_mev": 15.0,
               "phonon.delta_step_mev": 0.25}


def _cli(sub: str, params: dict, *flags: str) -> dict:
    argv = [sub, *flags]
    for key, value in params.items():
        if key not in ("seed", "trials"):
            argv += ["--set", f"{key}={_json(value)}"]
    if "seed" in params:
        argv += ["--seed", str(params["seed"])]
    if "trials" in params:
        argv += ["--trials", str(params["trials"])]
    return {"kind": "cli", "sub": sub, "flags": list(flags), "params": params,
            "argv": argv}


def _json(value) -> str:
    return f'"{value}"' if isinstance(value, str) else repr(value)


def _gate_design(rng: random.Random) -> list[dict]:
    params = {"delta": round(rng.uniform(0.73, 0.77), 4),
              "tau_ps": round(rng.uniform(11.0, 11.5), 4),
              "target_rad": round(math.pi * rng.uniform(0.95, 1.0), 6)}
    return [{"kind": "calibrate", "sub": "calibrate", "params": params}]


def _phonon_budget(rng: random.Random) -> list[dict]:
    ops = []
    for material in ("GaAs", "ZnSe"):
        params = {"material": material,
                  "dot.diameter_nm": round(rng.uniform(15.0, 17.0), 3),
                  "dot.thickness_nm": round(rng.uniform(3.75, 4.25), 3),
                  "dot.d_eh_nm": 5.0,
                  "drive.omega0": 1.0,
                  "drive.tau_ps": round(rng.uniform(10.5, 11.5), 3),
                  "phonon.e_s_mev": round(rng.uniform(6.0, 9.0), 3),
                  "phonon.error_budget": round(10 ** rng.uniform(-3.0, -2.7), 6),
                  **PHONON_GRID}
        ops.append(_cli("phonon", params))
    return ops


def _network_mix(rng: random.Random) -> list[dict]:
    def seed():
        return rng.randrange(2 ** 31)

    link = {"link.eta_override": round(rng.uniform(0.2, 0.3), 4),
            "link.l0_km": round(rng.uniform(15.0, 25.0), 3),
            "link.c_fiber_km_ms": 200.0}
    drive = {"drive.omega0": 1.0, "drive.tau_ps": 11.0, "drive.delta": 0.75}
    dot = {"material": "GaAs", "dot.diameter_nm": 16.0, "dot.thickness_nm": 4.0,
           "dot.d_eh_nm": 5.0}
    return [
        _cli("tune", {"dot.g_x": 2.0, "dot.b_field_t": round(rng.uniform(0.5, 2.0), 3),
                      "phonon.e_w_mev": 15.0,
                      "phonon.e_s_mev": round(rng.uniform(5.0, 10.0), 3)}),
        _cli("link", {**link, "seed": seed(), "trials": 1_000_000}),
        _cli("readout", {"readout.p_forbidden": round(rng.uniform(0.8e-3, 1.2e-3), 7),
                         "readout.eta_det": round(rng.uniform(0.09, 0.11), 4),
                         "readout.n_cycles": 200, "readout.threshold": 10,
                         "seed": seed(), "trials": 1_000_000}),
        _cli("repeater", {**link, "chain.n_links": 64, "seed": seed(), "trials": 100_000},
             "--per-trial"),
        _cli("gate", {**drive, "gate.e_dd_mev": round(rng.uniform(3.0, 8.0), 4)},
             "--trajectories"),
        _cli("sweep", {**dot, **drive},
             "--param", "phonon.e_s_mev", "--values",
             ",".join(f"{rng.uniform(5.0, 10.0):.3f}" for _ in range(3))),
        _cli("sweep", drive, "--param", "gate.e_dd_mev", "--values",
             ",".join(f"{rng.uniform(2.5, 8.0):.3f}" for _ in range(3))),
    ]


ROUNDS = {"gate-design": _gate_design, "phonon-budget": _phonon_budget,
          "network-mix": _network_mix}


def rounds(workload: str, seed: int):
    """Endless rounds of ops; the same seed gives the same sequence."""
    rng = random.Random(f"{workload}:{seed}")
    make = ROUNDS[workload]
    while True:
        yield make(rng)


def _smoke() -> dict:
    mix = _network_mix(random.Random("smoke"))
    for op in mix:
        if "trials" in op["params"]:
            op.update(_cli(op["sub"], {**op["params"], "trials": 20_000}, *op["flags"]))
    phonon = _phonon_budget(random.Random("smoke"))[0]
    phonon = _cli("phonon", {**phonon["params"], "phonon.delta_step_mev": 2.5})
    return {"gate-design": [{"kind": "calibrate", "sub": "calibrate",
                             "params": {"delta": 0.75, "tau_ps": 11.0, "target_rad": -0.15}}],
            "phonon-budget": [phonon],
            "network-mix": mix}


# one small round per workload: a few seconds each, every layer still reached
SMOKE = _smoke()
