"""One benchmark op in its own interpreter, optionally traced.

    python perfbench/child.py [--trace SPANS_JSON] calibrate OUT_DIR DELTA TAU_PS TARGET_RAD
    python perfbench/child.py [--trace SPANS_JSON] cli SUBCOMMAND ARGS...

`calibrate` is the library-call op of the gate-design workload: it calls
`dotlink.gatesim.calibrate_phase` once and writes `calibration.json`.  Its
exit codes follow the CLI contract (1 validation error, 2 numerical failure).
Untraced CLI ops do not come through here; they run `python -m dotlink.cli`.

With --trace, each layer function in TRACED and every public function of
dotlink.dotmodel is wrapped under each name it is looked up by (modules use
`from .x import y`, so `dotlink.cli.simulate_conditional_gate` is patched next
to `dotlink.gatesim.simulate_conditional_gate`).  Other functions are not
wrapped, so their time counts as self time of the layer that calls them.
Spans stay in memory and are written to SPANS_JSON when the op ends,
whatever its outcome.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("qcore", "gatesim", "phonon", "photonlink", "readout", "repeater",
           "dotmodel", "config", "cli")

# the layer boundaries the per-layer metrics are named after
TRACED = ("qcore.evolve_schrodinger", "qcore.evolve_lindblad",
          "gatesim.simulate_conditional_gate", "gatesim.calibrate_phase",
          "phonon.spectral_density", "phonon.phonon_error", "phonon.min_separation",
          "readout.simulate_readout", "repeater.simulate_chain",
          "photonlink.sample_link_times", "cli.main", "config.load_config")


def _bound(fn, args, kwargs):
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _solve_counters(fn, args, kwargs, result):
    return {"steps": len(result.times) - 1, "norm_drift": float(result.norm_drift),
            "dim": int(_bound(fn, args, kwargs)["ham"].dim)}


def _drive_counters(fn, args, kwargs, result):
    d = _bound(fn, args, kwargs)["drive"]
    return {"drive": [float(d.omega0), float(d.tau_ps), float(d.delta)]}


def _chain_counters(fn, args, kwargs, result):
    b = _bound(fn, args, kwargs)
    return {"samples": int(b["n_trials"]) * int(b["cfg"].n_links)}


# work counters read from a wrapped call's arguments and result
COUNTERS = {
    "qcore.evolve_schrodinger": _solve_counters,
    "qcore.evolve_lindblad": _solve_counters,
    "gatesim.simulate_conditional_gate": _drive_counters,
    "gatesim.calibrate_phase": _drive_counters,
    "phonon.spectral_density":
        lambda fn, a, k, r: {"delta": float(_bound(fn, a, k)["delta_mev"])},
    "readout.simulate_readout":
        lambda fn, a, k, r: {"shots": int(_bound(fn, a, k)["cfg"].n_shots)},
    "repeater.simulate_chain": _chain_counters,
    "photonlink.sample_link_times":
        lambda fn, a, k, r: {"samples": int(_bound(fn, a, k)["n"])},
}


class Tracer:
    """Spans as [name, parent_index, start_s, end_s, counters], in call order."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.wrapped = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.stack[-1] if self.stack else -1,
                    time.perf_counter(), None, {}]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[3] = time.perf_counter()
            if counter is not None:
                try:
                    span[4] = counter(fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    span[4] = {"counter_error": True}
            return result

        return traced

    def install(self):
        """Wrap the traced functions wherever a dotlink module holds them."""
        import dotlink
        namespaces = [dotlink]
        for short in MODULES:
            try:
                namespaces.append(importlib.import_module(f"dotlink.{short}"))
            except ModuleNotFoundError:
                continue
        wrappers = {}
        for mod in namespaces[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (name in TRACED
                             or short == "dotmodel" and not attr.startswith("_"))):
                    wrappers[id(obj)] = self.wrap(name, obj)
                    self.wrapped.append(name)
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, attr, wrappers[id(obj)])

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"wrapped": sorted(self.wrapped), "spans": self.spans}, fh)


def calibrate(out_dir: str, delta: str, tau_ps: str, target_rad: str) -> int:
    from dotlink import gatesim
    try:
        drive = gatesim.PulsedDrive(omega0=1.0, tau_ps=float(tau_ps), delta=float(delta))
        e_dd = gatesim.calibrate_phase(drive, float(target_rad))
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    with open(f"{out_dir}/calibration.json", "w") as fh:
        json.dump({"e_dd_mev": e_dd}, fh)
    return 0


def run(argv: list[str]) -> int:
    if argv[0] == "calibrate":
        return calibrate(*argv[1:])
    if argv[0] == "cli":
        from dotlink import cli
        return cli.main(argv[1:])
    raise SystemExit(f"unknown op kind {argv[0]!r}")


def main(argv: list[str]) -> int:
    if argv[0] != "--trace":
        return run(argv)
    spans_path, argv = argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return run(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
