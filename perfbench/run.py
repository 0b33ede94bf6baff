"""dotlink benchmark: every op a fresh process, closed loop, one client.

    python3 perfbench/run.py --workload gate-design --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1   # everything
    python3 perfbench/run.py --smoke                      # one tiny round each

Run from anywhere; paths resolve against the checkout that holds this file.
An op is `python -m dotlink.cli SUB ...` (or `perfbench/child.py calibrate`
for gate-design) with PYTHONPATH=src, timed from spawn to exit, import
included; CPU time and peak RSS come from `os.wait4`.  One op is in flight at
a time.  The loop starts rounds of ops until --seconds have passed, so a run
ends on a round boundary.  Per-op times are averaged over each round (one
full mix of the workload's op kinds) and their median is taken over rounds,
so a mix of fast and slow kinds does not make the median jump between them.
Children run with one BLAS thread unless the caller sets the thread
variables.  Outputs are checked against the references in
references.py after the loop, outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every op twice,
untraced and then traced (child.py --trace), and reports the per-layer
metrics from the traced copies (layers.py).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The full
record, with every op's inputs, timings, result-file sha256 and failures,
goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True   # keep the benchmark's own directory clean
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import ENTRY_MODULE, SMOKE, WORKLOADS, rounds  # noqa: E402

SETUP_REPEATS = 5
OP_TIMEOUT_S = 45.0
OVERRUN_S = 30.0          # no op starts later than this past --seconds
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

VARIANTS = (("untraced",), ("untraced", "traced"))   # indexed by --trace

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_tail": "s",
                    "ops_per_s": "1/s", "cpu_s_per_op": "s", "peak_rss_mb": "MB",
                    "failed_frac": "1"}


def spawn(cmd: list[str], env: dict, log_path: str, timeout: float) -> dict:
    """Run one child to exit: its wall time, CPU time, peak RSS and exit status."""
    lock = threading.Lock()
    state = {"reaped": False, "timed_out": False}
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)

        def kill():
            with lock:
                if not state["reaped"]:
                    state["timed_out"] = True
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
        with lock:
            state["reaped"] = True
        wall = time.perf_counter() - t0
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,   # Linux reports KiB
            "rc": proc.returncode, "timed_out": state["timed_out"]}


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_ENV:
        # one op at a time on a small machine: a BLAS thread pool only spins
        # on the other core (about 0.2 s of CPU per op) and adds noise
        env.setdefault(var, "1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def command(op: dict, out_dir: str, spans: str | None = None) -> list[str]:
    child = [sys.executable, os.path.join(HERE, "child.py")]
    if spans:
        child += ["--trace", spans]
    if op["kind"] == "calibrate":
        p = op["params"]
        return child + ["calibrate", out_dir, repr(p["delta"]), repr(p["tau_ps"]),
                        repr(p["target_rad"])]
    cli = op["argv"] + ["--out", out_dir]
    return child + ["cli"] + cli if spans else [sys.executable, "-m", "dotlink.cli"] + cli


def machine_record(env: dict) -> dict:
    """A fixed dotlink-free timing and the settings that move every timing."""
    import numpy as np
    import scipy

    def reference_work():
        # interpreter-bound small-array work, the shape of an ODE right-hand side
        h = np.diag(np.arange(4.0)).astype(complex)
        y = np.ones(4, dtype=complex)
        for _ in range(20_000):
            y = -1j * (h @ y) * 1e-3 + y
        return sum(i * i for i in range(200_000)) + abs(y[0])

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return {"machine_ref_s": statistics.median(times),
            "loadavg": list(os.getloadavg()),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_env": {k: env.get(k) for k in BLAS_ENV}}


def file_hashes(out_dir: str) -> dict:
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "run_manifest.json":
            continue   # holds timestamps
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def tail_percentile(walls: list[float]) -> dict | None:
    """Highest ladder percentile with at least ten ops beyond it."""
    n = len(walls)
    for pct in TAIL_LADDER:
        if math.floor(n * (1.0 - pct / 100.0)) >= 10:
            value = sorted(walls)[min(n - 1, math.ceil(n * pct / 100.0) - 1)]
            return {"percentile": pct, "value": value, "ops": n}
    return None


def run_ops(op_rounds, seconds: float, trace: bool, work: str,
            env: dict) -> tuple[list[dict], float]:
    """The timed closed loop.  Returns one record per op and the loop wall time."""
    records = []
    t0 = time.perf_counter()
    for round_index, ops in enumerate(op_rounds):
        for op in ops:
            if time.perf_counter() - t0 > seconds + OVERRUN_S:
                break
            rec = {"index": len(records), "round": round_index, "op": op}
            # alternate which copy runs first, so warm-up favours neither
            for variant in VARIANTS[trace][::1 if len(records) % 2 == 0 else -1]:
                out = os.path.join(work, f"op{len(records):04d}-{variant}")
                os.makedirs(out)
                spans = out + ".spans.json" if variant == "traced" else None
                rec[variant] = spawn(command(op, out, spans), env, out + ".log",
                                     OP_TIMEOUT_S)
                rec[variant].update(out=out, spans=spans)
            records.append(rec)
        if time.perf_counter() - t0 >= seconds:
            break
    return records, time.perf_counter() - t0


def check_ops(records: list[dict], refs, trace: bool) -> None:
    for rec in records:
        for r in (rec[v] for v in VARIANTS[trace]):
            if r["timed_out"]:
                r["error"] = f"timed out after {OP_TIMEOUT_S:.0f} s"
            elif r["rc"] != 0:
                with open(r["out"] + ".log", errors="replace") as fh:
                    r["error"] = f"exit {r['rc']}: " + fh.read().strip()[-300:]
            else:
                r["mismatch"] = refs.check(rec["op"], r["out"])
                r["sha256"] = file_hashes(r["out"])
                r["result_bytes"] = sum(os.path.getsize(os.path.join(r["out"], n))
                                        for n in os.listdir(r["out"]))


def failed(r: dict) -> bool:
    return bool(r.get("error") or r.get("mismatch"))


def end_to_end(records: list[dict], loop_s: float, setup: list[float]) -> dict:
    runs = [rec["untraced"] for rec in records]
    untraced_s = loop_s - sum(rec["traced"]["wall_s"] for rec in records if "traced" in rec)
    walls = [math.inf if failed(r) else r["wall_s"] for r in runs]
    by_round = {}
    for i, rec in enumerate(records):
        by_round.setdefault(rec["round"], []).append(i)

    def per_round(values):   # median over rounds of the mean op in a round
        return statistics.median(statistics.fmean(values[i] for i in ops)
                                 for ops in by_round.values())

    n_failed = sum(failed(r) for r in runs)
    return {"setup_s": statistics.median(setup),
            "op_s_p50": min(per_round(walls), OP_TIMEOUT_S),
            "op_s_tail": tail_percentile(walls),
            "ops_per_s": (len(runs) - n_failed) / untraced_s,
            "cpu_s_per_op": per_round([r["cpu_s"] for r in runs]),
            "peak_rss_mb": max(r["rss_mb"] for r in runs),
            "failed_frac": n_failed / len(runs)}


def inputs(op: dict):
    return op.get("argv") or op["params"]


def per_layer(records: list[dict], env: dict, entry: str) -> tuple[dict, list]:
    from layers import aggregate, import_times
    traced = [rec["traced"] for rec in records]
    metrics, absent = aggregate(
        [r["spans"] for r in traced if os.path.exists(r["spans"])],
        [r["result_bytes"] for r, rec in zip(traced, records)
         if "result_bytes" in r and rec["op"]["kind"] == "cli"])
    metrics.update(import_times(sys.executable, env, entry, 3))
    metrics["trace.overhead_s"] = statistics.median(
        rec["traced"]["wall_s"] - rec["untraced"]["wall_s"] for rec in records)
    return metrics, absent


def run_workload(workload: str, op_rounds, seconds: float, trace: bool,
                 setup_repeats: int, refs, label: str) -> dict:
    env = child_env()
    entry = ENTRY_MODULE[workload]
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        machine = machine_record(env)
        setup = []
        for i in range(setup_repeats):
            run = spawn([sys.executable, "-c", f"import {entry}"], env,
                        os.path.join(work, f"setup{i}.log"), OP_TIMEOUT_S)
            if run["rc"] != 0:
                raise SystemExit(f"{workload}: importing {entry} failed (exit {run['rc']})")
            setup.append(run["wall_s"])

        records, loop_s = run_ops(op_rounds, seconds, trace, work, env)
        check_ops(records, refs, trace)
        refs.save()

        runs = [(rec, v, rec[v]) for rec in records for v in VARIANTS[trace]]
        digest = hashlib.sha256()
        for rec in records:
            digest.update(json.dumps(rec["untraced"].get("sha256"), sort_keys=True).encode())
        summary = {
            "workload": workload, "label": label, "seconds": seconds,
            "trace": int(trace), "loop_s": loop_s, "machine": machine,
            "machine_loadavg_end": list(os.getloadavg()),
            "end_to_end": end_to_end(records, loop_s, setup),
            "failures": [{"index": rec["index"], "variant": v, "inputs": inputs(rec["op"]),
                          "exit_code": r["rc"], "error": r.get("error") or r.get("mismatch")}
                         for rec, v, r in runs if failed(r)],
            "wrong_outputs": sum(bool(r.get("mismatch")) for _, _, r in runs),
            "results_digest": digest.hexdigest()}
        if trace:
            summary["per_layer"], summary["absent"] = per_layer(records, env, entry)
            summary["bytes_identical"] = all(
                rec["traced"].get("sha256") == rec["untraced"].get("sha256")
                for rec in records)
        summary["ops"] = [{"index": rec["index"], "round": rec["round"],
                           "inputs": inputs(rec["op"]),
                           **{v: {k: x for k, x in rec[v].items() if k not in ("out", "spans")}
                              for v in VARIANTS[trace]}} for rec in records]
        return summary
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(summary: dict) -> None:
    w = summary["workload"]
    print(f"== {w} ({summary['label']}): {len(summary['ops'])} ops in "
          f"{summary['loop_s']:.1f} s, trace={summary['trace']}")
    for name, value in summary["end_to_end"].items():
        unit = END_TO_END_UNITS[name]
        if name == "op_s_tail":
            text = ("n/a (fewer than 20 ops)" if value is None else
                    f"{value['value']:.4f} {unit} (p{value['percentile']:g} of {value['ops']} ops)")
        else:
            text = f"{value:.6g} {unit}"
        print(f"{w:14s} {name:34s} {text}")
    for name, value in sorted(summary.get("per_layer", {}).items()):
        print(f"{w:14s} {name:34s} {value:.6g}")
    if summary.get("absent"):
        print(f"{w:14s} absent: {', '.join(summary['absent'])}")
    m = summary["machine"]
    print(f"{w:14s} machine_ref_s={m['machine_ref_s']:.4f} loadavg={m['loadavg']} "
          f"nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']} blas_env={m['blas_env']}")
    for f in summary["failures"]:
        print(f"{w:14s} FAILED op {f['index']} ({f['variant']}) exit {f['exit_code']}: "
              f"{f['inputs']}: {f['error']}")


def declared_metrics() -> dict:
    """Metric names and units of BENCHMARK.json, by list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def result_line(summary: dict, declared: dict, kinds: tuple[str, ...]) -> dict:
    line = {"correct": summary["wrong_outputs"] == 0,
            "attempted": len(summary["ops"]) * len(VARIANTS[summary["trace"]]),
            "failed": len(summary["failures"]), "metrics": {}}
    for kind in kinds:
        values, units = summary[kind], declared[kind]
        missing = [k for k in units if not isinstance(values.get(k), (int, float))]
        if missing:
            raise SystemExit(f"{summary['workload']}: metrics not measured: {missing}")
        line["metrics"].update({k: {"value": values[k], "unit": u} for k, u in units.items()})
    return line


def save(summary: dict, name: str) -> None:
    results = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, name), "w") as fh:
        json.dump(summary, fh, indent=1, default=str)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny traced round per workload; checks every metric")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its op (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    for needed in ("src/dotlink/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    from references import References
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    refs = References(ROOT, os.path.join(ROOT, ".bench_work", "refcache.json"))
    declared = declared_metrics()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        if args.smoke:
            summary = run_workload(workload, iter([SMOKE[workload]]), 0.0, True, 1,
                                   refs, "smoke")
            line = result_line(summary, declared, ("end_to_end", "per_layer"))
        else:
            summary = run_workload(workload, rounds(workload, args.seed), args.seconds,
                                   bool(args.trace), SETUP_REPEATS, refs,
                                   f"seed {args.seed}")
            line = result_line(summary, declared,
                               ("per_layer",) if args.trace else ("end_to_end",))
        save(summary, f"{workload}-{summary['label'].replace(' ', '')}-trace{summary['trace']}.json")
        report(summary)
        if args.smoke and (line["failed"] or not line["correct"]):
            status = 1
        print(json.dumps(line))
    return status


if __name__ == "__main__":
    sys.exit(main())
