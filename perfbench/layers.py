"""Per-layer metrics from the spans that traced ops wrote.

Counts and times are per traced op (totals over the run divided by the op
count), so runs of different lengths compare.  A span's self time is its
duration minus the durations of its direct child spans.  A traced function
a later version no longer defines is reported as absent, with zero calls.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
from collections import defaultdict

from child import TRACED

WORK_COUNTERS = {"qcore.evolve_schrodinger": "steps", "qcore.evolve_lindblad": "steps",
                 "readout.simulate_readout": "shots", "repeater.simulate_chain": "samples",
                 "photonlink.sample_link_times": "samples"}

NO_CALLS_METRIC = ("cli.main",)


def import_times(python: str, env: dict, module: str, repeats: int) -> dict:
    """Median total and scipy.optimize cumulative import time, from -X importtime."""
    totals, optimize = [], []
    for _ in range(repeats):
        err = subprocess.run([python, "-X", "importtime", "-c", f"import {module}"],
                             env=env, capture_output=True, text=True, check=True).stderr
        total = opt = 0
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            cumulative, depth, name = int(m[1]), len(m[2]), m[3]
            if depth == 1 and name.split(".")[0] == "dotlink":
                total += cumulative
            if name == "scipy.optimize" and not opt:
                opt = cumulative
        totals.append(total * 1e-6)
        optimize.append(opt * 1e-6)
    return {"import.total_s": statistics.median(totals),
            "import.scipy_optimize_s": statistics.median(optimize)}


def aggregate(span_files: list[str], result_bytes: list[int]) -> tuple[dict, list]:
    """Per-layer metrics over the traced ops, and the traced names found absent."""
    calls, self_s, work = defaultdict(int), defaultdict(float), defaultdict(float)
    wrapped = set()
    drift = 0.0
    probes = calibrations = single_legs = j_calls = j_deltas = 0
    drives = set()
    for path in span_files:
        with open(path) as fh:
            trace = json.load(fh)
        wrapped.update(trace["wrapped"])
        spans = trace["spans"]
        child_s = [0.0] * len(spans)
        for name, parent, start, end, counters in spans:
            if parent >= 0 and end is not None:
                child_s[parent] += end - start
        deltas = set()
        for i, (name, parent, start, end, counters) in enumerate(spans):
            if end is None:
                continue
            calls[name] += 1
            self_s[name] += end - start - child_s[i]
            work[name] += counters.get(WORK_COUNTERS.get(name), 0)
            drift = max(drift, counters.get("norm_drift", 0.0))
            if name == "qcore.evolve_schrodinger" and counters.get("dim") == 2:
                single_legs += 1
            if "drive" in counters:
                drives.add((path, tuple(counters["drive"])))
            if name == "phonon.spectral_density":
                j_calls += 1
                deltas.add(counters.get("delta"))
            if name == "gatesim.simulate_conditional_gate" and _under(
                    spans, parent, "gatesim.calibrate_phase"):
                probes += 1
            calibrations += name == "gatesim.calibrate_phase"
        j_deltas += len(deltas)

    n = max(len(span_files), 1)
    metrics = {}
    for name in TRACED:
        if name not in NO_CALLS_METRIC:
            metrics[f"{name}.calls"] = calls[name] / n
        metrics[f"{name}.self_s"] = self_s[name] / n
        if name in WORK_COUNTERS:
            metrics[f"{name}.{WORK_COUNTERS[name]}"] = work[name] / n
    metrics["qcore.norm_drift_max"] = drift
    metrics["gatesim.probes_per_calibration"] = probes / calibrations if calibrations else 0.0
    metrics["gatesim.single_leg_solves_per_drive"] = single_legs / len(drives) if drives else 0.0
    metrics["phonon.j_calls_per_delta"] = j_calls / j_deltas if j_deltas else 0.0
    metrics["cli.result_bytes"] = statistics.mean(result_bytes) if result_bytes else 0.0
    metrics["dotmodel.self_s"] = sum(v for k, v in self_s.items()
                                     if k.startswith("dotmodel.")) / n
    absent = [name for name in TRACED if span_files and name not in wrapped]
    return metrics, absent


def _under(spans, index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][1]
    return False
