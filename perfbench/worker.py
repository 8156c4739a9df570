"""One workload in a fresh, single-threaded process; run.py starts it.

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up is ``import greenstock`` and input generation; the worker then
prints ``READY``, which is where run.py stops the set-up clock. With
``--setup-only`` it exits there. Otherwise it runs passes of the
workload's fixed work until ``--seconds`` have gone by (always at least
one whole pass), or with ``--trace 1`` the traced run of ``layers``, and
prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import greenstock
    if Path(greenstock.__file__).resolve().parent != ROOT / "src" / "greenstock":
        raise SystemExit(f"greenstock imported from {greenstock.__file__}, not from src/")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    cold = args.workload == "cli-cold"
    ops = workloads.build(args.workload, args.seed,
                          python=sys.executable if cold else None, env=dict(os.environ))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        import layers
        metrics, attempted, failures = layers.measure(
            greenstock, args.workload, args.seed, sys.executable, dict(os.environ))
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        result = {"metrics": {name: {"value": value, "unit": units[name]}
                              for name, value in metrics.items()},
                  "attempted": attempted, "failures": failures}
    else:
        probe = numpy_probe if args.workload == "sim-long" else interpreter_probe
        result = run_passes(ops, args.seconds, probe)
        who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


# A fixed piece of work timed between operations. The machine's speed drifts
# by a quarter over tens of seconds when other tenants load it; dividing a
# pass's time by the probe's time during that pass cancels most of the
# drift. Interpreted work is divided by an interpreter probe (a pure-Python
# integer loop); sim-long, whose time goes to numpy sorts and scans over
# arrays of millions of doubles, by a numpy probe (a stable argsort and a
# cumsum over 2**17 doubles). Each probe takes about 15 ms.
PROBE_EVERY_S = 0.25


def interpreter_probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(250_000):
        acc += i * i
    return time.perf_counter() - t0


def numpy_probe() -> float:
    import numpy as np
    data = np.random.default_rng(0).random(1 << 17)
    t0 = time.perf_counter()
    np.cumsum(data[np.argsort(data, kind="stable")])
    return time.perf_counter() - t0


def run_passes(ops, seconds: float, probe) -> dict:
    """Whole passes over `ops` until `seconds` have gone by.

    A pass's wall time is the sum of its operations' times, so checks and
    probes are not counted. Each pass also gets the median time of the
    probes run at its start, between its operations every PROBE_EVERY_S,
    and at its end.
    """
    import workloads
    op_seconds, pass_seconds, pass_probe, failures = [], [], [], []   # one failure per failed op
    deadline = time.perf_counter() + seconds
    probes = [probe()]
    last_probe = time.perf_counter()
    while True:
        wall = 0.0
        for op in ops:
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe())
                last_probe = time.perf_counter()
            elapsed, _, problems = workloads.execute(op)
            op_seconds.append(elapsed)
            wall += elapsed
            if problems:
                failures.append("; ".join(problems))
        probes.append(probe())
        last_probe = time.perf_counter()
        pass_seconds.append(wall)
        pass_probe.append(statistics.median(probes))
        probes = probes[-1:]
        if time.perf_counter() >= deadline:
            break
    n = len(ops)
    op_cal = [t / pass_probe[k // n] for k, t in enumerate(op_seconds)]
    return {"op_seconds": op_seconds, "pass_seconds": pass_seconds, "pass_probe_s": pass_probe,
            "wall_cal": statistics.median(w / p for w, p in zip(pass_seconds, pass_probe)),
            "op_p50_cal": statistics.median(op_cal),
            "attempted": len(op_seconds), "failures": failures}


if __name__ == "__main__":
    sys.exit(main())
