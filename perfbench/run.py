"""Benchmark for greenstock: five workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; it works on the checkout that holds it, importing
greenstock from its ``src/``. Without ``--workload`` it runs every
workload, one after another. Each workload runs in a fresh process with
one thread for numpy's BLAS, after ``SETUP_RUNS`` further fresh
processes that only set up, for ``setup_s``.

With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics; with ``--trace 1`` the metrics are the per-layer ones of
``layers.PER_LAYER``. Human-readable lines and the run context (library
versions, cores, seed, ``src/`` line count) come before it. See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import interpreter_probe
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 3
# setup_s is in seconds of a machine on which the interpreter probe takes
# this long: each set-up time is scaled by it over the probe time measured
# just before and after that set-up, which cancels most of the machine's
# speed drift (see README.md).
REFERENCE_PROBE_S = 0.015
RUN_LIMIT_S = 170.0         # a run must end within 180 s


class BenchmarkError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    env.update({
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "SOURCE_DATE_EPOCH": "0",       # byte-identical CLI output between calls
    })
    return env


def start_worker(args: list, env: dict, deadline: float):
    """Start a worker and wait for READY: (process, seconds to ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY" or time.perf_counter() > deadline:
        finish(proc, deadline)
        raise BenchmarkError(f"worker {args} did not get ready: {line!r}")
    return proc, ready


def finish(proc, deadline: float) -> str:
    """Wait for `proc` until `deadline`; its remaining stdout. A worker
    that fails or overruns is killed and raises."""
    try:
        out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError("worker ran past the run's time limit") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{err.strip()}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    env = child_env()
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups, raw_setups = [], []
    if not trace:
        for _ in range(SETUP_RUNS):
            before = interpreter_probe()
            proc, ready = start_worker(common + ["--setup-only"], env, deadline)
            finish(proc, deadline)
            probe = (before + interpreter_probe()) / 2
            setups.append(ready * REFERENCE_PROBE_S / probe)
            raw_setups.append(ready)
    proc, _ = start_worker(common + ["--trace", str(trace)], env, deadline)
    report = json.loads(finish(proc, deadline).strip().splitlines()[-1])

    if trace:
        metrics = report["metrics"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_cal": {"value": report["wall_cal"], "unit": "cal"},
            "op_p50_cal": {"value": report["op_p50_cal"], "unit": "cal"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        raw = {"setup_raw_s": statistics.median(raw_setups),
               "wall_s": statistics.median(report["pass_seconds"]),
               "op_p50_ms": statistics.median(report["op_seconds"]) * 1e3,
               "probe_ms": statistics.median(report["pass_probe_s"]) * 1e3}
    failures = report["failures"]
    return {"correct": not failures, "attempted": report["attempted"],
            "failed": len(failures), "metrics": metrics, "failures": failures,
            "raw": {} if trace else raw}


def context(workload: str, seed: int, seconds: float, trace: int) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def describe(workload: str, result: dict, raw: dict) -> str:
    parts = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    units = {"setup_raw_s": "s", "wall_s": "s", "op_p50_ms": "ms", "probe_ms": "ms"}
    parts += [f"{name} {value:.6g} {units[name]}" for name, value in raw.items()]
    ratio = result["failed"] / result["attempted"]
    parts.append(f"fail_ratio {ratio:.6g} ratio ({result['failed']}/{result['attempted']} ops)")
    return f"{workload}: " + " | ".join(parts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "greenstock" / "__init__.py").is_file():
        print(f"error: no greenstock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Compile once, untimed, so no run pays for writing bytecode.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        deadline = time.perf_counter() + RUN_LIMIT_S
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("context " + json.dumps(context(name, args.seed, args.seconds, args.trace)))
        for failure in result.pop("failures")[:10]:
            print(f"FAILED {failure}")
        print(describe(name, result, result.pop("raw")))
        results[name] = result
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
