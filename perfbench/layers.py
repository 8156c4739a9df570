"""The traced run: per-layer metrics of every layer of src/greenstock.

For each workload it runs one pass untraced and one pass with
``tracing.Tracer`` installed, requires the two passes' outputs to be equal,
and reads each layer's metrics from the traced pass of the workload that
exercises that layer. The import layer comes from ``python -X importtime``
and ``cli.startup_s`` from cold calls, both in child processes. Every
traced run reports every metric in ``PER_LAYER``, whichever workload it
was started for; that workload's two passes give ``trace.overhead_ratio``.
"""

from __future__ import annotations

import statistics
import subprocess
import tracemalloc
from dataclasses import dataclass

import tracing
import workloads
from workloads import CHECKED_SCENARIOS, CLI_CALLS, MECHANISMS, WORKLOADS

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_cal", "cal", "lower"),
    ("op_p50_cal", "cal", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("greenstock.import_s", "s", "lower"),
    ("greenstock.import.simulate_s", "s", "lower"),
    ("greenstock.import.allocation_s", "s", "lower"),
    ("greenstock.import.scipy_stats_s", "s", "lower"),
    ("greenstock.import.scipy_special_s", "s", "lower"),
    ("greenstock.import.numpy_s", "s", "lower"),
    ("greenstock.import.modules", "count", "lower"),
    ("cli.startup_s", "s", "lower"),
    *((f"cli.main_ms.{key}", "ms", "lower") for key, *_ in CLI_CALLS),
    *((f"cli.check_ms.{key}", "ms", "lower") for key in CHECKED_SCENARIOS),
    ("cli.render_ms", "ms", "lower"),
    ("core.calls", "count", "lower"),
    ("core.ns_per_call", "ns", "lower"),
    ("game.nash_equilibrium.us", "us", "lower"),
    ("game.centralized_optimum.us", "us", "lower"),
    ("game.equilibrium_report.us", "us", "lower"),
    ("game.best_response_dynamics.ms", "ms", "lower"),
    ("game.brd_iterations.mean", "count", "lower"),
    ("game.brd_iterations.max", "count", "lower"),
    ("game.rps_best_response.calls", "count", "lower"),
    ("game.rps_best_response.us", "us", "lower"),
    ("game.power_split.us", "us", "lower"),
    ("game.self_share", "ratio", "lower"),
    ("allocation.audit_ms.adaptive-n8", "ms", "lower"),
    ("allocation.audit_ms.pareto-n8", "ms", "lower"),
    ("allocation.audit_ms.proportional-n8", "ms", "lower"),
    ("allocation.audit_ms.adaptive-n32", "ms", "lower"),
    ("allocation.audit_ms.pareto-n32", "ms", "lower"),
    ("allocation.mechanism_us.adaptive", "us", "lower"),
    ("allocation.mechanism_us.pareto", "us", "lower"),
    ("allocation.mechanism_us.proportional", "us", "lower"),
    ("allocation.mechanism_calls", "count", "lower"),
    ("allocation.post_allocation_cost.calls", "count", "lower"),
    ("allocation.breakeven_rate.calls", "count", "lower"),
    ("allocation.breakeven_rate.useful_ratio", "ratio", "higher"),
    ("allocation.social_cost.calls", "count", "lower"),
    ("allocation.bruteforce_ms.n12", "ms", "lower"),
    ("simulate.ns_per_event", "ns", "lower"),
    ("simulate.bytes_per_event", "B", "lower"),
    ("simulate.us_per_call", "us", "lower"),
    ("simulate.replicate_ms", "ms", "lower"),
    ("simulate.sample_ns.exponential", "ns", "lower"),
    ("simulate.sample_ns.hyperexp2", "ns", "lower"),
    ("simulate.sample_ns.truncnorm", "ns", "lower"),
    ("simulate.sample_ns.truncnorm-deep", "ns", "lower"),
    ("simulate.truncnorm.accept_ratio", "ratio", "higher"),
    ("simulate.truncnorm-deep.accept_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Counts that repeat exactly for a fixed seed.
FIXED_COUNTS = (
    "greenstock.import.modules",
    "core.calls",
    "game.brd_iterations.mean",
    "game.brd_iterations.max",
    "game.rps_best_response.calls",
    "allocation.mechanism_calls",
    "allocation.post_allocation_cost.calls",
    "allocation.breakeven_rate.calls",
    "allocation.breakeven_rate.useful_ratio",
    "allocation.social_cost.calls",
    "simulate.truncnorm.accept_ratio",
    "simulate.truncnorm-deep.accept_ratio",
)

IMPORTTIME_RUNS = 3


@dataclass
class Pass:
    seconds: list
    outputs: list
    problems: list          # one entry per failed operation
    snaps: list             # one tracing.Snapshot per operation (traced pass only)
    peaks: list             # tracemalloc peak bytes per operation (sim-long traced only)

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    def by_key(self, ops) -> dict:
        return {op.key: snap for op, snap in zip(ops, self.snaps)}


def run_pass(ops, tracer=None, memory=False) -> Pass:
    """One pass; a traced pass skips the checks, which would call traced
    functions, and is compared with the checked untraced pass instead."""
    result = Pass([], [], [], [], [])
    for op in ops:
        if memory:
            tracemalloc.reset_peak()
        seconds, out, problems = workloads.execute(op, check=tracer is None)
        if memory:
            result.peaks.append(tracemalloc.get_traced_memory()[1])
        if tracer is not None:
            result.snaps.append(tracer.take())
        result.seconds.append(seconds)
        result.outputs.append(out)
        if problems:
            result.problems.append("; ".join(problems))
    return result


def traced_workload(package, name: str, seed: int):
    """(ops, untraced pass, traced pass); a traced output that differs from
    its untraced one is a failure of the traced pass."""
    ops = workloads.build(name, seed)
    plain = run_pass(ops)
    tracer = tracing.Tracer()
    memory = name == "sim-long"
    restore = tracer.install(package)
    try:
        if memory:
            tracemalloc.start()
        try:
            traced = run_pass(ops, tracer, memory)
        finally:
            if memory:
                tracemalloc.stop()
    finally:
        restore()
    for op, a, b in zip(ops, plain.outputs, traced.outputs):
        if workloads.comparable(a) != workloads.comparable(b):
            traced.problems.append(f"{op.key}: traced output differs from untraced")
    return ops, plain, traced


def import_metrics(python: str, env: dict) -> dict:
    """Median of each import metric over IMPORTTIME_RUNS cold interpreters."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        done = subprocess.run([python, "-X", "importtime", "-c", "import greenstock"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        runs.append(tracing.parse_importtime(done.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def cli_metrics(ops, plain: Pass, traced: Pass, cold_seconds: dict) -> dict:
    snaps = traced.by_key(ops)
    inproc = {op.key: s for op, s in zip(ops, plain.seconds)}
    out = {"cli.startup_s": statistics.median(
        cold_seconds[key] - inproc[key] for key in cold_seconds)}
    for key, *_ in CLI_CALLS:
        out[f"cli.main_ms.{key}"] = snaps[key].total_ns("cli.main") / 1e6
    for key in CHECKED_SCENARIOS:
        out[f"cli.check_ms.{key}"] = snaps[key].total_ns(
            f"cli.check_{key.replace('-', '_')}") / 1e6
    out["cli.render_ms"] = tracing.Snapshot.total(traced.snaps).mean_ns("cli.render_csv") / 1e6
    return out


def game_metrics(ops, plain: Pass, traced: Pass) -> dict:
    total = tracing.Snapshot.total(traced.snaps)
    core_calls, core_ns, _ = total.layer("core")
    _, _, game_self_ns = total.layer("game")
    iterations = [out[2] for out in plain.outputs if out is not None]
    return {
        "core.calls": core_calls,
        "core.ns_per_call": core_ns / core_calls,
        "game.nash_equilibrium.us": total.mean_ns("game.nash_equilibrium") / 1e3,
        "game.centralized_optimum.us": total.mean_ns("game.centralized_optimum") / 1e3,
        "game.equilibrium_report.us": total.mean_ns("game.equilibrium_report") / 1e3,
        "game.best_response_dynamics.ms": total.mean_ns("game.best_response_dynamics") / 1e6,
        "game.brd_iterations.mean": statistics.fmean(iterations),
        "game.brd_iterations.max": max(iterations),
        "game.rps_best_response.calls": total.calls("game.rps_best_response"),
        "game.rps_best_response.us": total.mean_ns("game.rps_best_response") / 1e3,
        "game.power_split.us": total.mean_ns("game.power_split") / 1e3,
        "game.self_share": game_self_ns / (traced.wall * 1e9),
    }


def allocation_metrics(ops, plain: Pass, traced: Pass) -> dict:
    snaps = traced.by_key(ops)
    total = tracing.Snapshot.total(traced.snaps)
    reference = snaps["adaptive-n8"]            # one n=8 adaptive audit
    breakeven = "allocation.breakeven_rate"
    out = {f"allocation.audit_ms.{key}": snaps[key].total_ns("allocation.truthfulness_audit") / 1e6
           for key in ("adaptive-n8", "pareto-n8", "proportional-n8",
                       "adaptive-n32", "pareto-n32")}
    for mech, fn in MECHANISMS.items():
        out[f"allocation.mechanism_us.{mech}"] = total.mean_ns(f"allocation.{fn}") / 1e3
    out.update({
        "allocation.mechanism_calls": reference.calls("allocation.adaptive_uniform_allocation"),
        "allocation.post_allocation_cost.calls": reference.calls("allocation.post_allocation_cost"),
        "allocation.breakeven_rate.calls": reference.calls(breakeven),
        "allocation.breakeven_rate.useful_ratio":
            reference.distinct[breakeven] / reference.calls(breakeven),
        "allocation.social_cost.calls": snaps["bruteforce-n12"].calls("allocation.social_cost"),
        "allocation.bruteforce_ms.n12":
            snaps["bruteforce-n12"].total_ns("allocation.social_optimum_bruteforce") / 1e6,
    })
    return out


def sim_metrics(long_ops, long_traced: Pass, short_traced: Pass) -> dict:
    long_total = tracing.Snapshot.total(long_traced.snaps)
    short_total = tracing.Snapshot.total(short_traced.snaps)
    events = sum(op.events for op in long_ops)
    return {
        "simulate.ns_per_event": long_total.total_ns("simulate.simulate") / events,
        "simulate.bytes_per_event": statistics.median(
            peak / op.events for op, peak in zip(long_ops, long_traced.peaks)),
        "simulate.us_per_call": short_total.mean_ns("simulate.simulate") / 1e3,
        "simulate.replicate_ms": short_total.mean_ns("simulate.replicate") / 1e6,
    }


def sampler_metrics(*traced_passes: Pass) -> dict:
    """Per-draw sampler time and acceptance, over every draw of the passes."""
    draws = tracing.Snapshot.total(s for p in traced_passes for s in p.snaps)
    out = {}
    for label in ("exponential", "hyperexp2", "truncnorm", "truncnorm-deep"):
        requested, _, ns = draws.draw(label)
        out[f"simulate.sample_ns.{label}"] = ns / requested
    for label in ("truncnorm", "truncnorm-deep"):
        requested, drawn, _ = draws.draw(label)
        out[f"simulate.{label}.accept_ratio"] = requested / drawn
    return out


def measure(package, home: str, seed: int, python: str, env: dict):
    """Every per-layer metric, plus (attempted, failures) over all the
    operations the traced run made."""
    metrics = import_metrics(python, env)
    runs = {name: traced_workload(package, name, seed) for name in WORKLOADS}
    cold_ops = workloads.cli_ops(seed, python, env)
    cold = [workloads.execute(op) for op in cold_ops]
    failures = [p for _, plain, traced in runs.values() for p in plain.problems + traced.problems]
    failures += ["; ".join(problems) for _, _, problems in cold if problems]
    attempted = sum(2 * len(ops) for ops, _, _ in runs.values()) + len(cold_ops)

    metrics.update(cli_metrics(*runs["cli-cold"],
                               {op.key: s for op, (s, _, _) in zip(cold_ops, cold)}))
    metrics.update(game_metrics(*runs["game-sweep"]))
    metrics.update(allocation_metrics(*runs["audit"]))
    long_ops, _, long_traced = runs["sim-long"]
    short_traced = runs["sim-short"][2]
    metrics.update(sim_metrics(long_ops, long_traced, short_traced))
    metrics.update(sampler_metrics(long_traced, short_traced))
    _, plain, traced = runs[home]
    metrics["trace.overhead_ratio"] = traced.wall / plain.wall - 1.0

    missing = [name for name, _, _ in PER_LAYER if name not in metrics]
    extra = set(metrics) - {name for name, _, _ in PER_LAYER}
    if missing or extra:
        raise RuntimeError(f"per-layer metrics missing {missing}, undeclared {sorted(extra)}")
    return {name: metrics[name] for name, _, _ in PER_LAYER}, attempted, failures
