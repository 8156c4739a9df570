"""The five workloads: inputs made from the seed, one pass of fixed work as
a list of operations, and each operation's check against the repository's
pinned bounds.

Operations look greenstock's functions up on their modules when they run,
so the traced run sees the wrappers ``tracing.Tracer.install`` puts there.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import io
import math
import signal
import subprocess
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("cli-cold", "game-sweep", "audit", "sim-long", "sim-short")


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], list]     # returns the bounds the output misses
    deadline_s: float
    events: int = 0                     # simulated events, for per-event metrics


class DeadlineExceeded(Exception):
    """An operation ran past its deadline; it counts as failed."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def execute(op: Op, check: bool = True):
    """Run `op` under its deadline, then its check unless `check` is false:
    (seconds, output, problems)."""
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
        try:
            out = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:            # any raise is a failed operation
        return time.perf_counter() - t0, None, [f"{op.key}: {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - t0
    if not check:
        return seconds, out, []
    try:
        problems = [f"{op.key}: {p}" for p in op.check(out)]
    except Exception as exc:
        problems = [f"{op.key}: check raised {type(exc).__name__}: {exc}"]
    return seconds, out, problems


def comparable(x):
    """A form of an operation's output that compares equal only when every
    number in it is bitwise equal."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(
            comparable(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (list, tuple)):
        return tuple(comparable(v) for v in x)
    if isinstance(x, float):
        return ("float", x.hex())
    return x


# --------------------------------------------------------------------------
# cli-cold: one operation is one `python -m greenstock.cli` call.

# (key, argv, pinned CSV column header, number of data rows)
CLI_CALLS = (
    ("central", ["central", "--check"], "b,cs,phi,nu_bar,s_bar,cost", 1),
    ("nash", ["nash", "--check"],
     "b,cs,phi,alpha,s_star,nu_star,cost_bs,cost_rps,brd_iterations,brd_gap", 1),
    ("penalty-contract", ["penalty-contract", "--check"],
     "b,cs,phi,alpha,penalty,eps_lo,eps_hi,epsilon,cost_central,cost_bs_ne,"
     "cost_rps_ne,cost_bs_coord,cost_rps_coord", 1),
    ("power-split", ["power-split", "--check"],
     "b,cs,alpha,mu0,total_lambda,p1,p2,lambda_star,cost", 3),
    ("allocate", ["allocate", "--check"],
     "bs,lambda_bar,b,mu0,p,p1,p2,order,grant_proportional,grant_pareto,"
     "grant_uniform,n_hat", 8),
    ("sweep-nash", ["sweep", "nash", "--sweep", "alpha:0.1:0.9:0.1"],
     "sweep_alpha,b,cs,phi,alpha,s_star,nu_star,cost_bs,cost_rps,"
     "brd_iterations,brd_gap", 9),
)
CHECKED_SCENARIOS = tuple(key for key, argv, _, _ in CLI_CALLS if "--check" in argv)


def _check_cli(argv, header, n_rows, result) -> list:
    code, out, err = result
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {err.strip()[-200:]}")
    lines = out.splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    verdicts = [ln for ln in (lines + err.splitlines())
                if ln.startswith(("PASS:", "FAIL:"))]
    table = [ln for ln in body if not ln.startswith(("PASS:", "FAIL:"))]
    if not table or table[0] != header:
        problems.append(f"CSV header {table[:1]} != {header!r}")
    elif len(table) - 1 != n_rows:
        problems.append(f"{len(table) - 1} CSV rows, expected {n_rows}")
    if "--check" in argv:
        if not verdicts:
            problems.append("no --check lines")
        problems += [v for v in verdicts if not v.startswith("PASS:")]
    return problems


def _cold_call(python, env, argv, timeout):
    done = subprocess.run([python, "-m", "greenstock.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


def _inproc_call(argv):
    from greenstock import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_ops(seed: int, python: str | None = None, env: dict | None = None) -> list:
    """Cold subprocess calls when `python` is given, else in-process `cli.main`."""
    ops = []
    for key, argv, header, rows in CLI_CALLS:
        argv = argv + ["--seed", str(seed)]
        if python is None:
            run = functools.partial(_inproc_call, argv)
        else:
            run = functools.partial(_cold_call, python, env, argv, 60.0)
        ops.append(Op(key, run, functools.partial(_check_cli, argv, header, rows), 60.0))
    return ops


# --------------------------------------------------------------------------
# game-sweep: one operation is one random instance of the `nash --check` domain.

GAME_INSTANCES = 1000


def _solve_game(g):
    from greenstock import core, game
    ne = game.nash_equilibrium(g)
    fixed, trace = game.best_response_dynamics(
        g, core.StrategyPair(s=1.0, nu=0.5 * g.phi), tol=1e-9)
    report = game.equilibrium_report(g)
    split = game.power_split(g, 1.8, 2.0, 1.0, 7.5)
    return ne, fixed, len(trace) - 1, report, split


def _check_game(g, out) -> list:
    ne, fixed, _, report, _ = out
    gap = max(abs(fixed.s - ne.s), abs(fixed.nu - ne.nu))
    foc = abs(ne.nu * ne.s - math.log1p(g.alpha * g.b))
    ident = abs(report.cost_bs_ne - ne.s)
    problems = []
    if not gap <= 1e-6:
        problems.append(f"dynamics-vs-NE gap {gap:.3e} > 1e-6")
    if not foc <= 1e-9:
        problems.append(f"|nu*s* - ln(1+ab)| {foc:.3e} > 1e-9")
    if not ident <= 1e-9:
        problems.append(f"|C_o(NE) - s*| {ident:.3e} > 1e-9")
    return problems


def game_ops(seed: int) -> list:
    from greenstock import core, game
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(GAME_INSTANCES):
        g = game.GameInstance(core.NormalizedParams(
            b_n=rng.uniform(1, 20), cs_n=rng.uniform(1, 10),
            phi=rng.uniform(0.5, 3), alpha=rng.uniform(0.1, 0.9)))
        ops.append(Op(f"instance-{k}", functools.partial(_solve_game, g),
                      functools.partial(_check_game, g), 1.0))
    return ops


# --------------------------------------------------------------------------
# audit: one operation is one truthfulness audit or one planner call.

MECHANISMS = {
    "adaptive": "adaptive_uniform_allocation",
    "pareto": "pareto_priority_allocation",
    "proportional": "proportional_allocation",
}


def reference_market(n: int, mu0: float):
    """The CLI's reference market (lambda_bar = 0.5, 1.0, ..., b=2, p=2,
    p1=1, p2=10), extended to n stations."""
    from greenstock import allocation
    profiles = tuple(allocation.BsProfile(lambda_bar=0.5 * (i + 1), b=2.0, index=i)
                     for i in range(n))
    return allocation.Market(profiles=profiles, mu0=mu0, p=2.0, p1=1.0, p2=10.0)


def _audit(market, mechanism, grid):
    from greenstock import allocation
    return allocation.truthfulness_audit(market, getattr(allocation, mechanism), grid)


def _bruteforce(market):
    from greenstock import allocation
    return allocation.social_optimum_bruteforce(market)


def _check_audit(market, mech, report) -> list:
    problems = []
    if report.mechanism != MECHANISMS[mech]:
        problems.append(f"audit names mechanism {report.mechanism!r}")
    if len(report.improvements) != market.n:
        problems.append(f"{len(report.improvements)} per-BS results for n={market.n}")
    if mech == "adaptive" and not report.truthful_dominant:
        problems.append(f"adaptive rule not truthful-dominant: {report.max_improvement:.3e}")
    if mech == "pareto" and not report.max_improvement > 1e-9:
        problems.append(f"pareto admits no profitable inflation: {report.max_improvement:.3e}")
    if mech == "adaptive" and market.n == 8:
        problems += _check_reference_allocation(market)
    return problems


def _check_reference_allocation(market) -> list:
    from greenstock import allocation
    orders = allocation.truthful_orders(market)
    uniform = allocation.adaptive_uniform_allocation(market, orders)
    pareto = allocation.pareto_priority_allocation(market, orders)
    _, planner = allocation.social_optimum_bruteforce(market)
    cost_pareto = allocation.social_cost(market, pareto)
    problems = []
    if uniform.n_hat != 5:
        problems.append(f"n_hat {uniform.n_hat} != 5")
    if not abs(max(uniform.grants) - 2.9654) <= 1e-3:
        problems.append(f"uniform grant {max(uniform.grants):.5f} != 2.9654 +/- 1e-3")
    if not abs(planner - cost_pareto) <= 1e-6:
        problems.append(f"planner {planner:.6f} != pareto {cost_pareto:.6f} within 1e-6")
    return problems


def _check_planner(market, out) -> list:
    from greenstock import allocation
    _, planner = out
    orders = allocation.truthful_orders(market)
    problems = []
    for mech, fn in MECHANISMS.items():
        cost = allocation.social_cost(market, getattr(allocation, fn)(market, orders))
        if not planner <= cost:
            problems.append(f"planner {planner:.6f} above {mech} cost {cost:.6f}")
    return problems


def audit_ops(seed: int) -> list:
    from greenstock import allocation
    m8, m32, m12 = reference_market(8, 20.0), reference_market(32, 120.0), reference_market(12, 30.0)
    grid8 = allocation.DeviationGrid(n_points=200, n_scenarios=20, seed=seed)
    grid32 = allocation.DeviationGrid(n_points=50, n_scenarios=5, seed=seed)
    ops = []
    for market, grid, mechs in ((m8, grid8, ("adaptive", "pareto", "proportional")),
                                (m32, grid32, ("adaptive", "pareto"))):
        for mech in mechs:
            ops.append(Op(f"{mech}-n{market.n}",
                          functools.partial(_audit, market, MECHANISMS[mech], grid),
                          functools.partial(_check_audit, market, mech), 60.0))
    ops.append(Op("bruteforce-n12", functools.partial(_bruteforce, m12),
                  functools.partial(_check_planner, m12), 60.0))
    return ops


# --------------------------------------------------------------------------
# sim-long and sim-short: one operation is one `simulate` or `replicate` call.

MM1_RHOS = (0.39, 0.70, 0.80, 0.93)
LONG_HORIZON = 2_000_000
LONGEST_HORIZON = 8_000_000
SHORT_HORIZON = 2_000
SHORT_REPS = 500
H2 = (0.5, 2.3, 3.5)        # HyperExp2(prob, rate1, rate2), the CLI's H2 arrivals
H2_RHO = 0.80


def _sim():
    # `greenstock.simulate` is also the name of the package's simulate function.
    return importlib.import_module("greenstock.simulate")


def _simulate(config):
    return _sim().simulate(config)


def _replicate(config, n_reps):
    return _sim().replicate(config, n_reps)


def _post_warmup_events(horizon: int) -> int:
    return horizon - 1 - horizon // 10


def _check_mm1(rho, horizon, stats) -> list:
    target = rho / (1 - rho)
    rel = abs(stats.mean_outstanding - target) / target
    sup = _sim().empirical_pdf_compare(stats, rho)
    problems = []
    if stats.events != _post_warmup_events(horizon):
        problems.append(f"{stats.events} events, expected {_post_warmup_events(horizon)}")
    if not rel <= 0.05:
        problems.append(f"M/M/1 rho={rho} mean off by {rel:.4f} > 5%")
    if not sup < 0.01:
        problems.append(f"M/M/1 rho={rho} pmf sup-distance {sup:.4f} >= 0.01")
    return problems


def _check_kappa(cv, events, stats) -> list:
    h2 = _sim().HyperExp2(*H2)
    target = (h2.scv() + cv * cv) / 2.0 * H2_RHO / (1 - H2_RHO)
    rel = abs(stats.mean_outstanding - target) / target
    problems = []
    if stats.events != events:
        problems.append(f"{stats.events} events, expected {events}")
    if not rel <= 0.15:
        problems.append(f"H2/truncnorm cv={cv} mean off the kappa formula by {rel:.4f} > 15%")
    return problems


def _h2_config(cv, horizon, seed):
    simulate = _sim()
    h2 = simulate.HyperExp2(*H2)
    service = simulate.TruncatedNormal(mean=h2.mean_time() * H2_RHO, cv=cv)
    return simulate.SimConfig(arrival=h2, service=service, horizon=horizon, seed=seed)


def sim_long_ops(seed: int) -> list:
    """The `queue-validate --check` reference set plus one 8M-event run.

    The seeds are the ones that check pins (its default seed 0: M/M/1 run k
    uses seed k, the H2 run seed 11), not the benchmark's: at 2M events and
    rho=0.93 the pinned 5% bound is missed on about one seed in five, with
    the simulator correct, so only the pinned seeds carry the pinned bound.
    """
    simulate = _sim()
    ops = []
    runs = [(rho, LONG_HORIZON, k) for k, rho in enumerate(MM1_RHOS)]
    runs.append((MM1_RHOS[-1], LONGEST_HORIZON, len(MM1_RHOS) - 1))
    for rho, horizon, run_seed in runs:
        cfg = simulate.SimConfig(arrival=simulate.Exponential(rate=1.0),
                                 service=simulate.Exponential(rate=1.0 / rho),
                                 horizon=horizon, seed=run_seed)
        ops.append(Op(f"mm1-{rho}-{horizon // 1_000_000}M",
                      functools.partial(_simulate, cfg),
                      functools.partial(_check_mm1, rho, horizon), 60.0, horizon))
    ops.insert(len(MM1_RHOS), Op(
        "h2-truncnorm-2M", functools.partial(_simulate, _h2_config(0.5, LONG_HORIZON, 11)),
        functools.partial(_check_kappa, 0.5, _post_warmup_events(LONG_HORIZON)),
        60.0, LONG_HORIZON))
    return ops


def sim_short_ops(seed: int) -> list:
    """Two replicate calls at cv 0.5 and one on the deep-truncation path at
    cv 0.9, so the median operation is a cv 0.5 call; 500 replicates pool
    about 0.9M events, near the 2M events the 15% kappa bound is pinned at."""
    events = SHORT_REPS * _post_warmup_events(SHORT_HORIZON)
    ops = []
    for k, (key, cv) in enumerate((("truncnorm-a", 0.5), ("truncnorm-b", 0.5),
                                   ("truncnorm-deep", 0.9))):
        cfg = _h2_config(cv, SHORT_HORIZON, seed * 1_000_000 + k * SHORT_REPS)
        ops.append(Op(key, functools.partial(_replicate, cfg, SHORT_REPS),
                      functools.partial(_check_kappa, cv, events), 60.0,
                      SHORT_REPS * SHORT_HORIZON))
    return ops


def build(workload: str, seed: int, python: str | None = None, env: dict | None = None) -> list:
    """One pass of `workload`; cli-cold runs cold subprocesses when `python`
    is given and in-process `cli.main` otherwise."""
    if workload == "cli-cold":
        return cli_ops(seed, python, env)
    return {"game-sweep": game_ops, "audit": audit_ops,
            "sim-long": sim_long_ops, "sim-short": sim_short_ops}[workload](seed)
