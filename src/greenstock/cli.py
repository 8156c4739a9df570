"""Named-scenario experiment runner with CSV output.

Scenarios reproduce the desk-scale study: `central` (joint optimum),
`nash` (equilibrium vs best-response dynamics), `penalty-contract`
(efficiency gap and cost-sharing range), `power-split` (renewable/grid
load split), `queue-validate` (simulator vs closed forms), `allocate`
and `audit` (multi-BS mechanisms), plus `sweep` over any analytic
scenario's scalar parameter.

Each scenario declares its parameters and their defaults once, in
`SCENARIOS`.  Configuration precedence: command-line --set overrides >
JSON config file > those defaults; an undeclared key, or a value that
does not convert to its default's type, exits 2.  `--check` verifies the
printed table against the pinned acceptance criteria, prints one PASS/FAIL
line each on stderr and exits 3 on failure; those criteria are the paper's
figures at the declared defaults, so it exits 2, before any work, when a
resolved parameter differs from its default.
"""

from __future__ import annotations

import argparse
import bisect
import math
import os
import random
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import __version__
from .core import NormalizedParams, StrategyPair
from .errors import GreenstockError, ParameterError, _whole
from .game import (
    GameInstance,
    auxiliary_f,
    best_response_dynamics,
    centralized_cost,
    centralized_optimum,
    coordinated_costs,
    cost_bs,
    cost_rps,
    equilibrium_report,
    nash_equilibrium,
    power_split,
)
from .simulate import Exponential, HyperExp2, SimConfig, TruncatedNormal, empirical_pdf_compare, simulate

if TYPE_CHECKING:   # numpy and the allocation layer load inside the functions that use them
    from .allocation import Market


class ResultTable(SimpleNamespace):
    """Rectangular numeric table plus provenance for the CSV header."""

    def __init__(self, columns: list[str], rows: list[list], provenance: dict | None = None):
        super().__init__(columns=columns, rows=rows,
                         provenance={} if provenance is None else provenance)


def _timestamp() -> str:
    # SOURCE_DATE_EPOCH keeps CSV output byte-identical across runs.
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        moment = time.gmtime(None if epoch is None else int(epoch))
    except (ValueError, OverflowError, OSError) as exc:
        raise ParameterError(f"SOURCE_DATE_EPOCH must be whole seconds in the platform's "
                             f"time range, got {epoch!r}") from exc
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", moment)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_csv(table: ResultTable) -> str:
    """UTF-8 CSV text: '#' provenance comments, then header, then data rows."""
    lines = [f"# {key}: {val}" for key, val in table.provenance.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        if len(row) != len(table.columns):
            raise ParameterError("ragged row in result table")
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# scenario implementations; `params` always holds every declared key


def _game(params) -> GameInstance:
    return GameInstance(NormalizedParams(
        b_n=params["b"], cs_n=params["cs"], phi=params["phi"], alpha=params["alpha"]))


def scenario_central(params: dict, seed: int) -> ResultTable:
    g = _game({**_GAME, **params})  # the joint optimum does not read alpha
    opt = centralized_optimum(g)
    return ResultTable(
        columns=["b", "cs", "phi", "nu_bar", "s_bar", "cost"],
        rows=[[g.b, g.cs, g.phi, opt.nu, opt.s, centralized_cost(g)]],
    )


def _dynamics(g: GameInstance, params: dict) -> tuple[StrategyPair, int, float]:
    """Closed-form NE, best-response iterations and their final gap to it."""
    ne = nash_equilibrium(g)
    # s = 1.0 is arbitrary: the first step is bs_best_response(g, start.nu).
    start = StrategyPair(s=1.0, nu=params["start_nu_frac"] * g.phi)
    fixed, trace = best_response_dynamics(g, start, tol=params["tol"])
    return ne, len(trace) - 1, max(abs(fixed.s - ne.s), abs(fixed.nu - ne.nu))


def scenario_nash(params: dict, seed: int) -> ResultTable:
    g = _game(params)
    ne, iterations, gap = _dynamics(g, params)
    return ResultTable(
        columns=["b", "cs", "phi", "alpha", "s_star", "nu_star",
                 "cost_bs", "cost_rps", "brd_iterations", "brd_gap"],
        rows=[[g.b, g.cs, g.phi, g.alpha, ne.s, ne.nu,
               cost_bs(g, ne), cost_rps(g, ne), iterations, gap]],
    )


def scenario_penalty_contract(params: dict, seed: int) -> ResultTable:
    g = _game(params)
    report = equilibrium_report(g)
    lo, hi = report.epsilon_range or (math.nan, math.nan)
    eps = 0.5 * (lo + hi) if math.isnan(params["epsilon"]) else params["epsilon"]
    bs_coord, rps_coord = coordinated_costs(g, eps, report.central)
    return ResultTable(
        columns=["b", "cs", "phi", "alpha", "penalty", "eps_lo", "eps_hi",
                 "epsilon", "cost_central", "cost_bs_ne", "cost_rps_ne",
                 "cost_bs_coord", "cost_rps_coord"],
        rows=[[g.b, g.cs, g.phi, g.alpha, report.penalty, lo, hi,
               eps, report.cost_central, report.cost_bs_ne, report.cost_rps_ne,
               bs_coord, rps_coord]],
    )


def _split_game(params: dict) -> GameInstance:
    # phi is a placeholder: power_split rebuilds the headroom per lambda.
    return _game({**params, "phi": 1.0})


def scenario_power_split(params: dict, seed: int) -> ResultTable:
    g = _split_game(params)
    total_lambda, mu0, p1 = params["total_lambda"], params["mu0"], params["p1"]
    return ResultTable(
        columns=["b", "cs", "alpha", "mu0", "total_lambda", "p1", "p2",
                 "lambda_star", "cost"],
        rows=[[g.b, g.cs, g.alpha, mu0, total_lambda, p1, p2,
               *power_split(g, total_lambda, mu0, p1, p2)] for p2 in params["p2_list"]],
    )


def _h2_interarrival(params: dict) -> HyperExp2:
    return HyperExp2(prob=params["h2_prob"], rate1=params["h2_rate1"], rate2=params["h2_rate2"])


def scenario_queue_validate(params: dict, seed: int) -> ResultTable:
    """Run k, at seed + k: M/M/1 at each rho_list load, then H2 arrivals and truncated-normal
    service at h2_rho with the kappa = (c_a^2 + c_s^2)/2 heavy-traffic correction.  Every
    run is configured, and so validated, before the first simulates."""
    loads = [*params["rho_list"], params["h2_rho"]]
    if not all(0.0 < rho < 1.0 for rho in loads):
        raise ParameterError(f"every load in rho_list and h2_rho must lie in (0, 1), got {loads}")
    horizon = params["horizon"]
    cases = [("mm1", SimConfig(arrival=Exponential(rate=1.0), service=Exponential(rate=1.0 / rho),
                               horizon=horizon, seed=seed + k), rho, 1.0)
             for k, rho in enumerate(params["rho_list"])]
    h2, rho, cv = _h2_interarrival(params), params["h2_rho"], params["service_cv"]
    service = TruncatedNormal(mean=h2.mean_time() * rho, cv=cv)
    cases.append(("h2-truncnorm",
                  SimConfig(arrival=h2, service=service, horizon=horizon, seed=seed + len(cases)),
                  rho, (h2.scv() + cv * cv) / 2.0))
    rows = []
    for model, cfg, rho, kappa in cases:
        stats = simulate(cfg)
        rows.append([model, rho, rho / (1 - rho), kappa * rho / (1 - rho),
                     stats.mean_outstanding, stats.mean_waiting, stats.ci_halfwidth,
                     empirical_pdf_compare(stats, rho), cfg.horizon, cfg.seed])
    return ResultTable(
        columns=["model", "rho", "analysis", "analysis_kappa", "sim_mean",
                 "sim_waiting", "ci_halfwidth", "pmf_sup_distance",
                 "horizon", "seed"],
        rows=rows,
    )


def _market(params: dict) -> Market:
    from .allocation import BsProfile, Market
    ignored = " and ".join(key for key in ("n_bs", "lambda_step") if params[key] != _MARKET[key])
    if params["lambda_bars"] and ignored:
        raise ParameterError(f"lambda_bars lists every station; {ignored} would be ignored")
    stations = len(params["lambda_bars"]) or params["n_bs"]
    if stations > MAX_MARKET_STATIONS:
        raise ParameterError(
            f"the market has {stations} stations, more than {MAX_MARKET_STATIONS}")
    # An empty lambda_bars means n_bs stations at lambda_step * (1..n_bs).
    lambda_bars = params["lambda_bars"] or [
        params["lambda_step"] * i for i in range(1, params["n_bs"] + 1)]
    profiles = tuple(BsProfile(lambda_bar=lb, b=params["b"], index=i)
                     for i, lb in enumerate(lambda_bars))
    return Market(profiles=profiles, mu0=params["mu0"], p=params["p"],
                  p1=params["p1"], p2=params["p2"])


def scenario_allocate(params: dict, seed: int) -> ResultTable:
    from .allocation import (adaptive_uniform_allocation, pareto_priority_allocation,
                             proportional_allocation, truthful_orders)
    market = _market(params)
    orders = truthful_orders(market)
    prop = proportional_allocation(market, orders)
    pareto = pareto_priority_allocation(market, orders)
    uniform = adaptive_uniform_allocation(market, orders)
    rows = []
    for i, pr in enumerate(market.profiles):
        rows.append([i, pr.lambda_bar, pr.b, market.mu0, market.p, market.p1,
                     market.p2, orders.orders[i], prop.grants[i],
                     pareto.grants[i], uniform.grants[i], uniform.n_hat])
    return ResultTable(
        columns=["bs", "lambda_bar", "b", "mu0", "p", "p1", "p2", "order",
                 "grant_proportional", "grant_pareto", "grant_uniform", "n_hat"],
        rows=rows,
    )


def scenario_audit(params: dict, seed: int) -> ResultTable:
    from .allocation import (DeviationGrid, adaptive_uniform_allocation,
                             pareto_priority_allocation, proportional_allocation,
                             truthfulness_audit)
    market = _market(params)
    grid = DeviationGrid(n_points=params["grid_points"], n_scenarios=params["n_scenarios"],
                         span=params["span"], seed=seed)
    rows = []
    for mech in (adaptive_uniform_allocation, pareto_priority_allocation,
                 proportional_allocation):
        report = truthfulness_audit(market, mech, grid)
        for i, imp in enumerate(report.improvements):
            rows.append([report.mechanism, i, imp, int(report.truthful_dominant),
                         market.mu0, market.p, market.p1, market.p2])
    return ResultTable(
        columns=["mechanism", "bs", "max_improvement", "truthful_dominant",
                 "mu0", "p", "p1", "p2"],
        rows=rows,
    )


# --------------------------------------------------------------------------
# --check: the pinned acceptance criteria, read from each scenario's table at
# its declared defaults.  Each returns (label, passed, measured) triples.


def _defaults(name: str) -> dict:
    return SCENARIOS[name][2]


def _records(table: ResultTable) -> list[dict]:
    return [dict(zip(table.columns, row)) for row in table.rows]


def _near(label: str, value: float, target: float, tol: float):
    return (f"{label} = {target} +/- {tol}", abs(value - target) <= tol, f"{value:.5f}")


def check_central(table: ResultTable, seed: int):
    row = _records(table)[0]
    return [
        _near("nu_bar", row["nu_bar"], 0.33, 0.01),
        _near("s_bar", row["s_bar"], 7.29, 0.01),
        _near("cost", row["cost"], 17.19, 0.01),
    ]


def check_nash(table: ResultTable, seed: int):
    # The identities must hold on any instance: the printed one and 100 random ones.
    params, row = _defaults("nash"), _records(table)[0]
    rng = random.Random(seed)
    worst_gap = row["brd_gap"]
    worst_foc = abs(row["nu_star"] * row["s_star"] - math.log1p(row["alpha"] * row["b"]))
    worst_id = abs(row["cost_bs"] - row["s_star"])
    for _ in range(100):
        g = GameInstance(NormalizedParams(
            b_n=rng.uniform(1, 20), cs_n=rng.uniform(1, 10),
            phi=rng.uniform(0.5, 3), alpha=rng.uniform(0.1, 0.9)))
        ne, _, gap = _dynamics(g, params)
        worst_gap = max(worst_gap, gap)
        worst_foc = max(worst_foc, abs(ne.nu * ne.s - g.log_ab))
        worst_id = max(worst_id, abs(cost_bs(g, ne) - ne.s))
    return [
        ("dynamics agree with closed form to 1e-6", worst_gap <= 1e-6, f"{worst_gap:.2e}"),
        ("nu*s* = ln(1+alpha b) to 1e-9", worst_foc <= 1e-9, f"{worst_foc:.2e}"),
        ("C_o(s*,nu*) = s* to 1e-9", worst_id <= 1e-9, f"{worst_id:.2e}"),
    ]


def _keeps_argmin(total: list, k: int, share: float) -> bool:
    """Whether share * total, for share >= 0, has its first minimum at cell k, the
    first minimum of total.  Rounding is monotone, so no scaled cell falls below
    cell k's, and a cell before k ties it exactly when the least of them does
    (at share = 0 every cell does)."""
    return k == 0 or share * min(total[:k]) > share * total[k]


def _surface_minimum(g: GameInstance, s_axis: list, nu_axis: list):
    """penalty-contract's cost surface on these axes: cell(i, j), the closed-form
    C_o + C_s at (s_i, nu_j), at cell i * n + j of the flat list
    np.meshgrid(indexing="ij") lays out; its first minimum k; and [the least cell
    before k, cell k], or [cell k] at k = 0: from O(n) cells.

    Column j is C(s_i), C(s) = s - 1/nu + c e^{-nu s}/nu + rps, convex with its
    minimum at ln(c)/nu.  A cell is within eps of C, and 2 eps <= the column's
    `slack` (for unit roundoff u, eps <= 1.01 u ((nu s + 9) T + 3 (s + 1/nu + rps)),
    T = c e^{-nu s}/nu, and (nu s + 9) T falls in s).  So a scan along a column
    stops, at the first cell more than slack above the least before it, only
    where C rises in the scan's direction, and every cell beyond lies above that least."""
    n, c = len(s_axis), 1.0 + g.b
    cols = [(-v, 1.0 / v, v, g.cs * (v + 1.0) / (g.phi - v)) for v in nu_axis]

    def cell(i: int, j: int) -> float:
        neg, inv, v, rps = cols[j]
        s = s_axis[i]
        return s - inv + c * math.exp(neg * s) / v + rps

    def scan(j: int, rows: range, slack: float) -> dict:
        seen, least = {}, math.inf
        for i in rows:
            seen[i] = value = cell(i, j)
            if value > least + slack:
                break
            least = min(least, value)
        return seen

    columns = []    # per column: its least cell, the first row of it, and its slack
    for j, (_, inv, v, rps) in enumerate(cols):
        slack = 2.0**-48 * (c * (v * s_axis[0] + 9.0) / v + s_axis[-1] + inv + rps)
        start = min(bisect.bisect_left(s_axis, math.log(c) / v), n - 1)
        seen = {**scan(j, range(start, -1, -1), slack), **scan(j, range(start, n), slack)}
        least = min(seen.values())
        columns.append((least, min(i for i, value in seen.items() if value == least), slack))
    _, i, j = min((least, first, j) for j, (least, first, _) in enumerate(columns))
    # Before k: rows < i of every column, and row i of the columns before j.
    before = [least if first < t else min(scan(col, range(t - 1, -1, -1), slack).values())
              for col, (least, first, slack) in enumerate(columns)
              for t in [i + (col < j)] if t]
    return cell, i * n + j, [min(before), cell(i, j)] if before else [cell(i, j)]


def check_penalty_contract(table: ResultTable, seed: int):
    g = _game(_defaults("penalty-contract"))
    row = _records(table)[0]
    lo, hi = row["eps_lo"], row["eps_hi"]
    opt = centralized_optimum(g)
    n, s_max = 300, 4.0 * opt.s
    s_axis = [s_max * k / n for k in range(1, n + 1)]
    nu_axis = [g.phi * k / (n + 1) for k in range(1, n + 1)]
    cell, k, cells = _surface_minimum(g, s_axis, nu_axis)
    # Dual route: the closed-form surface equals the library's costs pointwise.
    rng, surface_err = random.Random(1), 0.0
    for _ in range(200):
        i, j = rng.randrange(n), rng.randrange(n)
        x = StrategyPair(s=s_axis[i], nu=nu_axis[j])
        surface_err = max(surface_err, abs(cell(i, j) - cost_bs(g, x) - cost_rps(g, x)))
    i, j = divmod(k, n)     # the first minimum, as np.argmin takes it
    # The cost valley s*nu ~ gamma is flat, so the discrete argmin may sit a
    # few cells along it; require the shared gridpoint to stay in that band.
    near = (abs(s_axis[i] - opt.s) <= 3.0 * (s_axis[1] - s_axis[0])
            and abs(nu_axis[j] - opt.nu) <= 3.0 * (nu_axis[1] - nu_axis[0]))
    # The BS minimizes (1-eps)*C and the supplier eps*C; cells before k enter by their least.
    aligned = all(_keeps_argmin(cells, len(cells) - 1, share)
                  for eps in (lo, 0.5 * (lo + hi), hi) for share in (1.0 - eps, eps))
    # The contract splits the central cost: the BS pays (1 - eps) C, the supplier eps C.
    bs, rps = row["cost_bs_coord"], row["cost_rps_coord"]
    sum_err = abs(bs + rps - row["cost_central"])
    share_err = abs(rps - row["epsilon"] * (bs + rps))
    return [
        _near("penalty", row["penalty"], 0.0407, 0.0005),
        ("closed-form cost surface = cost_bs + cost_rps to 1e-9", surface_err <= 1e-9,
         f"{surface_err:.2e}"),
        ("cost_bs_coord + cost_rps_coord = cost_central to 1e-9", sum_err <= 1e-9,
         f"{sum_err:.2e}"),
        ("cost_rps_coord = epsilon * (their sum) to 1e-9", share_err <= 1e-9,
         f"{share_err:.2e}"),
        ("central gridpoint within 3 cells of (s_bar, nu_bar)", near, f"cell ({i}, {j})"),
        ("BS and supplier grid argmins at the central gridpoint", aligned,
         f"eps in [{lo:.4f},{hi:.4f}]"),
    ]


def _split_costs(g: GameInstance, total_lambda: float, mu0: float, p1: float, p2: float,
                 lams: list) -> list:
    """power_split's cost at each lambda in closed form; lambda = 0 is all-grid."""
    f = auxiliary_f(g)

    def cost(lam: float) -> float:
        if lam <= 0.0:
            return p2 * total_lambda
        phi = mu0 / lam - 1.0
        stock = (math.sqrt(1.0 + phi) + f) * g.log_ab / (f * phi)
        return stock + p1 * lam + p2 * (total_lambda - lam)

    return [cost(lam) for lam in lams]


def _split_grid(g: GameInstance, total_lambda: float, mu0: float, p1: float, p2: float):
    """power_split's 1e-3 grid oracle: the points k * 1e-3 of its interval, as
    np.arange spaces them, and the cost at each."""
    stop = min(total_lambda, mu0 * (1 - 1e-6)) + 1e-9
    grid = [k * 1e-3 for k in range(math.ceil(stop / 1e-3))]
    return grid, _split_costs(g, total_lambda, mu0, p1, p2, grid)


def check_power_split(table: ResultTable, seed: int):
    params = _defaults("power-split")
    g = _split_game(params)
    total_lambda, mu0, p1 = params["total_lambda"], params["mu0"], params["p1"]
    rows, checks = _records(table), []
    for row in rows:
        p2, lam = row["p2"], row["lambda_star"]
        grid, costs = _split_grid(g, total_lambda, mu0, p1, p2)
        lam_grid = grid[costs.index(min(costs))]    # the first minimum, as np.argmin takes it
        checks.append((f"P2={p2}: lambda* matches 1e-3 grid",
                       abs(lam - lam_grid) <= 1e-3, f"{lam:.4f} vs {lam_grid:.4f}"))
        err = abs(row["cost"] - _split_costs(g, total_lambda, mu0, p1, p2, [lam])[0])
        checks.append((f"P2={p2}: cost = closed form at lambda* to 1e-9", err <= 1e-9,
                       f"{err:.2e}"))
    # The paper's anchors below are keyed on the P2 price they belong to.
    lam_at = {row["p2"]: row["lambda_star"] for row in rows}
    lams = list(lam_at.values())
    checks.append(("lambda* nondecreasing in P2",
                   all(a <= b + 1e-9 for a, b in zip(lams, lams[1:])),
                   " <= ".join(f"{lam:.3f}" for lam in lams)))
    checks.append(_near("P2=5.0 lambda*", lam_at[5.0], 0.67, 0.1))
    checks.append(_near("P2=10.0 lambda*", lam_at[10.0], 1.11, 0.1))
    return checks


def check_queue_validate(table: ResultTable, seed: int):
    checks = [_near("h2 interarrival scv",
                    _h2_interarrival(_defaults("queue-validate")).scv(), 1.0856, 1e-4)]
    for row in _records(table):
        model, rho, horizon = row["model"], row["rho"], row["horizon"]
        mean, sup = row["sim_mean"], row["pmf_sup_distance"]
        if model == "mm1":
            # Run long enough that 5% is >= 4 sd, so no seed decides it: the mean's relative
            # asymptotic variance is 2 (1 + rho) / (rho (1 - rho)^2) per unit time (Whitt
            # 1989), and H events span ~0.45 H post-warmup interarrival times, rho times fewer
            # than Whitt's service-time units, so this errs long: 12.05M events at rho = 0.93.
            # A shorter row runs again here, at its own seed.
            needed = 2.0 * (1.0 + rho) / (rho * (1.0 - rho) ** 2) / (0.45 * (0.05 / 4) ** 2)
            if horizon < needed:
                horizon = math.ceil(needed)
                stats = simulate(SimConfig(Exponential(rate=1.0), Exponential(rate=1.0 / rho),
                                           horizon, row["seed"]))
                mean, sup = stats.mean_outstanding, empirical_pdf_compare(stats, rho)
        # h2/truncnorm is read at 2M: over its printed seeds 4-203 (scenario seeds 0-199)
        # its error is 9.7% +/- 0.8%, at most 11.8%, 6.7 sd inside 15%.
        target = row["analysis_kappa"]
        rel, ran = abs(mean - target) / target, f"horizon={horizon}"
        if model == "mm1":
            checks += [(f"mm1 rho={rho}: mean within 5%", rel <= 0.05, f"rel={rel:.4f}, {ran}"),
                       (f"mm1 rho={rho}: pmf sup-distance < 0.01", sup < 0.01, f"{sup:.4f}, {ran}")]
        else:
            checks.append((f"h2/truncnorm rho={rho}: mean within 15% of kappa formula",
                           rel <= 0.15, f"rel={rel:.4f}, {ran}"))
    return checks


def check_allocate(table: ResultTable, seed: int):
    from .allocation import social_cost, social_optimum_bruteforce
    market = _market(_defaults("allocate"))
    rows = _records(table)
    n_hat = rows[0]["n_hat"]
    uniform = [row["grant_uniform"] for row in rows]
    _, brute_cost = social_optimum_bruteforce(market)
    cost_prop = social_cost(market, [row["grant_proportional"] for row in rows])
    cost_pareto = social_cost(market, [row["grant_pareto"] for row in rows])
    return [
        ("adaptive n_hat = 5", n_hat == 5, f"{n_hat}"),
        _near("uniform grant", max(uniform), 2.9654, 1e-3),
        ("feasible: sum grants <= mu0",
         sum(uniform) <= market.mu0 + 1e-9, f"{sum(uniform):.6f}"),
        ("proportional strictly above brute-force optimum",
         cost_prop > brute_cost + 1e-6, f"{cost_prop:.4f} vs {brute_cost:.4f}"),
        ("brute-force agrees with pareto-priority cost to 1e-9",
         abs(brute_cost - cost_pareto) <= 1e-9, f"{brute_cost:.6f} vs {cost_pareto:.6f}"),
    ]


def check_audit(table: ResultTable, seed: int):
    rows = _records(table)

    def worst(mechanism: str) -> float:
        return max(row["max_improvement"] for row in rows if row["mechanism"] == mechanism)

    adaptive, pareto = worst("adaptive_uniform_allocation"), worst("pareto_priority_allocation")
    return [
        ("adaptive uniform is truthful-dominant", adaptive <= 1e-9,
         f"max improvement {adaptive:.2e}"),
        ("pareto priority admits a profitable inflation",
         pareto > 1e-9, f"max improvement {pareto:.4f}"),
    ]


_CENTRAL = {"b": 10.0, "cs": 5.0, "phi": 1.0}
_GAME = {**_CENTRAL, "alpha": 0.5}
_MARKET = {"n_bs": 8, "lambda_step": 0.5, "lambda_bars": [], "b": 2.0,
           "mu0": 20.0, "p": 2.0, "p1": 1.0, "p2": 10.0}

# name -> (scenario, pinned checks, every parameter with its default).
SCENARIOS = {
    "central": (scenario_central, check_central, _CENTRAL),
    "nash": (scenario_nash, check_nash,
             {**_GAME, "start_nu_frac": 0.5, "tol": 1e-9}),
    # epsilon nan: the midpoint of the acceptable sharing range.
    "penalty-contract": (scenario_penalty_contract, check_penalty_contract,
                         {**_GAME, "epsilon": math.nan}),
    "power-split": (scenario_power_split, check_power_split,
                    {"b": 5.0, "cs": 5.0, "alpha": 0.5, "mu0": 2.0,
                     "total_lambda": 1.8, "p1": 1.0, "p2_list": [5.0, 7.5, 10.0]}),
    "queue-validate": (scenario_queue_validate, check_queue_validate,
                       {"horizon": 2_000_000, "rho_list": [0.39, 0.70, 0.80, 0.93],
                        "h2_prob": 0.5, "h2_rate1": 2.3, "h2_rate2": 3.5,
                        "h2_rho": 0.80, "service_cv": 0.5}),
    "allocate": (scenario_allocate, check_allocate, _MARKET),
    "audit": (scenario_audit, check_audit,
              {**_MARKET, "grid_points": 200, "n_scenarios": 20, "span": 2.5}),
}

ANALYTIC_SCENARIOS = {"central", "nash", "penalty-contract", "power-split",
                      "allocate"}
MAX_SWEEP_POINTS = 10_000      # each point runs its scenario once, in milliseconds
MAX_MARKET_STATIONS = 100_000  # allocate takes time linear in its stations


def resolve_params(name: str, params: dict) -> dict:
    """The scenario's defaults overridden by `params`, each converted to its
    default's type; undeclared keys, unconvertible values, JSON booleans, a
    non-list for a list and fractions for an int raise."""
    defaults = _defaults(name)
    valid = f"valid keys for {name}: {', '.join(sorted(defaults))}"
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ParameterError(f"unknown parameter {', '.join(unknown)}; {valid}")
    resolved = dict(defaults)
    for key, value in params.items():
        kind = type(defaults[key])
        entries = value if isinstance(value, list) else [value]
        try:
            # float(true) is 1.0 and a string would iterate into characters: both are invalid.
            wrong_shape = isinstance(value, list) != (kind is list)
            if wrong_shape or any(isinstance(v, bool) for v in entries):
                raise TypeError(value)
            if kind is int and isinstance(value, float) and not value.is_integer():
                raise ValueError(value)
            resolved[key] = [float(v) for v in value] if kind is list else kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ParameterError(
                f"{key}={value!r} is not a valid {kind.__name__}; {valid}") from None
    return resolved


def run_checks(name: str, table: ResultTable, seed: int, stream) -> list:
    """Check `table`, the scenario's at its defaults; one PASS/FAIL line each to `stream`."""
    results = SCENARIOS[name][1](table, seed)
    for label, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}: {label} ({detail})", file=stream)
    return results


def _parse_set(values) -> dict:
    out = {}
    for item in values or []:
        if "=" not in item:
            raise ParameterError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        import json     # here and in _load_config: a call without either loads no json
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


# The documented config-file keys and the JSON type each must hold.
_CONFIG_SCHEMA = {"scenario": (str, "string"), "params": (dict, "object"),
                  "sweep": (dict, "object"), "out": (str, "string"), "seed": (int, "integer")}


def _load_config(path: str | None, scenario: str) -> dict:
    """The JSON config at `path`, checked against `_CONFIG_SCHEMA` and
    against the scenario it is given to (for `sweep`, the swept one)."""
    if path is None:
        return {}
    import json
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParameterError("config file must hold a JSON object")
    unknown = sorted(set(cfg) - set(_CONFIG_SCHEMA))
    if unknown:
        raise ParameterError(f"unknown config key {', '.join(unknown)}; "
                             f"valid keys: {', '.join(_CONFIG_SCHEMA)}")
    for key, value in cfg.items():
        kind, json_name = _CONFIG_SCHEMA[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ParameterError(f"config {key!r} must be a JSON {json_name}, got {value!r}")
    if cfg.get("scenario", scenario) != scenario:
        raise ParameterError(f"config is for scenario {cfg['scenario']!r}, not {scenario!r}")
    return cfg


def _sweep_values(spec: dict) -> list[float]:
    try:
        name = spec["name"]
        start, stop, step = float(spec["start"]), float(spec["stop"]), float(spec["step"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"sweep block needs name/start/stop/step: {exc}") from exc
    if not (step > 0 and stop >= start):    # a nan fails here too
        raise ParameterError(f"empty sweep range: start={start}, stop={stop}, step={step}")
    # A step lost in rounding at either end would repeat values there.
    if start + step == start or stop + step == stop:
        raise ParameterError(f"sweep step {step} is too small to advance from {start} to {stop}")
    # The end tolerance is relative to the range, so x = stop survives rounding
    # in (stop - start) / step without admitting a point past it.
    last = (stop - start) / step * (1.0 + 1e-12)
    if last + 1 > MAX_SWEEP_POINTS:
        raise ParameterError(
            f"sweep asks for {last + 1:.3g} points, more than {MAX_SWEEP_POINTS}")
    # 15 significant digits keep each value's own scale and drop the last-ulp
    # residue of start + k * step (0.30000000000000004 -> 0.3).
    return [float(f"{start + k * step:.15g}") for k in range(math.floor(last) + 1)]


def run_scenario(name: str, params: dict, seed: int) -> ResultTable:
    if name not in SCENARIOS:
        raise ParameterError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    table = SCENARIOS[name][0](resolve_params(name, params), seed)
    table.provenance = {
        "scenario": name,
        "seed": seed,
        "version": __version__,
        "timestamp": _timestamp(),
    }
    return table


def run_sweep(name: str, params: dict, sweep: dict, seed: int) -> ResultTable:
    values = _sweep_values(sweep)
    key = sweep["name"]
    table = None
    for v in values:
        part = run_scenario(name, {**params, key: v}, seed)
        if table is None:
            table = ResultTable(columns=[f"sweep_{key}"] + part.columns, rows=[])
        table.rows.extend([v] + row for row in part.rows)
    table.provenance = {
        "scenario": f"sweep:{name}",
        "sweep": f"{key} in [{values[0]}, {values[-1]}] step {sweep['step']}",
        **{k: v for k, v in part.provenance.items() if k != "scenario"},
    }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="greenstock",
        description="Supply-inventory game and allocation-mechanism experiment runner")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--out", default=None, help="CSV output path")
    common.add_argument("--seed", type=int, default=None, help="RNG seed")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a scenario parameter")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        sp = sub.add_parser(name, parents=[common], help=f"run the {name} scenario")
        sp.add_argument("--check", action="store_true",
                        help="assert pinned thresholds, at the defaults only (exit 3 on failure)")
    sw = sub.add_parser("sweep", parents=[common],
                        help="sweep one parameter of an analytic scenario")
    sw.add_argument("scenario", choices=sorted(ANALYTIC_SCENARIOS))
    sw.add_argument("--sweep", default=None, metavar="NAME:START:STOP:STEP")

    args = parser.parse_args(argv)
    try:
        sweeping = args.command == "sweep"
        cfg = _load_config(args.config, args.scenario if sweeping else args.command)
        params = {**cfg.get("params", {}), **_parse_set(args.set)}
        seed = _whole("seed", args.seed if args.seed is not None else cfg.get("seed", 0), 0)
        out = args.out if args.out is not None else cfg.get("out")
        check = getattr(args, "check", False)
        if check:
            defaults = _defaults(args.command)
            # repr, not ==: a nan default set to nan is no override.
            moved = [f"{key}={value!r} (default {defaults[key]!r})"
                     for key, value in resolve_params(args.command, params).items()
                     if repr(value) != repr(defaults[key])]
            if moved:
                raise ParameterError("--check pins the paper's figures at the declared defaults; "
                                     f"these differ: {', '.join(moved)}")

        if sweeping:
            sweep_spec = cfg.get("sweep", {})
            if args.sweep:
                try:
                    key, start, stop, step = args.sweep.split(":")
                except ValueError as exc:
                    raise ParameterError(
                        "--sweep expects NAME:START:STOP:STEP") from exc
                sweep_spec = {"name": key, "start": start, "stop": stop, "step": step}
            if not sweep_spec:
                raise ParameterError("sweep requires a sweep block (--sweep or config)")
            table = run_sweep(args.scenario, params, sweep_spec, seed)
        else:
            table = run_scenario(args.command, params, seed)

        text = render_csv(table)
        if out:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)

        if check and not all(ok for _, ok, _ in run_checks(args.command, table, seed, sys.stderr)):
            return 3
        return 0
    except GreenstockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
