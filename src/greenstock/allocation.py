"""Capacity allocation for N base stations sharing one renewable supplier.

Each BS i privately knows its total connection rate lambda_bar_i and
backlog cost b_i, pays an incentive price p per unit granted supply
rate, p1 per renewable-served connection and p2 per grid-served one.
With gamma_i = ln(1 + b_i), routing lambda connections to the renewable
chain is worth doing at the optimal operating point

    mu_hat(lambda) = sqrt(lambda * gamma / p) + lambda,
    s_hat(lambda)  = sqrt(p * lambda * gamma),
    cost           = 2 sqrt(p lambda gamma) + (p + p1) lambda + p2 (lambda_bar - lambda),

and all-renewable beats all-grid exactly when lambda_bar exceeds the
break-even rate lambda_hat = 4 p gamma / (p2 - p1 - p)^2.  Each station
function takes one `BsProfile`, or a `Market`, whose arrays it reads elementwise.

The supplier rations capacity mu0 across submitted orders with one of
three mechanisms: proportional, descending-order priority (with
below-break-even grants rejected), or the adaptive uniform rule that
makes truthful ordering a dominant strategy.  Each mechanism allocates
one OrderVector or, row by row, a (K, N) order matrix.  The planner's
optimum comes from one numpy pass over every extreme point of its problem.
The deviation-grid audit computes each deviator's own grant from its
opponents' sorted orders with a per-mechanism deviation kernel, bit-equal
to the mechanism's grant on the full row, so no deviation row is sorted.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import (_FLOAT_MAX, AllGridRegimeError, ParameterError, _Frozen, _nonnegative,
                     _positive, _rate, _whole)

FEAS_EPS = 1e-9
# Largest (N, n_points + 1) float64 array of one scenario's deviation
# orders the audit accepts; a larger grid is refused before any allocation.
MAX_AUDIT_MATRIX_BYTES = 2**25
# Largest audit, in order cells N^2 (n_points + 1) (n_scenarios + 1): each
# deviation meets every order of its row.  n = 256 at the default grid is
# 2.8e8 cells and takes seconds; past the cap the audit is refused.
MAX_AUDIT_CELLS = 3 * 10**8
# Scenarios per deviation-kernel call: as many as keep its (G, N, n_points + 1)
# arrays within this many bytes, and at least one.
_AUDIT_CALL_BYTES = 2**17
# Each audit scenario scales every truthful order by a factor uniform on this range.
OPPONENT_PERTURBATION = (0.5, 1.5)


def _check_prices(p: float, p1: float, p2: float) -> None:
    """ParameterError unless p is finite and > 0, and p1 and p2 finite and >= 0."""
    _positive("incentive price p", p)
    _nonnegative("energy prices", p1, p2)


def _check_gap(p: float, p1: float, p2: float) -> None:
    """ParameterError unless p2 > p1 + p, by a gap whose square, breakeven_lambda's
    divisor, is in float range."""
    gap = p2 - p1 - p
    if not (p2 > p1 + p and 0.0 < gap * gap < math.inf):
        raise ParameterError(
            f"p2 must exceed p1 + p for nonzero renewable demand, by a gap whose square "
            f"is in float range (p2={p2}, p1={p1}, p={p})")


class BsProfile(namedtuple("BsProfile", "lambda_bar b index")):
    """One base station: total arrival rate, normalized backlog cost, identity."""

    __slots__ = ()

    def __new__(cls, lambda_bar: float, b: float, index: int):
        # At a subnormal rate the post-allocation cost's a * gamma / (p2 - p1)
        # underflows to 0, and its last term divides by zero.
        _rate("lambda_bar", lambda_bar)
        _nonnegative("b", b)
        return tuple.__new__(cls, (lambda_bar, b, index))

    @property
    def gamma(self) -> float:
        """ln(1 + b)."""
        return math.log1p(self.b)


class Market(_Frozen, namedtuple("Market", "profiles mu0 p p1 p2")):
    """N >= 2 base stations facing one supplier of capacity mu0.

    Requires p2 > p1 + p; below that no BS orders renewable supply at all.
    `lambda_bar` and `gamma` hold the profiles' values as read-only arrays.
    """

    def __new__(cls, profiles: tuple[BsProfile, ...], mu0: float, p: float, p1: float, p2: float):
        if len(profiles) < 2:
            raise ParameterError("a market needs at least 2 base stations")
        _positive("mu0", mu0)
        _check_prices(p, p1, p2)
        _check_gap(p, p1, p2)
        self = tuple.__new__(cls, (profiles, mu0, p, p1, p2))
        # Each profile's math.log1p: np.log1p can differ from it in the last bit.
        for name in ("lambda_bar", "gamma"):
            values = np.array([getattr(pr, name) for pr in profiles], dtype=float)
            values.flags.writeable = False
            self.__dict__[name] = values
        return self

    @property
    def n(self) -> int:
        return len(self.profiles)


class OrderVector(namedtuple("OrderVector", "orders")):
    """Per-BS supply-rate requests, aligned with Market.profiles."""

    __slots__ = ()

    def __new__(cls, orders: tuple[float, ...]):
        _nonnegative("orders", *orders)
        return tuple.__new__(cls, (orders,))


class AllocationResult(namedtuple("AllocationResult", "grants n_hat rejected",
                                  defaults=(None, frozenset()))):
    """Feasible grants, aligned with profiles: grant <= order, and sum <= mu0
    up to the rounding of the sum.

    n_hat is the adaptive mechanism's split index (None otherwise);
    `rejected` lists indices zeroed by the take-or-leave step.
    """

    __slots__ = ()


def optimal_demand(stations, lam, p: float, p1: float, p2: float):
    """Optimal supply rate, base stock and cost for serving `lam` renewably.

    Returns (mu_hat, s_hat, cost), elementwise; lam = 0 degenerates to
    (0, 0, p2*lambda_bar).  `stations` is a `BsProfile` or a `Market`,
    whose station j serves lam[..., j].
    """
    _check_prices(p, p1, p2)
    lambda_bar = stations.lambda_bar
    # Relative above lambda_bar = 1: past about 1e7, float spacing exceeds FEAS_EPS.
    if not np.all((0.0 <= lam) & (lam <= lambda_bar + FEAS_EPS * np.maximum(1.0, lambda_bar))):
        raise ParameterError(
            f"lam must lie in [0, lambda_bar={lambda_bar}], got {lam}")
    s_hat = np.sqrt(p * lam * stations.gamma)
    cost = 2.0 * s_hat + (p + p1) * lam + p2 * (lambda_bar - lam)
    return _mu_on_curve(stations, lam, p), s_hat, cost


def _mu_on_curve(stations, lam, p: float):
    """mu_hat(lam), elementwise, where an overflow reads inf, as in float
    arithmetic, for the callers to refuse."""
    with np.errstate(over="ignore"):
        return np.sqrt(lam * stations.gamma / p) + lam


def breakeven_lambda(stations, p: float, p1: float, p2: float):
    """Arrival rate at which all-renewable and all-grid costs tie:

        lambda_hat = 4 p ln(1 + b) / (p2 - p1 - p)^2.

    A BS prefers all-renewable iff lambda_bar >= lambda_hat (the objective
    is concave in lambda, so the optimum sits at a boundary).  `stations`
    is a `BsProfile` or a `Market`, which gives the array of their rates.
    """
    _check_prices(p, p1, p2)
    if p2 <= p1 + p:
        raise AllGridRegimeError(
            f"p2 <= p1 + p: every BS orders zero renewable supply "
            f"(p2={p2}, p1={p1}, p={p})")
    _check_gap(p, p1, p2)
    return 4.0 * p * stations.gamma / (p2 - p1 - p) ** 2


def breakeven_rate(stations, p: float, p1: float, p2: float):
    """Supply rate mu_hat(lambda_hat) at the break-even arrival rate.

    Grants live in supply-rate units, so take-or-leave rejections compare
    against this rate, not against lambda_hat itself.  `stations` is a
    `BsProfile` or a `Market`, which gives the array of their rates.
    """
    return _mu_on_curve(stations, breakeven_lambda(stations, p, p1, p2), p)


def _lambda_on_curve(stations, rate, p: float):
    """Invert mu_hat(lambda) = rate, elementwise: with g = sqrt(gamma/p),
    lambda = t^2 for t the positive root of t^2 + g t - rate = 0, and
    lambda = rate where gamma = 0."""
    g = np.sqrt(stations.gamma / p)
    t = 0.5 * (-g + np.sqrt(g * g + 4.0 * rate))
    return np.where(g == 0.0, rate, t * t)


def truthful_orders(market: Market) -> OrderVector:
    """Each BS's optimal order: mu_hat(lambda_bar) when lambda_bar is at or
    past break-even, else 0 (all-grid).  At b = 0 break-even is 0, and the
    order is mu_hat(lambda_bar) = lambda_bar."""
    served = market.lambda_bar >= breakeven_lambda(market, market.p, market.p1, market.p2)
    return OrderVector(orders=tuple(
        np.where(served, _mu_on_curve(market, market.lambda_bar, market.p), 0.0).tolist()))


def _order_matrix(market: Market, orders) -> np.ndarray:
    """The (K, N) float order matrix of `orders`: one row for an OrderVector."""
    if isinstance(orders, OrderVector):
        m = np.array([orders.orders], dtype=float)
    else:
        m = np.asarray(orders, dtype=float)
        if m.ndim != 2:
            raise ParameterError(f"an order matrix must be 2-D (K, N), got shape {m.shape}")
        if not ((0.0 <= m) & (m < math.inf)).all():
            raise ParameterError("orders must be finite and >= 0")
    if m.shape[1] != market.n:
        raise ParameterError(
            f"order vector length {m.shape[1]} != market size {market.n}")
    return m


def _result(orders, grants: np.ndarray, rejected=None, n_hat=None):
    """The (K, N) grants of a matrix call; for an OrderVector, the
    AllocationResult of the one row."""
    if not isinstance(orders, OrderVector):
        return grants
    return AllocationResult(
        grants=tuple(grants[0].tolist()),
        n_hat=None if n_hat is None else int(n_hat[0]),
        rejected=frozenset() if rejected is None
        else frozenset(np.flatnonzero(rejected[0]).tolist()))


def _row_sums(m: np.ndarray) -> np.ndarray:
    # Left to right, as Python's sum() adds; np.sum is pairwise for N >= 8.
    return np.cumsum(m, axis=1)[:, -1]


def _descending(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Per row, positions by descending order size (ties by BS index) and
    # the orders in that order.
    idx = np.argsort(-m, axis=1, kind="stable")
    return idx, np.take_along_axis(m, idx, axis=1)


def _unsort(sorted_values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    out = np.empty_like(sorted_values)
    np.put_along_axis(out, idx, sorted_values, axis=1)
    return out


def _thresholds(market: Market) -> np.ndarray:
    return breakeven_rate(market, market.p, market.p1, market.p2)


def proportional_allocation(market: Market, orders):
    """g_i = min(m_i, mu0 * m_i / sum(m)): everyone gets a pro-rata share.

    Like every mechanism here, takes an OrderVector and returns its
    AllocationResult, or takes a (K, N) order matrix and returns the
    (K, N) grants, each row allocated on its own.
    """
    m = _order_matrix(market, orders)
    # mu0 / max(total, mu0) is min(1, mu0 / total), and 1 for all-zero rows.
    scale = market.mu0 / np.maximum(_row_sums(m), market.mu0)
    return _result(orders, m * scale[:, None])


def _capacity_before(mu0: float, s: np.ndarray) -> np.ndarray:
    """mu0 less the orders ahead of each position 0..len of s's last axis,
    floored at 0: bit-equal to granting min(order, capacity) turn by turn,
    as the chain is that while the orders fit, and <= 0 once one does not."""
    chain = np.concatenate([np.full(s.shape[:-1] + (1,), mu0), s], axis=-1)
    return np.maximum(np.subtract.accumulate(chain, axis=-1), 0.0)


def pareto_priority_allocation(market: Market, orders):
    """Serve orders in descending size until capacity runs out.

    A partial grant below the break-even supply rate is rejected (zeroed);
    the freed capacity is not reassigned within the period.
    """
    m = _order_matrix(market, orders)
    idx, s = _descending(m)
    g = _unsort(np.minimum(s, _capacity_before(market.mu0, s[:, :-1])), idx)
    rejected = (0.0 < g) & (g < m) & (g < _thresholds(market))
    g[rejected] = 0.0
    return _result(orders, g, rejected)


def adaptive_uniform_allocation(market: Market, orders):
    """Adaptive uniform rule, the truth-inducing mechanism.

    Sort orders in decreasing size.  n_hat is the largest index such that
    the uniform share u = (mu0 - sum of orders below n_hat) / n_hat does
    not exceed the n_hat-th order; the top n_hat orders all receive u and
    the rest receive their orders in full.  A positive grant at or below
    the break-even supply rate is then rejected (take-or-leave, a single
    adjustment pass); freed capacity is not redistributed.
    """
    m = _order_matrix(market, orders)
    n = market.n
    idx, s = _descending(m)
    k = np.arange(1, n + 1)
    # tail[:, k-1] = sum of the sorted orders past position k, added from
    # the smallest up.
    tail = np.zeros_like(s)
    tail[:, :-1] = np.cumsum(s[:, :0:-1], axis=1)[:, ::-1]
    uniform = (market.mu0 - tail) / k
    fits = uniform <= s + FEAS_EPS
    # n_hat is the largest k whose share fits.  A row scarce only by the
    # rounding of its sum, where no share fits, keeps its orders.
    last = n - 1 - np.argmax(fits[:, ::-1], axis=1)
    u = uniform[np.arange(len(s)), last]
    scarce = (_row_sums(m) > market.mu0) & fits.any(axis=1)
    n_hat = np.where(scarce, last + 1, n)
    g = _unsort(np.where(scarce[:, None] & (k <= n_hat[:, None]), u[:, None], s), idx)
    rejected = (0.0 < g) & (g <= _thresholds(market))
    g[rejected] = 0.0
    return _result(orders, g, rejected, n_hat)


# ------------------------------------------------------------------------
# Deviation kernels.  Given G opponent scenarios (G, N) and each station's
# deviation orders x (N, T), a kernel returns the (N, G, T) grants: [i, k, t]
# is station i's grant in the row "scenario k with entry i set to x[i, t]",
# bit-equal to the mechanism's grant on that row, since every float comes
# from the operation the mechanism applies to the same operands.  Only the
# opponents are sorted; the deviator's rank places it among them.


def _deviation_sums(scen: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each deviation row's sum, added left to right as `_row_sums` adds it."""
    n = scen.shape[1]
    before = np.zeros((n, len(scen)))
    before[1:] = np.cumsum(scen[:, :-1], axis=1).T
    sums = before[:, :, None] + x[:, None, :]
    for j in range(1, n):
        sums[:j] += scen[:, j, None]
    return sums


def _deviation_ranks(scen: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The deviator's position in its row's `_descending` order: the
    opponents above it, and its ties at lower indices."""
    n = scen.shape[1]
    ranks = np.zeros((n, len(scen), x.shape[1]), dtype=np.int32)
    x = x[:, None, :]
    for j in range(n):
        o = scen[:, j, None]
        ranks[:j] += o > x[:j]
        ranks[j + 1:] += o >= x[j + 1:]
    return ranks


def _opponents_descending(scen: np.ndarray) -> np.ndarray:
    """(N, G, N - 1): scenario k without entry i, in descending order."""
    n = scen.shape[1]
    others = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])
    return np.sort(scen[:, others].transpose(1, 0, 2), axis=2)[..., ::-1]


def _at_rank(table: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """table[i, k, ranks[i, k, t]] for every (i, k, t), as one flat take."""
    n, g, width = table.shape
    return table.take(ranks + np.arange(0, n * g * width, width).reshape(n, g, 1))


def _proportional_deviation(market: Market, scen, x, thresholds) -> np.ndarray:
    return x[:, None, :] * (market.mu0 / np.maximum(_deviation_sums(scen, x), market.mu0))


def _pareto_deviation(market: Market, scen, x, thresholds) -> np.ndarray:
    # capacity[..., r]: what the opponents ranked above position r leave.
    capacity = _capacity_before(market.mu0, _opponents_descending(scen))
    ranks = _deviation_ranks(scen, x)
    x = x[:, None, :]
    g = np.minimum(x, _at_rank(capacity, ranks))
    g[(0.0 < g) & (g < x) & (g < thresholds[:, None, None])] = 0.0
    return g


def _adaptive_deviation(market: Market, scen, x, thresholds) -> np.ndarray:
    n, mu0 = market.n, market.mu0
    so = _opponents_descending(scen)
    # share[..., p]: the uniform share at sorted position p whenever the
    # orders past p are so[p:], i.e. whenever the deviator ranks at or above p.
    tail = np.zeros(so.shape[:2] + (n,))
    tail[..., :-1] = np.cumsum(so[..., ::-1], axis=2)[..., ::-1]
    share = (mu0 - tail) / np.arange(1, n + 1)
    # pick[..., r]: the last position past rank r whose share fits, else r.
    fits = np.full(share.shape, -1)
    fits[..., 1:] = np.where(share[..., 1:] <= so + FEAS_EPS, np.arange(1, n), -1)
    pick = np.maximum(np.maximum.accumulate(fits[..., ::-1], axis=2)[..., ::-1], np.arange(n))
    ranks = _deviation_ranks(scen, x)
    pos = _at_rank(pick, ranks)
    own = _at_rank(share, pos)
    # A fitting share past the deviator is n_hat's; at its rank the share
    # must fit its order; else n_hat is below it, or no share fits.
    sums = _deviation_sums(scen, x)
    x = x[:, None, :]
    g = np.where((pos > ranks) | (own <= x + FEAS_EPS), own, x)
    g = np.where(sums > mu0, g, x)
    g[(0.0 < g) & (g <= thresholds[:, None, None])] = 0.0
    return g


# The audit finds a mechanism's kernel here; functools.wraps copies it.
proportional_allocation._deviation_grants = _proportional_deviation
pareto_priority_allocation._deviation_grants = _pareto_deviation
adaptive_uniform_allocation._deviation_grants = _adaptive_deviation


def post_allocation_cost(stations, granted_rate, p: float, p1: float, p2: float):
    """Best operating point for a BS holding supply rate `granted_rate`.

    The BS pays p per unit granted rate regardless of use, then picks the
    renewable-served share to minimize

        p*a + p1*lam + p2*(lambda_bar - lam) + lam*gamma/(a - lam),

    whose first-order condition gives
    lam(a) = clamp(a - sqrt(a*gamma/(p2 - p1)), 0, min(lambda_bar, a)).
    Returns (lam, cost); a = 0 returns (0, p2*lambda_bar).  A float rate
    gives floats, an array of rates gives arrays of the same shape.
    `stations` is a `BsProfile` or a `Market`, whose station j is costed at
    granted_rate[..., j], as in the (K, N) grants; that last axis must be N long.
    """
    _check_prices(p, p1, p2)
    lambda_bar, gamma = stations.lambda_bar, stations.gamma
    if np.ndim(lambda_bar) and np.shape(granted_rate)[-1:] != np.shape(lambda_bar):
        raise ParameterError(f"granted rates need a last axis of {len(lambda_bar)} "
                             f"stations, got shape {np.shape(granted_rate)}")
    a = np.asarray(granted_rate, dtype=float)
    if not (a >= 0.0).all():
        raise ParameterError(f"granted rate must be >= 0, got {granted_rate}")
    lam = a - np.sqrt(a * gamma / (p2 - p1)) if p2 > p1 else 0.0 * a
    lam = np.minimum(np.maximum(lam, 0.0), np.minimum(lambda_bar, a * (1.0 - FEAS_EPS)))
    # At a normal rate a > 0, lam <= a * (1 - FEAS_EPS) < a.  lam = a only
    # at a = 0, where the last term is 0 / 1, or at a subnormal a that
    # 1 - FEAS_EPS cannot lower, where it is lam * gamma / 1, subnormal too.
    cost = p * a + p1 * lam + p2 * (lambda_bar - lam) + lam * gamma / (a - lam + (lam == a))
    return lam, cost


def social_cost(market: Market, grants):
    """Sum of post-allocation minimized costs across all base stations.

    Takes a grant vector or AllocationResult and returns a float, or takes a
    (K, N) grant matrix and returns the K row costs.  Each row's grants and
    costs are added left to right, and a row over capacity is refused.
    """
    if isinstance(grants, AllocationResult):
        grants = grants.grants
    g = np.asarray(grants, dtype=float)
    if g.ndim not in (1, 2) or g.shape[-1] != market.n:
        raise ParameterError("grants length must match the market")
    rows = g.reshape(-1, market.n)
    totals = _row_sums(rows)
    if (totals > market.mu0 + 1e-6).any():
        raise ParameterError(f"grants sum {totals.max()} exceeds capacity {market.mu0}")
    _, costs = post_allocation_cost(market, rows, market.p, market.p1, market.p2)
    costs = _row_sums(costs)
    return float(costs[0]) if g.ndim == 1 else costs


def social_optimum_bruteforce(market: Market) -> tuple[tuple[float, ...], float]:
    """Optimum of the planner objective, by extreme-point enumeration.

    The planner objective (every served BS operating on its optimal-demand
    curve mu = mu_hat(lambda)) is concave in the lambdas, so the optimum
    has every BS all-renewable or all-grid except at most one fractional
    BS absorbing the residual capacity.  All such assignments are
    enumerated and ranked by the planner objective.  With identical
    backlog costs the planner value ties exactly over which BS takes the
    residual (its p2*lambda_bar term cancels), so ties are broken by the
    post-allocation social cost of the grants; the winner is returned
    with that social_cost so the figure is comparable with mechanism
    outputs.  That figure is not a lower bound on social_cost: at the
    reference market (mu0 = 20), Nelder-Mead over the grants reaches
    101.30 against its 105.61.  Refuses N > 12 (combinatorial).

    One numpy pass over the 2^N served sets (masks) fills a (2^N, N + 1)
    value matrix, every sum added left to right as a loop over the stations
    adds it: column 0 holds each mask's planner value (inf if infeasible),
    column 1 + j its value with BS j taking the residual (inf if it cannot).
    The candidates are the cells within 1e-9 of the least value, in
    row-major order; one social_cost call costs their grants, and the first
    candidate within 1e-12 of the least social cost wins.
    """
    n = market.n
    if n > 12:
        raise ParameterError(f"brute force limited to N <= 12, got {n}")
    p, p1, p2 = market.p, market.p1, market.p2
    full_rate, _, full_cost = optimal_demand(market, market.lambda_bar, p, p1, p2)
    grid_cost = p2 * market.lambda_bar

    # served[i] flags the masks serving BS i; `values` is stored by column for speed.
    served = ((np.arange(1 << n) >> np.arange(n)[:, None]) & 1).astype(bool)
    used = sum(np.where(served[i], full_rate[i], 0.0) for i in range(n))
    value = sum(np.where(served[i], full_cost[i], grid_cost[i]) for i in range(n))
    feasible = used <= market.mu0 + FEAS_EPS
    residual = market.mu0 - used
    has_residual = feasible & (residual > FEAS_EPS)
    values = np.full((1 << n, n + 1), math.inf, order="F")
    values[feasible, 0] = value[feasible]
    for j, pr in enumerate(market.profiles):
        # Only where BS j can take the residual, so no sqrt sees an infeasible mask.
        takes = np.flatnonzero(has_residual & ~served[j] & (residual < full_rate[j]))
        lam = _lambda_on_curve(pr, residual[takes], p)
        values[takes, 1 + j] = value[takes] - grid_cost[j] + optimal_demand(pr, lam, p, p1, p2)[2]
    # Mask 0 serves nobody, so it is feasible and the least value is finite.
    masks, cols = np.nonzero(values <= values.min() + 1e-9)
    grants = np.where(served[:, masks].T, full_rate, 0.0)
    takers = np.flatnonzero(cols)
    grants[takers, cols[takers] - 1] = residual[masks[takers]]
    costs = social_cost(market, grants)
    best = int(np.argmax(costs <= costs.min() + 1e-12))
    return tuple(grants[best].tolist()), float(costs[best])


class DeviationGrid(namedtuple("DeviationGrid", "n_points span n_scenarios seed")):
    """Audit resolution: n_points deviations per BS, covering [0, span * truthful
    order], and n_scenarios random opponent perturbations beyond truthful."""

    __slots__ = ()

    def __new__(cls, n_points: int = 200, span: float = 2.5, n_scenarios: int = 20, seed: int = 0):
        grid = (_whole("n_points", n_points, 2), span, _whole("n_scenarios", n_scenarios, 0),
                _whole("seed", seed, 0))
        _positive("span", span)
        return tuple.__new__(cls, grid)


class AuditReport(namedtuple("AuditReport",
                             "mechanism max_improvement improvements truthful_dominant")):
    """Outcome of a dominant-strategy audit for one mechanism: max_improvement,
    the best cost cut any BS found anywhere; improvements, the per-BS maxima
    over scenarios and grid; truthful_dominant, max_improvement <= 1e-9."""

    __slots__ = ()


def truthfulness_audit(
    market: Market, mechanism, grid: DeviationGrid = DeviationGrid()
) -> AuditReport:
    """Check whether truthful ordering is a dominant equilibrium.

    For every BS, every opponent scenario (truthful orders plus
    `n_scenarios` random multiplicative perturbations, each factor uniform
    on `OPPONENT_PERTURBATION`) and every deviation on the grid, compares
    the deviator's post-allocation cost against its cost under truthful
    reporting in the same scenario.  The verdict is truthful-dominant iff
    no deviation improves cost by more than 1e-9.

    Each station's deviation orders (its truthful order, then the grid)
    form an (N, n_points + 1) array.  The mechanism's deviation kernel
    computes every deviator's grant at each of them from its opponents'
    sorted orders, for groups of scenarios whose (G, N, n_points + 1)
    arrays fit in `_AUDIT_CALL_BYTES` (128 KiB), and at least one.  Each
    group also makes one `mechanism` call on every deviator's truthful
    row, and the kernel's truthful grants must equal it bit for bit.  One
    `post_allocation_cost` call then costs the whole group, every station
    on its own (last) axis, and the group's largest gains are folded into
    a running per-station maximum, so memory does not grow with
    `n_scenarios`.

    Refused before anything is allocated: a `mechanism` without a
    deviation kernel (only the three mechanisms here have one), an
    (N, n_points + 1) array past `MAX_AUDIT_MATRIX_BYTES`, more than
    `MAX_AUDIT_CELLS` order cells N^2 (n_points + 1) (n_scenarios + 1),
    and a market whose costs may pass half of float range, where a gain
    would read inf - inf.  Deviator i's grant a is at most its order and
    mu0: a <= A = min(mu0, max(span mu_hat_i, m*_i)).  With gamma = ln(1 + b_i),
    q = p2 - p1 > p and lam <= min(lambda_bar_i, a (1 - FEAS_EPS)), the cost's
    terms and products are bounded: p a <= p A, p1 lam + p2 (lambda_bar_i - lam)
    <= p2 lambda_bar_i, a gamma/q and lam gamma <= A gamma (1 + 1/q), and
    lam gamma/(a - lam) <= gamma/FEAS_EPS.  Their sum B_i <= max float / 2
    keeps every cost and gain finite, with room for rounding.  So does
    max(n_points, N) times the largest order, a grid top or a perturbed
    truthful order, for the grid and every row's sum of orders.
    """
    name = getattr(mechanism, "__name__", str(mechanism))
    kernel = getattr(mechanism, "_deviation_grants", None)
    if kernel is None:
        raise ParameterError(
            f"{name} has no deviation kernel; the audit takes proportional_allocation, "
            f"pareto_priority_allocation or adaptive_uniform_allocation")
    n, rows, n_scen = market.n, grid.n_points + 1, grid.n_scenarios + 1
    scenario_bytes = rows * n * 8
    if scenario_bytes > MAX_AUDIT_MATRIX_BYTES:
        raise ParameterError(
            f"an audit order matrix of {rows} x {n} floats needs "
            f"{scenario_bytes / 2**20:.0f} MiB, more than {MAX_AUDIT_MATRIX_BYTES // 2**20} MiB; "
            f"lower n_points or the station count")
    cells = n * n * rows * n_scen
    if cells > MAX_AUDIT_CELLS:
        raise ParameterError(
            f"an audit of {cells:.3g} order cells ({n}^2 stations x {rows} orders x "
            f"{n_scen} scenarios) is more than {MAX_AUDIT_CELLS:.3g}; "
            f"lower the station count, n_points or n_scenarios")
    # Station i's deviation grid spans [0, span * mu_hat(lambda_bar_i)], up to its full demand.
    with np.errstate(over="ignore"):        # an overflow reads inf, refused below
        tops = grid.span * _mu_on_curve(market, market.lambda_bar, market.p)
    i = int(np.argmin((0.0 < tops) & (tops <= _FLOAT_MAX)))    # the first refused, else 0
    _positive(f"station {i}'s largest deviation order span * mu_hat", tops[i].item())
    m_star = np.array(truthful_orders(market).orders)
    p, p2, q = market.p, market.p2, market.p2 - market.p1
    a = np.minimum(market.mu0, np.maximum(tops, m_star))
    # An overflow reads inf, and 0 * inf nan, as in float arithmetic; both are refused.
    with np.errstate(over="ignore", invalid="ignore"):
        bound = p * a + p2 * market.lambda_bar + market.gamma * (a + a / q + 1.0 / FEAS_EPS)
    i = int(np.argmin(bound <= 0.5 * _FLOAT_MAX))
    if not bound[i] <= 0.5 * _FLOAT_MAX:
        raise ParameterError(
            f"station {i}'s post-allocation costs are bounded only by {bound[i]:.3g}, "
            f"past half of float range; lower its rate, the prices or mu0")
    # The grid's top * (n_points - 1) and each row's sum of N orders must stay in float range.
    largest = max(float(tops.max()), OPPONENT_PERTURBATION[1] * float(m_star.max()))
    if not max(grid.n_points, n) * largest <= 0.5 * _FLOAT_MAX:
        raise ParameterError(f"the audit's largest order {largest:.3g} times max(n_points, "
                             f"stations) passes half of float range; lower the rates, span or mu0")
    rng = np.random.default_rng(grid.seed)
    scenarios = np.empty((n_scen, n))
    scenarios[0] = m_star
    scenarios[1:] = m_star * rng.uniform(*OPPONENT_PERTURBATION, size=(grid.n_scenarios, n))

    # Column 0 of each station's orders is its truthful order, then the grid.
    orders = np.empty((n, rows))
    orders[:, 0] = m_star
    orders[:, 1:] = tops[:, None] * np.arange(grid.n_points) / (grid.n_points - 1)

    thresholds = _thresholds(market)
    per_group = max(1, _AUDIT_CALL_BYTES // scenario_bytes)
    diag = np.arange(n)
    improvements = np.zeros(n)
    for first in range(0, n_scen, per_group):
        scen = scenarios[first:first + per_group]
        grants = kernel(market, scen, orders, thresholds)
        truthful = np.repeat(scen, n, axis=0)
        truthful.reshape(len(scen), n, n)[:, diag, diag] = m_star
        called = mechanism(market, truthful).reshape(len(scen), n, n)[:, diag, diag]
        if called.T.tobytes() != grants[:, :, 0].tobytes():
            raise ParameterError(
                f"{name}'s grants at the truthful orders differ from its deviation kernel's")
        # cost[k, t, i]: deviator i's cost at its order t in scenario k.
        _, cost = post_allocation_cost(market, grants.transpose(1, 2, 0),
                                       market.p, market.p1, market.p2)
        # Costs are positive, so no gain is -0.0; fmax skips a nan gain as a running max() did.
        improvements = np.fmax(improvements, np.fmax.reduce(cost[:, :1] - cost[:, 1:], axis=(0, 1)))
    max_improvement = float(improvements.max())
    return AuditReport(name, max_improvement, tuple(improvements.tolist()),
                       max_improvement <= 1e-9)
