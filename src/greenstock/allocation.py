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
break-even rate lambda_hat = 4 p gamma / (p2 - p1 - p)^2.

The supplier rations capacity mu0 across submitted orders with one of
three mechanisms: proportional, descending-order priority (with
below-break-even grants rejected), or the adaptive uniform rule that
makes truthful ordering a dominant strategy.  Each mechanism allocates
one OrderVector or, row by row, a (K, N) order matrix.  A brute-force
extreme point enumeration of the planner's problem and a deviation-grid
audit, which hands each mechanism the deviating stations' order blocks of
one opponent scenario stacked into a few matrices, close the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllGridRegimeError, ParameterError

FEAS_EPS = 1e-9
# Largest (n_points + 1, N) float64 block of one deviator's orders the
# audit accepts; a grid past it is refused before anything is allocated.
# The mechanism kernels hold about ten temporaries of a call's matrix.
MAX_AUDIT_MATRIX_BYTES = 2**25
# Orders per audit mechanism call: as many whole deviator blocks of one
# scenario as fit in this many bytes, and at least one.
_AUDIT_CALL_BYTES = 2**17
# Each audit scenario scales every truthful order by a factor uniform on this range.
OPPONENT_PERTURBATION = (0.5, 1.5)


@dataclass(frozen=True)
class BsProfile:
    """One base station: total arrival rate, normalized backlog cost, identity."""

    lambda_bar: float
    b: float
    index: int

    def __post_init__(self):
        # Written so that nan fails every range check.
        if not 0.0 < self.lambda_bar < math.inf:
            raise ParameterError(f"lambda_bar must be finite and > 0, got {self.lambda_bar}")
        if not 0.0 <= self.b < math.inf:
            raise ParameterError(f"b must be finite and >= 0, got {self.b}")


@dataclass(frozen=True)
class Market:
    """N >= 2 base stations facing one supplier of capacity mu0.

    Requires p2 > p1 + p; below that no BS orders renewable supply at all.
    """

    profiles: tuple[BsProfile, ...]
    mu0: float
    p: float
    p1: float
    p2: float

    def __post_init__(self):
        if len(self.profiles) < 2:
            raise ParameterError("a market needs at least 2 base stations")
        if not 0.0 < self.mu0 < math.inf:
            raise ParameterError(f"mu0 must be finite and > 0, got {self.mu0}")
        if not 0.0 < self.p < math.inf:
            raise ParameterError(f"incentive price p must be finite and > 0, got {self.p}")
        if not (0.0 <= self.p1 < math.inf and 0.0 <= self.p2 < math.inf):
            raise ParameterError(
                f"energy prices must be finite and >= 0 (p1={self.p1}, p2={self.p2})")
        if self.p2 <= self.p1 + self.p:
            raise ParameterError(
                f"p2 must exceed p1 + p for nonzero renewable demand "
                f"(p2={self.p2}, p1={self.p1}, p={self.p})")

    @property
    def n(self) -> int:
        return len(self.profiles)


@dataclass(frozen=True)
class OrderVector:
    """Per-BS supply-rate requests, aligned with Market.profiles."""

    orders: tuple[float, ...]

    def __post_init__(self):
        if not all(0.0 <= m < math.inf for m in self.orders):
            raise ParameterError("orders must be finite and >= 0")


@dataclass(frozen=True)
class AllocationResult:
    """Feasible grants (sum <= mu0, grant <= order), aligned with profiles.

    n_hat is the adaptive mechanism's split index (None otherwise);
    `rejected` lists indices zeroed by the take-or-leave step.
    """

    grants: tuple[float, ...]
    n_hat: int | None = None
    rejected: frozenset[int] = frozenset()


def optimal_demand(
    profile: BsProfile, lam: float, p: float, p1: float, p2: float
) -> tuple[float, float, float]:
    """Optimal supply rate, base stock and cost for serving `lam` renewably.

    Returns (mu_hat, s_hat, cost); lam = 0 degenerates to (0, 0, p2*lambda_bar).
    """
    if p <= 0:
        raise ParameterError(f"incentive price p must be > 0, got {p}")
    if not 0.0 <= lam <= profile.lambda_bar + FEAS_EPS:
        raise ParameterError(
            f"lam must lie in [0, lambda_bar={profile.lambda_bar}], got {lam}")
    s_hat = math.sqrt(p * lam * math.log1p(profile.b))
    cost = 2.0 * s_hat + (p + p1) * lam + p2 * (profile.lambda_bar - lam)
    return _mu_on_curve(profile, lam, p), s_hat, cost


def _mu_on_curve(profile: BsProfile, lam: float, p: float) -> float:
    return math.sqrt(lam * math.log1p(profile.b) / p) + lam


def breakeven_lambda(profile: BsProfile, p: float, p1: float, p2: float) -> float:
    """Arrival rate at which all-renewable and all-grid costs tie:

        lambda_hat = 4 p ln(1 + b) / (p2 - p1 - p)^2.

    A BS prefers all-renewable iff lambda_bar >= lambda_hat (the objective
    is concave in lambda, so the optimum sits at a boundary).
    """
    if p <= 0:
        raise ParameterError(f"incentive price p must be > 0, got {p}")
    if p2 <= p1 + p:
        raise AllGridRegimeError(
            f"p2 <= p1 + p: every BS orders zero renewable supply "
            f"(p2={p2}, p1={p1}, p={p})")
    return 4.0 * p * math.log1p(profile.b) / (p2 - p1 - p) ** 2


def breakeven_rate(profile: BsProfile, p: float, p1: float, p2: float) -> float:
    """Supply rate mu_hat(lambda_hat) at the break-even arrival rate.

    Grants live in supply-rate units, so take-or-leave rejections compare
    against this rate, not against lambda_hat itself.
    """
    return _mu_on_curve(profile, breakeven_lambda(profile, p, p1, p2), p)


def _lambda_on_curve(profile: BsProfile, rate: float, p: float) -> float:
    """Invert mu_hat(lambda) = rate: with g = sqrt(gamma/p), lambda = t^2 for
    t the positive root of t^2 + g t - rate = 0."""
    gamma = math.log1p(profile.b)
    if gamma == 0.0:
        return rate
    g = math.sqrt(gamma / p)
    t = 0.5 * (-g + math.sqrt(g * g + 4.0 * rate))
    return t * t


def truthful_orders(market: Market) -> OrderVector:
    """Each BS's optimal order: mu_hat(lambda_bar) when lambda_bar is past
    break-even, else 0 (all-grid)."""
    orders = []
    for pr in market.profiles:
        lam_hat = breakeven_lambda(pr, market.p, market.p1, market.p2)
        if pr.lambda_bar >= lam_hat and pr.b > 0:
            orders.append(optimal_demand(pr, pr.lambda_bar, market.p, market.p1, market.p2)[0])
        else:
            orders.append(0.0)
    return OrderVector(orders=tuple(orders))


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
    return np.array([breakeven_rate(pr, market.p, market.p1, market.p2)
                     for pr in market.profiles])


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


def pareto_priority_allocation(market: Market, orders):
    """Serve orders in descending size until capacity runs out.

    A partial grant below the break-even supply rate is rejected (zeroed);
    the freed capacity is not reassigned within the period.
    """
    m = _order_matrix(market, orders)
    idx, s = _descending(m)
    g = np.empty_like(s)
    capacity = np.full(len(s), market.mu0)
    for pos in range(market.n):
        g[:, pos] = np.minimum(s[:, pos], capacity)
        capacity -= g[:, pos]
    g = _unsort(g, idx)
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
    # n_hat is the largest k whose share fits; if none does, 1 with u = mu0.
    last = n - 1 - np.argmax(fits[:, ::-1], axis=1)
    found = fits.any(axis=1)
    u = np.where(found, uniform[np.arange(len(s)), last], market.mu0)
    scarce = _row_sums(m) > market.mu0
    n_hat = np.where(scarce, np.where(found, last + 1, 1), n)
    g = _unsort(np.where(scarce[:, None] & (k <= n_hat[:, None]), u[:, None], s), idx)
    rejected = (0.0 < g) & (g <= _thresholds(market))
    g[rejected] = 0.0
    return _result(orders, g, rejected, n_hat)


def post_allocation_cost(profile: BsProfile, granted_rate, p: float, p1: float, p2: float):
    """Best operating point for a BS holding supply rate `granted_rate`.

    The BS pays p per unit granted rate regardless of use, then picks the
    renewable-served share to minimize

        p*a + p1*lam + p2*(lambda_bar - lam) + lam*gamma/(a - lam),

    whose first-order condition gives
    lam(a) = clamp(a - sqrt(a*gamma/(p2 - p1)), 0, min(lambda_bar, a)).
    Returns (lam, cost); a = 0 returns (0, p2*lambda_bar).  A float rate
    gives floats, an array of rates gives arrays of the same shape.
    """
    lam, cost = _post_allocation(
        profile.lambda_bar, math.log1p(profile.b), granted_rate, p, p1, p2)
    if np.ndim(granted_rate) == 0:
        return float(lam), float(cost)
    return lam, cost


def _post_allocation(lambda_bar, gamma, granted_rate, p, p1, p2):
    """post_allocation_cost, elementwise over rates and profile arrays."""
    a = np.asarray(granted_rate, dtype=float)
    if not (a >= 0.0).all():
        raise ParameterError(f"granted rate must be >= 0, got {granted_rate}")
    lam = a - np.sqrt(a * gamma / (p2 - p1)) if p2 > p1 else 0.0 * a
    lam = np.minimum(np.maximum(lam, 0.0), np.minimum(lambda_bar, a * (1.0 - FEAS_EPS)))
    # lam > 0 implies a - lam >= a * FEAS_EPS > 0; where lam = 0 the last
    # term is 0 / (a + 1), so it adds exactly 0.
    return lam, (p * a + p1 * lam + p2 * (lambda_bar - lam)
                 + lam * gamma / (a - lam + (lam == 0.0)))


def social_cost(market: Market, grants) -> float:
    """Sum of post-allocation minimized costs across all base stations."""
    if isinstance(grants, AllocationResult):
        grants = grants.grants
    if len(grants) != market.n:
        raise ParameterError("grants length must match the market")
    total = sum(grants)
    if total > market.mu0 + 1e-6:
        raise ParameterError(f"grants sum {total} exceeds capacity {market.mu0}")
    profiles = market.profiles
    _, costs = _post_allocation(
        np.array([pr.lambda_bar for pr in profiles]),
        np.array([math.log1p(pr.b) for pr in profiles]),
        grants, market.p, market.p1, market.p2)
    # Python's sum adds left to right, as the planner's tie-breaks assume.
    return sum(costs.tolist())


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

    The loop below visits only the masks that `_masks_to_visit` finds, in
    one numpy pass over all 2^N, can change the result: 70 of 4,096 for
    lambda_bar = 0.5, 1.0, ..., 6.0, b = 2 and mu0 = 30.  Every other mask
    would return from each `consider` at its first comparison, so the
    result and the sequence of social_cost calls are those of a walk over
    every mask.
    """
    n = market.n
    if n > 12:
        raise ParameterError(f"brute force limited to N <= 12, got {n}")
    p, p1, p2 = market.p, market.p1, market.p2
    full_rate = [_mu_on_curve(pr, pr.lambda_bar, p) for pr in market.profiles]
    full_cost = [optimal_demand(pr, pr.lambda_bar, p, p1, p2)[2] for pr in market.profiles]
    grid_cost = [p2 * pr.lambda_bar for pr in market.profiles]

    best_value = math.inf
    best_social = math.inf
    best_grants: tuple[float, ...] = tuple(0.0 for _ in range(n))

    def consider(value: float, grants: tuple[float, ...]) -> None:
        nonlocal best_value, best_social, best_grants
        if value > best_value + 1e-9:
            return
        social = social_cost(market, grants)
        if value < best_value - 1e-9 or social < best_social - 1e-12:
            best_value = min(best_value, value)
            best_social = social
            best_grants = grants

    for mask in _masks_to_visit(market, full_rate, full_cost, grid_cost):
        used = 0.0
        value = 0.0
        for i in range(n):
            if mask >> i & 1:
                used += full_rate[i]
                value += full_cost[i]
            else:
                value += grid_cost[i]
        if used > market.mu0 + FEAS_EPS:
            continue
        grants = tuple(full_rate[i] if mask >> i & 1 else 0.0 for i in range(n))
        consider(value, grants)
        residual = market.mu0 - used
        if residual <= FEAS_EPS:
            continue
        for j in range(n):
            if mask >> j & 1 or residual >= full_rate[j]:
                continue
            lam_j = _lambda_on_curve(market.profiles[j], residual, p)
            cand = (value - grid_cost[j]
                    + optimal_demand(market.profiles[j], lam_j, p, p1, p2)[2])
            g = list(grants)
            g[j] = residual
            consider(cand, tuple(g))
    return best_grants, best_social


def _masks_to_visit(market: Market, full_rate, full_cost, grid_cost) -> list[int]:
    """The masks of social_optimum_bruteforce's loop that `consider` can act on.

    Repeats the loop's arithmetic over all 2^N masks at once: each mask's
    used rate, planner value and residual candidates, every sum added in
    the loop's left-to-right order so that it keeps its bits.  A mask's best
    candidate is the least of its value and its candidates.  `consider`
    keeps its best value within 1e-9 (plus rounding) of the least value it
    has seen, so it returns at once for every candidate of a mask whose best
    lies more than 2e-9 (plus four ulps, for that rounding) above the
    earlier masks' least best candidate.  The other masks are returned, in
    enumeration order.
    """
    n, p, p1, p2 = market.n, market.p, market.p1, market.p2
    served = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    used = np.zeros(1 << n)
    value = np.zeros(1 << n)
    for i in range(n):
        used += np.where(served[:, i], full_rate[i], 0.0)
        value += np.where(served[:, i], full_cost[i], grid_cost[i])
    feasible = used <= market.mu0 + FEAS_EPS
    best = np.where(feasible, value, math.inf)
    residual = market.mu0 - used
    has_residual = feasible & (residual > FEAS_EPS)
    for j, pr in enumerate(market.profiles):
        # Only where the loop tries BS j, so no sqrt sees an infeasible mask.
        takes = has_residual & ~served[:, j] & (residual < full_rate[j])
        rate = residual[takes]
        # _lambda_on_curve and optimal_demand's cost, operation by operation.
        gamma = math.log1p(pr.b)
        if gamma == 0.0:
            lam = rate
        else:
            g = math.sqrt(gamma / p)
            t = 0.5 * (-g + np.sqrt(g * g + 4.0 * rate))
            lam = t * t
        cost = 2.0 * np.sqrt(p * lam * gamma) + (p + p1) * lam + p2 * (pr.lambda_bar - lam)
        best[takes] = np.minimum(best[takes], value[takes] - grid_cost[j] + cost)
    # Mask 0 serves nobody, so it is feasible and its best is finite.
    earlier = np.concatenate(([best[0]], np.minimum.accumulate(best)[:-1]))
    bound = earlier + 2e-9
    bound += 4.0 * np.spacing(bound)
    return np.flatnonzero(best <= bound).tolist()


@dataclass(frozen=True)
class DeviationGrid:
    """Audit resolution: deviation grid per BS and opponent-order scenarios."""

    n_points: int = 200
    span: float = 2.5            # grid covers [0, span * truthful order]
    n_scenarios: int = 20        # random opponent perturbations beyond truthful
    seed: int = 0

    def __post_init__(self):
        if self.n_points < 2 or self.n_scenarios < 0:
            raise ParameterError("need n_points >= 2 and n_scenarios >= 0")
        if not 0.0 < self.span < math.inf:
            raise ParameterError(f"span must be finite and > 0, got {self.span}")


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a dominant-strategy audit for one mechanism."""

    mechanism: str
    max_improvement: float                  # best cost cut any BS found anywhere
    improvements: tuple[float, ...]         # per-BS maxima over scenarios and grid
    truthful_dominant: bool                 # max_improvement <= 1e-9


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

    Each deviator's orders in one scenario form an (n_points + 1, N)
    block: the truthful row, then the deviation rows.  `mechanism` is
    called on the blocks of consecutive deviators stacked into one order
    matrix, as many whole blocks as fit in `_AUDIT_CALL_BYTES` (128 KiB)
    and at least one, so a scenario takes ceil(N / blocks per call) calls:
    one at N = 8 and 200 points.  Each deviator's own grant column is
    copied out, and its costs come from one `post_allocation_cost` call
    over all scenarios.  A block larger than `MAX_AUDIT_MATRIX_BYTES` is
    refused before anything is allocated.
    """
    n, rows = market.n, grid.n_points + 1
    block_bytes = rows * n * 8
    if block_bytes > MAX_AUDIT_MATRIX_BYTES:
        raise ParameterError(
            f"an audit order matrix of {rows} x {n} floats needs "
            f"{block_bytes / 2**20:.0f} MiB, more than {MAX_AUDIT_MATRIX_BYTES // 2**20} MiB; "
            f"lower n_points")
    m_star = np.array(truthful_orders(market).orders)
    rng = np.random.default_rng(grid.seed)
    scenarios = [m_star]
    for _ in range(grid.n_scenarios):
        scenarios.append(m_star * rng.uniform(*OPPONENT_PERTURBATION, size=n))

    # Row 0 of each deviator's column is its truthful order, rows 1.. the grid.
    columns = np.empty((n, rows))
    for i, pr in enumerate(market.profiles):
        scale = m_star[i] if m_star[i] > 0 else _mu_on_curve(pr, pr.lambda_bar, market.p)
        columns[i, 0] = m_star[i]
        columns[i, 1:] = grid.span * scale * np.arange(grid.n_points) / (grid.n_points - 1)

    per_call = max(1, _AUDIT_CALL_BYTES // block_bytes)
    # own[i, k] is deviator i's grant column in scenario k; a copy, so that
    # no call's whole grant matrix outlives it.
    own = np.empty((n, len(scenarios), rows))
    for k, scen in enumerate(scenarios):
        for first in range(0, n, per_call):
            devs = np.arange(first, min(first + per_call, n))
            block = np.arange(len(devs))
            orders = np.tile(scen, (len(devs) * rows, 1))
            orders.reshape(len(devs), rows, n)[block, :, devs] = columns[devs]
            grants = mechanism(market, orders).reshape(len(devs), rows, n)
            own[devs, k] = grants[block, :, devs]

    improvements = []
    for i, pr in enumerate(market.profiles):
        _, cost = post_allocation_cost(pr, own[i], market.p, market.p1, market.p2)
        # Per scenario, as a running max from 0.0 over the scenarios in order.
        gains = np.max(cost[:, :1] - cost[:, 1:], axis=1)
        improvements.append(max([0.0, *gains.tolist()]))
    max_improvement = max(improvements)
    return AuditReport(
        mechanism=getattr(mechanism, "__name__", str(mechanism)),
        max_improvement=max_improvement,
        improvements=tuple(improvements),
        truthful_dominant=max_improvement <= 1e-9,
    )
