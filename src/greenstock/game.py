"""The two-player supply-inventory game between a base station and its supplier.

The BS picks the base-stock level s, the supplier picks the normalized
supply rate nu in (0, phi).  Normalized per-unit-time costs:

    bs cost       C_o(s, nu) = s - (1 - e^{-nu s})/nu + alpha*b * e^{-nu s}/nu
    supplier cost C_r(s, nu) = (1-alpha)*b * e^{-nu s}/nu + c_s (nu+1)/(phi-nu)

The module provides the closed-form Nash equilibrium, best-response
dynamics (convergent because the game is supermodular once nu is ordered
in reverse), the centralized benchmark, the competition penalty, the
cost-sharing transfer contract that aligns both objectives with the
centralized cost, and the renewable/grid load split built on top of the
equilibrium cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DOMAIN_EPS, NormalizedParams, StrategyPair, mean_backlog, mean_inventory
from .errors import ConvergenceError, DegenerateGameError, ParameterError

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GameInstance:
    """One game, fully described by its normalized parameters."""

    norm: NormalizedParams

    @property
    def b(self) -> float:
        return self.norm.b_n

    @property
    def cs(self) -> float:
        return self.norm.cs_n

    @property
    def phi(self) -> float:
        return self.norm.phi

    @property
    def alpha(self) -> float:
        return self.norm.alpha


@dataclass(frozen=True)
class TransferContract:
    """Cost-sharing fraction epsilon: supplier carries eps*C, BS carries (1-eps)*C."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ParameterError(f"epsilon must lie in [0, 1], got {self.epsilon}")


@dataclass(frozen=True)
class EquilibriumReport:
    """Equilibrium, centralized benchmark and contract range for one instance."""

    ne: StrategyPair
    cost_bs_ne: float
    cost_rps_ne: float
    central: StrategyPair
    cost_central: float
    penalty: float
    epsilon_range: tuple[float, float] | None   # None when empty after clipping


def _check_domain(g: GameInstance, x: StrategyPair) -> None:
    if x.nu >= g.phi - DOMAIN_EPS:
        raise ParameterError(f"nu must stay below phi={g.phi}, got {x.nu}")


def cost_bs(g: GameInstance, x: StrategyPair) -> float:
    """BS cost: reservation plus its backlog share."""
    _check_domain(g, x)
    return mean_inventory(x.s, x.nu) + g.alpha * g.b * mean_backlog(x.s, x.nu)


def cost_rps(g: GameInstance, x: StrategyPair) -> float:
    """Supplier cost: residual backlog share plus the load-factor supply term."""
    _check_domain(g, x)
    supply = g.cs * (x.nu + 1.0) / (g.phi - x.nu)
    return (1.0 - g.alpha) * g.b * mean_backlog(x.s, x.nu) + supply


def total_cost(g: GameInstance, x: StrategyPair) -> float:
    """Joint cost C = C_o + C_r."""
    return cost_bs(g, x) + cost_rps(g, x)


def auxiliary_f(g: GameInstance) -> float:
    """f = sqrt((b - ab + (b - ab) ln(1 + ab)) / (c_s (1 + ab))), ab = alpha*b.

    Zero exactly when alpha = 1 or b = 0, which are the degenerate games.
    """
    if g.cs <= 0:
        raise ParameterError("cs_n must be > 0 for the auxiliary function")
    ab = g.alpha * g.b
    # Not b - ab, which cancels to a wrong residual as alpha -> 1.
    residual = (1.0 - g.alpha) * g.b
    return math.sqrt(residual * (1.0 + math.log1p(ab)) / (g.cs * (1.0 + ab)))


def bs_best_response(g: GameInstance, nu: float) -> float:
    """Optimal base stock for a fixed supply rate: s*(nu) = ln(1 + alpha*b)/nu."""
    if not nu > 0:
        raise ParameterError(f"nu must be > 0, got {nu}")
    return math.log1p(g.alpha * g.b) / nu


def rps_best_response(g: GameInstance, s: float, tol: float = 1e-10) -> float:
    """Supplier's best response: the unique root nu in (0, phi) of the
    first-order condition

        (1-alpha)*b * e^{-nu s} (nu s + 1) / nu^2 = c_s (1 + phi) / (phi - nu)^2.

    Both sides are positive, so the root is the zero of their log ratio

        h(nu) = ln((1-alpha)b / (c_s(1+phi))) - nu s + ln(1 + nu s) + 2 ln((phi-nu)/nu),
        h'(nu) = -s * nu s/(1 + nu s) - 2/nu - 2/(phi-nu) < 0,

    which falls from +inf to -inf.  Guarded Newton (`rtsafe`, Press et al.,
    Numerical Recipes, 9.4) starts at the midpoint of the bracket
    [DOMAIN_EPS, phi - DOMAIN_EPS], and each evaluation of h moves one end
    of the bracket to the iterate by the sign of h.  The next iterate is
    the Newton point, or the midpoint when the Newton point leaves the
    bracket or is not at most half the step before last.  A Newton step
    shorter than `tol` becomes a probe `tol` past the iterate toward the
    root, which closes the bracket when the root is that near; when it is
    not, the midpoint follows.  Once the bracket is at most `tol` (floored
    at 4 ulps), or the Newton step rounds away, the Newton point is
    returned: within `tol` of the root, in practice exact to rounding, and
    strictly inside (0, phi).  When the root lies below DOMAIN_EPS, every
    evaluation moves the upper end down, and the iterate ends within `tol`
    of DOMAIN_EPS; h(DOMAIN_EPS) < 0 shows that case, evaluated only on
    such an exit, and raises DegenerateGameError.

    Termination: the bracket never grows and every midpoint halves it, so
    there are at most about log2(phi/tol) midpoints.  Between two of them,
    Newton steps at least halve every second evaluation, so within about
    2*log2(phi/tol) evaluations a step falls below `tol`, and its probe
    either closes the bracket or is followed by a midpoint.
    """
    if not tol > 0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    if not 0 < s < math.inf:
        raise ParameterError(f"s must be finite and > 0, got {s}")
    if g.cs <= 0:
        raise ParameterError("cs_n must be > 0")
    residual_b = (1.0 - g.alpha) * g.b
    if residual_b <= 0:
        raise DegenerateGameError(
            "no interior minimum: cost is increasing in nu when alpha=1 or b=0 "
            "(best response sits at the nu=0 boundary)")
    phi = g.phi
    lo, hi = DOMAIN_EPS, phi - DOMAIN_EPS
    if not lo < hi:
        raise ParameterError(f"phi={phi} leaves no room for nu in [{lo}, {hi}]")
    # Below a few ulps of the bracket the iterate stops moving.
    tol = max(tol, 4.0 * math.ulp(hi))
    # Three logs, not one of the quotient, which can underflow to 0.
    level = math.log(residual_b) - math.log(g.cs) - math.log1p(phi)
    nu = 0.5 * (lo + hi)
    step = step_old = hi - lo
    probed = False
    while True:
        ns = nu * s
        gap = phi - nu
        h = level - ns + math.log1p(ns) + 2.0 * math.log(gap / nu)
        if h > 0.0:
            lo = nu
        else:
            hi = nu
        newton = nu + h / (s * (ns / (1.0 + ns)) + 2.0 / nu + 2.0 / gap)
        if newton == nu:
            break   # the step rounds away: nu is the root to working precision
        if hi - lo <= tol:
            # Rounding can put Newton's point on an end, and hi may be phi itself.
            if lo <= newton <= hi < phi:
                nu = newton
            break
        step_old, step = step, abs(newton - nu)
        accept = lo < newton < hi and step <= 0.5 * step_old and not probed
        # A Newton step under tol does not show that the root is within tol
        # (the slope can change that fast near a pole): probe tol past nu
        # instead, which closes the bracket if it is.
        probe = nu + math.copysign(tol, h)
        probed = accept and step < tol and lo < probe < hi
        if probed:
            nu = probe
        elif accept:
            nu = newton
        else:
            step = 0.5 * (hi - lo)
            nu = lo + step
    if nu - DOMAIN_EPS <= tol:
        # Near the lower end, h there tells a root inside the bracket from
        # one below it, which no nu in the bracket approximates.
        ns = DOMAIN_EPS * s
        if level - ns + math.log1p(ns) + 2.0 * math.log((phi - DOMAIN_EPS) / DOMAIN_EPS) < 0.0:
            raise DegenerateGameError(
                f"the supplier's best response lies below the bracket "
                f"[{DOMAIN_EPS}, {phi - DOMAIN_EPS}] for nu (s={s}): the first-order "
                f"condition is negative at nu={DOMAIN_EPS}")
    return nu


def nash_equilibrium(g: GameInstance) -> StrategyPair:
    """Closed-form unique Nash equilibrium

        nu* = f*phi / (sqrt(1+phi) + f),
        s*  = (sqrt(1+phi) + f) ln(1 + alpha*b) / (f*phi),

    a fixed point of both best responses; nu* s* = ln(1 + alpha*b).
    """
    if g.alpha >= 1.0:
        raise DegenerateGameError("alpha = 1: supplier drives nu to 0, unstable system")
    if g.b <= 0:
        raise DegenerateGameError("b = 0: no backlog cost, both players idle at the boundary")
    f = auxiliary_f(g)
    if f <= 0:
        raise DegenerateGameError("degenerate game: auxiliary function vanishes")
    root = math.sqrt(1.0 + g.phi)
    nu = f * g.phi / (root + f)
    s = (root + f) * math.log1p(g.alpha * g.b) / (f * g.phi)
    return StrategyPair(s=s, nu=nu)


def best_response_dynamics(
    g: GameInstance,
    start: StrategyPair,
    tol: float = 1e-9,
    max_iter: int = 500,
) -> tuple[StrategyPair, list[StrategyPair]]:
    """Alternate bs_best_response and rps_best_response from `start`.

    Both reaction curves are decreasing, so the iteration is the usual
    monotone scheme for a supermodular game and converges to the unique
    equilibrium.  Returns the fixed point and the full iterate trace;
    raises ConvergenceError (trace attached) if max_iter is exhausted.
    """
    if not tol > 0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    _check_domain(g, start)
    trace: list[StrategyPair] = [start]
    s_cur, nu_cur = start.s, start.nu
    for _ in range(max_iter):
        s_next = bs_best_response(g, nu_cur)
        nu_next = rps_best_response(g, max(s_next, DOMAIN_EPS), tol=min(tol, 1e-10) * 1e-2)
        trace.append(StrategyPair(s=s_next, nu=nu_next))
        if abs(s_next - s_cur) < tol and abs(nu_next - nu_cur) < tol:
            return StrategyPair(s=s_next, nu=nu_next), trace
        s_cur, nu_cur = s_next, nu_next
    raise ConvergenceError(
        f"best-response dynamics did not converge within {max_iter} iterations",
        trace=trace)


def centralized_optimum(g: GameInstance) -> StrategyPair:
    """Joint minimizer of C = C_o + C_r with gamma = ln(1 + b):

        nu_bar = phi sqrt(c_s gamma) / (sqrt(c_s gamma) + c_s sqrt(phi+1)),
        s_bar  = gamma / nu_bar.
    """
    if g.b <= 0 or g.cs <= 0:
        raise DegenerateGameError("centralized optimum requires b > 0 and cs_n > 0")
    gamma = math.log1p(g.b)
    root = math.sqrt(g.cs * gamma)
    nu = g.phi * root / (root + g.cs * math.sqrt(g.phi + 1.0))
    return StrategyPair(s=gamma / nu, nu=nu)


def centralized_cost(g: GameInstance) -> float:
    """Minimum joint cost C(s_bar, nu_bar) = (c_s + gamma + 2 sqrt(c_s gamma (1+phi)))/phi."""
    if g.b <= 0 or g.cs <= 0:
        raise DegenerateGameError("centralized cost requires b > 0 and cs_n > 0")
    gamma = math.log1p(g.b)
    return (g.cs + gamma + 2.0 * math.sqrt(g.cs * gamma * (1.0 + g.phi))) / g.phi


def competition_penalty(g: GameInstance) -> float:
    """Relative excess of total equilibrium cost over the centralized minimum.

    Equilibrium costs come from direct substitution of the NE into the two
    cost functions, never from a re-derived closed form.
    """
    return equilibrium_report(g).penalty


def epsilon_range(g: GameInstance) -> tuple[float, float] | None:
    """Sharing fractions acceptable to both players:

        [C_r*/C - penalty, C_r*/C] intersected with [0, 1];

    None when the intersection is empty.
    """
    return equilibrium_report(g).epsilon_range


def equilibrium_report(g: GameInstance) -> EquilibriumReport:
    """Bundle NE, centralized benchmark, penalty and contract range, the one
    place they are computed: from one NE and one centralized cost."""
    ne = nash_equilibrium(g)
    bs, rps = cost_bs(g, ne), cost_rps(g, ne)
    c_central = centralized_cost(g)
    penalty = (bs + rps) / c_central - 1.0
    ratio = rps / c_central
    lo, hi = max(ratio - penalty, 0.0), min(ratio, 1.0)
    return EquilibriumReport(
        ne=ne,
        cost_bs_ne=bs,
        cost_rps_ne=rps,
        central=centralized_optimum(g),
        cost_central=c_central,
        penalty=penalty,
        epsilon_range=None if lo > hi else (lo, hi),
    )


def acceptable_contract(g: GameInstance, eps: float) -> TransferContract:
    """Build a TransferContract, requiring eps inside the acceptable range."""
    rng = epsilon_range(g)
    if rng is None or not rng[0] - 1e-12 <= eps <= rng[1] + 1e-12:
        raise ParameterError(
            f"epsilon {eps} outside the acceptable range {rng}")
    return TransferContract(epsilon=eps)


def coordinated_costs(
    g: GameInstance, contract: TransferContract, x: StrategyPair
) -> tuple[float, float]:
    """Costs under the transfer payment eps'(s,nu) = eps*C_o - (1-eps)*C_r:

        BS pays (1-eps) C(s, nu), supplier pays eps C(s, nu),

    so both are proportional to the centralized objective and the sum
    telescopes back to C exactly.
    """
    c = total_cost(g, x)
    return (1.0 - contract.epsilon) * c, contract.epsilon * c


def _golden_section(fn, lo: float, hi: float, tol: float) -> float:
    """Golden-section minimizer on [lo, hi]; returns the midpoint of the bracket."""
    a, b = lo, hi
    # Below a few ulps of the bracket the probes stop moving.
    tol = max(tol, 4.0 * math.ulp(hi))
    c = b - (b - a) * _INV_GOLDEN
    d = a + (b - a) * _INV_GOLDEN
    fc, fd = fn(c), fn(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_GOLDEN
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_GOLDEN
            fd = fn(d)
    return 0.5 * (a + b)


def power_split(
    g: GameInstance,
    total_lambda: float,
    mu0: float,
    p1: float,
    p2: float,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Split `total_lambda` between renewable service (rate lambda) and grid.

    The per-time cost of routing lambda to the renewable chain is the
    equilibrium BS cost rebuilt at headroom phi(lambda) = mu0/lambda - 1
    plus the energy bills:

        C_ls(lambda) = s*(lambda) + p1*lambda + p2*(total_lambda - lambda).

    Minimized over lambda in [0, min(total_lambda, mu0*(1-1e-6))] by a
    coarse presweep plus golden-section refinement (tolerance `tol`),
    compared against both boundary values.  lambda = 0 means all-grid.
    """
    if not tol > 0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    if not 0 < total_lambda < math.inf:
        raise ParameterError(f"total_lambda must be finite and > 0, got {total_lambda}")
    if not 0 < mu0 < math.inf:
        raise ParameterError(f"mu0 must be finite and > 0, got {mu0}")
    if not (0 <= p1 < math.inf and 0 <= p2 < math.inf):
        raise ParameterError(f"energy prices must be finite and >= 0, got p1={p1}, p2={p2}")
    f = auxiliary_f(g)
    log_ab = math.log1p(g.alpha * g.b)
    hi = min(total_lambda, mu0 * (1.0 - 1e-6))

    def cost(lam: float) -> float:
        if lam <= 0.0:
            return p2 * total_lambda
        phi = mu0 / lam - 1.0
        if phi <= DOMAIN_EPS or f <= 0.0:
            return math.inf
        s_star = (math.sqrt(1.0 + phi) + f) * log_ab / (f * phi)
        return s_star + p1 * lam + p2 * (total_lambda - lam)

    # Presweep brackets the minimum in case the profile is not unimodal.
    n_coarse = 128
    grid = [hi * k / n_coarse for k in range(n_coarse + 1)]
    values = [cost(x) for x in grid]
    k_best = min(range(len(grid)), key=values.__getitem__)
    lo_b = grid[max(k_best - 1, 0)]
    hi_b = grid[min(k_best + 1, n_coarse)]
    lam_star = _golden_section(cost, lo_b, hi_b, tol)

    candidates = [(cost(0.0), 0.0), (cost(hi), hi), (cost(lam_star), lam_star)]
    best_cost, best_lam = min(candidates)
    return best_lam, best_cost
