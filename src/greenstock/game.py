"""The two-player supply-inventory game between a base station and its supplier.

The BS picks the base-stock level s, the supplier picks the normalized
supply rate nu in (0, phi), not below the smallest normal float, the floor of
every rate.
Normalized per-unit-time costs:

    bs cost       C_o(s, nu) = s - (1 - e^{-nu s})/nu + alpha*b * e^{-nu s}/nu
    supplier cost C_r(s, nu) = (1-alpha)*b * e^{-nu s}/nu + c_s (nu+1)/(phi-nu)

The module provides the closed-form Nash equilibrium, best-response
dynamics (convergent because the game is supermodular once nu is ordered
in reverse), the centralized benchmark, the competition penalty, the
linear contract (one sharing fraction eps) that aligns both objectives
with the centralized cost, and the renewable/grid load split built on top
of the equilibrium cost.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import NormalizedParams, StrategyPair, mean_backlog, mean_inventory
from .errors import (_FLOAT_MAX, _FLOAT_MIN, ConvergenceError, DegenerateGameError,
                     ParameterError, _Frozen, _nonnegative, _positive, _rate, _whole)

class GameInstance(_Frozen, namedtuple("GameInstance", "norm")):
    """One game, fully described by its normalized parameters.

    b, cs, phi and alpha are read off `norm`, and the constants the game functions
    share, log_ab = ln(1 + alpha*b), gamma = ln(1 + b), residual_b = (1 - alpha)*b,
    inv_f = 1/`auxiliary_f`, and `rps_best_response`'s rps_level and nu_top, the float
    below phi, are derived once.  None of them takes part in `==`, `hash` or the
    repr, which stay those of `norm`.
    """

    def __new__(cls, norm: NormalizedParams):
        self = tuple.__new__(cls, (norm,))
        b, cs, alpha = norm.b_n, norm.cs_n, norm.alpha
        ab, log_ab = alpha * b, math.log1p(alpha * b)
        residual_b = (1.0 - alpha) * b     # not b - alpha*b, which cancels as alpha -> 1
        # Three roots, not one of the quotient, which can leave float range where 1/f does not.
        inv_f = (math.sqrt(cs) / math.sqrt(residual_b) * math.sqrt((1.0 + ab) / (1.0 + log_ab))
                 if residual_b > 0.0 else math.inf)     # inf where alpha = 1 or b = 0
        # Three logs, not one of the quotient, which can underflow to 0.
        rps_level = (math.log(residual_b) - math.log(cs) - math.log1p(norm.phi)
                     if residual_b > 0.0 else -math.inf)
        self.__dict__.update(b=b, cs=cs, phi=norm.phi, alpha=alpha, log_ab=log_ab,
                             gamma=math.log1p(b), residual_b=residual_b, inv_f=inv_f,
                             rps_level=rps_level, nu_top=math.nextafter(norm.phi, 0.0))
        return self


class EquilibriumReport(namedtuple("EquilibriumReport", "ne cost_bs_ne cost_rps_ne central "
                                   "cost_central penalty epsilon_range")):
    """Equilibrium, centralized benchmark and contract range for one instance;
    epsilon_range is a (lo, hi) pair, or None when empty after clipping."""

    __slots__ = ()


def _check_domain(g: GameInstance, x: StrategyPair) -> None:
    if not x.nu < g.phi:
        raise ParameterError(f"nu must stay below phi={g.phi}, got {x.nu}")


def cost_bs(g: GameInstance, x: StrategyPair) -> float:
    """BS cost: reservation plus its backlog share."""
    _check_domain(g, x)
    return mean_inventory(x.s, x.nu) + g.alpha * g.b * mean_backlog(x.s, x.nu)


def cost_rps(g: GameInstance, x: StrategyPair) -> float:
    """Supplier cost: residual backlog share plus the load-factor supply term."""
    _check_domain(g, x)
    supply = g.cs * (x.nu + 1.0) / (g.phi - x.nu)
    if supply == math.inf:
        supply = g.cs / (g.phi - x.nu) * (x.nu + 1.0)   # only c_s (nu + 1) overflowed
    cost = g.residual_b * mean_backlog(x.s, x.nu) + supply
    if not cost <= _FLOAT_MAX:
        raise DegenerateGameError(f"the supplier's cost overflows float range at {x}")
    return cost


def total_cost(g: GameInstance, x: StrategyPair) -> float:
    """Joint cost C = C_o + C_r."""
    return cost_bs(g, x) + cost_rps(g, x)


def auxiliary_f(g: GameInstance) -> float:
    """f = sqrt((b - ab + (b - ab) ln(1 + ab)) / (c_s (1 + ab))), ab = alpha*b, as 1/`inv_f`.

    Zero exactly when alpha = 1 or b = 0, which are the degenerate games.
    """
    return 1.0 / g.inv_f


def bs_best_response(g: GameInstance, nu: float) -> float:
    """Optimal base stock for a fixed supply rate: s*(nu) = ln(1 + alpha*b)/nu.

    nu must be finite and not below the smallest normal float, and a stock
    past float range is refused."""
    if not _FLOAT_MIN <= nu <= _FLOAT_MAX:
        _rate("nu", nu)
    s = g.log_ab / nu
    if not s <= _FLOAT_MAX:
        raise ParameterError(f"the stock ln(1 + alpha*b)/nu overflows float range at nu={nu}")
    return s


def rps_best_response(g: GameInstance, s: float, start: float | None = None) -> float:
    """Supplier's best response: the unique root nu in (0, phi) of the
    first-order condition

        (1-alpha)*b * e^{-nu s} (nu s + 1) / nu^2 = c_s (1 + phi) / (phi - nu)^2.

    With x = ln nu, w = nu s and level = ln((1-alpha)b / (c_s(1+phi))), the
    log ratio of its two positive sides

        H(x)   = level - w + ln(1 + w) + 2 ln(phi - nu) - 2x,
        -H'(x) = w^2/(1 + w) + 2 nu/(phi - nu) + 2 >= 2,
        H''(x) = -w^2 (2 + w)/(1 + w)^2 - 2 nu phi/(phi - nu)^2 < 0,

    is strictly decreasing and concave, for any finite s >= 0.  Newton steps
    nu <- nu exp(-H/H') from `start` when it lies strictly inside [lo, hi],
    else from the midpoint, with lo the smallest normal float, the floor of
    every rate, and hi = min(the float below phi, max float / s), no bound at
    s = 0; the root lies below max float / s, and a phi whose float below is
    not above lo leaves an empty bracket (ParameterError).  H lies
    below its tangents, so a step from an iterate right of the root (H <= 0)
    lands right of it again, and one from the left does too, unless it
    reaches hi and is cut to the midpoint toward hi.  The loop returns the
    iterate where the step rounds away, or where H > 0 after an iterate with
    H <= 0 (rounding crossed the root); |H|/2 bounds the error in ln nu.  An
    iterate below lo comes from the right, so the root lies below the
    bracket, and DegenerateGameError is raised.  Termination: right of the
    root the iterates strictly decrease, and the cuts, made only from the
    left, form at most one run, of strictly increasing nu below hi.
    """
    if not 0.0 <= s <= _FLOAT_MAX:
        _nonnegative("s", s)
    if g.residual_b <= 0:
        raise DegenerateGameError(
            "no interior minimum: cost is increasing in nu when alpha=1 or b=0 "
            "(best response sits at the nu=0 boundary)")
    phi, level = g.phi, g.rps_level
    lo, hi = _FLOAT_MIN, min(g.nu_top, _FLOAT_MAX / s) if s else g.nu_top
    if not lo < hi:
        raise ParameterError(f"phi={phi} leaves no room for nu in [{lo}, {hi}]")
    log, log1p, exp = math.log, math.log1p, math.exp
    nu = start if start is not None and lo < start < hi else 0.5 * (lo + hi)
    right = False
    while True:
        w, gap = nu * s, phi - nu
        ratio = gap / nu    # one log, not two, unless phi/nu passes float range
        h = level - w + log1p(w) + 2.0 * (log(ratio) if ratio <= _FLOAT_MAX else log(gap) - log(nu))
        if h > 0.0 and right:
            break   # rounding crossed the root
        right = right or h <= 0.0
        step = h / (w * (w / (1.0 + w)) + 2.0 * nu / gap + 2.0)
        new = nu * exp(step) if step < 709.0 else hi    # past exp's range: taken as reaching hi
        if not new < hi:
            new = nu + 0.5 * (hi - nu)
        if new == nu:
            break   # the step rounds away: nu is the root to working precision
        if new < lo:
            raise DegenerateGameError(
                f"the supplier's best response lies below the bracket [{lo}, {hi}] "
                f"for nu (s={s}): the first-order condition is negative at nu={lo}")
        nu = new
    return nu


def _interior_optimum(g: GameInstance, k: float, level: float, name: str) -> StrategyPair:
    """nu = phi/(1 + k sqrt(1 + phi)) and s = level/nu, the one closed form of both
    interior optima.  nu is computed as (phi/r)/(k + 1/r), r = sqrt(1 + phi), which
    is finite wherever nu is; a nu below the smallest normal float, the floor of
    every rate, or one that rounds onto phi raises DegenerateGameError."""
    r = math.sqrt(1.0 + g.phi)
    nu = (g.phi / r) / (k + 1.0 / r)
    if not _FLOAT_MIN <= nu < g.phi:
        raise DegenerateGameError(f"the {name} " + (
            f"underflows to {nu}, below the smallest normal float {_FLOAT_MIN}"
            if nu < _FLOAT_MIN else f"rounds onto the pole phi={g.phi}"))
    return StrategyPair(s=level / nu, nu=nu)


def nash_equilibrium(g: GameInstance) -> StrategyPair:
    """Closed-form unique Nash equilibrium, a fixed point of both best responses:

        nu* = f*phi / (sqrt(1+phi) + f) = phi/(1 + (1/f) sqrt(1+phi)),
        s*  = ln(1 + alpha*b)/nu*,

    computed in 1/f (`GameInstance.inv_f`), which stays finite where f underflows.
    """
    if g.residual_b <= 0:
        raise DegenerateGameError(
            "no interior equilibrium when alpha = 1 or b = 0: the supplier drives nu to 0")
    return _interior_optimum(g, g.inv_f, g.log_ab, "equilibrium nu*")


def best_response_dynamics(
    g: GameInstance,
    start: StrategyPair,
    tol: float = 1e-9,
    max_iter: int | None = None,
) -> tuple[StrategyPair, list[StrategyPair]]:
    """Alternate bs_best_response and rps_best_response from `start`.

    Both reaction curves are decreasing, so the iteration is the usual
    monotone scheme for a supermodular game and converges to the unique
    equilibrium.  Each supplier solve answers the BS's own stock, s = 0
    included, starts at the previous nu and runs to rounding.  The iteration
    stops once each of |ds| and |dnu| is below `tol` or below 10 r times its
    own new value, with r = max(min(tol, 1e-10)/100, 2**-53), so it ends at
    any scale of s and nu.  A round scales the error in ln nu by at most
    q/(q + 2), q = w^2/(1 + w), w = ln(1 + alpha*b): games across float range
    took at most 25 (1 + q/2) rounds, and max_iter=None allows 64 (1 + q/2).
    Returns the fixed point and the iterate trace; raises ConvergenceError
    (trace attached) if max_iter is exhausted.
    """
    _positive("tol", tol)
    if max_iter is None:
        max_iter = math.ceil(64.0 * (1.0 + 0.5 * g.log_ab * g.log_ab / (1.0 + g.log_ab)))
    max_iter = _whole("max_iter", max_iter, 1)
    _check_domain(g, start)
    trace: list[StrategyPair] = [start]
    s_cur, nu_cur = start.s, start.nu
    # A relative stop below 10 * 2**-53 would ask for more than float precision.
    stop = 10.0 * max(min(tol, 1e-10) * 1e-2, 2**-53)
    nu_tol = 0.0    # round 1's ds reads the caller's start, no best response: dnu relative only
    for _ in range(max_iter):
        s_next = bs_best_response(g, nu_cur)
        nu_next = rps_best_response(g, s_next, start=nu_cur)
        # Both values are range-checked already: s by bs_best_response, nu in [lo, hi].
        pair = StrategyPair._make((s_next, nu_next))
        trace.append(pair)
        ds, dnu = abs(s_next - s_cur), abs(nu_next - nu_cur)
        if (ds < tol or ds < stop * s_next) and (dnu < nu_tol or dnu < stop * nu_next):
            return pair, trace
        s_cur, nu_cur, nu_tol = s_next, nu_next, tol
    raise ConvergenceError(
        f"best-response dynamics did not converge within {max_iter} iterations",
        trace=trace)


def centralized_optimum(g: GameInstance) -> StrategyPair:
    """Joint minimizer of C = C_o + C_r, the equilibrium's closed form with
    sqrt(c_s/gamma) in place of 1/f, gamma = ln(1 + b):

        nu_bar = phi/(1 + sqrt(c_s/gamma) sqrt(1+phi)),  s_bar = gamma / nu_bar.
    """
    if g.b <= 0:
        raise DegenerateGameError("centralized optimum requires b > 0")
    return _interior_optimum(g, math.sqrt(g.cs) / math.sqrt(g.gamma), g.gamma, "optimum nu_bar")


def centralized_cost(g: GameInstance) -> float:
    """Minimum joint cost C(s_bar, nu_bar) = (c_s + gamma + 2 sqrt(c_s gamma (1+phi)))/phi."""
    if g.b <= 0:
        raise DegenerateGameError("centralized cost requires b > 0")
    # Three roots, not one of the product, which can leave float range where the cost does not.
    root = math.sqrt(g.cs) * math.sqrt(g.gamma) * math.sqrt(1.0 + g.phi)
    cost = (g.cs + g.gamma + 2.0 * root) / g.phi
    if cost == math.inf and g.phi > 1.0:
        # Only the numerator overflowed: divide each term by phi first.
        cost = (g.cs / g.phi + g.gamma / g.phi
                + 2.0 * math.sqrt(g.cs / g.phi) * math.sqrt(g.gamma) * math.sqrt(1.0 + 1.0 / g.phi))
    if not cost <= _FLOAT_MAX:
        raise DegenerateGameError(f"the centralized cost overflows float range at b_n={g.b}, "
                                  f"cs_n={g.cs}, phi={g.phi}")
    return cost


def equilibrium_report(g: GameInstance) -> EquilibriumReport:
    """Bundle NE, centralized benchmark, penalty and contract range, the one
    place they are computed: from one NE and one centralized cost."""
    ne = nash_equilibrium(g)
    c_central = centralized_cost(g)
    if not c_central > 0.0:
        raise DegenerateGameError(f"the centralized cost underflows to 0 at b_n={g.b}, "
                                  f"cs_n={g.cs}, phi={g.phi}, and the penalty divides by it")
    bs, rps = cost_bs(g, ne), cost_rps(g, ne)
    penalty = (bs + rps) / c_central - 1.0
    ratio = rps / c_central
    lo, hi = max(ratio - penalty, 0.0), min(ratio, 1.0)
    return EquilibriumReport(ne, bs, rps, centralized_optimum(g), c_central, penalty,
                             None if lo > hi else (lo, hi))


def coordinated_costs(g: GameInstance, epsilon: float, x: StrategyPair) -> tuple[float, float]:
    """Costs under the linear contract with sharing fraction epsilon in [0, 1],
    whose transfer payment eps'(s,nu) = eps*C_o - (1-eps)*C_r leaves

        BS pays (1-eps) C(s, nu), supplier pays eps C(s, nu),

    so both are proportional to the centralized objective and the sum
    telescopes back to C exactly.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ParameterError(f"epsilon must lie in [0, 1], got {epsilon}")
    c = total_cost(g, x)
    return (1.0 - epsilon) * c, epsilon * c


def power_split(g: GameInstance, total_lambda: float, mu0: float, p1: float,
                p2: float) -> tuple[float, float]:
    """Split `total_lambda` between renewable service (rate lambda) and grid.

    Routing lambda to the renewable chain costs the equilibrium BS stock at
    headroom phi = mu0/lambda - 1 plus the energy bills.  With L = ln(1 + alpha*b),
    f = `auxiliary_f`, q = p2 - p1 and t = sqrt(lambda/mu0):

        C(lambda)  = L ((1/f) sqrt(mu0 lambda) + lambda)/(mu0 - lambda)
                     + p1 lambda + p2 (total_lambda - lambda),
        C'(lambda) = (L/(2 f mu0)) h(t) - q,   h(t) = (1 + 2ft + t^2)/(t (1 - t^2)^2).

    With k = 2f mu0 q/L and u = (1/f)(1 + t^2)/t + 2, h/f = u/(1 - t^2)^2, so
    C' has the sign of

        F(t) = ln u - 2 ln(1 - t^2) - ln(k/f),
        F'(t) = (1/f)(t^2 - 1)/(t^2 u) + 4t/(1 - t^2).

    F is strictly convex on (0, 1): (ln u)'' has the sign of
    a^2 (1 + 4t^2 - t^4) + 4at >= 0 with a = 1/f, and -2 ln(1 - t^2) is
    strictly convex.  So C has at most one interior local minimum, at the
    larger root t_2 of F, and lambda* is the cheapest of 0 (all-grid),
    hi = min(total_lambda, mu0 (1 - 1e-6)) and mu0 t^2 for the t where Newton
    on F ends, the smaller on a tie; only 0 and hi when L = 0 or q <= 0.  All
    is computed in `inv_f` = 1/f, finite where f overflows (a subnormal c_s);
    1/f is inf when alpha = 1 or b = 0, where the renewable cost is inf and lambda* = 0.

    Newton starts at t = sqrt(hi/mu0), unless that underflows to 0, and steps
    t <- t - F/F' while F > 0 and F' > 0.  F lies above its tangents, so
    when t_2 lies below the start the iterates fall monotonically onto it.
    F <= 0 at the start puts the minimum at 0 or hi.  With no root below the
    start, the iterates pass the minimum of F, where F' <= 0, and stop: C
    increases on (0, hi], and no candidate beats lambda = 0.  A step that
    does not land strictly inside (0, t) also ends the loop, so the iterates
    are a strictly decreasing run of positive floats, which ends.
    A bill p1 * total_lambda or p2 * total_lambda past float range is refused.
    """
    _positive("total_lambda", total_lambda)
    _positive("mu0", mu0)
    _nonnegative("energy prices", p1, p2)
    _nonnegative("the bill p1 * total_lambda", p1 * total_lambda)
    _nonnegative("the bill p2 * total_lambda", p2 * total_lambda)
    if g.residual_b <= 0.0:
        return 0.0, p2 * total_lambda
    log_ab, inv_f = g.log_ab, g.inv_f
    hi, q = min(total_lambda, mu0 * (1.0 - 1e-6)), p2 - p1
    lams = [0.0, hi]
    if log_ab > 0.0 and q > 0.0:
        level = math.log(2.0) + math.log(mu0) + math.log(q) - math.log(log_ab)
        t = math.sqrt(hi / mu0)
        while t > 0.0:
            # gap is F(t); slope is F'(t) (1 - t^2) t^2 u, of the sign of F'.
            tt = t * t
            u = inv_f * (1.0 + tt) / t + 2.0
            gap = math.log(u) - 2.0 * math.log1p(-tt) - level
            slope = 4.0 * t * tt * u - inv_f * (1.0 - tt) ** 2
            if not (gap > 0.0 and slope > 0.0):
                break
            newton = t - gap * (1.0 - tt) * tt * u / slope
            if not 0.0 < newton < t:
                break
            t = newton
        lams.append(min(mu0 * t * t, hi))

    def cost(lam: float) -> float:
        if lam >= mu0:
            return math.inf    # hi rounds to mu0 when mu0 is subnormal
        if lam == 0.0 or log_ab == 0.0:
            stock = 0.0    # no renewable stock, where 1/f = inf would make it inf * 0
        else:
            # L last: it can be subnormal, and the factor it scales is not.
            stock = (inv_f * math.sqrt(lam) * math.sqrt(mu0) + lam) / (mu0 - lam) * log_ab
        return stock + p1 * lam + p2 * (total_lambda - lam)

    best_cost, best_lam = min((cost(lam), lam) for lam in lams)
    return best_lam, best_cost
