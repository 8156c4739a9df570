"""Supply-inventory game: equilibrium, benchmark and contract machinery.

Closed forms are cross-checked against independent grid/refinement
oracles; property checks draw random valid instances from a seeded rng,
or from the whole `NormalizedParams` domain with hypothesis.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from greenstock import (
    DOMAIN_EPS,
    ConvergenceError,
    DegenerateGameError,
    GameInstance,
    GreenstockError,
    NormalizedParams,
    ParameterError,
    StrategyPair,
    TransferContract,
    acceptable_contract,
    auxiliary_f,
    best_response_dynamics,
    bs_best_response,
    centralized_cost,
    centralized_optimum,
    competition_penalty,
    coordinated_costs,
    cost_bs,
    cost_rps,
    epsilon_range,
    equilibrium_report,
    nash_equilibrium,
    power_split,
    rps_best_response,
    total_cost,
)

REF = GameInstance(NormalizedParams(b_n=10.0, cs_n=5.0, phi=1.0, alpha=0.5))


def make_game(b, cs, phi, alpha):
    return GameInstance(NormalizedParams(b_n=b, cs_n=cs, phi=phi, alpha=alpha))


def random_games(n, seed=20240215):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield make_game(rng.uniform(1, 20), rng.uniform(1, 10),
                        rng.uniform(0.5, 3), rng.uniform(0.1, 0.9))


def refine_minimum_2d(fn, s_hi, nu_hi, rounds=6, pts=60):
    """Coordinate-window grid refinement, independent of any closed form."""
    s_lo, nu_lo = 1e-6, 1e-6
    best = (math.inf, None, None)
    for _ in range(rounds):
        s_axis = np.linspace(s_lo, s_hi, pts)
        nu_axis = np.linspace(nu_lo, nu_hi, pts)
        vals = np.array([[fn(s, nu) for nu in nu_axis] for s in s_axis])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        best = (vals[i, j], s_axis[i], nu_axis[j])
        ds = s_axis[1] - s_axis[0]
        dn = nu_axis[1] - nu_axis[0]
        s_lo, s_hi = max(s_axis[i] - 2 * ds, 1e-9), s_axis[i] + 2 * ds
        nu_lo, nu_hi = max(nu_axis[j] - 2 * dn, 1e-9), nu_axis[j] + 2 * dn
    return best


# ------------------------------------------------------------- cost forms

def test_cost_bs_equals_stock_at_equilibrium_exposure():
    """With e^{-nu s} = 1/(1 + alpha b), the BS cost collapses to s."""
    x = StrategyPair(s=5.5065, nu=math.log(6.0) / 5.5065)
    assert cost_bs(REF, x) == pytest.approx(5.5065, abs=1e-9)
    x2 = StrategyPair(s=7.2947, nu=math.log(11.0) / 7.2947)
    g_full = make_game(10.0, 5.0, 1.0, 1.0)
    assert cost_bs(g_full, x2) == pytest.approx(7.2947, abs=1e-9)


def test_cost_bs_pure_backlog_at_zero_stock():
    nu = 0.4
    assert cost_bs(REF, StrategyPair(s=0.0, nu=nu)) == pytest.approx(
        0.5 * 10.0 / nu, abs=1e-12)


def test_cost_rps_reference_value():
    x = StrategyPair(s=5.5065243614039305, nu=0.3253884576969768)
    assert cost_rps(REF, x) == pytest.approx(12.384387, abs=1e-5)


def test_cost_rps_alpha_one_drops_backlog_term():
    g = make_game(10.0, 5.0, 1.0, 1.0)
    x = StrategyPair(s=3.0, nu=0.5)
    assert cost_rps(g, x) == pytest.approx(5.0 * 1.5 / 0.5, abs=1e-12)


def test_cost_rps_rejects_supply_pole():
    with pytest.raises(ParameterError):
        cost_rps(REF, StrategyPair(s=1.0, nu=1.0))
    with pytest.raises(ParameterError):
        cost_rps(REF, StrategyPair(s=1.0, nu=1.5))


# ------------------------------------------------------ auxiliary function

def test_auxiliary_reference_value():
    assert auxiliary_f(REF) == pytest.approx(math.sqrt((5 + 5 * math.log(6)) / 30),
                                             abs=1e-12)
    assert auxiliary_f(REF) == pytest.approx(0.682124, abs=1e-5)


def test_auxiliary_vanishes_only_when_degenerate():
    assert auxiliary_f(make_game(10.0, 5.0, 1.0, 1.0)) == 0.0
    assert auxiliary_f(make_game(0.0, 5.0, 1.0, 0.5)) == 0.0
    with pytest.raises(ParameterError):
        auxiliary_f(make_game(10.0, 0.0, 1.0, 0.5))


# --------------------------------------------------------- best responses

def test_bs_best_response_closed_form():
    assert bs_best_response(REF, 0.32539) == pytest.approx(
        math.log(6.0) / 0.32539, abs=1e-12)
    assert bs_best_response(make_game(10.0, 5.0, 1.0, 0.0), 0.7) == 0.0
    assert bs_best_response(make_game(5.0 / 0.5, 5.0, 1.0, 0.5), math.log(6.0)) == (
        pytest.approx(1.0, abs=1e-12))


def test_bs_best_response_minimizes_cost():
    for nu in (0.1, 0.3253884576969768, 0.8):
        s_star = bs_best_response(REF, nu)
        base = cost_bs(REF, StrategyPair(s=s_star, nu=nu))
        for s in np.linspace(1e-6, 4 * s_star + 1.0, 500):
            assert cost_bs(REF, StrategyPair(s=float(s), nu=nu)) >= base - 1e-9


def test_rps_best_response_reference_root():
    assert rps_best_response(REF, 5.5065) == pytest.approx(0.325388, abs=1e-5)


def test_rps_best_response_minimizes_cost():
    s = 5.5065
    nu_star = rps_best_response(REF, s)
    base = cost_rps(REF, StrategyPair(s=s, nu=nu_star))
    grid = np.linspace(1e-6, REF.phi - 1e-6, 20_000)
    vals = [cost_rps(REF, StrategyPair(s=s, nu=float(nu))) for nu in grid]
    assert base <= min(vals) + 1e-8
    assert abs(grid[int(np.argmin(vals))] - nu_star) < 1e-4


def test_rps_best_response_boundary_signal():
    with pytest.raises(DegenerateGameError):
        rps_best_response(make_game(10.0, 5.0, 1.0, 1.0), 4.0)
    with pytest.raises(DegenerateGameError):
        rps_best_response(make_game(0.0, 5.0, 1.0, 0.5), 4.0)


def test_rps_best_response_falls_with_supply_cost():
    nus = [rps_best_response(make_game(10.0, cs, 1.0, 0.5), 5.5065)
           for cs in (5.0, 50.0, 500.0)]
    assert nus[0] > nus[1] > nus[2] > 0.0


def test_rps_best_response_rejects_an_empty_bracket():
    for phi in (1e-13, 2 * DOMAIN_EPS):
        with pytest.raises(ParameterError, match="no room"):
            rps_best_response(make_game(10.0, 5.0, phi, 0.5), 5.5065)
    for phi in (3e-12, 1e-9, 1e-6):
        nu = rps_best_response(make_game(10.0, 5.0, phi, 0.5), 5.5065)
        assert 0.0 < nu < phi


def test_rps_best_response_refuses_a_root_below_the_bracket():
    # nu* = 3.3e-13 < DOMAIN_EPS: the dynamics reported the "fixed point"
    # nu = 1.93e-12, s = 5.2e8 here, against the closed form's s* = 3.0e9.
    g = make_game(1e-3, 1.0, 1e-3, 1.0 - 1.1e-16)
    assert nash_equilibrium(g).nu < DOMAIN_EPS
    with pytest.raises(DegenerateGameError, match=r"below the bracket \[1e-12, "):
        rps_best_response(g, 1.0)
    with pytest.raises(DegenerateGameError, match="below the bracket"):
        best_response_dynamics(g, StrategyPair(s=1.0, nu=0.5 * g.phi), tol=1e-9)
    with pytest.raises(ParameterError, match=r"nu must be > DOMAIN_EPS=1e-12, got 3\.33"):
        cost_bs(g, nash_equilibrium(g))


@pytest.mark.parametrize("call", [
    lambda: rps_best_response(REF, 5.5065, tol=math.nan),
    lambda: rps_best_response(REF, 5.5065, tol=0.0),
    lambda: rps_best_response(REF, math.inf),
    lambda: power_split(SPLIT_GAME, 1.8, 2.0, 1.0, 7.5, tol=math.nan),
    lambda: power_split(SPLIT_GAME, 1.8, 2.0, 1.0, 7.5, tol=-1e-6),
], ids=["rps-tol-nan", "rps-tol-zero", "rps-s-inf", "split-tol-nan", "split-tol-negative"])
def test_solvers_reject_bad_tolerance_and_stock(call):
    with pytest.raises(ParameterError):
        call()


# ----------------------------- supplier best response on the whole domain

def _ref_rps_best_response(g, s, tol=1e-10):
    """The bisection that guarded Newton replaced, kept as its reference."""
    residual_b = (1.0 - g.alpha) * g.b

    def foc(nu: float) -> float:
        left = residual_b * math.exp(-nu * s) * (nu * s + 1.0) / (nu * nu)
        right = g.cs * (1.0 + g.phi) / (g.phi - nu) ** 2
        return left - right

    lo, hi = DOMAIN_EPS, g.phi - DOMAIN_EPS
    # Below a few ulps of the bracket the midpoint stops moving.
    tol = max(tol, 4.0 * math.ulp(hi))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if foc(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log_foc(g, s, nu):
    """ln of the supplier FOC's left side over its right side, +-inf past (0, phi)."""
    if nu <= 0.0:
        return math.inf
    if nu >= g.phi:
        return -math.inf
    return (math.log((1.0 - g.alpha) * g.b) - math.log(g.cs) - math.log1p(g.phi)
            - nu * s + math.log1p(nu * s) + 2.0 * math.log((g.phi - nu) / nu))


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


domain_games = st.builds(
    make_game, log_uniform(1e-3, 1e6), log_uniform(1e-3, 1e3), log_uniform(1e-3, 1e6),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))

on_the_domain = settings(max_examples=300, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


def within(deadline, call):
    """The call's result, or the GreenstockError it raised, inside 5 s."""
    with deadline(5):
        try:
            return call()
        except GreenstockError as err:
            return err


@on_the_domain
@given(domain_games, log_uniform(1e-4, 1e6), log_uniform(1e-14, 1e-4))
def test_rps_best_response_on_the_parameter_domain(deadline, g, s, tol):
    nu = within(deadline, lambda: rps_best_response(g, s, tol=tol))
    lo, hi = DOMAIN_EPS, g.phi - DOMAIN_EPS
    t = max(tol, 4.0 * math.ulp(hi))
    if log_foc(g, s, lo) < 0.0:
        # The root lies below the bracket: no nu in it is a best response.
        assert isinstance(nu, DegenerateGameError), nu
        return
    assert 0.0 < nu < g.phi
    # The FOC changes sign within tol of nu, unless its root lies past the
    # upper end of the bracket and nu is within tol of that end.
    assert log_foc(g, s, max(nu - t, lo)) >= 0.0
    assert nu + t >= hi or log_foc(g, s, nu + t) <= 0.0
    assert abs(nu - _ref_rps_best_response(g, s, tol=tol)) <= 2.0 * t


@on_the_domain
@given(domain_games, log_uniform(1e-3, 1e3), log_uniform(1e-3, 1e3),
       st.floats(0.0, 100.0), st.floats(0.0, 100.0))
def test_game_solvers_on_the_parameter_domain(deadline, g, total_lambda, mu0, p1, p2):
    ne = within(deadline, lambda: nash_equilibrium(g))
    assert ne.nu * ne.s == pytest.approx(math.log1p(g.alpha * g.b), abs=1e-9)
    assert abs(log_foc(g, ne.s, ne.nu)) <= 1e-9

    dynamics = within(deadline, lambda: best_response_dynamics(
        g, StrategyPair(s=1.0, nu=0.5 * g.phi), tol=1e-9))
    if isinstance(dynamics, DegenerateGameError):
        # From nu = phi/2 > nu* every iterate's nu stays above nu*, so a best
        # response below the bracket means nu* is below it too.
        assert ne.nu <= 1.01 * DOMAIN_EPS
    elif not isinstance(dynamics, ConvergenceError):
        fixed, _ = dynamics
        # The dynamics solve each nu to an absolute 1e-12, so s = ln(1+ab)/nu
        # carries up to 1e-12/nu* relative error on top: as alpha -> 1, nu*
        # falls below 1e-10 and s* passes 1e10.
        assert abs(fixed.nu - ne.nu) <= 1e-6 * max(1.0, ne.nu)
        assert abs(fixed.s - ne.s) <= (1e-6 + 1e-12 / ne.nu) * max(1.0, ne.s)

    lam, _ = within(deadline, lambda: power_split(g, total_lambda, mu0, p1, p2))
    assert 0.0 <= lam <= min(total_lambda, mu0 * (1.0 - 1e-6))


# ------------------------------------------------------- Nash equilibrium

def test_nash_reference_point():
    ne = nash_equilibrium(REF)
    assert ne.s == pytest.approx(5.506524, abs=1e-5)
    assert ne.nu == pytest.approx(0.325388, abs=1e-5)


def test_nash_is_fixed_point_of_best_responses():
    for g in random_games(100):
        ne = nash_equilibrium(g)
        assert bs_best_response(g, ne.nu) == pytest.approx(ne.s, abs=1e-8)
        assert rps_best_response(g, ne.s) == pytest.approx(ne.nu, abs=1e-8)


def test_nash_first_order_identities():
    for g in random_games(100, seed=7):
        ne = nash_equilibrium(g)
        assert ne.nu * ne.s == pytest.approx(math.log1p(g.alpha * g.b), abs=1e-9)
        assert cost_bs(g, ne) == pytest.approx(ne.s, abs=1e-9)


def test_nash_first_order_conditions_hold_as_alpha_nears_one():
    # b - alpha*b cancels to 1.776e-15 here, against (1 - alpha)*b = 2.22e-15.
    g = make_game(10.0, 1.0, 1.0, 1.0 - 2.0 ** -52)
    ne = nash_equilibrium(g)
    assert ne.nu * ne.s == pytest.approx(math.log1p(g.alpha * g.b), abs=1e-9)
    assert abs(log_foc(g, ne.s, ne.nu)) <= 1e-9


def test_nash_degenerate_cases_raise():
    with pytest.raises(DegenerateGameError):
        nash_equilibrium(make_game(10.0, 5.0, 1.0, 1.0))
    with pytest.raises(DegenerateGameError):
        nash_equilibrium(make_game(0.0, 5.0, 1.0, 0.5))


def test_comparative_statics_in_alpha():
    """Larger BS backlog share: more reservation, leaner supply."""
    points = [nash_equilibrium(make_game(10.0, 5.0, 1.0, a))
              for a in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)]
    s_vals = [p.s for p in points]
    nu_vals = [p.nu for p in points]
    assert all(a < b for a, b in zip(s_vals, s_vals[1:]))
    assert all(a > b for a, b in zip(nu_vals, nu_vals[1:]))


# ------------------------------------------------- best-response dynamics

def test_dynamics_converge_to_equilibrium():
    start = StrategyPair(s=1.0, nu=0.5 * REF.phi)
    fixed, trace = best_response_dynamics(REF, start, tol=1e-9)
    ne = nash_equilibrium(REF)
    assert len(trace) - 1 < 200
    assert fixed.s == pytest.approx(ne.s, abs=1e-6)
    assert fixed.nu == pytest.approx(ne.nu, abs=1e-6)


def test_dynamics_fixed_point_in_one_step():
    ne = nash_equilibrium(REF)
    fixed, trace = best_response_dynamics(REF, ne, tol=1e-9)
    assert len(trace) == 2
    assert fixed.s == pytest.approx(ne.s, abs=1e-8)


def test_dynamics_degenerate_instance_raises():
    g = make_game(10.0, 5.0, 1.0, 1.0)
    with pytest.raises(DegenerateGameError):
        best_response_dynamics(g, StrategyPair(s=1.0, nu=0.5), tol=1e-9)


def test_dynamics_nonconvergence_carries_trace():
    with pytest.raises(ConvergenceError) as err:
        best_response_dynamics(REF, StrategyPair(s=1.0, nu=0.5), tol=1e-9,
                               max_iter=3)
    assert len(err.value.trace) == 4


def test_dynamics_look_up_the_supplier_best_response_once_per_step(monkeypatch):
    """perfbench's `game.rps_best_response` span wraps the module global, so
    the dynamics must call it through the module, once per iterate."""
    from greenstock import game
    solver, calls = game.rps_best_response, []

    def counting(*args, **kwargs):
        calls.append(args)
        return solver(*args, **kwargs)

    monkeypatch.setattr(game, "rps_best_response", counting)
    _, trace = best_response_dynamics(REF, StrategyPair(s=1.0, nu=0.5), tol=1e-9)
    assert len(calls) == len(trace) - 1 > 1


def test_reaction_curves_are_decreasing():
    """Reversed-nu supermodularity in action: both reactions slope down."""
    for nu_lo, nu_hi in ((0.1, 0.11), (0.3, 0.31), (0.6, 0.61)):
        assert bs_best_response(REF, nu_hi) < bs_best_response(REF, nu_lo)
    for s_lo, s_hi in ((2.0, 2.1), (5.0, 5.1), (9.0, 9.1)):
        assert rps_best_response(REF, s_hi) < rps_best_response(REF, s_lo)


def test_cross_partials_nonnegative():
    """d2C/ds dnu >= 0 for both players (submodular in the raw order)."""
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(20):
        g = make_game(rng.uniform(1, 15), rng.uniform(1, 8),
                      rng.uniform(0.5, 2.5), rng.uniform(0.1, 0.9))
        s = rng.uniform(0.5, 6.0)
        nu = rng.uniform(0.15, 0.75) * g.phi
        for fn in (cost_bs, cost_rps):
            pp = fn(g, StrategyPair(s=s + h, nu=nu + h))
            pm = fn(g, StrategyPair(s=s + h, nu=nu - h))
            mp = fn(g, StrategyPair(s=s - h, nu=nu + h))
            mm = fn(g, StrategyPair(s=s - h, nu=nu - h))
            cross = (pp - pm - mp + mm) / (4 * h * h)
            scale = max(abs(fn(g, StrategyPair(s=s, nu=nu))), 1.0)
            assert cross >= -1e-5 * scale, (
                f"negative cross-partial {cross:.2e} for {fn.__name__}")


# ------------------------------------------------------ centralized bench

def test_centralized_reference_point():
    opt = centralized_optimum(REF)
    assert opt.nu == pytest.approx(0.33, abs=0.01)
    assert opt.s == pytest.approx(7.29, abs=0.01)
    assert centralized_cost(REF) == pytest.approx(17.19, abs=0.01)


def test_centralized_matches_grid_refinement():
    opt = centralized_optimum(REF)
    _, s_ref, nu_ref = refine_minimum_2d(
        lambda s, nu: total_cost(REF, StrategyPair(s=s, nu=nu)),
        s_hi=30.0, nu_hi=REF.phi - 1e-6)
    assert s_ref == pytest.approx(opt.s, abs=1e-3)
    assert nu_ref == pytest.approx(opt.nu, abs=1e-4)


def test_centralized_first_order_identity():
    for g in random_games(50, seed=3):
        opt = centralized_optimum(g)
        assert opt.s * opt.nu == pytest.approx(math.log1p(g.b), abs=1e-9)


def test_centralized_wide_headroom():
    opt = centralized_optimum(make_game(10.0, 5.0, 3.0, 0.5))
    assert opt.nu == pytest.approx(0.771601, abs=1e-5)


def test_centralized_cost_consistency():
    """Closed-form cost equals substitution, for any cost-split alpha."""
    for alpha in (0.0, 0.3, 0.5, 0.9, 1.0):
        g = make_game(10.0, 5.0, 1.0, alpha)
        opt = centralized_optimum(g)
        assert total_cost(g, opt) == pytest.approx(centralized_cost(g), abs=1e-9)


def test_centralized_cost_half_headroom():
    got = centralized_cost(make_game(10.0, 5.0, 2.0, 0.5))
    gamma = math.log(11.0)
    want = 0.5 * (5.0 + gamma + 2.0 * math.sqrt(5.0 * gamma * 3.0))
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(9.70, abs=0.01)


def test_centralized_hessian_positive_definite():
    opt = centralized_optimum(REF)
    h = 1e-5
    def f(s, nu):
        return total_cost(REF, StrategyPair(s=s, nu=nu))
    dss = (f(opt.s + h, opt.nu) - 2 * f(opt.s, opt.nu) + f(opt.s - h, opt.nu)) / h**2
    dnn = (f(opt.s, opt.nu + h) - 2 * f(opt.s, opt.nu) + f(opt.s, opt.nu - h)) / h**2
    dsn = (f(opt.s + h, opt.nu + h) - f(opt.s + h, opt.nu - h)
           - f(opt.s - h, opt.nu + h) + f(opt.s - h, opt.nu - h)) / (4 * h**2)
    assert dss > 0.0
    assert dss * dnn - dsn**2 > 0.0, "Hessian determinant must be positive"


def test_centralized_beats_boundary_and_grid():
    """Optimum dominates the s=0 edge and a 300x300 interior grid."""
    opt = centralized_optimum(REF)
    best = centralized_cost(REF)
    for nu in np.linspace(1e-4, REF.phi - 1e-4, 400):
        assert total_cost(REF, StrategyPair(s=0.0, nu=float(nu))) >= best - 1e-9
    s_axis = np.linspace(4 * opt.s / 300, 4 * opt.s, 300)
    nu_axis = REF.phi * np.arange(1, 301) / 301
    S, V = np.meshgrid(s_axis, nu_axis, indexing="ij")
    grid = (S - 1 / V + (1 + REF.b) * np.exp(-V * S) / V
            + REF.cs * (V + 1) / (REF.phi - V))
    assert float(grid.min()) >= best - 1e-9
    # spot-check the vectorized surface against the library cost
    rng = np.random.default_rng(5)
    for _ in range(50):
        i = int(rng.integers(0, 300))
        j = int(rng.integers(0, 300))
        direct = total_cost(REF, StrategyPair(s=float(s_axis[i]), nu=float(nu_axis[j])))
        assert grid[i, j] == pytest.approx(direct, abs=1e-9)


# ----------------------------------------------------- penalty & contract

def test_penalty_reference_value():
    assert competition_penalty(REF) == pytest.approx(0.040680, abs=1e-5)


def test_penalty_nonnegative_over_draws():
    for g in random_games(100, seed=19):
        assert competition_penalty(g) >= -1e-9


def test_penalty_positive_when_foc_mismatch():
    # ln(1 + alpha b) != ln(1 + b) for alpha < 1, so the NE never matches
    # the centralized point and the penalty stays strictly positive.
    for alpha in (0.1, 0.5, 0.9):
        assert competition_penalty(make_game(10.0, 5.0, 1.0, alpha)) > 0.0


def test_penalty_invariant_under_joint_cost_rescaling():
    from greenstock import SystemParams, normalize
    base = SystemParams(lam=1.0, mu0=2.0, b=0.01, c=0.001, cs_raw=0.01,
                        lambda0=1.0, alpha=0.5)
    scaled = SystemParams(lam=1.0, mu0=2.0, b=0.07, c=0.007, cs_raw=0.07,
                          lambda0=1.0, alpha=0.5)
    p1 = competition_penalty(GameInstance(normalize(base)))
    p2 = competition_penalty(GameInstance(normalize(scaled)))
    assert p1 == pytest.approx(p2, abs=1e-12)


def test_epsilon_range_reference_interval():
    lo, hi = epsilon_range(REF)
    assert lo == pytest.approx(0.679696, abs=1e-5)
    assert hi == pytest.approx(0.720376, abs=1e-5)


def test_epsilon_interval_width_is_penalty():
    lo, hi = epsilon_range(REF)
    assert hi - lo == pytest.approx(competition_penalty(REF), abs=1e-12)


def test_epsilon_participation_inequalities():
    g = make_game(10.0, 5.0, 1.0, 0.99)
    ne = nash_equilibrium(g)
    c = centralized_cost(g)
    lo, hi = epsilon_range(g)
    for eps in (lo, 0.5 * (lo + hi), hi):
        assert eps * c <= cost_rps(g, ne) + 1e-9
        assert (1 - eps) * c <= cost_bs(g, ne) + 1e-9


@pytest.mark.parametrize("epsilon", [math.nan, -0.1, 1.1])
def test_transfer_contract_rejects_nan_and_out_of_range(epsilon):
    with pytest.raises(ParameterError, match="epsilon"):
        TransferContract(epsilon)


@pytest.mark.parametrize("args, name", [
    ((math.nan, 2.0, 1.0, 10.0), "total_lambda"),
    ((math.inf, 2.0, 1.0, 10.0), "total_lambda"),
    ((1.8, math.nan, 1.0, 10.0), "mu0"),
    ((1.8, 2.0, math.nan, 10.0), "energy prices"),
    ((1.8, 2.0, 1.0, math.nan), "energy prices"),
    ((1.8, 2.0, 1.0, -1.0), "energy prices"),
])
def test_power_split_rejects_non_finite_arguments(args, name):
    with pytest.raises(ParameterError, match=name):
        power_split(SPLIT_GAME, *args)


def test_dynamics_reject_nan_tolerance():
    with pytest.raises(ParameterError, match="tol"):
        best_response_dynamics(REF, StrategyPair(s=1.0, nu=0.5), tol=math.nan)


def test_acceptable_contract_validation():
    lo, hi = epsilon_range(REF)
    assert acceptable_contract(REF, 0.5 * (lo + hi)).epsilon == 0.5 * (lo + hi)
    with pytest.raises(ParameterError):
        acceptable_contract(REF, 0.1)


def test_equilibrium_report_bundles_consistently():
    rep = equilibrium_report(REF)
    assert rep.cost_bs_ne == pytest.approx(rep.ne.s, abs=1e-9)
    assert rep.ne.nu * rep.ne.s == pytest.approx(math.log(6.0), abs=1e-9)
    assert rep.central.nu * rep.central.s == pytest.approx(math.log(11.0), abs=1e-9)
    assert rep.penalty >= 0.0


def test_equilibrium_quantities_solve_the_game_once(monkeypatch):
    """The penalty and sharing range are read from one equilibrium report,
    so each of these solves the game exactly once."""
    from greenstock import cli, game
    solver, calls = game.nash_equilibrium, []

    def counting(g):
        calls.append(g)
        return solver(g)

    monkeypatch.setattr(game, "nash_equilibrium", counting)
    monkeypatch.setattr(cli, "nash_equilibrium", counting)   # cli binds its own name
    params = cli.SCENARIOS["penalty-contract"][2]
    for run in (lambda: equilibrium_report(REF), lambda: epsilon_range(REF),
                lambda: competition_penalty(REF),
                lambda: cli.scenario_penalty_contract(params, 0),
                lambda: cli.check_penalty_contract(0)):
        calls.clear()
        run()
        assert len(calls) == 1


def test_coordinated_costs_telescope():
    contract = TransferContract(epsilon=0.7)
    rng = np.random.default_rng(23)
    for _ in range(25):
        x = StrategyPair(s=float(rng.uniform(0.1, 12.0)),
                         nu=float(rng.uniform(0.05, 0.95)))
        bs_c, rps_c = coordinated_costs(REF, contract, x)
        assert bs_c + rps_c == pytest.approx(total_cost(REF, x), abs=1e-12)


def test_coordinated_costs_at_centralized_point():
    opt = centralized_optimum(REF)
    bs_c, rps_c = coordinated_costs(REF, TransferContract(epsilon=0.7), opt)
    assert bs_c == pytest.approx(0.3 * 17.191557, abs=1e-4)
    assert rps_c == pytest.approx(0.7 * 17.191557, abs=1e-4)


def test_coordinated_argmin_is_centralized_gridpoint():
    """On a 200x200 grid both players' coordinated costs bottom out exactly
    where the joint cost does."""
    opt = centralized_optimum(REF)
    contract = TransferContract(epsilon=0.7)
    s_axis = np.linspace(0.05, 4 * opt.s, 200)
    nu_axis = REF.phi * np.arange(1, 201) / 201
    k_joint = None
    k_bs = None
    best_joint = best_bs = math.inf
    for i, s in enumerate(s_axis):
        for j, nu in enumerate(nu_axis):
            x = StrategyPair(s=float(s), nu=float(nu))
            joint = total_cost(REF, x)
            bs_c, _ = coordinated_costs(REF, contract, x)
            if joint < best_joint:
                best_joint, k_joint = joint, (i, j)
            if bs_c < best_bs:
                best_bs, k_bs = bs_c, (i, j)
    assert k_bs == k_joint


# ------------------------------------------------------------ power split

SPLIT_GAME = GameInstance(NormalizedParams(b_n=5.0, cs_n=5.0, phi=1.0, alpha=0.5))


def split_cost_oracle(g, lam, total_lambda, mu0, p1, p2):
    if lam <= 0:
        return p2 * total_lambda
    phi = mu0 / lam - 1.0
    f = auxiliary_f(g)
    s = (math.sqrt(1 + phi) + f) * math.log1p(g.alpha * g.b) / (f * phi)
    return s + p1 * lam + p2 * (total_lambda - lam)


def test_power_split_reference_point():
    lam, cost = power_split(SPLIT_GAME, 1.8, 2.0, 1.0, 10.0)
    assert lam == pytest.approx(1.11, abs=0.1)
    assert cost == pytest.approx(13.2694, abs=1e-3)


def test_power_split_all_grid_when_grid_cheap():
    lam, cost = power_split(SPLIT_GAME, 1.8, 2.0, 1.0, 1.0)   # p2 == p1
    assert lam == 0.0
    assert cost == pytest.approx(1.8, abs=1e-12)
    lam, _ = power_split(SPLIT_GAME, 1.8, 2.0, 1.0, 0.5)      # p2 < p1
    assert lam == 0.0


def test_power_split_monotone_in_grid_price():
    lams = [power_split(SPLIT_GAME, 1.8, 2.0, 1.0, p2)[0] for p2 in (5.0, 7.5, 10.0)]
    assert lams[0] <= lams[1] + 1e-9 <= lams[2] + 2e-9


def test_power_split_matches_grid_oracle():
    for p2 in (5.0, 7.5, 10.0):
        lam, cost = power_split(SPLIT_GAME, 1.8, 2.0, 1.0, p2)
        grid = np.arange(0.0, min(1.8, 2.0 * (1 - 1e-6)) + 1e-12, 1e-3)
        vals = [split_cost_oracle(SPLIT_GAME, x, 1.8, 2.0, 1.0, p2) for x in grid]
        k = int(np.argmin(vals))
        assert abs(lam - grid[k]) <= 1e-3, f"p2={p2}: {lam} vs oracle {grid[k]}"
        assert cost <= vals[k] + 1e-9


def test_solvers_terminate_below_float_spacing(deadline):
    # A tolerance below the float spacing of the bracket must not loop forever.
    with deadline(5):
        nu = rps_best_response(REF, 5.5065, tol=1e-300)
        lam, _ = power_split(SPLIT_GAME, 1.8, 2.0, 1.0, 7.5, tol=1e-300)
    assert nu == pytest.approx(rps_best_response(REF, 5.5065), abs=1e-9)
    assert lam == pytest.approx(power_split(SPLIT_GAME, 1.8, 2.0, 1.0, 7.5)[0], abs=1e-5)
