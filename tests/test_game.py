"""Supply-inventory game: equilibrium, benchmark and contract machinery.

Closed forms are cross-checked against independent grid/refinement
oracles; property checks draw random valid instances from a seeded rng,
or from the whole `NormalizedParams` domain with hypothesis.
"""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from greenstock import (
    ConvergenceError,
    DegenerateGameError,
    GameInstance,
    GreenstockError,
    NormalizedParams,
    ParameterError,
    StrategyPair,
    auxiliary_f,
    best_response_dynamics,
    bs_best_response,
    centralized_cost,
    centralized_optimum,
    coordinated_costs,
    cost_bs,
    cost_rps,
    equilibrium_report,
    nash_equilibrium,
    power_split,
    rps_best_response,
    total_cost,
)
from strategies import log_uniform, make_game

REF = GameInstance(NormalizedParams(b_n=10.0, cs_n=5.0, phi=1.0, alpha=0.5))


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
    # The bracket is [the smallest normal float, the float below phi].
    for phi in (5e-324, sys.float_info.min):
        with pytest.raises(ParameterError, match="no room"):
            rps_best_response(make_game(10.0, 5.0, phi, 0.5), 5.5065)
    # Once refused below a floor of 1e-12, as no room or a root below it.
    for phi in (1e-300, 1e-13, 2e-12, 3e-12, 1e-9, 1e-6):
        nu = rps_best_response(make_game(10.0, 5.0, phi, 0.5), 5.5065)
        assert 0.0 < nu < phi


def test_rps_best_response_plays_a_root_below_1e_12():
    # nu* = 3.3e-13, below a floor of 1e-12 that once refused it: the dynamics
    # reported the "fixed point" nu = 1.93e-12, s = 5.2e8 here, and later
    # raised, against the closed form's s* = 3.0e9.
    g = make_game(1e-3, 1.0, 1e-3, 1.0 - 1.1e-16)
    ne = nash_equilibrium(g)
    assert ne.nu < 1e-12
    assert abs(log_foc(g, 1.0, rps_best_response(g, 1.0))) <= 1e-12
    fixed, _ = best_response_dynamics(g, StrategyPair(s=1.0, nu=0.5 * g.phi), tol=1e-9)
    assert fixed.nu == pytest.approx(ne.nu, rel=1e-12, abs=0.0)
    assert fixed.s == pytest.approx(ne.s, rel=1e-12, abs=0.0)
    assert math.isfinite(cost_bs(g, ne)) and math.isfinite(cost_rps(g, ne))


def test_rps_best_response_refuses_a_root_below_the_bracket(deadline):
    # The bracket starts at the smallest normal float, the floor of every rate.
    g = make_game(1e-300, 1e300, 1e-10, 0.5)
    for s in (0.0, 1.0):
        assert log_foc(g, s, sys.float_info.min) < 0.0
        with deadline(1), pytest.raises(DegenerateGameError,
                                        match=r"below the bracket \[2\.2250738585072014e-308, "):
            rps_best_response(g, s)


def test_rps_best_response_at_a_wide_headroom():
    # A guarded solve once returned 7.382427476745972 here, 4.4e-11 from the root.
    g = make_game(0.06465989257061626, 0.009996944634116272, 285184.8466243439,
                  0.11964371562151076)
    s = 1.752348103203478
    assert abs(log_foc(g, s, rps_best_response(g, s))) <= 1e-13


def test_rps_best_response_where_phi_less_the_bracket_margin_rounds_to_phi():
    # phi - 1e-12 rounds to phi = 1e6, and the root lies past the upper
    # end: the midpoint cuts toward it must stop below phi, where ln(phi - nu) is finite.
    nu = rps_best_response(make_game(10.0, 1e-300, 1e6, 0.5), math.log(6.0) / 5e5)
    assert nu == 999999.9999999998


@pytest.mark.parametrize("args, s", [
    # nu * s would overflow to inf at the midpoint of [1e-12, phi - 1e-12].
    ((2.9493012454668004e+97, 2.499936398012461e-26, 3.225980927680921e+75,
      0.9976562004630843), 2.600069720785715e+297),
    # ln((phi - nu)/nu) overflows near nu = 1e-12: the non-root 5.13e-9 was returned.
    ((7.043785813516692e+19, 5.7074835560657325e-67, 9.22278040040162e+299,
      0.6422652618081773), 5.628819858609441e+120),
])
def test_rps_best_response_finds_a_root_at_float_extremes(args, s, deadline):
    # Both roots lie below 1e-12, a floor that once refused them.
    g = make_game(*args)
    assert log_foc(g, s, 1e-12) < 0.0
    with deadline(5):
        nu = rps_best_response(g, s)
    assert abs(log_foc(g, s, nu)) <= 1e-12


@pytest.mark.parametrize("call", [
    lambda: rps_best_response(REF, math.inf),
    *(lambda s=s: rps_best_response(REF, s) for s in (math.nan, -math.inf, -1.0)),
    *(lambda tol=tol: best_response_dynamics(REF, StrategyPair(s=1.0, nu=0.5), tol=tol)
      for tol in (math.inf, -math.inf, -1.0, 0.0)),
    # At nu = inf the stock read 0, and at nu = 1e-320 it overflowed to inf.
    *(lambda nu=nu: bs_best_response(REF, nu) for nu in (math.inf, 1e-320)),
], ids=["rps-s-inf", "rps-s-nan", "rps-s--inf", "rps-s-negative",
        "brd-tol-inf", "brd-tol--inf", "brd-tol-negative", "brd-tol-zero",
        "bs-nu-inf", "bs-nu-subnormal"])
def test_solvers_reject_bad_tolerance_and_stock(call):
    with pytest.raises(ParameterError):
        call()


# ----------------------------- supplier best response on the whole domain

def _ref_rps_best_response(g, s, tol=1e-10):
    """A bisection on the first-order condition, the reference for Newton."""
    residual_b = (1.0 - g.alpha) * g.b

    def foc(nu: float) -> float:
        left = residual_b * math.exp(-nu * s) * (nu * s + 1.0) / (nu * nu)
        right = g.cs * (1.0 + g.phi) / (g.phi - nu) ** 2
        return left - right

    lo, hi = sys.float_info.min, math.nextafter(g.phi, 0.0)
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
    """ln of the supplier FOC's left side over its right side, +-inf past (0, phi)
    and -inf where nu * s overflows."""
    if nu <= 0.0:
        return math.inf
    if nu >= g.phi or nu * s == math.inf:
        return -math.inf
    return (math.log((1.0 - g.alpha) * g.b) - math.log(g.cs) - math.log1p(g.phi)
            - nu * s + math.log1p(nu * s) + 2.0 * (math.log(g.phi - nu) - math.log(nu)))


domain_games = st.builds(
    make_game, log_uniform(1e-3, 1e6), log_uniform(1e-3, 1e3), log_uniform(1e-3, 1e6),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))

on_the_domain = settings(max_examples=300, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@on_the_domain
@given(domain_games, domain_games)
def test_game_instance_derives_its_fields_once(g, other):
    norm = g.norm
    b, alpha = norm.b_n, norm.alpha
    ab, log_ab, residual_b = alpha * b, math.log1p(alpha * b), (1.0 - alpha) * b
    expected = {"b": b, "cs": norm.cs_n, "phi": norm.phi, "alpha": alpha,
                "log_ab": log_ab, "gamma": math.log1p(b), "residual_b": residual_b,
                "inv_f": math.sqrt(norm.cs_n) / math.sqrt(residual_b)
                * math.sqrt((1.0 + ab) / (1.0 + log_ab)),
                "rps_level": math.log(residual_b) - math.log(norm.cs_n) - math.log1p(norm.phi),
                "nu_top": math.nextafter(norm.phi, 0.0)}
    for name, value in expected.items():
        assert getattr(g, name).hex() == value.hex(), name
    twin = GameInstance(NormalizedParams(b_n=b, cs_n=norm.cs_n, phi=norm.phi, alpha=alpha))
    assert twin == g and hash(twin) == hash(g)
    assert repr(g) == f"GameInstance(norm={norm!r})"
    moved = GameInstance(other.norm)
    assert moved == other
    for name in expected:
        assert getattr(moved, name).hex() == getattr(other, name).hex(), name


def within(deadline, call):
    """The call's result, or the GreenstockError it raised, inside 5 s."""
    with deadline(5):
        try:
            return call()
        except GreenstockError as err:
            return err


@on_the_domain
@given(domain_games, log_uniform(1e-4, 1e6), st.none() | st.floats(-0.5, 1.5))
# One case per exit: the step rounds away; rounding crosses the root (REF
# from the midpoint); midpoint cuts toward the upper end, where phi - 1e-12
# rounds to phi and the root lies past it; the root lies below 1e-12; a start
# outside the bracket.
@example(make_game(15.509717568752068, 457.235879132555, 693.0602297904592,
                   0.9000986907671215), 0.0013553755484921213, None)
@example(REF, 5.5065, None)
@example(make_game(10.0, 1e-300, 1e6, 0.5), math.log(6.0) / 5e5, None)
@example(make_game(1e-3, 1.0, 1e-3, 1.0 - 1.1e-16), 1.0, None)
@example(make_game(403.75252746868824, 28.230718763147177, 14346.372073767616,
                   0.9415653832094962), 2506.0270093245163, -0.4419895434327705)
def test_rps_best_response_on_the_parameter_domain(deadline, g, s, start_frac):
    # Any start, inside the bracket or not, must reach the same root.
    start = None if start_frac is None else start_frac * g.phi
    nu = within(deadline, lambda: rps_best_response(g, s, start=start))
    lo, hi = sys.float_info.min, math.nextafter(g.phi, 0.0)
    if log_foc(g, s, lo) < 0.0:
        # The root lies below the bracket: no nu in it is a best response.
        assert isinstance(nu, DegenerateGameError), nu
        return
    assert 0.0 < nu < g.phi
    # The FOC changes sign within a relative 1e-13 of nu, unless its root
    # lies past the upper end of the bracket and nu is within 4 ulps of it.
    t = 1e-13 * nu
    assert log_foc(g, s, max(nu - t, lo)) >= 0.0
    assert nu >= hi - 4.0 * math.ulp(hi) or log_foc(g, s, nu + t) <= 0.0
    t = max(t, 4.0 * math.ulp(hi))   # the reference's resolution
    assert abs(nu - _ref_rps_best_response(g, s, tol=t)) <= 2.0 * t


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log_uniform(1e-300, 1e300), log_uniform(1e-300, 1e300), log_uniform(1e-11, 1e300),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), log_uniform(1e-300, 1e300),
       st.none() | st.floats())
# The first Newton step, ln(nu) + 1061, is past exp's range.
@example(1e300, 1e-300, 1e300, 0.5, 1e-300, 1e-11)
def test_rps_best_response_terminates_at_float_extremes(deadline, b, cs, phi, alpha, s, start):
    g = make_game(b, cs, phi, alpha)
    nu = within(deadline, lambda: rps_best_response(g, s, start=start))
    assert isinstance(nu, GreenstockError) or 0.0 < nu < phi, nu


def test_rps_best_response_root_condition_is_concave_in_log_nu():
    # H(x) = level - w + ln(1 + w) + 2 ln(phi - nu) - 2x with x = ln nu and
    # w = nu s: no second difference on a fine grid of x is above rounding.
    rng = np.random.default_rng(17)
    for _ in range(200):
        s, phi = 10.0 ** rng.uniform(-3, 6, size=2)
        level = rng.uniform(-30.0, 30.0)
        x = np.linspace(math.log(1e-12), math.log(phi) + math.log1p(-1e-9), 20_001)
        nu = np.exp(x)
        w = nu * s
        terms = (level, -w, np.log1p(w), 2.0 * np.log(phi - nu), -2.0 * x)
        H = sum(terms)
        scale = sum(np.abs(t) for t in terms)
        second = H[2:] - 2.0 * H[1:-1] + H[:-2]
        assert (second <= 16 * np.finfo(float).eps * scale[1:-1]).all()


@on_the_domain
@given(domain_games, log_uniform(1e-3, 1e3), log_uniform(1e-3, 1e3),
       st.floats(0.0, 100.0), st.floats(0.0, 100.0))
# Small nu* and large s* (3.0e10, 1.7e7, 1.7e11): supplier solves to an
# absolute tolerance and an absolute 1e-9 stop, which float spacing in s
# passes, left s 7e-4 and 1.3e-3 off in the first and last and never
# stopped in the second.
@example(make_game(1.0, 1.0, 10.0 ** -2.625, 1.0 - 1.1e-16), 1.8, 2.0, 1.0, 7.5)
@example(make_game(1.0, 1.0, 10.0, 1.0 - 2.2e-16), 1.8, 2.0, 1.0, 7.5)
@example(make_game(10.0, 1e22, 1.0, 0.5), 1.8, 2.0, 1.0, 7.5)
# nu* = 3.3e-13: a floor of 1e-12 once refused the dynamics and the NE costs.
@example(make_game(1e-3, 1.0, 1e-3, 1.0 - 1.1e-16), 1.8, 2.0, 1.0, 7.5)
def test_game_solvers_on_the_parameter_domain(deadline, g, total_lambda, mu0, p1, p2):
    ne = within(deadline, lambda: nash_equilibrium(g))
    assert ne.nu * ne.s == pytest.approx(math.log1p(g.alpha * g.b), abs=1e-9)
    assert abs(log_foc(g, ne.s, ne.nu)) <= 1e-9

    assert math.isfinite(cost_bs(g, ne)) and math.isfinite(cost_rps(g, ne))
    dynamics = within(deadline, lambda: best_response_dynamics(
        g, StrategyPair(s=1.0, nu=0.5 * g.phi), tol=1e-9))
    assert not isinstance(dynamics, GreenstockError), dynamics
    fixed, _ = dynamics
    assert abs(fixed.nu - ne.nu) <= 1e-6 * max(1.0, ne.nu)
    assert abs(fixed.s - ne.s) <= 1e-6 * max(1.0, ne.s)

    lam, cost = within(deadline, lambda: power_split(g, total_lambda, mu0, p1, p2))
    hi = min(total_lambda, mu0 * (1.0 - 1e-6))
    assert 0.0 <= lam <= hi
    best = min(split_cost_oracle(g, x, total_lambda, mu0, p1, p2)
               for x in np.linspace(0.0, hi, 2_001))
    # A subnormal cost (a price such as 5e-324) rounds by whole multiples of 5e-324.
    assert cost <= best * (1 + 1e-12) + 8 * math.ulp(0.0)


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
    # nu* below the smallest normal float: once an untyped division by zero.
    with pytest.raises(DegenerateGameError, match=r"the equilibrium nu\* underflows to 0\.0"):
        nash_equilibrium(make_game(1.361574426450095e+74, 4.254078359226912e+216,
                                   5.195813775010137e-239, 0.9999999999999999))


def test_nash_keeps_its_digits_where_f_is_subnormal():
    """f's radicand is 4.0e-319 here; nu* = phi f/(sqrt(1 + phi) + f) against a
    50-digit reference, once off by 1.26e-6 relative."""
    args = (1.0992288832725049e-110, 1.9092354769730719e+208, 1.259352512515746e+236,
            0.3028093296725163)
    with localcontext() as ctx:
        ctx.prec = 50
        b, cs, phi, alpha = map(Decimal, args)
        ab = alpha * b
        f = ((1 - alpha) * b * (1 + (1 + ab).ln()) / (cs * (1 + ab))).sqrt()
        want = float(phi * f / ((1 + phi).sqrt() + f))
    assert nash_equilibrium(make_game(*args)).nu == pytest.approx(want, rel=1e-14, abs=0.0)


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


alphas = st.floats(0.0, 1.0, exclude_max=True)
# The box a finite NE cost is asserted on; past it c_s (nu + 1)/(phi - nu) can pass float range.
BOX = {"b": (1e-30, 1e30), "cs": (1e-60, 1e60), "phi": (1e-10, 1e30)}
float_range_games = (st.builds(make_game, *(log_uniform(*BOX[key]) for key in BOX), alphas)
                     | st.builds(make_game, *3 * [log_uniform(1e-300, 1e300)], alphas))


@on_the_domain
@given(float_range_games)
# s* = 1.1e-29: the supplier once answered the clamped stock 1e-12 instead, and
# the dynamics stopped at nu = 1.5e14 against nu* = 9.2e29.
@example(make_game(774320.9702027849, 3.720007350696224e-57, 9.212206307711781e+29,
                   0.026881743252439638))
# w = ln(1 + alpha b) = 63.6: 774 rounds, past the flat 500 the library once allowed.
@example(make_game(4.8614522745451496e+27, 125047134451.8479, 386.5632363870054,
                   0.875623935822907))
@example(make_game(10.0, 5.0, 1.0, 0.0))     # alpha = 0: s* = 0 in every round
# phi < tol, and the start's s = 1 is the first best response to 1e-9: the first
# round once stopped there, at s = 1 against s* = 224.
@example(make_game(1e-9, 1e-4, 1e-9, 0.5))
@example(make_game(1e-11, 1.0, 1.0, 1.1125369292536007e-308))   # ln(1 + alpha b) subnormal
# f underflowed to 0 and the closed form refused a game the dynamics solve.
@example(make_game(1e-300, 1e300, 1.0, 0.5))
# f's radicand was subnormal: nu* came out 1.26e-6 relative off.
@example(make_game(1.0992288832725049e-110, 1.9092354769730719e+208, 1.259352512515746e+236,
                   0.3028093296725163))
# nu* underflows to 0: the closed form once divided by it.
@example(make_game(1.361574426450095e+74, 4.254078359226912e+216, 5.195813775010137e-239,
                   0.9999999999999999))
def test_dynamics_match_the_closed_form_across_float_range(deadline, g):
    """Where the dynamics converge, the closed form answers, and agrees with
    their fixed point to 1e-6 relative, unless nu* rounds onto phi; where they
    raise a typed error, so does the closed form, and they never run out of
    rounds.  The centralized optimum answers or raises a typed error, and on
    the box the NE costs are finite.
    The supplier's answer to s = 0 is the closed form
    nu = phi/(1 + sqrt(c_s/((1 - alpha) b)) sqrt(1 + phi)), here in a form finite
    wherever nu is."""
    nu = within(deadline, lambda: rps_best_response(g, 0.0))
    if not isinstance(nu, GreenstockError):
        root = math.sqrt(1.0 + g.phi)
        closed = (g.phi / root) / (math.sqrt(g.cs) / math.sqrt(g.residual_b) + 1.0 / root)
        assert nu == pytest.approx(closed, rel=1e-12, abs=0.0)
    within(deadline, lambda: centralized_optimum(g))
    dynamics = within(deadline, lambda: best_response_dynamics(
        g, StrategyPair(s=1.0, nu=0.5 * g.phi), tol=1e-9))
    assert not isinstance(dynamics, ConvergenceError), dynamics
    ne = within(deadline, lambda: nash_equilibrium(g))
    if isinstance(dynamics, GreenstockError):
        assert isinstance(ne, GreenstockError), (dynamics, ne)
        return
    fixed, _ = dynamics
    if isinstance(ne, GreenstockError):
        # The one refusal of a game the dynamics solve: nu* rounds onto phi.
        assert "rounds onto the pole" in str(ne), ne
        assert fixed.nu >= (1.0 - 1e-6) * g.phi
        return
    assert abs(fixed.s - ne.s) <= 1e-6 * ne.s
    assert abs(fixed.nu - ne.nu) <= 1e-6 * ne.nu
    if all(lo <= getattr(g, key) <= hi for key, (lo, hi) in BOX.items()):
        assert math.isfinite(cost_bs(g, ne)) and math.isfinite(cost_rps(g, ne))


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


def test_dynamics_keep_their_evaluation_path():
    """The goldens print 6 digits; these bits pin the start, steps and exits
    of both best responses: the dynamics with their warm-started supplier
    solves, and a direct call from the bracket midpoint."""
    fixed, trace = best_response_dynamics(REF, StrategyPair(s=1.0, nu=0.5), tol=1e-9)
    assert len(trace) - 1 == 19
    assert (fixed.s.hex(), fixed.nu.hex()) == ("0x1.606ae5277f619p+2", "0x1.4d32a1c1465c1p-2")
    assert rps_best_response(REF, 5.5065).hex() == "0x1.4d32bcc1218e8p-2"


def reference_dynamics(g, start, tol):
    """`best_response_dynamics` at its default cap as a plain loop, with every
    pair built by the validating `StrategyPair` constructor."""
    max_iter = math.ceil(64.0 * (1.0 + 0.5 * g.log_ab * g.log_ab / (1.0 + g.log_ab)))
    stop, nu_tol, trace = 10.0 * max(min(tol, 1e-10) * 1e-2, 2**-53), 0.0, [start]
    for _ in range(max_iter):
        last = trace[-1]
        s = bs_best_response(g, last.nu)
        pair = StrategyPair(s=s, nu=rps_best_response(g, s, start=last.nu))
        trace.append(pair)
        ds, dnu = abs(pair.s - last.s), abs(pair.nu - last.nu)
        if (ds < tol or ds < stop * pair.s) and (dnu < nu_tol or dnu < stop * pair.nu):
            return pair, trace
        nu_tol = tol
    raise ConvergenceError("reference loop ran out of rounds", trace=trace)


@on_the_domain
@given(float_range_games, st.floats(1e-3, 0.999))
@example(make_game(10.0, 5.0, 1.0, 0.0), 0.5)     # alpha = 0: s = 0 in every round
@example(make_game(10.0, 5.0, 1.0, 1.0 - 2**-53), 0.5)
@example(make_game(1e-300, 1e300, 1e-10, 0.5), 0.5)   # the root lies below the bracket
def test_dynamics_trace_matches_a_validating_reference_loop(deadline, g, start_frac):
    """The dynamics' trace equals, hex for hex, the reference loop's, and every
    pair in it lies in `StrategyPair`'s domain, below phi; where the loop raises,
    the dynamics raise the same error type with the same message."""
    start = StrategyPair(s=1.0, nu=start_frac * g.phi)
    got = within(deadline, lambda: best_response_dynamics(g, start, tol=1e-9))
    want = within(deadline, lambda: reference_dynamics(g, start, tol=1e-9))
    if isinstance(want, GreenstockError):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert not isinstance(got, GreenstockError), got
    hexes = [[(p.s.hex(), p.nu.hex()) for p in trace] for _, trace in (got, want)]
    assert hexes[0] == hexes[1]
    assert got[0] == got[1][-1]
    for pair in got[1]:
        assert type(pair) is StrategyPair and StrategyPair(*pair) == pair
        assert pair.nu < g.phi


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
    assert equilibrium_report(REF).penalty == pytest.approx(0.040680, abs=1e-5)


def test_penalty_nonnegative_over_draws():
    for g in random_games(100, seed=19):
        assert equilibrium_report(g).penalty >= -1e-9


def test_penalty_positive_when_foc_mismatch():
    # ln(1 + alpha b) != ln(1 + b) for alpha < 1, so the NE never matches
    # the centralized point and the penalty stays strictly positive.
    for alpha in (0.1, 0.5, 0.9):
        assert equilibrium_report(make_game(10.0, 5.0, 1.0, alpha)).penalty > 0.0


def test_epsilon_range_reference_interval():
    lo, hi = equilibrium_report(REF).epsilon_range
    assert lo == pytest.approx(0.679696, abs=1e-5)
    assert hi == pytest.approx(0.720376, abs=1e-5)


def test_epsilon_interval_width_is_penalty():
    report = equilibrium_report(REF)
    lo, hi = report.epsilon_range
    assert hi - lo == pytest.approx(report.penalty, abs=1e-12)


def test_epsilon_participation_inequalities():
    g = make_game(10.0, 5.0, 1.0, 0.99)
    ne = nash_equilibrium(g)
    c = centralized_cost(g)
    lo, hi = equilibrium_report(g).epsilon_range
    for eps in (lo, 0.5 * (lo + hi), hi):
        assert eps * c <= cost_rps(g, ne) + 1e-9
        assert (1 - eps) * c <= cost_bs(g, ne) + 1e-9


@pytest.mark.parametrize("epsilon", [math.nan, -0.1, 1.1])
def test_coordinated_costs_rejects_nan_and_out_of_range(epsilon):
    with pytest.raises(ParameterError, match=r"epsilon must lie in \[0, 1\]"):
        coordinated_costs(REF, epsilon, centralized_optimum(REF))


@pytest.mark.parametrize("args, name", [
    ((math.nan, 2.0, 1.0, 10.0), "total_lambda"),
    ((math.inf, 2.0, 1.0, 10.0), "total_lambda"),
    ((1.8, math.nan, 1.0, 10.0), "mu0"),
    ((1.8, 2.0, math.nan, 10.0), "energy prices"),
    ((1.8, 2.0, 1.0, math.nan), "energy prices"),
    ((1.8, 2.0, 1.0, -1.0), "energy prices"),
    ((-math.inf, 2.0, 1.0, 10.0), "total_lambda"),
    ((-1.0, 2.0, 1.0, 10.0), "total_lambda"),
    ((0.0, 2.0, 1.0, 10.0), "total_lambda"),
    ((1.8, math.inf, 1.0, 10.0), "mu0"),
    ((1.8, -math.inf, 1.0, 10.0), "mu0"),
    ((1.8, -1.0, 1.0, 10.0), "mu0"),
    ((1.8, 0.0, 1.0, 10.0), "mu0"),
    ((1.8, 2.0, math.inf, 10.0), "energy prices"),
    ((1.8, 2.0, -math.inf, 10.0), "energy prices"),
    ((1.8, 2.0, -1.0, 10.0), "energy prices"),
    ((1.8, 2.0, 1.0, math.inf), "energy prices"),
    ((1.8, 2.0, 1.0, -math.inf), "energy prices"),
    ((1.7e308, 2.0, 1.0, 10.0), r"bill p2 \* total_lambda"),
    ((1.7e308, 2.0, 10.0, 0.0), r"bill p1 \* total_lambda"),
])
def test_power_split_rejects_non_finite_arguments(args, name):
    with pytest.raises(ParameterError, match=name):
        power_split(SPLIT_GAME, *args)


def test_dynamics_reject_nan_tolerance():
    with pytest.raises(ParameterError, match="tol"):
        best_response_dynamics(REF, StrategyPair(s=1.0, nu=0.5), tol=math.nan)


@pytest.mark.parametrize("max_iter", [0, -1, 2.5, math.nan, math.inf, "5"])
def test_dynamics_reject_a_bad_iteration_cap(max_iter):
    with pytest.raises(ParameterError, match="max_iter must be an integer >= 1"):
        best_response_dynamics(REF, StrategyPair(s=1.0, nu=0.5), max_iter=max_iter)


def test_dynamics_size_their_default_iteration_cap(monkeypatch):
    """max_iter=None allows ceil(64 (1 + q/2)) rounds, q = w^2/(1 + w) and
    w = ln(1 + alpha b): 101 at the reference game, 64 at alpha = 0, and 2069
    at w = 63.6, where the dynamics take 774 rounds."""
    from greenstock import game
    huge_b = make_game(4.8614522745451496e+27, 125047134451.8479, 386.5632363870054,
                       0.875623935822907)
    for g, cap in ((REF, 101), (make_game(10.0, 5.0, 1.0, 0.0), 64), (huge_b, 2069)):
        answers = iter([0.25, 0.75] * cap)    # a supplier that never settles
        monkeypatch.setattr(game, "rps_best_response", lambda g, s, start: next(answers) * g.phi)
        with pytest.raises(ConvergenceError, match=f"within {cap} iterations") as err:
            best_response_dynamics(g, StrategyPair(s=1.0, nu=0.5 * g.phi))
        assert len(err.value.trace) == cap + 1


def test_equilibrium_report_bundles_consistently():
    rep = equilibrium_report(REF)
    assert rep.cost_bs_ne == pytest.approx(rep.ne.s, abs=1e-9)
    assert rep.ne.nu * rep.ne.s == pytest.approx(math.log(6.0), abs=1e-9)
    assert rep.central.nu * rep.central.s == pytest.approx(math.log(11.0), abs=1e-9)
    assert rep.penalty >= 0.0


def test_equilibrium_report_refuses_an_underflowing_centralized_cost():
    """The penalty and the sharing range divide by the centralized cost."""
    g = make_game(5.5587658417940875e-283, 1.2370128581013361e-274, 1.0696782426394622e+122,
                  5.931837303800576e-11)
    assert centralized_cost(g) == 0.0
    with pytest.raises(DegenerateGameError, match="the centralized cost underflows to 0"):
        equilibrium_report(g)


def test_centralized_cost_stays_finite_where_its_radicand_overflows():
    """c_s gamma (1 + phi) overflows at c_s = 1e300, phi = 1e10, while the cost,
    about 1e290, does not: it is the three-root closed form, and the report on it
    answers.  Where only the numerator overflows, each term is divided by phi
    first; a cost past float range is refused."""
    g = make_game(10.0, 1e300, 1e10, 0.5)
    gamma = math.log1p(10.0)
    root = math.sqrt(1e300) * math.sqrt(gamma) * math.sqrt(1.0 + 1e10)
    assert centralized_cost(g) == (1e300 + gamma + 2.0 * root) / 1e10
    assert math.isfinite(equilibrium_report(g).penalty)
    with localcontext() as ctx:
        ctx.prec = 40
        cs, phi, dgamma = Decimal(1.7e308), Decimal(1e308), Decimal(gamma)
        exact = (cs + dgamma + 2 * (cs * dgamma * (1 + phi)).sqrt()) / phi
    assert centralized_cost(make_game(10.0, 1.7e308, 1e308, 0.5)) == pytest.approx(
        float(exact), rel=1e-15)
    with pytest.raises(DegenerateGameError, match="the centralized cost overflows float range"):
        centralized_cost(make_game(5.603514732500859e-127, 1.2961167764240645e+290,
                                   2.1678336858399428e-77, 0.5))


def test_cost_rps_stays_finite_where_c_s_times_nu_plus_one_overflows():
    """c_s (nu + 1) overflows at c_s = 1.7e308, phi = 1e308, while the supplier's
    cost at the equilibrium, about 4.4, does not: there c_s/(phi - nu) is taken
    first, and the cost agrees with a 50-digit value.  A cost past float range is
    refused."""
    g = make_game(10.0, 1.7e308, 1e308, 0.5)
    ne = nash_equilibrium(g)
    with localcontext() as ctx:
        ctx.prec = 50
        s, nu, cs, phi = map(Decimal, (ne.s, ne.nu, g.cs, g.phi))
        exact = Decimal(g.residual_b) * (-nu * s).exp() / nu + cs * (nu + 1) / (phi - nu)
    assert cost_rps(g, ne) == pytest.approx(float(exact), rel=1e-12)
    assert math.isfinite(equilibrium_report(g).penalty)
    with pytest.raises(DegenerateGameError, match="the supplier's cost overflows float range"):
        cost_rps(make_game(10.0, 1.7e308, 1.0, 0.5), StrategyPair(s=1.0, nu=0.5))


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
    for run in (lambda: equilibrium_report(REF),
                lambda: cli.scenario_penalty_contract(params, 0),
                lambda: cli.check_penalty_contract(cli.scenario_penalty_contract(params, 0), 0)):
        calls.clear()
        run()
        assert len(calls) == 1


def test_coordinated_costs_telescope():
    rng = np.random.default_rng(23)
    for _ in range(25):
        x = StrategyPair(s=float(rng.uniform(0.1, 12.0)),
                         nu=float(rng.uniform(0.05, 0.95)))
        bs_c, rps_c = coordinated_costs(REF, 0.7, x)
        assert bs_c + rps_c == pytest.approx(total_cost(REF, x), abs=1e-12)


def test_coordinated_costs_at_centralized_point():
    opt = centralized_optimum(REF)
    bs_c, rps_c = coordinated_costs(REF, 0.7, opt)
    assert bs_c == pytest.approx(0.3 * 17.191557, abs=1e-4)
    assert rps_c == pytest.approx(0.7 * 17.191557, abs=1e-4)


def test_coordinated_argmin_is_centralized_gridpoint():
    """On a 200x200 grid both players' coordinated costs bottom out exactly
    where the joint cost does."""
    opt = centralized_optimum(REF)
    s_axis = np.linspace(0.05, 4 * opt.s, 200)
    nu_axis = REF.phi * np.arange(1, 201) / 201
    k_joint = None
    k_bs = None
    best_joint = best_bs = math.inf
    for i, s in enumerate(s_axis):
        for j, nu in enumerate(nu_axis):
            x = StrategyPair(s=float(s), nu=float(nu))
            joint = total_cost(REF, x)
            bs_c, _ = coordinated_costs(REF, 0.7, x)
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
    # Not mu0 / lam - 1, which loses digits as lam nears mu0; and ln(1 + alpha*b),
    # which can be subnormal, multiplies last.
    phi = (mu0 - lam) / lam
    f = auxiliary_f(g)
    s = (math.sqrt(1 + phi) + f) / (f * phi) * math.log1p(g.alpha * g.b)
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
    # The degenerate games: at alpha = 1 or b = 0 the renewable cost is inf
    # (1/f is), and at alpha = 0 it is 0, so every unit the interval admits
    # goes renewable.
    for g in (make_game(5.0, 5.0, 1.0, 1.0), make_game(0.0, 5.0, 1.0, 0.5)):
        assert power_split(g, 1.8, 2.0, 1.0, 7.5) == (0.0, pytest.approx(13.5, abs=1e-12))
    assert power_split(make_game(5.0, 5.0, 1.0, 0.0), 1.8, 2.0, 1.0, 7.5) == (
        1.8, pytest.approx(1.8, abs=1e-12))
    # 1/f overflows to inf: the all-grid bill, not inf * 0 = nan in its stock.
    assert power_split(make_game(1e-310, 1.7e308, 1.0, 0.5), 1.8, 2.0, 1.0, 7.5) == (0.0, 13.5)
    # sqrt(hi / mu0) underflows to 0 here, where the cost's slope is +inf.
    assert power_split(SPLIT_GAME, 5e-324, 2.0, 1.0, 7.5) == (0.0, 7.5 * 5e-324)


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
    # A subnormal tol: the dynamics' stop, relative to s and nu, must not underflow to 0.
    for tol in (1e-310, 5e-324):
        with deadline(5):
            fixed, _ = best_response_dynamics(REF, StrategyPair(s=1.0, nu=2e-12), tol=tol)
        assert fixed.nu == pytest.approx(nash_equilibrium(REF).nu, rel=1e-12)
    # At mu0 = 4e9 the float spacing of lambda is about 5e-7: both roots
    # still end, on the minimum.
    with deadline(5):
        lam, cost = power_split(SPLIT_GAME, 8e9, 4e9, 1.0, 7.5)
    hi = 4e9 * (1.0 - 1e-6)
    assert 0.0 <= lam <= hi
    best = min(split_cost_oracle(SPLIT_GAME, x, 8e9, 4e9, 1.0, 7.5)
               for x in np.linspace(lam * (1 - 1e-3), min(lam * (1 + 1e-3), hi), 10_001))
    assert cost <= best * (1 + 1e-12)


def test_power_split_at_a_subnormal_supply_cost():
    # f = auxiliary_f overflows to inf at cs_n = 5e-324; 1/f does not, so the
    # split matches its value at cs_n = 1e-300 instead of falling to all-grid.
    for p2 in (5.0, 7.5, 10.0):
        lam, cost = power_split(make_game(5.0, 5e-324, 1.0, 0.5), 1.8, 2.0, 1.0, p2)
        ref_lam, ref_cost = power_split(make_game(5.0, 1e-300, 1.0, 0.5), 1.8, 2.0, 1.0, p2)
        assert lam == pytest.approx(ref_lam, abs=1e-9) and lam > 0.0
        assert cost == pytest.approx(ref_cost, abs=1e-9)


def _two_root_split(g, total_lambda, mu0, p1, p2):
    """A two-root `power_split`, the reference for the one-root solve: Newton
    on Q/f = (3t^4 + 6t^2 - 1)/f + 8t^3 from t = 1 for t_m, the minimum of
    h, then guarded Newton on F over [min(t_m, sqrt(hi/mu0)), sqrt(hi/mu0)]
    for t_2 when F < 0 at the lower end.  Valid arguments only."""
    residual, ab = (1.0 - g.alpha) * g.b, g.alpha * g.b
    if residual <= 0.0:
        return 0.0, p2 * total_lambda
    log_ab = math.log1p(ab)
    inv_f = math.sqrt(g.cs) / math.sqrt(residual) * math.sqrt((1.0 + ab) / (1.0 + log_ab))
    hi, q = min(total_lambda, mu0 * (1.0 - 1e-6)), p2 - p1
    lams = [0.0, hi]
    if log_ab > 0.0 and q > 0.0:
        t_m = 1.0 if inv_f > 0.0 else 0.0
        while t_m > 0.0:
            tt = t_m * t_m
            newton = t_m - ((inv_f * (3.0 * tt * tt + 6.0 * tt - 1.0) + 8.0 * tt * t_m)
                            / (12.0 * inv_f * t_m * (tt + 1.0) + 24.0 * tt))
            if not newton < t_m:
                break
            t_m = newton
        up = math.sqrt(hi / mu0)
        t = lo = min(t_m, up)
        tt, level = t * t, math.log(2.0) + math.log(mu0) + math.log(q) - math.log(log_ab)
        gap = (math.log(inv_f * (1.0 + tt) / t + 2.0) - 2.0 * math.log1p(-tt) - level
               if 0.0 < t < 1.0 else math.log(2.0) - level if inv_f == 0.0 else math.inf)
        if gap < 0.0:
            step, newton = up - lo, math.nan
            while True:
                step_old, step = step, abs(newton - t)
                if lo < newton < up and step <= 0.5 * step_old:
                    t = newton
                elif lo < (mid := 0.5 * (lo + up)) < up:
                    t, step = mid, 0.5 * (up - lo)
                else:
                    break
                tt = t * t
                u = inv_f * (1.0 + tt) / t + 2.0
                gap = math.log(u) - 2.0 * math.log1p(-tt) - level
                if gap < 0.0:
                    lo = t
                else:
                    up = t
                slope = 4.0 * t * tt * u - inv_f * (1.0 - tt) ** 2
                newton = t - gap * (1.0 - tt) * tt * u / slope if slope > 0.0 else math.nan
                if newton == t:
                    break
            lams.append(min(mu0 * t * t, hi))

    def cost(lam):
        if lam >= mu0:
            return math.inf
        if lam == 0.0 or log_ab == 0.0:
            stock = 0.0
        else:
            stock = (inv_f * math.sqrt(lam) * math.sqrt(mu0) + lam) / (mu0 - lam) * log_ab
        return stock + p1 * lam + p2 * (total_lambda - lam)

    best_cost, best_lam = min((cost(lam), lam) for lam in lams)
    return best_lam, best_cost


@on_the_domain
@given(domain_games, log_uniform(1e-3, 1e3), log_uniform(1e-3, 1e3),
       st.floats(0.0, 100.0), st.floats(0.0, 100.0))
# One case per way the Newton on F ends: sqrt(hi/mu0) underflows to 0 and
# it does not run; F <= 0 at the start, the root lying past hi; the start
# below t_m, the minimum of F, with F > 0 and no root; no root, the
# iterates passing t_m (F' <= 0) or a step leaving (0, t); an interior root.
@example(SPLIT_GAME, 5e-324, 2.0, 1.0, 7.5)
@example(SPLIT_GAME, 0.2, 2.0, 1.0, 10.0)
@example(SPLIT_GAME, 0.01, 2.0, 1.0, 1.5)
@example(SPLIT_GAME, 1.8, 2.0, 1.0, 4.0)
@example(SPLIT_GAME, 1.8, 2.0, 1.0, 1.5)
@example(SPLIT_GAME, 1.8, 2.0, 1.0, 10.0)
def test_power_split_matches_the_two_root_reference(deadline, g, total_lambda, mu0, p1, p2):
    lam, cost = within(deadline, lambda: power_split(g, total_lambda, mu0, p1, p2))
    ref_lam, ref_cost = _two_root_split(g, total_lambda, mu0, p1, p2)
    slack = 8 * math.ulp(0.0)
    assert cost <= ref_cost * (1 + 1e-12) + slack
    assert ref_cost <= cost * (1 + 1e-12) + slack


@pytest.mark.parametrize("inv_f", [0.0, 1e-3, 0.5, 1.0, 1e3, 1e6])
def test_power_split_root_condition_is_convex(inv_f):
    # F(t) = ln((1/f)(1 + t^2)/t + 2) - 2 ln(1 - t^2) up to a constant: its
    # second differences on a fine grid of (0, 1) are nonnegative.
    t = np.linspace(0.0, 1.0, 200_001)[1:-1]
    F = np.log(inv_f * (1.0 + t * t) / t + 2.0) - 2.0 * np.log1p(-t * t)
    assert (F[2:] - 2.0 * F[1:-1] + F[:-2] >= 0.0).all()
