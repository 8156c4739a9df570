"""Queue analytics: parameter checks, closed forms vs integral/series oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenstock import (
    NormalizedParams,
    ParameterError,
    StrategyPair,
    approximation_error,
    exact_backlog_discrete,
    mean_backlog,
    mean_inventory,
)


# ---------------------------------------------------------------- oracles

def inventory_quadrature(s, nu, n=400_000):
    """E[(s-N)^+] by direct integration of (s-x) nu e^{-nu x} over [0, s]."""
    x = np.linspace(0.0, s, n)
    return float(np.trapezoid((s - x) * nu * np.exp(-nu * x), x))


def backlog_quadrature(s, nu, n=400_000, tail=60.0):
    """E[(N-s)^+] by integration of (x-s) nu e^{-nu x} from s outward."""
    x = np.linspace(s, s + tail / nu, n)
    return float(np.trapezoid((x - s) * nu * np.exp(-nu * x), x))


def backlog_series(s, rho):
    """Direct geometric summation sum_{j>s} (j-s)(1-rho)rho^j, tail < 1e-12."""
    total = 0.0
    j = s + 1
    while (1 - rho) * rho**j * (j - s) > 1e-18 or j < s + 10:
        total += (j - s) * (1 - rho) * rho**j
        j += 1
        if rho**j / (1 - rho) * (j - s + 1 / (1 - rho)) < 1e-12:
            break
    return total


# ------------------------------------------------------------ parameters

def test_alpha_outside_unit_interval_rejected():
    for alpha in (-0.1, 1.2):
        with pytest.raises(ParameterError, match="alpha must lie in"):
            NormalizedParams(b_n=10.0, cs_n=5.0, phi=1.0, alpha=alpha)


_BAD_PARAMS = [(field, bad) for bad in (math.nan, math.inf, -math.inf, -1.0)
               for field in ("b_n", "cs_n", "phi", "alpha")] + [("phi", 0.0), ("cs_n", 0.0)]


@pytest.mark.parametrize("field, bad", _BAD_PARAMS,
                         ids=[f"{bad}-{field}" for field, bad in _BAD_PARAMS])
def test_non_finite_normalized_params_rejected(field, bad):
    with pytest.raises(ParameterError, match=field):
        NormalizedParams(**{**dict(b_n=10.0, cs_n=5.0, phi=1.0, alpha=0.5), field: bad})


@pytest.mark.parametrize("s, nu", [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan),
                                   (1.0, math.inf), (-math.inf, 0.5), (-1.0, 0.5),
                                   (1.0, -math.inf), (1.0, -1.0), (1.0, 0.0)])
def test_non_finite_strategy_rejected(s, nu):
    with pytest.raises(ParameterError):
        StrategyPair(s=s, nu=nu)
    if math.isnan(s) or math.isnan(nu):
        with pytest.raises(ParameterError):
            mean_inventory(s, nu)


# -------------------------------------------------------- mean inventory

def test_mean_inventory_zero_stock():
    assert mean_inventory(0.0, 0.7) == 0.0


def test_mean_inventory_matches_quadrature():
    """Closed form agrees with the defining integral at the reference point."""
    got = mean_inventory(7.2947, 0.3287)
    assert got == pytest.approx(inventory_quadrature(7.2947, 0.3287), rel=1e-6)
    assert got == pytest.approx(4.529019, abs=1e-5)


def test_mean_inventory_large_stock_limit():
    """As s grows, I_s approaches s - 1/nu."""
    nu = 0.5
    s = 200.0
    assert mean_inventory(s, nu) == pytest.approx(s - 1.0 / nu, abs=1e-12)


@pytest.mark.parametrize("s, nu", [(1.0, 2e-12), (2e-10, 0.5), (1.0, 0.999e-3), (1.0, 1.0005e-3)])
def test_mean_inventory_keeps_its_digits_where_nu_s_is_small(s, nu):
    """s - (1 - e^{-nu s})/nu cancels as nu s falls: it read 2.2e-5 against 1.0e-12 at
    (1, 2e-12), and -1.65e-17 at (2e-10, 0.5); the last two lie either side of the
    series' threshold nu s = 1e-3."""
    assert mean_inventory(s, nu) == pytest.approx(inventory_quadrature(s, nu), rel=1e-12, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.5, 11.0) | st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
       st.floats(0.05, 2.0) | st.floats(-11.9, 300.0).map(lambda e: 10.0 ** e))
@example(2e-10, 0.5)
@example(3e-300, 0.7)
def test_mean_inventory_bounded_by_stock(s, nu):
    assert 0.0 <= mean_inventory(s, nu) <= s


# ---------------------------------------------------------- mean backlog

def test_mean_backlog_zero_stock_is_full_mean():
    nu = 0.32539
    assert mean_backlog(0.0, nu) == pytest.approx(1.0 / nu, abs=1e-12)


def test_mean_backlog_reference_points():
    got = mean_backlog(5.5065, 0.32539)
    assert got == pytest.approx(backlog_quadrature(5.5065, 0.32539), rel=1e-6)
    assert got == pytest.approx(0.512206, abs=1e-5)
    assert mean_backlog(7.2947, 0.3287) == pytest.approx(0.276607, abs=1e-5)


def test_mean_backlog_decreasing_and_convex_in_s():
    nu = 0.45
    grid = np.linspace(0.0, 12.0, 241)
    vals = np.array([mean_backlog(s, nu) for s in grid])
    assert np.all(np.diff(vals) < 0.0), "backlog must fall as stock rises"
    assert np.all(np.diff(vals, 2) > -1e-12), "backlog must be convex in s"


def test_mean_backlog_decreasing_in_nu_past_unit_exposure():
    # For fixed s with nu*s > 1 the backlog falls as the supply rate rises.
    s = 5.0
    nus = np.linspace(0.25, 1.5, 40)     # nu*s from 1.25 up
    vals = [mean_backlog(s, nu) for nu in nus]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_inventory_backlog_identity():
    """I_s = s - 1/nu + D, algebraic identity of the two closed forms."""
    for s in (0.0, 0.3, 2.7, 9.0, 25.0):
        for nu in (0.05, 0.33, 1.0, 4.0):
            lhs = mean_inventory(s, nu)
            rhs = s - 1.0 / nu + mean_backlog(s, nu)
            assert abs(lhs - rhs) < 1e-12, f"identity broken at s={s}, nu={nu}"


def test_domain_violations_rejected():
    with pytest.raises(ParameterError):
        mean_inventory(-1.0, 0.5)
    with pytest.raises(ParameterError):
        mean_backlog(1.0, 0.0)


# --------------------------------------------------- exact discrete law

def test_exact_backlog_zero_stock():
    assert exact_backlog_discrete(0, 0.70) == pytest.approx(7.0 / 3.0, abs=1e-9)
    assert exact_backlog_discrete(0, 0.93) == pytest.approx(13.285714285714, abs=1e-9)


def test_exact_backlog_small_case():
    assert exact_backlog_discrete(3, 0.5) == pytest.approx(0.125, abs=1e-12)


def test_exact_backlog_matches_series_oracle():
    for rho in (0.39, 0.70, 0.80, 0.93):
        for s in range(11):
            closed = exact_backlog_discrete(s, rho)
            summed = backlog_series(s, rho)
            assert closed == pytest.approx(summed, abs=1e-9), (
                f"series mismatch at s={s}, rho={rho}")


def test_exact_backlog_rejects_unstable():
    with pytest.raises(ParameterError):
        exact_backlog_discrete(0, 1.0)
    with pytest.raises(ParameterError):
        exact_backlog_discrete(0, 1.3)
    for s in (-1, math.nan, math.inf, -math.inf, 1.5):
        with pytest.raises(ParameterError, match="s must be an integer >= 0"):
            exact_backlog_discrete(s, 0.5)
        with pytest.raises(ParameterError, match="s must be an integer >= 0"):
            approximation_error(s, 0.5)
    with pytest.raises(ParameterError, match="s must be finite"):
        exact_backlog_discrete(10**400, 0.5)
    with pytest.raises(ParameterError, match="exact backlog at s=1000.* must be finite and > 0"):
        approximation_error(10**300, 0.5)


# ------------------------------------------------- approximation error

def test_approximation_error_reference_points():
    assert approximation_error(5, 0.9) == pytest.approx(0.028344, abs=1e-5)
    assert approximation_error(2, 0.9) == pytest.approx(0.011435, abs=1e-5)


def test_approximation_exact_at_zero_stock():
    # 1/nu equals rho/(1-rho) exactly when nu = (1-rho)/rho.
    for rho in (0.39, 0.70, 0.93):
        assert approximation_error(0, rho) < 1e-12


def test_heavy_traffic_error_bound():
    """Relative error stays below 8% through s=10 at rho=0.9."""
    worst = max(approximation_error(s, 0.9) for s in range(11))
    assert worst <= 0.08, f"worst-case approximation error {worst:.4f}"
