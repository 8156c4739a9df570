"""Normalized parameters and make-to-stock queue analytics.

A base station serves connections from a renewable-energy buffer kept at
base-stock level s; every arrival places a replenishment order on the
supplier, so outstanding orders behave like a single-server queue with
demand rate lambda and supply rate mu.  In steady state the outstanding
count N is geometric with ratio rho = lambda/mu; the continuous-state
(heavy-traffic) approximation replaces it with an exponential law of
parameter nu = (mu - lambda)/lambda.  Under that approximation:

    mean inventory  E[(s - N)^+] = s - (1 - e^{-nu s}) / nu
    mean backlog    E[(N - s)^+] = e^{-nu s} / nu

The exact discrete law is kept alongside as a validation oracle.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import _FLOAT_MAX, _FLOAT_MIN, ParameterError, _nonnegative, _positive, _rate, _whole


class NormalizedParams(namedtuple("NormalizedParams", "b_n cs_n phi alpha")):
    """Dimensionless cost parameters after dividing through by the reservation cost c:
    backlog cost b_n = b/c, supply cost cs_n = (cs_raw/c) * (lambda0/mu0), capacity
    headroom phi = mu0/lam - 1 and backlog cost share alpha, from the arrival rate lam,
    renewable capacity mu0, backlog cost b, supply cost cs_raw per unit load factor,
    and the supplier's external demand lambda0."""

    __slots__ = ()

    def __new__(cls, b_n: float, cs_n: float, phi: float, alpha: float):
        _positive("phi", phi)
        _nonnegative("b_n", b_n)
        _positive("cs_n", cs_n)
        if not 0.0 <= alpha <= 1.0:
            raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
        return tuple.__new__(cls, (b_n, cs_n, phi, alpha))


class StrategyPair(namedtuple("StrategyPair", "s nu")):
    """A point (s, nu): base-stock level and normalized supply rate, a rate
    not below the smallest normal float."""

    __slots__ = ()

    def __new__(cls, s: float, nu: float):
        # Chained comparisons first: a valid pair makes no helper call.
        if not 0.0 <= s <= _FLOAT_MAX:
            _nonnegative("s", s)
        if not _FLOAT_MIN <= nu <= _FLOAT_MAX:
            _rate("nu", nu)
        return tuple.__new__(cls, (s, nu))


def mean_inventory(s: float, nu: float) -> float:
    """Expected energy reservation level E[(s - N)^+] = s - (1 - e^{-nu s})/nu, which
    cancels as x = nu s falls: below x = 1e-3 its series, within 3e-15 relative."""
    _nonnegative("s", s)
    _rate("nu", nu)
    x = nu * s
    if x < 1e-3:
        return s * x * (0.5 - x * (1.0 / 6.0 - x * (1.0 / 24.0 - x / 120.0)))
    return s + math.expm1(-x) / nu


def mean_backlog(s: float, nu: float) -> float:
    """Expected backlogged connections E[(N - s)^+] = e^{-nu s}/nu."""
    _nonnegative("s", s)
    _rate("nu", nu)
    return math.exp(-nu * s) / nu


def exact_backlog_discrete(s: int, rho: float) -> float:
    """Exact geometric-law backlog sum_{j>s} (j-s)(1-rho)rho^j = rho^{s+1}/(1-rho).

    Validation oracle for the continuous approximation; s is an integer
    base-stock level and rho the load factor.
    """
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"rho must lie in (0, 1) for a stable queue, got {rho}")
    s = _whole("s", s, 0)
    _nonnegative("s", s)    # an int past float range has no float power
    return rho ** (s + 1) / (1.0 - rho)


def approximation_error(s: int, rho: float) -> float:
    """Relative error of the exponential approximation at integer stock s.

    Compares mean_backlog(s, nu) with nu = (1-rho)/rho against the exact
    geometric value; both agree exactly at s = 0.  A stock whose exact
    backlog underflows to 0 has no relative error and raises ParameterError.
    """
    exact = exact_backlog_discrete(s, rho)
    _positive(f"the exact backlog at s={s}", exact)
    nu = (1.0 - rho) / rho
    return abs(mean_backlog(float(s), nu) - exact) / exact
