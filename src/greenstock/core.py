"""Parameters, normalization and make-to-stock queue analytics.

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
from dataclasses import dataclass

from .errors import ParameterError

# Open-interval domain checks exclude the endpoints with this slack.
DOMAIN_EPS = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Raw physical/economic parameters of one base-station / supplier pair.

    Units are documentation-level contracts: rates are per unit time,
    costs per unit time, prices per connection-unit.
    """

    lam: float          # connection arrival rate
    mu0: float          # maximum renewable production rate
    b: float            # backlog cost per backlogged connection
    c: float            # reservation cost per stored energy unit
    cs_raw: float       # supplier cost per unit load-factor increase
    lambda0: float      # external demand rate at the supplier
    alpha: float        # backlog cost share charged to the BS
    p1: float = 0.0     # renewable energy price per connection-unit
    p2: float = 0.0     # grid energy price per connection-unit
    p: float = 0.0      # incentive price per unit supply rate (multi-BS)

    def __post_init__(self):
        # Every check reads `not lo < x < hi`, which a nan fails.
        if not 0 < self.lam < math.inf:
            raise ParameterError(f"lam must be finite and > 0, got {self.lam}")
        if not self.lam < self.mu0 < math.inf:
            raise ParameterError(
                f"mu0 must be finite and exceed lam (no capacity headroom): "
                f"mu0={self.mu0}, lam={self.lam}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0 < self.c < math.inf:
            raise ParameterError(f"c must be finite and > 0, got {self.c}")
        for name in ("b", "cs_raw", "lambda0", "p1", "p2", "p"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class NormalizedParams:
    """Dimensionless cost parameters after dividing through by c."""

    b_n: float      # normalized backlog cost b/c
    cs_n: float     # normalized supply cost (cs_raw/c) * (lambda0/mu0)
    phi: float      # capacity headroom mu0/lam - 1
    alpha: float    # backlog cost share

    def __post_init__(self):
        if not 0 < self.phi < math.inf:
            raise ParameterError(f"phi must be finite and > 0, got {self.phi}")
        for name in ("b_n", "cs_n"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha must lie in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class StrategyPair:
    """A point (s, nu): base-stock level and normalized supply rate."""

    s: float
    nu: float

    def __post_init__(self):
        if not 0 <= self.s < math.inf:
            raise ParameterError(f"s must be finite and >= 0, got {self.s}")
        if not 0 < self.nu < math.inf:
            raise ParameterError(f"nu must be finite and > 0, got {self.nu}")


def normalize(params: SystemParams) -> NormalizedParams:
    """Normalize cost parameters by the reservation cost rate c.

    b_n = b/c, cs_n = (cs_raw/c) * (lambda0/mu0), phi = mu0/lam - 1.
    """
    return NormalizedParams(
        b_n=params.b / params.c,
        cs_n=(params.cs_raw / params.c) * (params.lambda0 / params.mu0),
        phi=params.mu0 / params.lam - 1.0,
        alpha=params.alpha,
    )


def _check_s_nu(s: float, nu: float) -> None:
    if not s >= 0:
        raise ParameterError(f"s must be >= 0, got {s}")
    if not nu > DOMAIN_EPS:
        raise ParameterError(f"nu must be > DOMAIN_EPS={DOMAIN_EPS}, got {nu}")


def mean_inventory(s: float, nu: float) -> float:
    """Expected energy reservation level E[(s - N)^+] = s - (1 - e^{-nu s})/nu."""
    _check_s_nu(s, nu)
    return s - (1.0 - math.exp(-nu * s)) / nu


def mean_backlog(s: float, nu: float) -> float:
    """Expected backlogged connections E[(N - s)^+] = e^{-nu s}/nu."""
    _check_s_nu(s, nu)
    return math.exp(-nu * s) / nu


def exact_backlog_discrete(s: int, rho: float) -> float:
    """Exact geometric-law backlog sum_{j>s} (j-s)(1-rho)rho^j = rho^{s+1}/(1-rho).

    Validation oracle for the continuous approximation; s is an integer
    base-stock level and rho the load factor.
    """
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"rho must lie in (0, 1) for a stable queue, got {rho}")
    if s < 0 or int(s) != s:
        raise ParameterError(f"s must be a nonnegative integer, got {s}")
    return rho ** (int(s) + 1) / (1.0 - rho)


def approximation_error(s: int, rho: float) -> float:
    """Relative error of the exponential approximation at integer stock s.

    Compares mean_backlog(s, nu) with nu = (1-rho)/rho against the exact
    geometric value; both agree exactly at s = 0.
    """
    exact = exact_backlog_discrete(s, rho)
    nu = (1.0 - rho) / rho
    return abs(mean_backlog(float(s), nu) - exact) / exact
