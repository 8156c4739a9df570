"""Event-driven validation of the make-to-stock queue analytics.

The simulator tracks the outstanding-order count N of a single-server
FIFO queue (an order is placed at every demand epoch, the supplier works
them off one at a time) and derives inventory (s - N)^+ and backlog
(N - s)^+ from it.  Interarrival and service draws come from pluggable
distributions so the heavy-traffic approximation can be probed beyond
the exponential case.  Runs are deterministic for a fixed seed.

Draw-order contract: each `sample(rng, n)` consumes a fixed number of
variates whatever their values, n for `Exponential` and `TruncatedNormal`
(inverse CDF, no rejection) and 3n for `HyperExp2`; a run draws every
interarrival time, then every service time.

The module needs numpy alone until the first truncated-normal draw, which
imports scipy.special for its inverse normal CDF (`ndtri`): the analytic
scenarios never load scipy.  The scalar normal CDF, hazard and Student-t
quantile are computed here from `math`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .errors import ParameterError

_BATCHES = 20


@dataclass(frozen=True)
class Exponential:
    """Exponential law with the given rate."""

    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ParameterError(f"rate must be finite and > 0, got {self.rate}")

    @property
    def kind(self) -> str:
        return "exponential"

    def mean_time(self) -> float:
        return 1.0 / self.rate

    def scv(self) -> float:
        return 1.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=n)


@dataclass(frozen=True)
class HyperExp2:
    """Two-phase hyperexponential: rate1 with probability prob, else rate2."""

    prob: float
    rate1: float
    rate2: float

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise ParameterError(f"prob must lie in [0, 1], got {self.prob}")
        if not (0 < self.rate1 < math.inf and 0 < self.rate2 < math.inf):
            raise ParameterError(
                f"rates must be finite and > 0, got {self.rate1}, {self.rate2}")

    @property
    def kind(self) -> str:
        return "hyperexp2"

    def mean_time(self) -> float:
        return self.prob / self.rate1 + (1.0 - self.prob) / self.rate2

    def scv(self) -> float:
        m1 = self.mean_time()
        m2 = 2.0 * self.prob / self.rate1**2 + 2.0 * (1.0 - self.prob) / self.rate2**2
        return (m2 - m1 * m1) / (m1 * m1)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        choose = rng.random(n) < self.prob
        return np.where(
            choose,
            rng.exponential(1.0 / self.rate1, size=n),
            rng.exponential(1.0 / self.rate2, size=n),
        )


def _ndtr(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) erfc(x), for x below
    about 26; inf where it exceeds float range (x < -26.6)."""
    try:
        return math.exp(x * x) * math.erfc(x)
    except OverflowError:
        return math.inf


def _norm_hazard(x: float) -> float:
    # pdf(x)/(1 - cdf(x)); the erfcx form stays accurate deep in the right
    # tail, where erfc alone cancels to noise.  0 in the far-left tail.
    return math.sqrt(2.0 / math.pi) / _erfcx(x / math.sqrt(2.0))


@dataclass(frozen=True)
class TruncatedNormal:
    """Left-truncated normal with the *requested* mean and cv.

    N(mu0, sigma0^2) conditioned above the floor (default 1e-6 * mean),
    with (mu0, sigma0) solved once, at construction, so that the truncated
    law hits the configured mean and cv exactly: truncating N(mean, cv*mean)
    would bias the moments that feed the kappa heavy-traffic correction.
    Sampling inverts the truncated CDF at n uniforms.
    """

    mean: float
    cv: float = 0.5
    floor: float | None = None
    _base: tuple = field(init=False, repr=False, compare=False)   # mu0, sigma0, Phi(-a)

    def __post_init__(self):
        if not (0 < self.mean < math.inf and 0 < self.cv < math.inf):
            raise ParameterError(f"mean and cv must be finite and > 0, got {self.mean}, {self.cv}")
        if self.floor is not None and not 0 < self.floor < math.inf:
            raise ParameterError(f"floor must be finite and > 0, got {self.floor}")
        object.__setattr__(self, "_base", self._base_params())
        mu0, sigma0, tail = self._base
        if not math.isfinite(mu0 - sigma0 * NormalDist().inv_cdf(2.0**-53 * tail)):   # largest draw
            raise ParameterError(f"mean={self.mean}, cv={self.cv} are beyond float range")

    @property
    def kind(self) -> str:
        return "truncated-normal"

    def _floor(self) -> float:
        return self.floor if self.floor is not None else 1e-6 * self.mean

    def mean_time(self) -> float:
        return self.mean

    def scv(self) -> float:
        return self.cv * self.cv

    def _base_params(self) -> tuple[float, float, float]:
        # Solve for (mu0, sigma0) of the base normal: with a the standardized
        # truncation point, hazard h = pdf(a)/(1 - cdf(a)) and
        # delta = h*(h - a), the truncated law has
        #   mean = mu0 + sigma0*h,  var = sigma0^2 * (1 - delta),
        # so (mean - floor)/sd = (h - a)/sqrt(1 - delta), monotone in a.
        floor = self._floor()
        target = (1.0 - floor / self.mean) / self.cv

        def spread(a: float) -> float:
            h = _norm_hazard(a)
            delta = h * (h - a)
            return (h - a) / math.sqrt(max(1.0 - delta, 1e-15))

        lo, hi = -target - 6.0, 12.0
        if spread(hi) >= target:    # spread falls toward 1, so cv >= ~1 is out
            raise ParameterError(
                f"cv={self.cv} too large for a truncated normal with floor {floor}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if spread(mid) > target:
                lo = mid
            else:
                hi = mid
        a = 0.5 * (lo + hi)
        h = _norm_hazard(a)
        delta = h * (h - a)
        sigma0 = self.cv * self.mean / math.sqrt(1.0 - delta)
        # Phi(-a) rounds to 1 for a < -8.3; kept below 1, ndtri(u*Phi(-a)) stays finite.
        return floor - a * sigma0, sigma0, min(_ndtr(-a), 1.0 - 2.0**-53)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        from scipy.special import ndtri   # deferred: only a draw needs scipy (see module docstring)

        mu0, sigma0, tail = self._base    # Z > a is -ndtri(u*Phi(-a)), u uniform on (0, 1]
        return mu0 - sigma0 * ndtri((1.0 - rng.random(n)) * tail)


DistSpec = Exponential | HyperExp2 | TruncatedNormal


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: distributions, base stock, horizon in events."""

    arrival: DistSpec
    service: DistSpec
    base_stock: int = 0
    horizon: int = 2_000_000
    warmup: int | None = None      # defaults to horizon // 10
    seed: int = 0

    def __post_init__(self):
        if self.base_stock < 0 or int(self.base_stock) != self.base_stock:
            raise ParameterError(f"base_stock must be a nonnegative integer, got {self.base_stock}")
        warm = self.effective_warmup()
        if not 0 <= warm < self.horizon:
            raise ParameterError(
                f"need horizon > warmup >= 0, got horizon={self.horizon}, warmup={warm}")

    def effective_warmup(self) -> int:
        return self.horizon // 10 if self.warmup is None else self.warmup


@dataclass(frozen=True, eq=False)
class SimStats:
    """Time-weighted long-run averages over the post-warmup horizon.

    Every mean is a functional of `pdf`, the time-weighted pmf of the
    outstanding count N.  mean_outstanding counts every unfinished order
    (system count); mean_waiting excludes the one in service, so both
    readings of an "average queue length" are available.
    """

    mean_outstanding: float
    mean_waiting: float
    mean_inventory: float
    mean_backlog: float
    pdf: np.ndarray                 # empirical pmf of the outstanding count
    ci_halfwidth: float             # 95% batch-means half-width on mean_outstanding
    events: int
    sim_time: float


def simulate(config: SimConfig) -> SimStats:
    """Run one event-driven simulation of the make-to-stock queue.

    Arrivals place orders; a single server completes them FIFO.  The
    outstanding count N(t) is piecewise constant between events, so all
    averages are exact time-weighted sums over the post-warmup window.
    Deterministic for a fixed config (single RNG stream, fixed draw order).
    """
    lam_rate = 1.0 / config.arrival.mean_time()
    mu_rate = 1.0 / config.service.mean_time()
    if lam_rate >= mu_rate:
        if config.horizon > 100_000_000:
            raise ParameterError(
                "refusing an unstable configuration (arrival rate >= service rate) "
                f"with horizon {config.horizon} > 1e8 events")
        warnings.warn(
            f"unstable configuration: arrival rate {lam_rate:.6g} >= "
            f"service rate {mu_rate:.6g}; long-run averages will not settle",
            stacklevel=2)

    rng = np.random.default_rng(config.seed)
    n_cust = config.horizon // 2 + 2
    inter = config.arrival.sample(rng, n_cust)
    serv = config.service.sample(rng, n_cust)

    arrivals = np.cumsum(inter)
    cum_serv = np.cumsum(serv)
    # Departure recursion D_k = S_k + max(T_k, D_{k-1}) collapses to a
    # running maximum: D = cumsum(S) + max_{j<=k} (T_j - cumsum(S)_{j-1}).
    departures = cum_serv + np.maximum.accumulate(arrivals - (cum_serv - serv))

    times = np.concatenate([arrivals, departures])
    order = np.argsort(times, kind="stable")[: config.horizon]
    times = times[order]
    count = np.cumsum(np.where(order < n_cust, 1, -1))   # order < n_cust: an arrival

    warm = config.effective_warmup()
    hold = np.diff(times)[warm:]          # N is count[k] during [t_k, t_{k+1})
    state = count[warm:-1]
    if state.size == 0:
        raise ParameterError("horizon too short: no post-warmup intervals")
    total = float(hold.sum())
    pdf = np.bincount(state, weights=hold) / total

    # Batch means over 20 equal-count interval batches.
    usable = (state.size // _BATCHES) * _BATCHES
    if usable >= _BATCHES:
        bs_state = (state[:usable] * hold[:usable]).reshape(_BATCHES, -1).sum(axis=1)
        bs_time = hold[:usable].reshape(_BATCHES, -1).sum(axis=1)
        ci = _halfwidth(bs_state / bs_time)
    else:
        warnings.warn(f"{state.size} post-warmup intervals are fewer than the "
                      f"{_BATCHES} batch means; ci_halfwidth is inf", stacklevel=2)
        ci = math.inf
    return _summary(pdf, config.base_stock, ci, int(state.size), total)


def _halfwidth(means: np.ndarray) -> float:
    """95% t half-width on the average of k independent means."""
    k = means.size
    return float(_t_quantile(k - 1, 0.975) * means.std(ddof=1) / math.sqrt(k))


def _t_two_sided(df: int, theta: float) -> tuple[float, float]:
    """P(|T| < t) for Student's t with integer df, at theta = atan(t / sqrt(df)),
    and its derivative in theta, proportional to cos(theta)^(df - 1): the
    finite sums of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df)."""
    c, s = math.cos(theta), math.sin(theta)
    c2 = c * c
    if df % 2 == 0:     # sin(th) (1 + 1/2 c^2 + 1*3/(2*4) c^4 + ... up to c^(df-2))
        term = total = 1.0
        for k in range(1, df // 2):
            term *= c2 * (2 * k - 1) / (2 * k)
            total += term
        return s * total, (df - 1) * term * c
    if df == 1:
        return 2.0 / math.pi * theta, 2.0 / math.pi
    term = total = c    # 2/pi (th + sin(th) (c + 2/3 c^3 + ... up to c^(df-2)))
    for k in range(1, (df - 1) // 2):
        term *= c2 * (2 * k) / (2 * k + 1)
        total += term
    return 2.0 / math.pi * (theta + s * total), 2.0 / math.pi * (df - 1) * term * c


@functools.cache
def _t_quantile(df: int, p: float) -> float:
    """Student-t quantile at integer df and p > 1/2 (df is batches - 1 or
    replicates - 1, so each is solved once).  Newton's method in theta on the
    closed-form CDF; the two-sided probability is concave in theta, so
    starting from the normal quantile, which lies below the t quantile,
    the iterates rise monotonically to the root."""
    target = 2.0 * p - 1.0
    theta = math.atan(NormalDist().inv_cdf(p) / math.sqrt(df))
    for _ in range(100):
        prob, slope = _t_two_sided(df, theta)
        step = (target - prob) / slope
        if not theta + step > theta:
            break
        theta += step
    return math.sqrt(df) * math.tan(theta)


def _summary(pdf: np.ndarray, s: int, ci: float, events: int, sim_time: float) -> SimStats:
    """SimStats whose means are the pmf of N dotted with N, (N-1)^+, (s-N)^+ and (N-s)^+."""
    j = np.arange(pdf.size)
    return SimStats(
        mean_outstanding=float(pdf @ j),
        mean_waiting=float(pdf @ np.maximum(j - 1, 0)),
        mean_inventory=float(pdf @ np.maximum(s - j, 0)),
        mean_backlog=float(pdf @ np.maximum(j - s, 0)),
        pdf=pdf,
        ci_halfwidth=ci,
        events=events,
        sim_time=sim_time,
    )


def empirical_pdf_compare(stats: SimStats, rho: float) -> float:
    """Sup-distance between the empirical pmf of N and the geometric law
    (1 - rho) rho^j over the observed support."""
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"rho must lie in (0, 1), got {rho}")
    if stats.pdf.size == 0:
        raise ParameterError("empty run: no empirical distribution to compare")
    j = np.arange(stats.pdf.size)
    geometric = (1.0 - rho) * rho ** j
    return float(np.abs(stats.pdf - geometric).max())


def replicate(config: SimConfig, n_reps: int) -> SimStats:
    """Pool n_reps independent runs; replicate k uses seed + k.

    The pmfs are averaged with equal weights (equal horizons), and the
    means are read from the pooled pmf; the 95% half-width comes from the
    spread of replicate means, so it tightens with n_reps.  Aggregation
    is a symmetric reduction: any execution order yields the same report.
    n_reps = 1 returns simulate(config).
    """
    if n_reps < 1:
        raise ParameterError(f"n_reps must be >= 1, got {n_reps}")
    runs = [simulate(replace(config, seed=config.seed + k)) for k in range(n_reps)]
    if n_reps == 1:
        return runs[0]

    width = max(r.pdf.size for r in runs)
    pooled_pdf = np.zeros(width)
    for r in runs:
        pooled_pdf[: r.pdf.size] += r.pdf
    ci = _halfwidth(np.array([r.mean_outstanding for r in runs]))
    return _summary(pooled_pdf / n_reps, config.base_stock, ci,
                    sum(r.events for r in runs), float(sum(r.sim_time for r in runs)))
