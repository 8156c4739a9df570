"""Event-driven validation of the make-to-stock queue analytics.

The simulator tracks the outstanding-order count N of a single-server
FIFO queue (an order is placed at every demand epoch, the supplier works
them off one at a time).  N's law does not depend on the base stock s, so
a run takes no s: inventory (s - N)^+ and backlog (N - s)^+ at any s are
read off N's pmf.  Interarrival and service draws come from pluggable
distributions so the heavy-traffic approximation can be probed beyond
the exponential case.  Runs are deterministic for a fixed seed.

Draw contract: `sample(rng, a)` followed by `sample(rng, b)` draws exactly
what `sample(rng, a + b)` draws, from a fixed number of variates whatever
their values: n for `Exponential` and `TruncatedNormal` (inverse CDF, no
rejection) and 2n uniforms for `HyperExp2`.  Interarrival times draw from
child 0 of `np.random.SeedSequence(seed)` and service times from child 1,
and `simulate` draws both in chunks of `_CHUNK` customers, so by the
contract each law's times are bit-equal to one whole-run draw from its
generator, whatever the chunk size.

A run of more than one chunk runs on two threads.  The calling thread
runs the Lindley recursion: the draws, their cumulative sums, the running
maximum, and the cut of the departures that precede the chunk's last
arrival; its carries (that arrival, N after it, the events so far)
follow from the chunk's own counts, so it never waits.  One worker
thread, started for the run, tallies chunk k while chunk k+1 is drawn:
the stable merge, N's +/-1 counts, the holding times, and the chunk's
pmf bins, total and batch sums, which it folds into the run's one
accumulator as it tallies each chunk.  It takes the chunks in order, so
each float sum adds the same terms in the same order as one thread
would, and a run's figures are bit-identical however the stages
overlap.  A one-chunk run tallies inline and starts no thread.  Memory
is O(two chunks + outstanding orders): a stable run's horizon is bounded
by time alone, while an unstable run's pending departures and pmf grow
with its backlog, and it stays capped at 1e8 events.

Importing the module loads no numpy, and nothing here loads scipy or
statistics.  Each function that draws or simulates imports numpy when it
runs, as do `TruncatedNormal` construction and the Student-t quantile, so
the analytic scenarios load none of it.  The scalar normal CDF, hazard and
Student-t quantile are computed here from `math`; the one inverse normal
CDF, `_ndtri`, is a numpy kernel of the stdlib's algorithm, used by the
draws, a `TruncatedNormal`'s largest draw and the Student-t start.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import deque, namedtuple
from typing import TYPE_CHECKING

from .errors import _FLOAT_MAX, ParameterError, _Frozen, _positive, _whole

if TYPE_CHECKING:           # for annotations; each function that needs numpy imports it
    import numpy as np
_BATCHES = 20
_CHUNK = 1 << 16        # customers per chunk


class Exponential(namedtuple("Exponential", "rate")):
    """Exponential law with the given rate."""

    __slots__ = ()

    def __new__(cls, rate: float):
        _positive("rate", rate)
        return tuple.__new__(cls, (rate,))

    def mean_time(self) -> float:
        return 1.0 / self.rate

    def scv(self) -> float:
        return 1.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=n)


class HyperExp2(namedtuple("HyperExp2", "prob rate1 rate2")):
    """Two-phase hyperexponential: rate1 with probability prob, else rate2."""

    __slots__ = ()

    def __new__(cls, prob: float, rate1: float, rate2: float):
        if not 0.0 <= prob <= 1.0:
            raise ParameterError(f"prob must lie in [0, 1], got {prob}")
        # Bounds the ratio of the phase times, which scv() needs in float range; the
        # exact comparison with _FLOAT_MAX also refuses an int whose square is past it.
        if not all(rate > 0 and 0 < rate * rate <= _FLOAT_MAX and 1 / (rate * rate) <= _FLOAT_MAX
                   for rate in (rate1, rate2)):
            raise ParameterError(f"rates must be finite and > 0, with squares in float range, "
                                 f"got {rate1}, {rate2}")
        return tuple.__new__(cls, (prob, rate1, rate2))

    def mean_time(self) -> float:
        return self.prob / self.rate1 + (1.0 - self.prob) / self.rate2

    def scv(self) -> float:
        # scv is scale-free: the phase times scaled by the power of two just above
        # the mean keep the moments in float range where 2 / rate**2 would not,
        # and the exact scaling leaves every other rounding as unscaled.
        t1, t2 = 1.0 / self.rate1, 1.0 / self.rate2
        k = math.frexp(self.prob * t1 + (1.0 - self.prob) * t2)[1]
        u1, u2 = math.ldexp(t1, -k), math.ldexp(t2, -k)
        m1 = self.prob * u1 + (1.0 - self.prob) * u2
        m2 = 2.0 * self.prob * u1 * u1 + 2.0 * (1.0 - self.prob) * u2 * u2
        return (m2 - m1 * m1) / (m1 * m1)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        import numpy as np
        # Row k of one (n, 2) block is draw k's phase and its inverse-CDF time,
        # so the draws of n = a + b are those of a, then b.
        u = rng.random((n, 2))
        rate = np.where(u[:, 0] < self.prob, self.rate1, self.rate2)
        return -np.log1p(-u[:, 1]) / rate


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


# Wichura's AS241 (PPND16) rationals as CPython's `statistics.NormalDist.inv_cdf`
# writes them: per Horner step, highest degree first, the numerator's
# coefficient + 1j * the denominator's.
_AS241_CENTRAL = tuple(map(complex, (          # |q| <= 0.425, at 0.180625 - q*q
    2.50908092873012267270e+3, 3.34305755835881281050e+4, 6.72657709270087008530e+4,
    4.59219539315498714570e+4, 1.37316937655094611250e+4, 1.97159095030655144270e+3,
    1.33141667891784377450e+2, 3.38713287279636660800e+0), (
    5.22649527885285456100e+3, 2.87290857357219426740e+4, 3.93078958000927106100e+4,
    2.12137943015865958670e+4, 5.39419602142475110770e+3, 6.87187007492057908300e+2,
    4.23133307016009112520e+1, 1.0)))
_AS241_NEAR = tuple(map(complex, (             # r <= 5, at r - 1.6
    7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
    1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
    4.63033784615654529590e+0, 1.42343711074968357734e+0), (
    1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
    1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
    2.05319162663775882187e+0, 1.0)))
_AS241_FAR = tuple(map(complex, (              # r > 5, at r - 5
    2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
    2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
    5.46378491116411436990e+0, 6.65790464350110377720e+0), (
    2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
    7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
    5.99832206555887937690e-1, 1.0)))


def _as241(coefs: tuple, z: np.ndarray) -> np.ndarray:
    """Numerator + 1j * denominator of one AS241 rational at each z = r + 0j,
    in one complex Horner pass: each product with the zero imaginary part
    is exact, so each part has the bits of its own real pass."""
    h = z * coefs[0]
    h += coefs[1]
    for c in coefs[2:]:
        h *= z
        h += c
    return h


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile at each p in (0, 1): AS241 with the
    stdlib's coefficients and operation order, so it is bit-equal to
    `NormalDist().inv_cdf` where |p - 1/2| <= 0.425, and off only by
    numpy's `log` in the tails."""
    import numpy as np
    q = p - 0.5
    h = _as241(_AS241_CENTRAL, np.subtract(0.180625, q * q, dtype=complex))
    x = h.real * q                        # every p as central; the tails are redone below
    x /= h.imag
    tails = np.flatnonzero(np.abs(q) > 0.425)
    if tails.size:
        near = p[tails]
        r = np.sqrt(-np.log(np.minimum(near, 1.0 - near)))
        h = _as241(_AS241_NEAR, np.subtract(r, 1.6, dtype=complex))
        if r.max() > 5.0:
            far = r > 5.0
            h[far] = _as241(_AS241_FAR, np.subtract(r[far], 5.0, dtype=complex))
        x[tails] = np.copysign(h.real / h.imag, q[tails])
    return x


class TruncatedNormal(_Frozen, namedtuple("TruncatedNormal", "mean cv")):
    """Left-truncated normal with the *requested* mean and cv.

    N(mu0, sigma0^2) conditioned above the floor 1e-6 * mean, with
    (mu0, sigma0) solved once, at construction, so that the truncated law
    hits the configured mean and cv exactly: truncating N(mean, cv*mean)
    would bias the moments that feed the kappa heavy-traffic correction.
    Sampling inverts the truncated CDF at n uniforms.
    """

    def __new__(cls, mean: float, cv: float = 0.5):
        _positive("mean", mean)
        _positive("cv", cv)
        import numpy as np

        self = tuple.__new__(cls, (mean, cv))
        self.__dict__["_base"] = mu0, sigma0, tail = self._base_params()     # tail = Phi(-a)
        # The largest draw; in float, not numpy, arithmetic, which overflows without a warning.
        if not math.isfinite(mu0 - sigma0 * float(_ndtri(np.array([2.0**-53 * tail]))[0])):
            raise ParameterError(f"mean={mean}, cv={cv} are beyond float range")
        return self

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
        floor = 1e-6 * self.mean
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
        mu0, sigma0, tail = self._base    # Z > a is -ndtri(u*Phi(-a)), u uniform on (0, 1]
        return mu0 - sigma0 * _ndtri((1.0 - rng.random(n)) * tail)


DistSpec = Exponential | HyperExp2 | TruncatedNormal


class SimConfig(namedtuple("SimConfig", "arrival service horizon seed")):
    """One simulation run: distributions, horizon in events, of which the
    first horizon // 10 are warmup, and seed."""

    __slots__ = ()

    def __new__(cls, arrival: DistSpec, service: DistSpec, horizon: int = 2_000_000, seed: int = 0):
        for name, law in (("arrival", arrival), ("service", service)):
            if not isinstance(law, DistSpec):
                raise ParameterError(f"{name} must be an Exponential, HyperExp2 or "
                                     f"TruncatedNormal law, got {law!r}")
        return tuple.__new__(cls, (arrival, service, _whole("horizon", horizon, 1),
                                   _whole("seed", seed, 0)))


class SimStats(namedtuple("SimStats", "mean_outstanding mean_waiting pdf ci_halfwidth "
                          "events sim_time")):
    """Time-weighted long-run averages over the post-warmup horizon.

    Each mean, like inventory (s - N)^+ or backlog (N - s)^+ at any s, is
    a functional of `pdf`, the time-weighted pmf of the outstanding count N.
    mean_outstanding counts every unfinished order (system count);
    mean_waiting excludes the one in service, so both readings of an
    "average queue length" are available.  ci_halfwidth is the 95% batch-means
    half-width on mean_outstanding.  Stats compare and hash by identity.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _customer_chunks(config: SimConfig, n: int):
    """(interarrival, service, last) draws for n customers in chunks of _CHUNK,
    equal to one draw of n interarrivals and one of n services, each from
    its law's own generator."""
    import numpy as np
    # What default_rng builds on child k of SeedSequence(seed).spawn(2), made directly.
    arrival_rng, service_rng = (
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(k,))))
        for k in (0, 1))
    for start in range(0, n, _CHUNK):
        size = min(_CHUNK, n - start)
        yield (config.arrival.sample(arrival_rng, size),
               config.service.sample(service_rng, size), start + size == n)


def _recursion(config: SimConfig):
    """The calling thread's stage: per chunk of customers, the inputs of its
    `_Tally` call (head, n_out, start, arrivals, departed), until the run
    has `config.horizon` events.  Each carry follows from the chunk's own counts,
    so the recursion never waits for a tally."""
    import numpy as np
    horizon = config.horizon
    a_last = cs_last = 0.0                # carried: last arrival, last cumulative service,
    run_max = -math.inf                   # the recursion's running maximum,
    pending = deque()                     # sorted runs of departures not before the last arrival,
    head = np.empty(0)                    # the last event's time (slot 0 of the next merge)
    n_out = emitted = 0                   # and N after it; events so far
    for inter, serv, last in _customer_chunks(config, horizon // 2 + 2):
        inter[0] += a_last                # left-to-right sums, bit-equal to one cumsum
        arrivals = inter.cumsum(out=inter)
        first, serv[0] = serv[0], serv[0] + cs_last
        cum_serv = serv.cumsum()
        serv[0] = first
        # Departure recursion D_k = S_k + max(T_k, D_{k-1}) collapses to a
        # running maximum: D = cumsum(S) + max_{j<=k} (T_j - cumsum(S)_{j-1}).
        lead = arrivals - (cum_serv - serv)
        lead[0] = max(lead[0], run_max)
        np.maximum.accumulate(lead, out=lead)
        pending.append(cum_serv + lead)
        a_last, cs_last, run_max = arrivals[-1], cum_serv[-1], lead[-1]

        # Departures before the last arrival precede every later event.  FIFO
        # departures do not decrease, so they are the whole runs below a_last
        # and the front of the run that crosses it.
        departed = []
        while pending and (last or pending[0][-1] < a_last):
            departed.append(pending.popleft())
        if pending:
            split = int(np.searchsorted(pending[0], a_last))
            departed.append(pending[0][:split])
            pending[0] = pending[0][split:]
        yield head, n_out, emitted - head.size, arrivals, departed
        # The merge ends at a_last unless it reaches the horizon, which ends the run.
        cut = sum(d.size for d in departed)
        emitted += arrivals.size + cut
        if emitted >= horizon:
            return
        head, n_out = arrivals[-1:], n_out + arrivals.size - cut


class _Tally:
    """The worker's stage and the run's one accumulator: merges each chunk's
    events into time order and folds its post-warmup intervals, in chunk
    order, into N's time weights `pmf[:size]`, their `total`, and the 20
    batches' sums of N * hold (`batch_area`) and of hold (`batch_time`).
    So each sum adds the same floats in the same order as one pass over
    the run.

    The two merge buffers are kept from chunk to chunk: freed and allocated
    afresh, a chunk's megabytes go back to the OS and fault in again."""

    def __init__(self, horizon: int):
        import numpy as np
        self.horizon, self.warm = horizon, horizon // 10
        self.per_batch = (horizon - 1 - self.warm) // _BATCHES    # 20 equal-count batches
        self.usable = self.per_batch * _BATCHES
        self.buffers = np.empty(0), np.empty(0)
        self.pmf, self.size, self.total = np.zeros(0), 0, 0.0
        self.batch_area, self.batch_time = np.zeros(_BATCHES), np.zeros(_BATCHES)

    def __call__(self, head, n_out, start, arrivals, departed):
        import numpy as np
        n = head.size + arrivals.size + sum(d.size for d in departed)
        if n > self.buffers[0].size:
            self.buffers = np.empty(n), np.empty(n)
        merged, spare = self.buffers
        # One sort of packed keys: the bits of a time, finite and >= 0 so they
        # sort as the float does, shifted left past a departure flag.  Arrivals
        # come first on ties, as in one whole-run stable merge, and the head
        # (an arrival's time) before them all.
        np.concatenate([head, arrivals, *departed], out=merged[:n])
        keys = merged[:n].view(np.uint64)
        keys <<= 1
        keys[head.size + arrivals.size:] |= 1
        keys.sort(kind="stable")          # finds the sorted runs: a linear merge
        keys = keys[: self.horizon - start]
        count = np.bitwise_and(keys, 1, out=spare[: keys.size].view(np.int64))
        count *= -2
        count += 1                        # +1 arrival, -1 departure
        if head.size:
            count[0] = n_out
        count.cumsum(out=count)
        keys >>= 1
        times = keys.view(np.float64)

        skip = max(self.warm - start, 0)
        # In place: numpy makes an overlapping ufunc act as if its input were copied.
        hold = np.subtract(times[skip + 1:], times[skip:-1], out=times[skip:-1])
        if not hold.size:                 # every interval is in the warmup
            return
        state = count[skip:-1]
        low = int(state.min())
        if low:
            state -= low
        weights = np.bincount(state, weights=hold)
        top = low + weights.size
        if top > self.pmf.size:           # grown geometrically; a new bin adds to 0.0
            grown = np.zeros(max(top, 2 * self.pmf.size))
            grown[:self.size] = self.pmf[:self.size]
            self.pmf = grown
        self.pmf[low:top] += weights
        self.size = max(self.size, top)
        self.total += float(hold.sum())
        j0 = start + skip - self.warm     # post-warmup index of hold[0]
        if j0 < self.usable:
            m = min(hold.size, self.usable - j0)
            edges = np.arange(-(j0 % self.per_batch), m, self.per_batch)
            edges[0] = 0
            time = np.add.reduceat(hold[:m], edges)
            if low:
                state[:m] += low
            area = np.multiply(state[:m], hold[:m], out=hold[:m])    # hold is spent
            q0 = j0 // self.per_batch
            self.batch_area[q0:q0 + time.size] += np.add.reduceat(area, edges)
            self.batch_time[q0:q0 + time.size] += time


def _tallies(jobs, tally, inline: bool):
    """tally(*job) for each job, in order: inline, or on one worker thread
    while the calling thread computes the next job.  The worker takes its
    tasks first in, first out, and job k is done before job k + 2 is
    submitted, so the calls run one at a time, in order."""
    if inline:
        for job in jobs:
            tally(*job)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="greenstock-tally") as worker:
        ahead = None
        for job in jobs:
            future = worker.submit(tally, *job)
            if ahead is not None:
                ahead.result()
            ahead = future
        ahead.result()


def simulate(config: SimConfig) -> SimStats:
    """Run one event-driven simulation of the make-to-stock queue.

    Arrivals place orders; a single server completes them FIFO.  The
    outstanding count N(t) is piecewise constant between events, so all
    averages are exact time-weighted sums over the post-warmup window.
    Deterministic for a fixed config (one generator per law, fixed draw order).
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
    intervals = config.horizon - 1 - config.horizon // 10   # N is count[k] during [t_k, t_{k+1})
    if intervals <= 0:
        raise ParameterError("horizon too short: no post-warmup intervals")
    if intervals < _BATCHES:
        warnings.warn(f"{intervals} post-warmup intervals are fewer than the "
                      f"{_BATCHES} batch means; ci_halfwidth is inf", stacklevel=2)
    run = _run(config)
    ci = _halfwidth(run.batch_area / run.batch_time) if intervals >= _BATCHES else math.inf
    return _summary(run.pmf[:run.size] / run.total, ci, intervals, run.total)


def _run(config: SimConfig) -> _Tally:
    """One run's chunks drawn, then tallied and folded into its `_Tally`."""
    tally = _Tally(config.horizon)
    _tallies(_recursion(config), tally,
             inline=config.horizon // 2 + 2 <= _CHUNK)    # a one-chunk run starts no thread
    return tally


def _halfwidth(means: np.ndarray) -> float:
    """95% t half-width on the average of k independent means."""
    xs = means.tolist()
    k, mean = len(xs), math.fsum(xs) / len(xs)
    sd = math.sqrt(math.fsum((x - mean) ** 2 for x in xs) / (k - 1))
    return _t_quantile(k - 1, 0.975) * sd / math.sqrt(k)


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
    import numpy as np

    target = 2.0 * p - 1.0
    theta = math.atan(float(_ndtri(np.array([p]))[0]) / math.sqrt(df))
    for _ in range(100):
        prob, slope = _t_two_sided(df, theta)
        step = (target - prob) / slope
        if not theta + step > theta:
            break
        theta += step
    return math.sqrt(df) * math.tan(theta)


def _summary(pdf: np.ndarray, ci: float, events: int, sim_time: float) -> SimStats:
    """SimStats whose means are the pmf of N dotted with N and (N-1)^+."""
    import numpy as np
    j = np.arange(pdf.size, dtype=float)     # the one pdf-sized temporary: N, then (N-1)^+
    mean_outstanding = float(pdf @ j)
    j -= 1.0
    j[:1] = 0.0
    return SimStats(mean_outstanding, float(pdf @ j), pdf, ci, events, sim_time)


def empirical_pdf_compare(stats: SimStats, rho: float) -> float:
    """Sup-distance between the empirical pmf of N and the geometric law
    (1 - rho) rho^j over the observed support."""
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"rho must lie in (0, 1), got {rho}")
    if stats.pdf.size == 0:
        raise ParameterError("empty run: no empirical distribution to compare")
    import numpy as np
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
    import numpy as np
    n_reps = _whole("n_reps", n_reps, 1)
    first = simulate(config)
    if n_reps == 1:
        return first

    # The later replicates keep what the pool reads, summed in replicate order.
    pooled, means, sim_time = first.pdf.copy(), [first.mean_outstanding], first.sim_time
    for k in range(1, n_reps):
        run = _run(SimConfig(config.arrival, config.service, config.horizon, config.seed + k))
        pdf = run.pmf[:run.size] / run.total
        if pdf.size > pooled.size:
            pooled = np.concatenate([pooled, np.zeros(pdf.size - pooled.size)])
        pooled[: pdf.size] += pdf
        means.append(float(pdf @ np.arange(pdf.size)))
        sim_time += run.total
    return _summary(pooled / n_reps, _halfwidth(np.array(means)), n_reps * first.events,
                    sim_time)
