"""Event simulator vs the closed-form queue laws."""

import hashlib
import importlib
import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from greenstock import (
    Exponential,
    HyperExp2,
    ParameterError,
    SimConfig,
    TruncatedNormal,
    empirical_pdf_compare,
    exact_backlog_discrete,
    mean_inventory,
    replicate,
    simulate,
)


# The package exports the function `simulate` under the module's name.
sim_module = importlib.import_module("greenstock.simulate")


def mm1_config(rho, horizon=400_000, seed=7):
    return SimConfig(arrival=Exponential(rate=1.0), service=Exponential(rate=1.0 / rho),
                     horizon=horizon, seed=seed)


def stock_means(stats, s):
    """Mean inventory (s - N)^+ and backlog (N - s)^+ at base stock s, read off
    the run's pmf of the outstanding count N, whose law does not depend on s."""
    j = np.arange(stats.pdf.size)
    return float(stats.pdf @ np.maximum(s - j, 0)), float(stats.pdf @ np.maximum(j - s, 0))


# ----------------------------------------------------------- distributions

def test_exponential_moments():
    d = Exponential(rate=2.5)
    assert d.mean_time() == pytest.approx(0.4)
    assert d.scv() == 1.0
    rng = np.random.default_rng(0)
    x = d.sample(rng, 200_000)
    assert x.mean() == pytest.approx(0.4, rel=0.01)


def test_hyperexp_moments_match_formula():
    d = HyperExp2(prob=0.5, rate1=2.3, rate2=3.5)
    assert d.mean_time() == pytest.approx(0.5 / 2.3 + 0.5 / 3.5, abs=1e-12)
    assert d.scv() == pytest.approx(1.085617, abs=1e-5)
    rng = np.random.default_rng(1)
    x = d.sample(rng, 400_000)
    assert x.mean() == pytest.approx(d.mean_time(), rel=0.01)
    assert x.var() / x.mean() ** 2 == pytest.approx(d.scv(), rel=0.03)


def test_hyperexp_scv_stays_finite_where_twice_an_inverse_square_overflows():
    """With prob 0 or 1 the law is exponential, so scv is 1, even where
    2 / rate**2 overflows or the improbable phase's time is far the longer
    or far the shorter; the reference rates keep their scv bits."""
    assert HyperExp2(prob=0.0, rate1=2.3, rate2=8e-155).scv() == 1.0
    assert HyperExp2(prob=1.0, rate1=8e-155, rate2=2.3).scv() == 1.0
    assert HyperExp2(prob=1.0, rate1=1e100, rate2=1e-100).scv() == 1.0
    assert HyperExp2(prob=0.0, rate1=1e-100, rate2=1e100).scv() == 1.0
    assert HyperExp2(prob=0.5, rate1=2.3, rate2=3.5).scv().hex() == "0x1.15eab129180c3p+0"


# The least and greatest rates HyperExp2 admits, and values between.
_H2_RATES = st.sampled_from([7.458340731200208e-155, 1e-100, 2.3, 1e100, 1.3407807929942596e154])


@given(prob=st.floats(0.0, 1.0) | st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1 - 2**-53, 1.0]),
       rate1=_H2_RATES | st.floats(7.458340731200208e-155, 1.3407807929942596e154),
       rate2=_H2_RATES | st.floats(7.458340731200208e-155, 1.3407807929942596e154))
def test_hyperexp_scv_matches_its_exact_moments_across_the_admitted_rates(prob, rate1, rate2):
    """scv = E[T^2] / E[T]^2 - 1 in exact rationals, to a few ulps of max(scv, 1)."""
    d = HyperExp2(prob=prob, rate1=rate1, rate2=rate2)
    p, t1, t2 = Fraction(prob), 1 / Fraction(rate1), 1 / Fraction(rate2)
    mean = p * t1 + (1 - p) * t2
    exact = float(2 * (p * t1 * t1 + (1 - p) * t2 * t2) / (mean * mean) - 1)
    assert abs(d.scv() - exact) <= 4e-15 * max(exact, 1.0)


def test_truncated_normal_hits_requested_moments():
    """Sampling must deliver the configured mean/cv after truncation."""
    d = TruncatedNormal(mean=0.288199, cv=0.5)
    rng = np.random.default_rng(2)
    x = d.sample(rng, 400_000)
    assert np.all(x > 0.0)
    assert x.mean() == pytest.approx(0.288199, rel=0.005)
    assert x.std() / x.mean() == pytest.approx(0.5, rel=0.01)


def test_truncated_normal_rejects_unreachable_cv():
    with pytest.raises(ParameterError):
        TruncatedNormal(mean=1.0, cv=1.5).sample(np.random.default_rng(0), 10)
    with pytest.raises(ParameterError, match="too large"):
        TruncatedNormal(mean=1.0, cv=0.995)     # beyond any truncated normal at floor 1e-6


@pytest.mark.parametrize("cv", [0.97, 0.98])
def test_truncated_normal_deep_truncation_samples(cv, deadline):
    """At the floor 1e-6 * mean cv 0.97 keeps about 2e-7 of the base normal's
    mass, and cv 0.98 less still; the inverse-CDF sampler draws both at
    full speed, from exactly n uniforms."""
    d = TruncatedNormal(mean=1.0, cv=cv)
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    with deadline(5):
        x = d.sample(rng, 400_000)
    twin.random(400_000)
    assert rng.random() == twin.random()
    assert x.min() > 1e-6
    assert x.mean() == pytest.approx(1.0, rel=0.01)
    assert x.std() / x.mean() == pytest.approx(cv, rel=0.01)


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mean=_positive, cv=_positive)
# The largest draw overflows: refused, without a numpy overflow warning.
@example(mean=3.29e307, cv=0.9)
def test_truncated_normal_samples_or_refuses(mean, cv, deadline):
    """Over every (mean, cv) the dataclass accepts, construction raises
    ParameterError or sampling returns finite draws above the floor."""
    with deadline(2):
        try:
            d = TruncatedNormal(mean=mean, cv=cv)
        except ParameterError:
            return
        x = d.sample(np.random.default_rng(0), 1000)
    assert x.shape == (1000,)
    assert np.all(np.isfinite(x))
    assert x.min() >= 1e-6 * mean


_laws = st.sampled_from([Exponential(rate=2.5), HyperExp2(prob=0.3, rate1=2.3, rate2=0.4),
                         TruncatedNormal(mean=0.7, cv=0.5), TruncatedNormal(mean=1.0, cv=0.97)])


@settings(max_examples=60, deadline=None)
@given(law=_laws, a=st.integers(0, 3000), b=st.integers(0, 3000),
       seed=st.integers(0, 2**32 - 1))
def test_draws_split_at_any_point(law, a, b, seed):
    """The draw contract the chunked simulator relies on: sample(rng, a)
    then sample(rng, b) is bit-equal to sample(rng, a + b)."""
    rng = np.random.default_rng(seed)
    split = np.concatenate([law.sample(rng, a), law.sample(rng, b)])
    whole = law.sample(np.random.default_rng(seed), a + b)
    assert np.array_equal(split, whole)


def test_distribution_validation():
    with pytest.raises(ParameterError):
        Exponential(rate=0.0)
    with pytest.raises(ParameterError):
        HyperExp2(prob=1.4, rate1=1.0, rate2=2.0)
    with pytest.raises(ParameterError):
        HyperExp2(prob=0.5, rate1=-1.0, rate2=2.0)
    with pytest.raises(ParameterError):
        TruncatedNormal(mean=1.0, cv=0.0)
    for make in (lambda: Exponential(rate=math.nan), lambda: Exponential(rate=math.inf),
                 lambda: HyperExp2(prob=math.nan, rate1=1.0, rate2=2.0),
                 lambda: HyperExp2(prob=0.5, rate1=math.nan, rate2=2.0),
                 lambda: HyperExp2(prob=0.5, rate1=1.0, rate2=math.inf),
                 lambda: Exponential(rate=10**400),   # ints past float range
                 lambda: HyperExp2(prob=0.5, rate1=10**200, rate2=2.0),
                 *(lambda v=v: Exponential(rate=v) for v in (-math.inf, -1.0)),
                 *(lambda v=v: HyperExp2(prob=0.5, rate1=v, rate2=2.0)
                   for v in (math.inf, -math.inf, -1.0, 0.0)),
                 *(lambda v=v: TruncatedNormal(mean=v, cv=0.5)
                   for v in (math.nan, math.inf, -math.inf, -1.0, 0.0)),
                 *(lambda v=v: TruncatedNormal(mean=1.0, cv=v)
                   for v in (math.nan, math.inf, -math.inf, -1.0))):
        with pytest.raises(ParameterError):
            make()


# ------------------------------------------------------------- simulation

def test_mm1_mean_outstanding():
    """Arrivals at 1.5, service at 2.0 (rho=0.75): mean outstanding near 3."""
    cfg = SimConfig(arrival=Exponential(rate=1.5), service=Exponential(rate=2.0),
                    horizon=2_000_000, seed=7)
    stats = simulate(cfg)
    assert stats.mean_outstanding == pytest.approx(3.0, rel=0.05)


def test_identity_inventory_backlog_outstanding():
    """(s-N)^+ = s - N + (N-s)^+ holds pathwise, so the averages tie out."""
    for s in (0, 3, 7):
        stats = simulate(mm1_config(0.8, seed=s + 1))
        inventory, backlog = stock_means(stats, s)
        assert inventory == pytest.approx(s - stats.mean_outstanding + backlog, abs=1e-9)


def test_backlog_against_exact_geometric():
    stats = simulate(mm1_config(0.9, horizon=2_000_000, seed=42))
    assert stock_means(stats, 5)[1] == pytest.approx(
        exact_backlog_discrete(5, 0.9), rel=0.07)


def test_inventory_against_continuous_approximation():
    # matched load: nu = (1-rho)/rho with the continuous stock at s
    rho = 1.0 / 1.3287
    stats = simulate(mm1_config(rho, horizon=2_000_000, seed=8))
    approx = mean_inventory(7.0, (1 - rho) / rho)
    assert stock_means(stats, 7)[0] == pytest.approx(approx, rel=0.07)


def test_state_support_consistency():
    """Inventory cannot exceed s; inventory and backlog are never both
    positive at the same instant (disjoint supports of the state law)."""
    stats = simulate(mm1_config(0.7, seed=5))
    pdf = stats.pdf
    inventory, backlog = stock_means(stats, 4)
    inv_mass = sum((4 - j) * pdf[j] for j in range(min(4, len(pdf))))
    back_mass = sum((j - 4) * pdf[j] for j in range(5, len(pdf)))
    assert inventory == pytest.approx(inv_mass, abs=1e-9)
    assert backlog == pytest.approx(back_mass, abs=1e-9)
    assert inventory <= 4.0


def test_seed_determinism_is_bit_exact():
    a = simulate(mm1_config(0.8, seed=123))
    b = simulate(mm1_config(0.8, seed=123))
    assert a.mean_outstanding == b.mean_outstanding
    assert stock_means(a, 2) == stock_means(b, 2)
    assert a.ci_halfwidth == b.ci_halfwidth
    assert np.array_equal(a.pdf, b.pdf)
    c = simulate(mm1_config(0.8, seed=124))
    assert c.mean_outstanding != a.mean_outstanding


def test_unstable_configuration_warns_or_refuses():
    cfg = SimConfig(arrival=Exponential(rate=2.0), service=Exponential(rate=1.0),
                    horizon=10_000, seed=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        simulate(cfg)
    assert any("unstable" in str(w.message) for w in caught)
    short = SimConfig(arrival=Exponential(rate=1.0), service=Exponential(rate=2.0),
                      horizon=10, seed=0)
    with pytest.warns(UserWarning, match="fewer than the 20 batch means"):
        assert simulate(short).ci_halfwidth == math.inf
    with pytest.raises(ParameterError):
        simulate(SimConfig(arrival=Exponential(rate=2.0),
                           service=Exponential(rate=1.0),
                           horizon=200_000_000, seed=0))


def test_config_validation():
    """Every bad field is a ParameterError at construction, not a failure in simulate."""
    for bad in ({"horizon": 0}, {"horizon": 1000.5}, {"horizon": math.inf}, {"horizon": "1000"},
                {"horizon": True}, {"seed": -1}, {"seed": 0.5}, {"seed": None},
                {"seed": True}, {"arrival": None}, {"service": 2.0}):
        fields = {"arrival": Exponential(rate=1.0), "service": Exponential(rate=2.0), **bad}
        with pytest.raises(ParameterError):
            SimConfig(**fields)


def test_config_accepts_integral_floats():
    cfg = SimConfig(arrival=Exponential(rate=1.0), service=Exponential(rate=2.0),
                    horizon=2e3, seed=np.int64(4))
    assert (cfg.horizon, cfg.seed) == (2000, 4)
    assert all(type(v) is int for v in (cfg.horizon, cfg.seed))


# -------------------------------------------------------------- epdf check

def test_empirical_pdf_close_to_geometric():
    for rho, seed in ((0.75, 11), (0.39, 12)):
        stats = simulate(mm1_config(rho, horizon=2_000_000, seed=seed))
        assert empirical_pdf_compare(stats, rho) < 0.01


def test_empirical_pdf_compare_validation():
    stats = simulate(mm1_config(0.5, seed=1))
    with pytest.raises(ParameterError):
        empirical_pdf_compare(stats, 1.0)


# ------------------------------------------------------------- replication

def test_replicate_single_is_simulate():
    cfg = mm1_config(0.75, seed=31)
    one = replicate(cfg, 1)
    ref = simulate(cfg)
    assert one.mean_outstanding == ref.mean_outstanding
    assert np.array_equal(one.pdf, ref.pdf)


def test_replicate_pools_toward_truth():
    cfg = mm1_config(0.75, horizon=400_000, seed=100)
    pooled = replicate(cfg, 10)
    assert pooled.mean_outstanding == pytest.approx(3.0, rel=0.02)
    assert pooled.ci_halfwidth < simulate(cfg).ci_halfwidth * 1.5
    assert pooled.events == 10 * simulate(cfg).events


def test_replicate_deterministic():
    cfg = mm1_config(0.6, horizon=100_000, seed=500)
    a = replicate(cfg, 4)
    b = replicate(cfg, 4)
    assert a.mean_outstanding == b.mean_outstanding
    assert a.ci_halfwidth == b.ci_halfwidth
    assert np.array_equal(a.pdf, b.pdf)


def _pooled_simulate_calls(cfg, k):
    """Reference: k whole simulate calls, replicate j at seed + j, pooled."""
    runs = [simulate(SimConfig(cfg.arrival, cfg.service, cfg.horizon, cfg.seed + j))
            for j in range(k)]
    pooled = np.zeros(max(r.pdf.size for r in runs))
    for r in runs:
        pooled[: r.pdf.size] += r.pdf
    ci = sim_module._halfwidth(np.array([r.mean_outstanding for r in runs]))
    return sim_module._summary(pooled / k, ci, sum(r.events for r in runs),
                               float(sum(r.sim_time for r in runs)))


@pytest.mark.parametrize("chunk", [7, sim_module._CHUNK])
@pytest.mark.parametrize("name", ["mm1", "unstable", "h2"])
def test_replicate_is_bit_equal_to_pooled_simulate_calls(name, chunk, monkeypatch):
    """Replicates after the first keep only their pmf, mean and clock, and
    the pooled report keeps every bit of pooling whole simulate calls, also
    where the replicates' pmf supports differ and where runs span chunks."""
    monkeypatch.setattr(sim_module, "_CHUNK", chunk)
    laws = {"mm1": (Exponential(rate=1.0), Exponential(rate=1.0 / 0.8)),
            "unstable": (Exponential(rate=1.0), Exponential(rate=1.0 / 1.2)),
            "h2": (_H2, TruncatedNormal(mean=_H2.mean_time() * 0.8, cv=0.5))}
    cfg = SimConfig(*laws[name], horizon=2_000, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got, ref = replicate(cfg, 5), _pooled_simulate_calls(cfg, 5)
    assert _figures(got) + (got.events,) == _figures(ref) + (ref.events,)


def test_replicate_rejects_bad_count():
    for n_reps in (0, -1, 2.5, math.nan, math.inf, "3", None):
        with pytest.raises(ParameterError, match="n_reps must be an integer >= 1"):
            replicate(mm1_config(0.5), n_reps)


def test_replicate_accepts_an_integral_float():
    cfg = mm1_config(0.6, horizon=20_000, seed=9)
    assert np.array_equal(replicate(cfg, 2.0).pdf, replicate(cfg, 2).pdf)


# ------------------------------------------- pmf summary over SimConfig

def _law_generators(seed):
    """The arrival and service generators of a run: SeedSequence(seed)'s two children."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(2)]


def _direct_means(cfg, s):
    """Reference: the time-weighted means of N, (N-1)^+, (s-N)^+ and (N-s)^+
    over the run's events, taken directly from a +/-1 step array instead of
    through the pmf."""
    arrival_rng, service_rng = _law_generators(cfg.seed)
    n = cfg.horizon // 2 + 2
    arrivals = np.cumsum(cfg.arrival.sample(arrival_rng, n))
    serv = cfg.service.sample(service_rng, n)
    cum_serv = np.cumsum(serv)
    departures = cum_serv + np.maximum.accumulate(arrivals - (cum_serv - serv))
    times = np.concatenate([arrivals, departures])
    steps = np.concatenate([np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)])
    order = np.argsort(times, kind="stable")[: cfg.horizon]
    warm = cfg.horizon // 10
    state = np.cumsum(steps[order])[:-1][warm:]
    hold = np.diff(times[order])[warm:]
    total = hold.sum()
    return [float((f * hold).sum() / total) for f in (
        state, np.maximum(state - 1, 0), np.maximum(s - state, 0), np.maximum(state - s, 0))]


def _law(kind, mean, shape):
    """A law of the given kind and mean; `shape` in (0, 1) sets its spread."""
    if kind == "exponential":
        return Exponential(rate=1.0 / mean)
    if kind == "truncnorm":
        return TruncatedNormal(mean=mean, cv=0.05 + 0.9 * shape)
    base = HyperExp2(prob=0.05 + 0.9 * shape, rate1=4.0, rate2=0.5)
    scale = base.mean_time() / mean
    return HyperExp2(prob=base.prob, rate1=base.rate1 * scale, rate2=base.rate2 * scale)


_kinds = st.sampled_from(["exponential", "hyperexp2", "truncnorm"])
_unit = st.floats(0.0, 1.0)


def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a)


@settings(max_examples=40, deadline=None)
@given(arrival=_kinds, service=_kinds, a_shape=_unit, s_shape=_unit,
       rho=st.floats(0.05, 0.97, exclude_min=True, exclude_max=True),
       s=st.integers(0, 12), horizon=st.integers(50, 200_000),
       seed=st.integers(0, 2**32 - 1), k=st.integers(2, 3))
def test_means_are_functionals_of_the_pmf(arrival, service, a_shape, s_shape, rho, s,
                                          horizon, seed, k):
    """Over the SimConfig domain the means read from the pmf equal the direct
    time-weighted sums, tie out pathwise, and pool across replicates."""
    cfg = SimConfig(arrival=_law(arrival, 1.0, a_shape), service=_law(service, rho, s_shape),
                    horizon=horizon, seed=seed)
    stats = simulate(cfg)
    inventory, backlog = stock_means(stats, s)
    means = [stats.mean_outstanding, stats.mean_waiting, inventory, backlog]
    assert max(_rel(m, ref) for m, ref in zip(means, _direct_means(cfg, s))) <= 1e-12
    assert inventory - backlog == pytest.approx(s - stats.mean_outstanding, abs=1e-9)
    assert stats.pdf.sum() == pytest.approx(1.0, abs=1e-12)
    singles = [simulate(SimConfig(cfg.arrival, cfg.service, horizon, seed + i)).mean_outstanding
               for i in range(k)]
    assert _rel(replicate(cfg, k).mean_outstanding, float(np.mean(singles))) <= 1e-12


# ------------------------------------------------------- chunked stream

def _edge_configs():
    """Chunk boundaries, a zero warmup (horizon < 10), a one-interval window
    (horizon 2), an unstable load and general laws, over short horizons."""
    h2 = HyperExp2(prob=0.5, rate1=2.3, rate2=3.5)
    laws = {"mm1": (Exponential(rate=1.0), Exponential(rate=1.0 / 0.8)),
            "unstable": (Exponential(rate=1.0), Exponential(rate=1.0 / 1.2)),
            "h2": (h2, TruncatedNormal(mean=h2.mean_time() * 0.8, cv=0.5))}
    for name, (arrival, service) in laws.items():
        for horizon in (2, 9, 21, 22, 2_001, 3_000):
            yield name, SimConfig(arrival=arrival, service=service,
                                  horizon=horizon, seed=horizon)


_READINGS = ("mean_outstanding", "mean_waiting", "inventory", "backlog", "sim_time",
             "ci_halfwidth")


def _readings(stats):
    """A run's figures, inventory and backlog at s = 2 among them, in _READINGS' order."""
    return (stats.mean_outstanding, stats.mean_waiting, *stock_means(stats, 2),
            stats.sim_time, stats.ci_halfwidth)


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_chunk_size_does_not_change_the_run(chunk, monkeypatch):
    """Any chunk size reproduces the default run: same events and pmf support,
    means (inventory and backlog at s = 2 among them) and half-width within 1e-12."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference = [simulate(cfg) for _, cfg in _edge_configs()]
        monkeypatch.setattr(sim_module, "_CHUNK", chunk)
        chunked = [simulate(cfg) for _, cfg in _edge_configs()]
    for (name, cfg), ref, got in zip(_edge_configs(), reference, chunked):
        assert (got.events, got.pdf.size) == (ref.events, ref.pdf.size), (name, cfg)
        for field, a, b in zip(_READINGS, _readings(got), _readings(ref)):
            assert a == b or _rel(a, b) <= 1e-12, (name, cfg, field, a, b)


def test_each_law_draws_from_its_own_generator(monkeypatch):
    """Over many chunks, the arrivals are one draw of the arrival law from
    child 0 of the seed's SeedSequence and the services one draw of the
    service law from child 1, so changing the service law leaves every
    interarrival time bit-equal."""
    monkeypatch.setattr(sim_module, "_CHUNK", 7)
    h2 = HyperExp2(prob=0.5, rate1=2.3, rate2=3.5)
    n, seed = 100, 2024
    arrivals = []
    for service in (Exponential(rate=1.5), TruncatedNormal(mean=0.5, cv=0.5)):
        cfg = SimConfig(arrival=h2, service=service, horizon=1_000, seed=seed)
        chunks = list(sim_module._customer_chunks(cfg, n))
        assert [last for _, _, last in chunks] == [False] * 14 + [True]
        arrival_rng, service_rng = _law_generators(seed)
        arrivals.append(np.concatenate([inter for inter, _, _ in chunks]))
        assert np.array_equal(arrivals[-1], h2.sample(arrival_rng, n))
        assert np.array_equal(np.concatenate([serv for _, serv, _ in chunks]),
                              service.sample(service_rng, n))
    assert np.array_equal(*arrivals)


@pytest.mark.parametrize("horizon", [1_000_000, 4_000_000])
def test_memory_does_not_grow_with_the_horizon(horizon):
    """The traced peak of a run is bounded by the chunk, not the horizon:
    under 24 MiB at 1M and at 4M events (a whole-run path needs about
    59 B/event, 56 MiB at 1M)."""
    cfg = mm1_config(0.9, horizon=horizon, seed=3)
    tracemalloc.start()
    try:
        stats = simulate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.events == horizon - 1 - horizon // 10
    assert peak < 24 * 2**20


def test_summary_holds_one_pmf_sized_temporary():
    """_summary dots the pmf with one float arange, shifted in place for
    (N - 1)^+: its traced peak is one pmf, where an integer arange, its float
    cast and (N - 1)^+ held three.  The means keep the bits of those dots."""
    pdf = np.full(10**6, 1e-6)
    tracemalloc.start()
    try:
        stats = sim_module._summary(pdf, 0.0, 10**6, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * pdf.nbytes
    for pmf in (pdf, np.zeros(0), np.array([1.0]), np.array([0.25, 0.5, 0.25])):
        j = np.arange(pmf.size)
        stats = sim_module._summary(pmf, 0.0, 1, 1.0)
        assert stats.mean_outstanding.hex() == float(pmf @ j).hex()
        assert stats.mean_waiting.hex() == float(pmf @ np.maximum(j - 1, 0)).hex()


# ------------------------------------------------- two-thread pipeline

_H2 = HyperExp2(prob=0.5, rate1=2.3, rate2=3.5)
# Runs of at least four chunks and their figures as one thread computed them:
# the pmf's sha256, then mean_outstanding, mean_waiting, ci_halfwidth and sim_time.
_PINNED = {
    "mm1-0.93": (mm1_config(0.93, horizon=600_000, seed=3), (
        "c93331b60f4fc4c339aec19fd699a4345c56553d25026c30d507facf540ce5c2",
        "0x1.bb2f0b6248a4bp+3", "0x1.9d73accc6cda5p+3", "0x1.eb903265911b4p+0",
        "0x1.076da89e1fa1ep+18")),
    "h2-truncnorm": (SimConfig(arrival=_H2, service=TruncatedNormal(mean=_H2.mean_time() * 0.8,
                                                                   cv=0.5),
                               horizon=600_000, seed=4), (
        "1af5b60a272975989f15f48531bceef4a55ff16e8c6c5c5b358f41ea8789ec90",
        "0x1.750e3d8c5afe8p+1", "0x1.0ec7f8497c1a4p+1", "0x1.66bd9ffbad912p-4",
        "0x1.7be47adb29468p+16")),
    "unstable-1.2": (mm1_config(1.2, horizon=2_000_000, seed=0), (
        "e3f1455435a747e2c72ed197b182e62869d9fa9f727f8877012f903d6fd0a2de",
        "0x1.65271734f54fap+16", "0x1.65261734f54f8p+16", "0x1.4099a4d86df62p+14",
        "0x1.0aea30067ac93p+20")),
}


def _figures(stats):
    return (hashlib.sha256(stats.pdf.tobytes()).hexdigest(), stats.mean_outstanding.hex(),
            stats.mean_waiting.hex(), stats.ci_halfwidth.hex(), stats.sim_time.hex())


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_pipelined_run_is_bit_identical_to_one_thread(name):
    """The worker tallies while the next chunk is drawn, and folds each chunk
    into the run's sums in chunk order, so the figures keep every bit; the
    unstable run keeps them with its pending departures held as sorted runs."""
    cfg, pinned = _PINNED[name]
    assert cfg.horizon // 2 + 2 >= 4 * sim_module._CHUNK
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _figures(simulate(cfg)) == pinned


def test_pipeline_keeps_its_bits_under_rapid_thread_switching(deadline):
    """The stages share no array that either writes after the hand-off, so
    switching threads every microsecond changes no bit and deadlocks nothing."""
    cfg, pinned = _PINNED["h2-truncnorm"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with deadline(60):
            figures = _figures(simulate(cfg))
    finally:
        sys.setswitchinterval(interval)
    assert figures == pinned


def test_worker_error_surfaces_and_the_next_run_is_whole(monkeypatch):
    """An exception in the worker's tally is raised from simulate; every
    chunk is tallied on one thread, not the caller's, and the next call
    starts afresh."""
    calls, threads = [], []

    class Failing(sim_module._Tally):
        def __call__(self, *job):
            calls.append(None)
            threads.append(threading.current_thread())
            if len(calls) == 2:
                raise RuntimeError("tally failed on chunk 2")
            return super().__call__(*job)

    cfg, pinned = _PINNED["mm1-0.93"]
    monkeypatch.setattr(sim_module, "_Tally", Failing)
    with pytest.raises(RuntimeError, match="tally failed on chunk 2"):
        simulate(cfg)
    threads.clear()
    assert _figures(simulate(cfg)) == pinned
    assert len(threads) >= 4 and len(set(threads)) == 1
    assert threads[0] is not threading.current_thread()


def test_one_chunk_run_starts_no_thread():
    """A run that fits in one chunk tallies inline: in a fresh interpreter a
    2,000-event run loads no concurrent.futures and starts no thread."""
    code = ("import sys, threading\n"
            "from greenstock import Exponential, SimConfig, simulate\n"
            "threads = threading.active_count()\n"
            "simulate(SimConfig(arrival=Exponential(rate=1.0), service=Exponential(rate=1.25),"
            " horizon=2_000, seed=1))\n"
            "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures loaded'\n"
            "assert threading.active_count() == threads, threading.enumerate()\n")
    env = {**os.environ, "PYTHONPATH": str(Path(sim_module.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# --------------------------------------------- general-distribution run

def test_h2_truncnorm_within_kappa_band():
    """Hyperexponential arrivals, truncated-normal service at rho=0.8:
    the kappa-corrected heavy-traffic mean is matched within 15%."""
    arr = HyperExp2(prob=0.5, rate1=2.3, rate2=3.5)
    rho = 0.80
    cfg = SimConfig(arrival=arr, service=TruncatedNormal(mean=arr.mean_time() * rho, cv=0.5),
                    horizon=2_000_000, seed=17)
    stats = simulate(cfg)
    kappa = (arr.scv() + 0.25) / 2.0
    target = kappa * rho / (1 - rho)
    assert stats.mean_outstanding == pytest.approx(target, rel=0.15)


# ------------------------------------------- scalar special functions

def test_t_quantile_matches_scipy():
    special = pytest.importorskip("scipy.special")
    df = np.arange(1, 2001)
    ours = np.array([sim_module._t_quantile(int(k), 0.975) for k in df])
    np.testing.assert_allclose(ours, special.stdtrit(df, 0.975), rtol=1e-12, atol=0)
    assert sim_module._t_quantile(1, 0.975) == pytest.approx(12.7062047361747, rel=1e-13)
    assert sim_module._t_quantile(19, 0.975) == pytest.approx(2.09302405440831, rel=1e-13)


def _normal_dist_started_t_quantile(df, p):
    """`_t_quantile`'s Newton started from the stdlib's `NormalDist().inv_cdf`
    in place of `_ndtri`: a reference for its bits."""
    from statistics import NormalDist
    target = 2.0 * p - 1.0
    theta = math.atan(NormalDist().inv_cdf(p) / math.sqrt(df))
    for _ in range(100):
        prob, slope = sim_module._t_two_sided(df, theta)
        step = (target - prob) / slope
        if not theta + step > theta:
            break
        theta += step
    return math.sqrt(df) * math.tan(theta)


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the stdlib's C rationals may be compiled with fused multiply-adds")
def test_t_quantile_keeps_the_bits_of_its_normal_dist_start():
    for p in (0.95, 0.975, 0.995):
        for df in range(1, 501):
            assert sim_module._t_quantile(df, p) == _normal_dist_started_t_quantile(df, p), (df, p)


def _ndtri_points():
    """About 106k probabilities: uniform on (0, 1), log-uniform in both tails
    down to the least subnormal and up to 1 - 2^-53, and the edges: the
    least truncated-normal draws' 2^-53 * Phi(-a), both ends of AS241's
    central region to the ulp, and where its tail variable r crosses 5."""
    def around(x):                      # x and its neighbours, one ulp each side
        return [np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)]

    rng = np.random.default_rng(20)
    crossover = math.exp(-25.0)         # r = sqrt(-log p) = 5
    edges = [5e-324, sys.float_info.min, 1e-300, 0.5, 1.0 - 2.0**-53,
             *(2.0**-53 * TruncatedNormal(mean=1.0, cv=cv)._base[2] for cv in (0.5, 0.97)),
             2.0**-53 * (1.0 - 2.0**-53), *around(0.075), *around(0.925),
             *around(np.nextafter(crossover, 0.0)), *around(np.nextafter(crossover, 1.0))]
    return np.concatenate([rng.random(50_000), 10.0 ** -rng.uniform(0.0, 323.0, 28_000),
                           1.0 - 10.0 ** -rng.uniform(0.0, 15.9, 28_000), edges])


def _ulps_apart(got, ref):
    return np.abs(got - ref) / np.spacing(np.abs(ref))


def test_ndtri_is_within_4_ulps_of_the_stdlib_and_warns_of_nothing():
    """The vectorized AS241 kernel follows `NormalDist().inv_cdf` to 4 ulps
    over (0, 1), the log in its tails being numpy's, not libm's; it raises
    no RuntimeWarning and every quantile is finite."""
    from statistics import NormalDist
    p = _ndtri_points()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sim_module._ndtri(p)
    ref = np.array([NormalDist().inv_cdf(v) for v in p.tolist()])
    assert np.all(np.isfinite(got))
    assert _ulps_apart(got, ref).max() <= 4


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the stdlib's C rationals may be compiled with fused multiply-adds")
def test_ndtri_is_bit_equal_to_the_stdlib_in_the_central_region():
    """Where |p - 1/2| <= 0.425 the kernel makes the stdlib's roundings, in its order."""
    from statistics import NormalDist
    p = _ndtri_points()
    central = p[np.abs(p - 0.5) <= 0.425]
    assert central.size > 40_000
    ref = np.array([NormalDist().inv_cdf(v) for v in central.tolist()])
    assert np.array_equal(sim_module._ndtri(central), ref)


def test_ndtri_matches_scipy():
    special = pytest.importorskip("scipy.special")
    p = _ndtri_points()
    assert _ulps_apart(sim_module._ndtri(p), special.ndtri(p)).max() <= 8


def test_normal_cdf_and_hazard_match_scipy():
    """Over the hazard bisection's bracket, a in [-target - 6, 12], ndtr and
    erfcx agree with scipy; further left the hazard is exactly 0."""
    special = pytest.importorskip("scipy.special")
    a = np.linspace(-37.0, 12.0, 4001)    # erfcx(a / sqrt 2) is finite above -37.6
    x = a / math.sqrt(2.0)
    ndtr = np.array([sim_module._ndtr(v) for v in -a])
    erfcx = np.array([sim_module._erfcx(v) for v in x])
    np.testing.assert_allclose(ndtr, special.ndtr(-a), rtol=1e-13, atol=0)
    np.testing.assert_allclose(erfcx, special.erfcx(x), rtol=1e-13, atol=0)
    for a in (-38.0, -1e3, -1e200, -math.inf):
        assert sim_module._norm_hazard(a) == 0.0
