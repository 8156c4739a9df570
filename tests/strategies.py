"""Building blocks the property tests share: one game builder, one log-uniform
float strategy, and one market builder with the market domain's strategies, so
each test states only its ranges."""

import math

import numpy as np
from hypothesis import strategies as st

from greenstock import BsProfile, GameInstance, Market, NormalizedParams
from greenstock.allocation import _mu_on_curve


def make_game(b, cs, phi, alpha):
    """The game of normalized parameters b_n = b, cs_n = cs, phi and alpha."""
    return GameInstance(NormalizedParams(b_n=b, cs_n=cs, phi=phi, alpha=alpha))


def log_uniform(lo, hi):
    """Floats in [lo, hi] whose logarithm is uniform; decade ends come out exact."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def make_market(lambda_bars, b=2.0, mu0=20.0, p=2.0, p1=1.0, p2=10.0):
    """The market of stations with rates `lambda_bars` and backlog costs `b`, one
    value for every station or one per station, with capacity mu0 at prices p, p1, p2."""
    bs = b if isinstance(b, (list, tuple)) else [b] * len(lambda_bars)
    profiles = tuple(BsProfile(lambda_bar=lam, b=b_i, index=i)
                     for i, (lam, b_i) in enumerate(zip(lambda_bars, bs, strict=True)))
    return Market(profiles=profiles, mu0=mu0, p=p, p1=p1, p2=p2)


def _often_repeated(draw, values, n, *extra):
    """n draws of `values`, each often one of up to three values drawn first, or
    a draw of one of the `extra` strategies."""
    pool = draw(st.lists(values, min_size=1, max_size=3))
    entry = st.one_of(*extra, st.sampled_from(pool), values)
    return draw(st.lists(entry, min_size=n, max_size=n))


@st.composite
def markets(draw, max_n=16, mu0_share=None):
    """A market on the documented domain: N 2-max_n; lambda_bar 0.05-20 and b 0-10,
    each often repeated, and b often 0, so that some stations sit below break-even;
    p 0.1-5, p1 0-5 and p2 - p1 - p 0.01-20; mu0 0.01-100, or `mu0_share`, a
    strategy, times the full-service demand (at least 1e-3)."""
    n = draw(st.integers(2, max_n))
    lambda_bars = _often_repeated(draw, st.floats(0.05, 20.0), n)
    bs = _often_repeated(draw, st.floats(0.0, 10.0), n, st.just(0.0))
    p, p1 = draw(st.floats(0.1, 5.0)), draw(st.floats(0.0, 5.0))
    p2 = p1 + p + draw(st.floats(0.01, 20.0))
    if mu0_share is None:
        return make_market(lambda_bars, bs, draw(st.floats(0.01, 100.0)), p, p1, p2)
    market = make_market(lambda_bars, bs, 1.0, p, p1, p2)
    full = sum(_mu_on_curve(market, market.lambda_bar, p).tolist())
    return make_market(lambda_bars, bs, max(draw(mu0_share) * full, 1e-3), p, p1, p2)


@st.composite
def order_rows(draw, n, max_rows):
    """A (K, N = n) order matrix, K 1-max_rows, of orders in 0-30 with zeros and ties."""
    pool = draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=3))
    entry = st.one_of(st.just(0.0), st.sampled_from(pool), st.floats(0.0, 30.0))
    return np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=1, max_size=max_rows)))
