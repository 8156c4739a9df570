"""Building blocks the property tests share: one game builder and one
log-uniform float strategy, so each test states only its ranges."""

import math

from hypothesis import strategies as st

from greenstock import GameInstance, NormalizedParams


def make_game(b, cs, phi, alpha):
    """The game of normalized parameters b_n = b, cs_n = cs, phi and alpha."""
    return GameInstance(NormalizedParams(b_n=b, cs_n=cs, phi=phi, alpha=alpha))


def log_uniform(lo, hi):
    """Floats in [lo, hi] whose logarithm is uniform; decade ends come out exact."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)
