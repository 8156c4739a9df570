"""Shared fixtures."""

import signal
from contextlib import contextmanager

import pytest


@contextmanager
def _deadline(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """`with deadline(s):` raises TimeoutError in a block still running after s seconds."""
    return _deadline
