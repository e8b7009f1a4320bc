"""Shared test set-up: a wall-clock limit on every test."""

import signal

import pytest

TEST_SECONDS = 120


class WallClockExceeded(BaseException):
    """Raised in a test that runs past TEST_SECONDS. It derives from
    BaseException so that hypothesis does not catch it and go on shrinking
    an example that hangs."""


@pytest.fixture(autouse=True)
def wall_clock_limit(request):
    """Fail a test that runs past TEST_SECONDS, so that a hang (in the gcd
    or the factor search, say) fails that test instead of stalling the
    suite."""

    def expire(signum, frame):
        raise WallClockExceeded(f"{request.node.nodeid} ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
