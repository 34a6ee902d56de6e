"""Shared test settings.

Every hypothesis property test runs derandomized, without an example
database and without a deadline, so a run is reproducible and writes
nothing; each test sets its own max_examples.

Every test, and the import of every test module (some build an
Rp2Context, and so a Groebner basis, at import), fails after
TIME_LIMIT_S seconds.  A fault that makes a loop run forever (a Groebner
division that never cancels its leading term, say) then fails instead of
hanging the suite.  The limit is a SIGALRM timer and is skipped on
platforms without SIGALRM.
"""

import contextlib
import signal

import pytest
from hypothesis import settings

settings.register_profile("mf2", deadline=None, derandomize=True, database=None)
settings.load_profile("mf2")

TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Raised from the SIGALRM handler.  Not an Exception, so neither the
    code under test nor hypothesis (which would replay and shrink the
    example, hanging again) catches it; pytest reports it as a failure."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"ran longer than {TIME_LIMIT_S} s")


@contextlib.contextmanager
def _time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    # then once a second: Python swallows an exception raised where the
    # signal lands inside a gc callback or a __del__ (hypothesis times
    # garbage collection with one), and the next one ends the test
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S, 1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def time_limit():
    with _time_limit():
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_make_collect_report(collector):
    with _time_limit():
        yield
