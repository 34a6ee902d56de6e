"""Shared test settings.

Every hypothesis property test runs derandomized, without an example
database and without a deadline, so a run is reproducible and writes
nothing; each test sets its own max_examples.  That is the profile "mf2".
The profile "mf2-no-explain" drops hypothesis's explain phase, which only
prints and never decides pass or fail; tests/mutants.py selects it, so
the time limit below cannot fire while a failing example is explained
and turn a killed mutant into a pytest internal error.  A test that sets
its own phases takes them from the loaded profile.

Every test, and the import of every test module (some build an
Rp2Context, and so a Groebner basis, at import), fails after
TIME_LIMIT_S seconds.  A fault that makes a loop run forever (a Groebner
division that never cancels its leading term, say) then fails instead of
hanging the suite.  The limit is a SIGALRM timer and is skipped on
platforms without SIGALRM.

The test process's address space is capped at MEMORY_LIMIT_BYTES (a soft
RLIMIT_AS, set before collection, never above an existing lower limit), so
a fault that makes memory grow without bound raises MemoryError instead
of exhausting the machine before the time limit fires: a hung Groebner
division grows by about 15 MB/s.  The tier-1 run, and each run of
tests/mutants.py, peaks below 140 MB of address space (VmPeak), so the
cap leaves a margin of more than 7x.  The cap is skipped on platforms
without the resource module.

column(image, row) is the packed column of one cell image of
cohomwin._delta_columns at one domain key, for the window tests.
kernel_basis(m) and echelon_solve(m, b) read a kernel basis and a
solution of a FieldMatrix off the tracked Echelon of its columns, for the
elimination tests.
"""

import contextlib
import signal

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest
from hypothesis import Phase, settings

from mf2.ringmat import Echelon

settings.register_profile("mf2", deadline=None, derandomize=True, database=None)
settings.register_profile("mf2-no-explain", settings.get_profile("mf2"),
                          phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("mf2")

TIME_LIMIT_S = 120
MEMORY_LIMIT_BYTES = 1 << 30


def pytest_configure(config):
    if resource is None:
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_LIMIT_BYTES if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT_BYTES, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def column(image, row):
    """The packed column of a cell's image at the domain key with offset row `row`."""
    col = 0
    for s, v in image:
        col |= v << row[s]
    return col


def _tracked_columns(m):
    """A tracked Echelon holding m's columns in order, and the relations
    of the columns that depend on the ones before them."""
    ech = Echelon(m.spec, m.rows)
    return ech, ech.insert_all(ech.pack(m.entries[j::m.cols]) for j in range(m.cols))


def kernel_basis(m):
    """One kernel vector per column that depends on the columns before it."""
    ech, relations = _tracked_columns(m)
    return [ech.unpack(rel, m.cols) for rel in relations]


def echelon_solve(m, b):
    """One solution of m x = b with free variables at zero, or None."""
    ech, _ = _tracked_columns(m)
    rest, comb = ech.reduce(ech.pack(b))
    return None if rest else ech.unpack(comb, m.cols)


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
