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

The inputs the test files share are defined here, once each: fixture
loads a shipped fixture over any field, rings and polys draw rings and
polynomials, rows_of gives the plain rows the oracles take and matrix_of
turns the rows an oracle returns back into a RingMatrix, column and
delta_columns build packed window columns, and kernel_basis and
echelon_solve read a FieldMatrix's kernel and solutions off its tracked
Echelon.  The slow references the tests compare against live in
tests/oracles.py, which imports no mf2 module.
"""

import contextlib
import functools
import math
import signal
from importlib.resources import files

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from mf2.cohomwin import _delta_columns
from mf2.gf2k import GF2
from mf2.mfcore import UngradedMF, parse_mf_text
from mf2.ringmat import Echelon, RingMatrix
from mf2.ringpoly import RingDescriptor, RingPoly

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


FIXTURES = files("mf2") / "fixtures"


@functools.cache
def fixture(name, spec=GF2):
    """The shipped fixture name.mf with its ring's field replaced by spec.
    Built from the packed keys: loading reads no tuple view."""
    mff = parse_mf_text((FIXTURES / f"{name}.mf").read_text())
    ring = RingDescriptor(spec, mff.ring.vars, mff.ring.laurent)
    w, *q = (RingPoly._raw(ring, dict(p.packed)) for p in (mff.w, *mff.q.entries))
    return UngradedMF(w, RingMatrix(ring, mff.q.rows, mff.q.cols, q))


@st.composite
def rings(draw, fields=(GF2,), nvars=(1, 3)):
    """A field from fields, and nvars[0]..nvars[1] variables x, y, z, each Laurent or not."""
    spec = draw(st.sampled_from(fields))
    n = draw(st.integers(*nvars))
    laurent = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return RingDescriptor(spec, ("x", "y", "z")[:n], laurent)


@st.composite
def polys(draw, ring, span=(-1, 2), sizes=(0, 1, 1, 1, 2, 3, 4, 5, 5)):
    """A polynomial with a number of terms drawn from sizes (at most the
    number of monomials there are), exponents in span (from 0 when not
    Laurent) and any nonzero coefficients.  The default keeps exponents
    small, so products collide and cancel, and one draw in three is a
    single monomial, with any coefficient."""
    ranges = [range(span[0] if flag else 0, span[1] + 1) for flag in ring.laurent]
    size = min(draw(st.sampled_from(sizes)), math.prod(map(len, ranges)))
    exps = st.tuples(*(st.integers(r.start, r.stop - 1) for r in ranges))
    coeffs = st.integers(1, ring.field.order - 1)
    return RingPoly(ring, draw(st.dictionaries(exps, coeffs, min_size=size, max_size=size)))


def rows_of(m):
    """The rows of a FieldMatrix as values, or of a RingMatrix as term dicts."""
    return [[e if isinstance(e, int) else e.terms for e in m.row(i)] for i in range(m.rows)]


def matrix_of(ring, rows):
    """The RingMatrix over ring with rows of term dicts: rows_of inverted."""
    return RingMatrix(ring, len(rows), len(rows[0]), [RingPoly(ring, e) for row in rows for e in row])


def column(image, row):
    """The packed column of a cell's image at the domain key with offset row `row`."""
    col = 0
    for s, v in image:
        col |= v << row[s]
    return col


def delta_columns(src, tgt, win_in, win_out):
    """Packed columns of d, cell-major over win_in, blocks in win_out order."""
    pack = src.ring.pack
    domain = [(pack(e), cell) for cell in range(src.size * tgt.size) for e in win_in.monomials()]
    out_block = {pack(e): b for b, e in enumerate(win_out.monomials())}
    images, offsets = _delta_columns(src, tgt, domain, out_block)
    return [column(images[cell], offsets[e]) for e, cell in domain]


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
