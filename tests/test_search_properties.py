"""Property tests of the backtracking factorization search against brute force.

The oracle, in tests/oracles.py, is the exhaustive enumerator the
backtracking search replaced: it builds every coefficient assignment as a
matrix of term dicts and squares it with the term-pair product.
The search must return the same matrices in the same order.  Random
potentials almost never lie in the span of products of two support
monomials, so they mostly take the search's empty rule.  The other half
of the cases use W = a^2 + b*c with a, b, c in the span of the support;
then [[a, b], [c, a]] squares to W*Id, the size-2 result is not empty,
and these cases exercise the backtracking.

The oracle reaches only small assignment spaces, so the schedule of the
checks is tested on its own, and searches beyond the oracle, three of
size 3 and one of size 4, are pinned by count and digest.

The re-verification of the results is tested for soundness on its own:
pinned results over GF(2) and GF(4) with one coefficient of one entry
changed must fail it exactly when the oracle's square of the changed
matrix differs from W*Id, on or off the diagonal.
"""

from __future__ import annotations

import functools
import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix_of, rows_of
from oracles import brute_force_search, oracle_matmul

from mf2.gf2k import GF2, default_spec
from mf2.mfcore import VerificationError, _reverify, _schedule, search_factorizations
from mf2.ringmat import RingMatrix
from mf2.ringpoly import RingDescriptor, RingPoly, grevlex_key, parse_poly

FIELDS = (GF2, default_spec(2))
MAX_BITS = 12
PROPERTY = settings(max_examples=40)


@st.composite
def search_cases(draw):
    """(w, size, support, witness): at most MAX_BITS bits of assignment
    space; witness is a size-2 solution when W was built to have one."""
    field, size = draw(st.sampled_from(
        [(f, n) for f in FIELDS for n in (1, 2, 3) if n * n * f.k <= MAX_BITS]))
    ring = RingDescriptor(field, ("x", "y"), (True, True))
    max_width = min(3, MAX_BITS // (size * size * field.k))
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    support = draw(st.lists(exps, min_size=1, max_size=max_width, unique=True))
    coeff = st.integers(0, field.order - 1)

    def poly(monomials):
        return RingPoly(ring, {e: draw(coeff) for e in monomials})

    if draw(st.booleans()):
        w = poly(draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                               min_size=1, max_size=4, unique=True)))
        return w, size, support, None
    a, b, c = poly(support), poly(support), poly(support)
    w = a * a + b * c
    witness = RingMatrix(ring, 2, 2, [a, b, c, a]) if size == 2 else None
    return w, size, support, witness


@PROPERTY
@given(search_cases())
def test_search_matches_brute_force(case):
    w, size, support, witness = case
    found = search_factorizations(w, size, support, budget_bits=MAX_BITS)
    want = brute_force_search(w.terms, size, support, w.ring.field.modulus)
    assert found == [matrix_of(w.ring, q) for q in want]
    if witness is not None:
        assert witness in found


def test_search_x2_plus_y2_over_four_monomials():
    ring = RingDescriptor(GF2, ("x", "y"), (False, False))
    w = parse_poly("x^2 + y^2", ring)
    support = [(1, 0), (0, 1), (0, 0), (1, 1)]
    found = search_factorizations(w, 2, support, budget_bits=16)
    assert len(found) == 46
    wid = RingMatrix.identity(ring, 2).scale(w)
    assert all(q * q == wid for q in found)
    # Documented order: entries row-major, each entry's coefficients over
    # the support in descending canonical order, values ascending.
    supp = sorted(support, key=grevlex_key, reverse=True)
    keys = [tuple(e.terms.get(m, 0) for e in q.entries for m in supp) for q in found]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


@pytest.mark.parametrize("size", range(1, 7))
def test_fill_order_checks_each_entry_of_the_square_once_when_final(size):
    """_schedule's slots in fill order, and each (Q^2)_ab checked once, at
    the slot that fills the last entry of row a and column b."""
    flat, checks = _schedule(size)
    entries = list(itertools.product(range(size), repeat=2))
    # row 0, column 0, row 1, column 1, ...: by the first line through the
    # entry, a row before a column, then along the line
    slots = sorted(entries, key=lambda ab: (min(ab), ab[0] > ab[1], max(ab)))
    assert flat == tuple(i * size + j for i, j in slots)
    assert len(checks) == len(slots)
    listed = []
    for n, step in enumerate(checks):
        done = [(own[0][0] // size, own[0][1] % size) for own, _, _ in step]
        for a, b in done:
            needed = {(a, m) for m in range(size)} | {(m, b) for m in range(size)}
            assert needed <= set(slots[:n + 1])
            assert not needed <= set(slots[:n])
        assert done == sorted(done)
        listed += done
    assert sorted(listed) == entries


@pytest.mark.parametrize("size", range(1, 5))
def test_the_schedule_is_built_once_per_size_from_the_fill_order(size):
    """_schedule is cached per size, and each check's pairs of flat indices
    are split at the slot's own entry: those that hold it, then the rest."""
    flat, checks = schedule = _schedule(size)
    assert _schedule(size) is schedule
    for f, step in zip(flat, checks):
        for own, others, diagonal in step:
            (a, _), (_, b) = divmod(own[0][0], size), divmod(own[0][1], size)
            assert set(own) | set(others) == {(a * size + m, m * size + b) for m in range(size)}
            assert all(f in p for p in own) and not any(f in p for p in others)
            assert diagonal == (a == b)


SUPPORT_XY1 = [(1, 0), (0, 1), (0, 0)]


@pytest.mark.parametrize("potential, count, digest, size, support, budget", [
    ("x^2 + y^2", 736, "e3f91ec747c3d220de5711cb876eb388b7c798e0a7ec0822e0ffe6d7d892e546",
     3, SUPPORT_XY1, 27),
    ("x^2 + x*y + y^2", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     3, SUPPORT_XY1, 27),
    ("x^2 + y^2", 148, "80c4f3a879f3878b896a98630e086369e36b65dd9e8442c5ff55b49ce7232fd1",
     3, [(1, 0), (0, 1)], 18),
    ("x^2", 316, "1f5e2b9fbfd0126f4f4f200200c3acd240ada093dcd8a8cbf68fe9dfb620fd7e",
     4, [(1, 0)], 16),
])
def test_size_three_searches_beyond_the_oracle_are_pinned(potential, count, digest,
                                                          size, support, budget):
    ring = RingDescriptor(GF2, ("x", "y"), (False, False))
    found = search_factorizations(parse_poly(potential, ring), size, support, budget)
    assert len(found) == count
    assert hashlib.sha256("\n".join(map(str, found)).encode()).hexdigest() == digest


def test_a_potential_outside_the_span_is_empty_only_within_the_budget():
    ring = RingDescriptor(GF2, ("x", "y"), (False, False))
    w = parse_poly("x^3", ring)
    with pytest.raises(ValueError, match="search budget exceeded"):
        search_factorizations(w, 3, [(1, 0), (0, 1)], budget_bits=4)
    assert search_factorizations(w, 3, [(1, 0), (0, 1)], budget_bits=18) == []


# The searches the soundness tests start from, over GF(2) and GF(4) at
# sizes 2 and 3: (field, potential, size, support, count, digest).
SOUNDNESS_SEARCHES = (
    (GF2, "x^2 + y^2", 2, [(1, 0), (0, 1)], 10,
     "3ed11fd8132796d4173ccaca140f6e64a698a9b6ed4fefd83cbf7e2a70edd3a3"),
    (GF2, "x^2 + y^2", 3, [(1, 0), (0, 1)], 148,
     "80c4f3a879f3878b896a98630e086369e36b65dd9e8442c5ff55b49ce7232fd1"),
    (default_spec(2), "x^2 + x*y + y^2", 2, [(1, 0), (0, 1)], 60,
     "494484f9971856a79763681d7542a36e10b0f1b6fb7524e1374ff9e56b6da9d4"),
    (default_spec(2), "x^2", 3, [(1, 0)], 316,
     "91c32b9f86b1738b073023d9e841fb506afc6062fa962777718fa781974dd7b0"),
)
# Besides the support, a fault may land on the constant or on x*y.
FAULT_MONOMIALS = ((0, 0), (1, 1))


@functools.cache
def soundness_search(index):
    field, potential, size, support, _, _ = SOUNDNESS_SEARCHES[index]
    w = parse_poly(potential, RingDescriptor(field, ("x", "y"), (False, False)))
    return w, search_factorizations(w, size, support, budget_bits=20)


def with_fault(q, cell, monomial, delta):
    """q with the coefficient of monomial in entry `cell` (row-major) XORed with delta."""
    terms = dict(q.entries[cell].terms)
    terms[monomial] = terms.get(monomial, 0) ^ delta
    entries = list(q.entries)
    entries[cell] = RingPoly(q.ring, terms)
    return RingMatrix(q.ring, q.rows, q.cols, entries)


def oracle_residue(w, q):
    """The (a, b) where the oracle's Q^2 differs from W*Id."""
    square = oracle_matmul(rows_of(q), rows_of(q), w.ring.field.modulus)
    return {(a, b) for a in range(q.rows) for b in range(q.cols)
            if square[a][b] != (w.terms if a == b else {})}


def reverify_with_fault(w, found, i, faulty):
    """Re-verify found with result i replaced by faulty, which must fail
    exactly when the oracle's square of faulty differs from W*Id; returns
    the oracle's residue."""
    residue = oracle_residue(w, faulty)
    results = found[:i] + [faulty] + found[i + 1:]
    if residue:
        with pytest.raises(VerificationError, match="failed re-verification"):
            _reverify(w, results)
    else:
        _reverify(w, results)
    return residue


@pytest.mark.parametrize("index", range(len(SOUNDNESS_SEARCHES)))
def test_the_searches_the_soundness_tests_start_from_are_pinned(index):
    *_, count, digest = SOUNDNESS_SEARCHES[index]
    w, found = soundness_search(index)
    assert len(found) == count
    assert hashlib.sha256("\n".join(map(str, found)).encode()).hexdigest() == digest
    assert all(not oracle_residue(w, q) for q in found)
    _reverify(w, found)


@st.composite
def faults(draw):
    """(search index, result index, cell, monomial, delta): one coefficient
    of one entry of one result changed."""
    index = draw(st.integers(0, len(SOUNDNESS_SEARCHES) - 1))
    field, _, size, support, count, _ = SOUNDNESS_SEARCHES[index]
    return (index, draw(st.integers(0, count - 1)), draw(st.integers(0, size * size - 1)),
            draw(st.sampled_from(support + list(FAULT_MONOMIALS))),
            draw(st.integers(1, field.order - 1)))


@PROPERTY
@given(faults())
def test_reverification_fails_exactly_when_the_oracle_square_differs(fault):
    index, i, cell, monomial, delta = fault
    w, found = soundness_search(index)
    reverify_with_fault(w, found, i, with_fault(found[i], cell, monomial, delta))


def test_reverification_catches_faults_only_an_off_diagonal_entry_sees():
    """Every one-coefficient fault of the first three x^2 + y^2 results of
    size 3 over GF(2): the re-verification fails exactly when the oracle's
    square differs from W*Id, and some faults change Q^2 only off its
    diagonal (at size 2, over a domain, none can)."""
    w, found = soundness_search(1)
    off_diagonal_only = 0
    for i, q in enumerate(found[:3]):
        for cell, monomial in itertools.product(range(9), [(1, 0), (0, 1), *FAULT_MONOMIALS]):
            residue = reverify_with_fault(w, found, i, with_fault(q, cell, monomial, 1))
            off_diagonal_only += bool(residue) and all(a != b for a, b in residue)
    assert off_diagonal_only > 0


def test_reverification_forms_each_entry_product_once(monkeypatch):
    """The products of two entries are formed as RingMatrix products, one
    per distinct left entry and fewer than there are results, and no
    ordered pair of entries is multiplied twice."""
    product, pairs, calls = RingMatrix.__mul__, [], []

    def counted(self, other):
        calls.append(1)
        pairs.extend((a, b) for a in self.entries for b in other.entries)
        return product(self, other)

    monkeypatch.setattr(RingMatrix, "__mul__", counted)
    w = parse_poly("x^2 + y^2", RingDescriptor(GF2, ("x", "y"), (False, False)))
    found = search_factorizations(w, 2, [(1, 0), (0, 1)])
    assert len(found) == 10
    assert len(calls) == len({e for q in found for e in q.entries}) < len(found)
    assert len(pairs) == len(set(pairs))
