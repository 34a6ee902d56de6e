"""Property tests of the backtracking factorization search against brute force.

The oracle is the exhaustive enumerator the backtracking search replaced:
it builds every coefficient assignment as a RingMatrix and squares it.
The search must return the same matrices in the same order.  Random
potentials almost never factor, so half of the cases use W = a^2 + b*c
with a, b, c in the span of the support; then [[a, b], [c, a]] squares
to W*Id and the size-2 result is not empty.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from mf2.gf2k import GF2, default_spec
from mf2.mfcore import search_factorizations
from mf2.ringmat import RingMatrix
from mf2.ringpoly import RingDescriptor, RingPoly, grevlex_key, parse_poly

FIELDS = (GF2, default_spec(2))
MAX_BITS = 12
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def brute_force_search(
    w: RingPoly,
    size: int,
    support: Iterable[Sequence[int]],
    budget_bits: int = 24,
) -> list[RingMatrix]:
    """The exhaustive enumerator: every assignment, one matrix square each."""
    ring = w.ring
    supp = sorted({ring.check_exponents(s) for s in support}, key=grevlex_key, reverse=True)
    if not supp:
        raise ValueError("empty support")
    k = ring.field.k
    nslots = size * size * len(supp)
    bits = nslots * k
    if bits > budget_bits:
        raise ValueError(
            f"search budget exceeded: needs {bits} bits, budget is {budget_bits}"
        )
    values = list(range(ring.field.order))
    out = []
    wid = RingMatrix.identity(ring, size).scale(w)
    for assignment in itertools.product(values, repeat=nslots):
        entries = []
        for slot in range(size * size):
            terms = {}
            for m_i, exps in enumerate(supp):
                c = assignment[slot * len(supp) + m_i]
                if c:
                    terms[exps] = c
            entries.append(RingPoly(ring, terms))
        q = RingMatrix(ring, size, size, entries)
        if q * q == wid:
            out.append(q)
    return out


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
    assert found == brute_force_search(w, size, support, budget_bits=MAX_BITS)
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
