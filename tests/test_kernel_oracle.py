"""The product kernel and exact division against an independent engine.

The oracles are sympy's, through tests/oracles.py: it shares no code with
mf2's packed keys.  sympy knows only polynomial rings, so a Laurent input
is first multiplied by a monomial that clears its negative exponents, and
the answer is shifted back.  For exact division only the Laurent
variables are shifted, by the operand's monomial content in them, so that
sympy alone decides divisibility in the polynomial variables
(`sympy_divide`).
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polys, rings
from oracles import sympy_divide, sympy_sum_of_products

from mf2.gf2k import GF2
from mf2.ringpoly import RingDescriptor, RingPoly, _mul_into, exact_divide

SPAN = (-4, 4)  # exponents lie in [-4, 4] for Laurent variables, [0, 4] otherwise


@settings(max_examples=150)
@given(st.data())
def test_mul_into_matches_sympy_products(data):
    ring = data.draw(rings(nvars=(2, 3)))
    a, b, acc = (data.draw(polys(ring, SPAN, range(7))) for _ in range(3))
    one = {(0,) * ring.nvars: 1}
    [[want]] = sympy_sum_of_products((([[acc.terms]], [[one]]), ([[a.terms]], [[b.terms]])),
                                     ring.vars, GF2.modulus)
    got = _mul_into(dict(acc.packed), a.packed, b.packed, ring)
    assert RingPoly._raw(ring, got) == RingPoly(ring, want)
    assert all(got.values())


@settings(max_examples=200)
@given(st.data())
def test_exact_divide_matches_sympy_division(data):
    ring = data.draw(rings(nvars=(2, 3)))
    d = data.draw(polys(ring, SPAN, range(1, 4)))
    p = data.draw(polys(ring, SPAN, range(6)))
    if data.draw(st.booleans()):
        p = p * d  # divisible: half the draws
    got = exact_divide(p, d)
    if p.is_zero():
        assert got == p
        return
    want = sympy_divide(p.terms, d.terms, ring.vars, ring.laurent)
    assert got == (None if want is None else RingPoly(ring, want))


def test_exact_divide_of_a_large_sparse_product_matches_sympy():
    """A quotient of 2,000 random terms, scattered over a 121 x 61 box,
    times a three-term divisor: exact division returns it, sympy agrees,
    and one more term makes both refuse."""
    rng = random.Random(2000)
    ring = RingDescriptor(GF2, ("x", "y"), (True, False))
    box = list(itertools.product(range(-60, 61), range(61)))
    q = RingPoly(ring, dict.fromkeys(rng.sample(box, 2000), 1))
    d = RingPoly(ring, {(0, 0): 1, (1, 1): 1, (-1, 2): 1})
    p = q * d
    assert exact_divide(p, d) == q
    assert sympy_divide(p.terms, d.terms, ring.vars, ring.laurent) == q.terms
    bumped = p + RingPoly(ring, {(61, 61): 1})
    assert exact_divide(bumped, d) is None
    assert sympy_divide(bumped.terms, d.terms, ring.vars, ring.laurent) is None
