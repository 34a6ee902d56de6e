"""The product kernel and exact division against an independent engine.

sympy's Poly over GF(2) (modulus=2) is the oracle; it shares no code with
mf2's packed keys.  sympy knows only polynomial rings, so a Laurent input
is first multiplied by a monomial that clears its negative exponents, and
the answer is shifted back.  For exact division only the Laurent
variables are shifted, by the operand's monomial content in them, so that
sympy alone decides divisibility in the polynomial variables.  One
divisor is a Groebner basis of the ideal it generates, so sympy's
remainder is zero exactly when the divisor divides.
"""

from __future__ import annotations

import itertools
import random

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mf2.gf2k import GF2
from mf2.ringpoly import RingDescriptor, RingPoly, _mul_into, exact_divide

SPAN = 4  # exponents lie in [-SPAN, SPAN] for Laurent variables, [0, SPAN] otherwise


@st.composite
def rings(draw):
    nvars = draw(st.integers(2, 3))
    laurent = tuple(draw(st.lists(st.booleans(), min_size=nvars, max_size=nvars)))
    return RingDescriptor(GF2, ("x", "y", "z")[:nvars], laurent)


def polys(ring: RingDescriptor, min_size: int = 0, max_size: int = 6):
    monomial = st.tuples(*[st.integers(-SPAN if flag else 0, SPAN) for flag in ring.laurent])
    return st.sets(monomial, min_size=min_size, max_size=max_size).map(
        lambda support: RingPoly(ring, {e: 1 for e in support}))


def to_sympy(p: RingPoly, shift) -> sympy.Poly:
    """p times x^shift, which must be a polynomial, as a sympy Poly."""
    symbols = sympy.symbols(p.ring.vars)
    exps = {tuple(a + s for a, s in zip(e, shift)): 1 for e in p.terms}
    return sympy.Poly.from_dict(exps or {(0,) * len(shift): 0}, *symbols, modulus=2)


def from_sympy(q: sympy.Poly, ring: RingDescriptor, shift) -> RingPoly:
    """q times x^-shift as a polynomial of ring."""
    terms = {}
    for exps, c in q.as_dict().items():
        if int(c) % 2:
            terms[tuple(a - s for a, s in zip(exps, shift))] = 1
    return RingPoly(ring, terms)


@settings(max_examples=150)
@given(st.data())
def test_mul_into_matches_sympy_products(data):
    ring = data.draw(rings())
    a, b, acc = (data.draw(polys(ring)) for _ in range(3))
    shift = [SPAN if flag else 0 for flag in ring.laurent]
    want = from_sympy(to_sympy(acc, [2 * s for s in shift])
                      + to_sympy(a, shift) * to_sympy(b, shift), ring, [2 * s for s in shift])
    got = _mul_into(dict(acc.packed), a.packed, b.packed, ring)
    assert RingPoly._raw(ring, got) == want
    assert all(got.values())


def content_shift(p: RingPoly) -> list[int]:
    """The monomial that clears p's negative content in its Laurent variables."""
    return [-lo if flag else 0 for (lo, _), flag in zip(p.support_bounds(), p.ring.laurent)]


@settings(max_examples=200)
@given(st.data())
def test_exact_divide_matches_sympy_division(data):
    ring = data.draw(rings())
    d = data.draw(polys(ring, min_size=1, max_size=3))
    p = data.draw(polys(ring, max_size=5))
    if data.draw(st.booleans()):
        p = p * d  # divisible: half the draws
    got = exact_divide(p, d)
    if p.is_zero():
        assert got == p
        return
    sp, sd = content_shift(p), content_shift(d)
    q, r = to_sympy(p, sp).div(to_sympy(d, sd))
    if not r.is_zero:
        assert got is None
    else:
        assert got == from_sympy(q, ring, [a - b for a, b in zip(sp, sd)])


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
    sp, sd = content_shift(p), content_shift(d)
    quotient, rest = to_sympy(p, sp).div(to_sympy(d, sd))
    assert rest.is_zero
    assert from_sympy(quotient, ring, [a - b for a, b in zip(sp, sd)]) == q
    bumped = p + RingPoly(ring, {(61, 61): 1})
    assert exact_divide(bumped, d) is None
    assert not to_sympy(bumped, content_shift(bumped)).div(to_sympy(d, sd))[1].is_zero
