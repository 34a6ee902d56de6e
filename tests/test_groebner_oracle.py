"""Buchberger against an independent Groebner engine.

sympy's groebner over GF(2) (modulus=2, grevlex) is the oracle.  A reduced
Groebner basis is unique for a given ideal and term order, so both sides
must return the same set of monic polynomials.  sympy takes its generators
most significant first, which is the order TermOrder.priority lists the
variables in.  The inputs are the cleared partials of the projective-plane
and A-series fixtures, plus hypothesis-drawn sets of one to three
polynomials in two or three variables.
"""

from __future__ import annotations

from importlib.resources import files

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mf2.gf2k import GF2
from mf2.groebner import TermOrder, _clear_monomial_content, buchberger
from mf2.mfcore import parse_mf_text
from mf2.ringpoly import RingDescriptor, RingPoly


def as_terms(p: RingPoly) -> frozenset:
    return frozenset(p.terms.items())


def sympy_basis(gens: list[RingPoly], order: TermOrder) -> set[frozenset]:
    """The reduced basis sympy computes, as term sets in the ring's variable order."""
    ring = gens[0].ring
    symbols = [sympy.Symbol(ring.vars[i]) for i in order.priority]
    exprs = [
        sympy.Add(*(sympy.Mul(*(s ** e[i] for s, i in zip(symbols, order.priority)))
                    for e in p.terms))
        for p in gens
    ]
    out = set()
    for g in sympy.groebner(exprs, *symbols, modulus=2, order="grevlex").exprs:
        terms = {}
        for exps, coeff in sympy.Poly(g, *symbols, modulus=2).terms():
            ours = [0] * ring.nvars
            for i, e in zip(order.priority, exps):
                ours[i] = e
            terms[tuple(ours)] = int(coeff) % 2
        out.add(frozenset((e, c) for e, c in terms.items() if c))
    return out


def assert_bases_agree(gens: list[RingPoly], order: TermOrder) -> list[RingPoly]:
    ours = buchberger(gens, order)
    assert {as_terms(g) for g in ours} == sympy_basis(gens, order)
    return ours


@pytest.mark.parametrize("name", ["rp2", "an_q_1", "an_q_2", "an_q_3", "an_q_4"])
def test_fixture_partials_match_sympy(name):
    mff = parse_mf_text((files("mf2") / "fixtures" / f"{name}.mf").read_text())
    ring = mff.w.ring
    poly_ring = ring.polynomialized()
    cleared = [_clear_monomial_content(mff.w.partial(i), poly_ring)
               for i in range(ring.nvars)]
    order = TermOrder(tuple(reversed(range(ring.nvars))))
    basis = assert_bases_agree([p for p in cleared if not p.is_zero()], order)
    if name == "rp2":
        assert sorted(str(g) for g in basis) == ["x + y", "x^3 + 1"]
    if name == "an_q_3":
        assert sorted(str(g) for g in basis) == ["x*y", "x*z", "y*z"]


@st.composite
def generator_sets(draw):
    nvars = draw(st.integers(2, 3))
    ring = RingDescriptor(GF2, ("x", "y", "z")[:nvars], (False,) * nvars)
    monomial = st.tuples(*[st.integers(0, 3)] * nvars)
    gens = draw(st.lists(st.sets(monomial, min_size=1, max_size=4), min_size=1, max_size=3))
    priority = tuple(draw(st.permutations(range(nvars))))
    return [RingPoly(ring, {e: 1 for e in support}) for support in gens], priority


@settings(max_examples=200)
@given(generator_sets())
def test_random_gf2_sets_match_sympy(drawn):
    gens, priority = drawn
    assert_bases_agree(gens, TermOrder(priority))
