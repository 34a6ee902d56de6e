"""Buchberger against an independent Groebner engine.

sympy's groebner over GF(2) (modulus=2, grevlex), through tests/oracles.py,
is the oracle.  A reduced Groebner basis is unique for a given ideal and
term order, so both sides must return the same set of monic polynomials.
sympy takes its generators most significant first, which is the order a
priority lists the variables in; ours is the sort key
`priority_order(priority)`.  The inputs are the cleared partials of the
projective-plane and A-series fixtures, plus hypothesis-drawn sets of one
to three polynomials in two or three variables.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture
from oracles import sympy_basis, sympy_normal_form

from mf2.gf2k import GF2
from mf2.groebner import _clear_monomial_content, buchberger, normal_form
from mf2.ringpoly import RingDescriptor, RingPoly, grevlex_key


def priority_order(priority):
    """Grevlex on the variables ranked by priority, most significant first."""
    return lambda e: grevlex_key(tuple(e[p] for p in priority))


def as_terms(terms: dict) -> frozenset:
    return frozenset(terms.items())


def assert_bases_agree(gens: list[RingPoly], priority) -> list[RingPoly]:
    ours = buchberger(gens, priority_order(priority))
    assert {as_terms(g.terms) for g in ours} == {as_terms(g) for g in
                                                 sympy_basis([g.terms for g in gens], priority)}
    return ours


@pytest.mark.parametrize("name", ["rp2", "an_q_1", "an_q_2", "an_q_3", "an_q_4"])
def test_fixture_partials_match_sympy(name):
    w = fixture(name).w
    ring = w.ring
    poly_ring = ring.polynomialized()
    cleared = [_clear_monomial_content(w.partial(i), poly_ring) for i in range(ring.nvars)]
    # the quotient order, as mf2 uses it
    basis = assert_bases_agree([p for p in cleared if not p.is_zero()],
                               tuple(reversed(range(ring.nvars))))
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
    assert_bases_agree(gens, priority)


@settings(max_examples=100)
@given(generator_sets(), st.data())
def test_normal_forms_match_sympy_reduction(drawn, data):
    # the divisors are sympy's basis, so only normal_form is under test;
    # modulo a Groebner basis the remainder of full division is unique
    gens, priority = drawn
    ring = gens[0].ring
    basis = sympy_basis([g.terms for g in gens], priority)
    monomial = st.tuples(*[st.integers(0, 5)] * ring.nvars)
    p = RingPoly(ring, {e: 1 for e in data.draw(st.sets(monomial, max_size=6))})
    want = as_terms(sympy_normal_form(p.terms, basis, priority))
    got = normal_form(p, [RingPoly(ring, g) for g in basis], priority_order(priority))
    assert as_terms(got.terms) == want
