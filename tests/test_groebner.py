"""Groebner engine tests.

Hand-derived oracle for the projective-plane potential: the cleared
partials are x^2*y+1 and x*y^2+1; y*(x^2*y+1) + x*(x*y^2+1) = x+y in
characteristic 2, and modulo x+y the first generator becomes x^3+1.
The quotient is 3-dimensional with x acting as a cyclic shift, so the
minimal polynomial of the x-action is x^3+1.
"""

from __future__ import annotations

import random
from functools import cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mf2 import groebner
from mf2.gf2k import GF2, default_spec
from mf2.groebner import (
    QuotientRing,
    buchberger,
    laurent_jacobian_ideal,
    minimal_polynomial,
    normal_form,
    quotient_order,
    quotient_ring,
)
from mf2.paperlab import Rp2Context
from mf2.ringmat import FieldMatrix
from mf2.ringpoly import RingDescriptor, RingPoly, grevlex_key, parse_poly

P2 = RingDescriptor(GF2, ("x", "y"), (False, False))
P3 = RingDescriptor(GF2, ("x", "y", "z"), (False, False, False))
L2 = RingDescriptor(GF2, ("x", "y"), (True, True))


def test_grevlex_order_basics():
    o = grevlex_key
    assert o((1, 0)) > o((0, 1))  # x > y
    assert o((0, 2)) > o((1, 0))  # degree dominates
    assert o((2, 1)) > o((1, 2))
    # the quotient order compares later variables larger
    assert quotient_order((0, 1)) > quotient_order((1, 0))
    assert quotient_order((1, 0, 2)) == grevlex_key((2, 0, 1))


def test_grevlex_and_elimination_orders_disagree():
    def eliminate_x(exps):
        return exps[0], grevlex_key(exps[1:])

    # x^3 vs x*y: both prefer x^3
    assert grevlex_key((3, 0)) > grevlex_key((1, 1))
    assert eliminate_x((3, 0)) > eliminate_x((1, 1))
    # x vs y^2: grevlex says y^2 bigger (degree first), eliminating x says x
    assert grevlex_key((0, 2)) > grevlex_key((1, 0))
    assert eliminate_x((1, 0)) > eliminate_x((0, 2))
    # within the block of y alone, the order is by degree
    assert eliminate_x((1, 2)) > eliminate_x((1, 1))
    # an elimination basis: its x-free part generates the ideal's x-free part
    gb = buchberger([parse_poly("x + y^2", P2), parse_poly("x*y + 1", P2)], eliminate_x)
    assert [str(g) for g in gb if all(e[0] == 0 for e in g.terms)] == ["y^3 + 1"]


def test_buchberger_projective_plane_generators():
    gens = [parse_poly("x^2*y + 1", P2), parse_poly("x*y^2 + 1", P2)]
    gb = buchberger(gens, grevlex_key)
    assert parse_poly("x + y", P2) in gb
    # every S-polynomial reduces to zero over the basis
    for g in gens:
        assert normal_form(g, gb, grevlex_key).is_zero()


def test_buchberger_rejects_laurent_input():
    with pytest.raises(ValueError, match="clear denominators"):
        buchberger([parse_poly("x^-1 + y", L2)], grevlex_key)


def test_normal_form_is_idempotent_and_linear():
    order = grevlex_key
    gb = buchberger([parse_poly("x^2 + y", P2), parse_poly("y^2 + x", P2)], order)
    rng = random.Random(11)
    for _ in range(30):
        p = RingPoly(P2, {(rng.randrange(5), rng.randrange(5)): 1 for _ in range(3)})
        q = RingPoly(P2, {(rng.randrange(5), rng.randrange(5)): 1 for _ in range(3)})
        nf_p = normal_form(p, gb, order)
        assert normal_form(nf_p, gb, order) == nf_p
        assert normal_form(p + q, gb, order) == nf_p + normal_form(q, gb, order)
    # ideal membership: generators reduce to zero
    assert normal_form(parse_poly("x^2 + y", P2), gb, order).is_zero()


def test_jacobian_ideal_projective_plane():
    w = parse_poly("x + y + x^-1*y^-1", L2)
    pres = laurent_jacobian_ideal(w)
    assert not any(pres.ring.laurent)
    q = quotient_ring(pres)
    assert q.dimension == 3
    assert q.staircase == ((0, 0), (1, 0), (2, 0))  # 1, x, x^2
    mp = minimal_polynomial(q.mult_matrices[0], "x")
    assert str(mp) == "x^3 + 1"
    assert q.minimal_polynomial() == mp
    # y acts exactly like x in the quotient
    assert q.mult_matrices[0] == q.mult_matrices[1]


def test_jacobian_ideal_relations():
    w = parse_poly("x + y + x^-1*y^-1", L2)
    pres = laurent_jacobian_ideal(w)
    q = quotient_ring(pres)
    # y = x and x^3 = 1 in the quotient
    assert q.class_vector(parse_poly("y", P2)) == q.class_vector(parse_poly("x", P2))
    assert q.class_vector(parse_poly("x^3", P2)) == q.class_vector(parse_poly("1", P2))


def test_rp2_quotient_folds_laurent_exponents_mod_3():
    """x^a*y^b = x^((a+b) mod 3) in the rp2 quotient for every a, b in
    [-6, 6], an oracle for Rp2Context.check_folding: both sides are compared
    after multiplying by the unit (xy)^6.  The context is built here, not at
    import, so a fault in the check fails this test, not the collection."""
    q = Rp2Context().jacobian

    def shifted(a, b):  # the class of (xy)^6 * x^a*y^b
        return q.class_vector(RingPoly.monomial(q.ring, (a + 6, b + 6)))

    folded = [shifted(r, 0) for r in range(3)]
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert shifted(a, b) == folded[(a + b) % 3], (a, b)


@st.composite
def laurent_potentials(draw):
    """A potential in x, y over GF(2) or GF(4), Laurent in at least one variable."""
    ring = RingDescriptor(default_spec(draw(st.sampled_from((1, 2)))), ("x", "y"),
                          draw(st.sampled_from(((True, True), (True, False), (False, True)))))
    exps = st.tuples(*(st.integers(-2 if f else 0, 3) for f in ring.laurent))
    terms = draw(st.dictionaries(exps, st.integers(1, ring.field.order - 1), min_size=2, max_size=5))
    return RingPoly(ring, terms)


@settings(max_examples=100)
@given(laurent_potentials())
def test_saturated_generators_are_a_reduced_basis_in_quotient_order(w):
    """The u-free part of the eliminating basis needs no second Buchberger run."""
    gens = list(laurent_jacobian_ideal(w).generators)
    assert buchberger(gens, quotient_order) == gens


# Saturated presentations recorded before term orders became plain sort
# keys: (potential, Laurent flags, generators, staircase or None).  The
# first three saturate to the unit ideal; the last two keep a proper ideal
# only when the auxiliary variable is eliminated.
SATURATIONS = [
    ("x^2*y^-1 + y^3 + x^-3", "11", ["1"], ()),
    ("x^7 + y^4 + x^-1*y^-1", "11", ["1"], ()),
    ("x*y*z + x^-2 + z^3 + y", "101", ["1"], ()),
    ("x^3 + y^3 + x^-1*y^-1", "11", ["x^3 + y^3", "x^4*y + 1", "x^7 + y^2"],
     ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2),
      (4, 0), (3, 1), (2, 2), (5, 0), (3, 2), (6, 0))),
    ("x^4 + y^4 + x^-1*y^-1 + x*y", "11", ["x^2*y^2 + 1"], None),
]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("text, flags, gens, staircase", SATURATIONS)
def test_saturated_presentations_are_pinned(text, flags, gens, staircase, k):
    ring = RingDescriptor(default_spec(k), ("x", "y", "z")[:len(flags)],
                          tuple(f == "1" for f in flags))
    pres = laurent_jacobian_ideal(parse_poly(text, ring))
    assert [str(g) for g in pres.generators] == gens
    q = quotient_ring(pres)
    assert q.staircase == staircase
    assert q.dimension == (None if staircase is None else len(staircase))


def test_a_series_jacobian_ideals():
    # W = x^2n + y^2 + xyz: the even-power terms die, partials are yz, xz, xy
    w = parse_poly("x^4 + y^2 + x*y*z", P3)
    pres = laurent_jacobian_ideal(w)
    assert set(map(str, pres.generators)) == {"x*y", "x*z", "y*z"}
    q = quotient_ring(pres)
    assert q.dimension is None  # infinite: no pure power of any variable
    # W0 = x^2n + y^2 has identically zero partials
    w0 = parse_poly("x^4 + y^2", P2)
    pres0 = laurent_jacobian_ideal(w0)
    assert pres0.generators == ()
    assert quotient_ring(pres0).dimension is None


def test_unit_ideal_quotient():
    q = QuotientRing(P2, [RingPoly.one(P2)])
    assert q.dimension == 0


def test_quotient_is_finite_only_with_a_pure_power_of_every_variable():
    assert QuotientRing(P2, [parse_poly("x^2", P2)]).dimension is None
    q = QuotientRing(P2, [parse_poly("x^2", P2), parse_poly("y^3", P2)])
    assert q.dimension == 6
    assert q.staircase == tuple(sorted(((a, b) for a in range(2) for b in range(3)),
                                       key=quotient_order))
    assert QuotientRing(P2, [parse_poly("x^2", P2), parse_poly("y^3", P2)]) == q


def test_quotient_dimension_limit(monkeypatch):
    """A staircase longer than the limit is refused while it is listed."""
    monkeypatch.setattr(groebner, "MAX_QUOTIENT_DIMENSION", 6)
    assert QuotientRing(P2, [parse_poly("x^2", P2), parse_poly("y^3", P2)]).dimension == 6
    with pytest.raises(ValueError, match="^quotient dimension above the limit of 6$"):
        QuotientRing(P2, [parse_poly("x^7", P2), parse_poly("y", P2)])


def test_class_vector_rejects_a_polynomial_from_another_ring():
    ctx = Rp2Context()
    with pytest.raises(ValueError, match="^ring mismatch$"):
        ctx.jacobian.class_vector(RingPoly.monomial(ctx.ring, (-1, 0)))  # Laurent ring
    assert ctx.jacobian.ring is not P2  # an equal ring built apart is accepted
    assert ctx.jacobian.class_vector(RingPoly.monomial(P2, (3, 1))) == [0, 1, 0]


def test_quotient_minimal_polynomial_edge_cases():
    assert QuotientRing(P2, [RingPoly.one(P2)]).minimal_polynomial() == RingPoly.one(
        RingDescriptor(GF2, ("x",), (False,)))
    with pytest.raises(ValueError, match="^quotient is infinite dimensional$"):
        QuotientRing(P2, [parse_poly("x^2", P2)]).minimal_polynomial()
    q = QuotientRing(P2, [parse_poly("x^2", P2), parse_poly("y^3", P2)])
    assert str(q.minimal_polynomial()) == "x^2"


def test_building_a_quotient_and_its_minimal_polynomial_builds_no_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("a FieldMatrix was built")

    monkeypatch.setattr(groebner, "FieldMatrix", refuse)
    q = quotient_ring(laurent_jacobian_ideal(parse_poly("x^31 + y^31", P2)))
    assert q.dimension == 900
    assert str(q.minimal_polynomial()) == "x^30"


@st.composite
def finite_quotients(draw):
    """A finite Jacobian quotient of x^a + y^b (a, b odd) plus up to three
    terms, in x, y over GF(2), GF(4) or GF(8), Laurent in no, one or both
    variables.  With no term added, x and y are nilpotent."""
    ring = RingDescriptor(default_spec(draw(st.sampled_from((1, 2, 3)))), ("x", "y"),
                          draw(st.sampled_from(((False, False), (True, False), (False, True),
                                                (True, True)))))
    exps = st.tuples(*(st.integers(-2 if f else 0, 4) for f in ring.laurent))
    terms = draw(st.dictionaries(exps, st.integers(1, ring.field.order - 1), max_size=3))
    terms.update({(draw(st.sampled_from((3, 5, 7))), 0): 1, (0, draw(st.sampled_from((3, 5, 7)))): 1})
    q = quotient_ring(laurent_jacobian_ideal(RingPoly(ring, terms)))
    assume(q.dimension)  # finite, and not the unit ideal
    return q


@settings(max_examples=120)
@given(finite_quotients())
@example(quotient_ring(laurent_jacobian_ideal(parse_poly("x^5 + y^7", P2))))
def test_quotient_minimal_polynomial_matches_the_matrix_route(q):
    """The first relation among the classes of 1, x, x^2, ... is the minimal
    polynomial of the multiplication matrix; a nilpotent x shows a power
    sequence that starts anywhere but 1."""
    assert q.minimal_polynomial() == minimal_polynomial(q.mult_matrices[0], q.ring.vars[0])


# Finite quotients whose multiplication matrices are not symmetric, so a
# transposed matrix acts differently: (potential, field degree, Laurent flags).
ACTIONS = [
    ("x^3 + y^3 + x^-1*y^-1", 1, (True, True)),
    ("x^5 + {2}*y^3 + x^-1*y", 2, (True, False)),
    ("x^5 + y^3 + {3}*x^2*y^2", 3, (False, False)),
]


@cache
def action_quotient(index):
    text, k, flags = ACTIONS[index]
    return quotient_ring(laurent_jacobian_ideal(
        parse_poly(text, RingDescriptor(default_spec(k), ("x", "y"), flags))))


@settings(max_examples=100)
@given(st.sampled_from(range(len(ACTIONS))), st.sampled_from((0, 1)), st.data())
def test_multiplication_matrices_act_on_classes(index, v, data):
    """Column j of the matrix of x_v is the class of x_v times the j-th
    standard monomial, so the matrix maps the class of p to that of x_v * p."""
    q = action_quotient(index)
    m = q.mult_matrices[v]
    assert any(m.at(i, j) != m.at(j, i) for i in range(m.rows) for j in range(i))
    exps = st.tuples(st.integers(0, 6), st.integers(0, 6))
    p = RingPoly(q.ring, data.draw(st.dictionaries(exps, st.integers(1, q.ring.field.order - 1),
                                                   max_size=5)))
    assert m.apply(q.class_vector(p)) == q.class_vector(RingPoly.variable(q.ring, q.ring.vars[v]) * p)


def test_minimal_polynomial_examples():
    # companion-style nilpotent block: M^2 = 0, M != 0
    m = FieldMatrix(GF2, 2, 2, [0, 1, 0, 0])
    assert str(minimal_polynomial(m)) == "x^2"
    ident = FieldMatrix.identity(GF2, 3)
    assert str(minimal_polynomial(ident)) == "x + 1"
    zero = FieldMatrix(GF2, 2, 2, [0, 0, 0, 0])
    assert str(minimal_polynomial(zero)) == "x"
    gf4 = default_spec(2)
    # scalar t: minimal polynomial x + t
    mt = FieldMatrix(gf4, 1, 1, [2])
    assert str(minimal_polynomial(mt)) == "x + {2}"


def test_minimal_polynomial_annihilates():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randrange(1, 5)
        m = FieldMatrix(GF2, n, n, [rng.randrange(2) for _ in range(n * n)])
        mp = minimal_polynomial(m)
        acc = FieldMatrix(GF2, n, n, [0] * (n * n))
        power = FieldMatrix.identity(GF2, n)
        maxdeg = max(e[0] for e in mp.terms)
        for d in range(maxdeg + 1):
            if (d,) in mp.terms:
                acc = acc + power
            power = power * m
        assert acc.entries == tuple([0] * (n * n))
