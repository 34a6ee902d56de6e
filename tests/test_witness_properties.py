"""The packed homotopy-witness check against the oracle's d(g).

HomotopyWitness checks d(g) = Q_Y g + g Q_X = f on Kronecker-packed ints,
one int per entry of g and f over the box hull(g) + hull(Q_X, Q_Y), joined
with hull(f), and leaves a box wider than MAX_WITNESS_BOX monomials, or one
outside the exponent range, to the entry kernel.  Here d(g) comes from
tests/oracles.py, which shares no code with either.  The factorizations
are the shipped fixtures in two and three variables, 2x2 ones in one
variable, plain and Laurent, over GF(2), GF(4) and GF(8), and GF(4) search
results, each conjugated by a random unit matrix, so Q has coefficients
other than 1; g maps X to X, X to forget(double(X)) or back.
"""

from __future__ import annotations

import functools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture, matrix_of, polys, rows_of
from oracles import gf_inv, gf_mul, oracle_add, oracle_matmul

from mf2.gf2k import default_spec
from mf2.mfcore import (HomotopyWitness, Morphism, UngradedMF, _packed_check, double, forget,
                        search_factorizations)
from mf2.ringmat import RingMatrix
from mf2.ringpoly import EXP_BOUND, RingDescriptor, RingPoly, parse_poly


@functools.cache
def _one_variable(k: int, laurent: bool) -> UngradedMF:
    """[[0, p], [p, 0]] with p = x, or x + x^-1 when Laurent: Q^2 = p^2 Id."""
    ring = RingDescriptor(default_spec(k), ("x",), (laurent,))
    p = parse_poly("x + x^-1" if laurent else "x", ring)
    zero = RingPoly.zero(ring)
    return UngradedMF(p * p, RingMatrix(ring, 2, 2, [zero, p, p, zero]))


@functools.cache
def _gf4_search_results() -> tuple[UngradedMF, ...]:
    """The 2x2 factorizations of x^2 + y^2 over GF(4) with entries in span{x, y}."""
    ring = RingDescriptor(default_spec(2), ("x", "y"), (False, False))
    w = parse_poly("x^2 + y^2", ring)
    return tuple(UngradedMF(w, q) for q in search_factorizations(w, 2, [(1, 0), (0, 1)]))


def _add(a, b):
    return [[oracle_add(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)]


@st.composite
def factorizations(draw):
    """A factorization as above, conjugated by U = D (I + c E_ab), D an
    invertible diagonal matrix: U Q U^-1 squares to W, as Q does."""
    k = draw(st.sampled_from((1, 2, 3)))
    bases = ["rp2", "an_r_1", "an_q_1", "plain", "laurent"] + ["search"] * (k == 2)
    base = draw(st.sampled_from(bases))
    if base == "search":
        x = draw(st.sampled_from(_gf4_search_results()))
    elif base in ("plain", "laurent"):
        x = _one_variable(k, base == "laurent")
    else:
        x = fixture(base, default_spec(k))
    n, m, order = x.size, x.ring.field.modulus, x.ring.field.order
    one = (0,) * x.ring.nvars
    d = draw(st.lists(st.integers(1, order - 1), min_size=n, max_size=n))
    a, b = draw(st.permutations(range(n)))[:2]
    c = draw(st.integers(0, order - 1))
    u = [[{one: d[i]} if i == j else {} for j in range(n)] for i in range(n)]
    u_inv = [[{one: gf_inv(d[i], m)} if i == j else {} for j in range(n)] for i in range(n)]
    if c:
        u[a][b] = {one: gf_mul(d[a], c, m)}
        u_inv[a][b] = {one: gf_mul(c, gf_inv(d[b], m), m)}
    q = oracle_matmul(oracle_matmul(u, rows_of(x.q), m), u_inv, m)
    return UngradedMF(x.w, matrix_of(x.ring, q))


def _oracle_d(source: UngradedMF, target: UngradedMF, g: RingMatrix):
    """d(g) = Q_target g + g Q_source, as the rows of term dicts."""
    m = g.ring.field.modulus
    return _add(oracle_matmul(rows_of(target.q), rows_of(g), m),
                oracle_matmul(rows_of(g), rows_of(source.q), m))


@settings(max_examples=60)
@given(st.data())
def test_packed_check_accepts_d_of_g_and_rejects_one_extra_term(data):
    x = data.draw(factorizations())
    ring = x.ring
    source, target = data.draw(st.sampled_from(
        ((x, x), (x, forget(double(x))), (forget(double(x)), x))))
    g = RingMatrix(ring, target.size, source.size,
                   [data.draw(polys(ring)) for _ in range(target.size * source.size)])
    f = _oracle_d(source, target, g)
    claim = matrix_of(ring, f)
    assert _packed_check(target.q, source.q, g, claim) is True
    assert HomotopyWitness(Morphism(source, target, claim), g).g == g

    i, j = data.draw(st.integers(0, g.rows - 1)), data.draw(st.integers(0, g.cols - 1))
    exps = data.draw(st.tuples(*(st.integers(-3 if flag else 0, 4) for flag in ring.laurent)))
    f[i][j] = oracle_add(f[i][j], {exps: data.draw(st.integers(1, ring.field.order - 1))})
    claim = matrix_of(ring, f)
    assert _packed_check(target.q, source.q, g, claim) is False
    with pytest.raises(ValueError, match="homotopy witness does not satisfy"):
        HomotopyWitness(Morphism(source, target, claim), g)


def test_a_witness_whose_box_is_above_the_limit_is_checked_entry_by_entry():
    """Two far corners make a box of about 2^60 monomials, which no packed
    int could hold under the test run's address-space cap; the entry kernel
    checks the sparse witness at once."""
    x = fixture("rp2", default_spec(2))
    ring = x.ring
    far = 1 << 29
    corner = matrix_of(ring, [[{(0, -far): 3} if (i, j) == (0, 1) else {} for j in range(4)]
                              for i in range(4)])
    g = corner + RingMatrix.identity(ring, 4).scale(parse_poly(f"{{2}}*x^{far}*y^{far} + x^-{far}", ring))
    f = _oracle_d(x, x, g)
    claim = matrix_of(ring, f)
    assert _packed_check(x.q, x.q, g, claim) is None
    start = time.perf_counter()
    HomotopyWitness(Morphism(x, x, claim), g)
    f[2][3] = oracle_add(f[2][3], {(far, 0): 1})
    with pytest.raises(ValueError, match="homotopy witness does not satisfy"):
        HomotopyWitness(Morphism(x, x, matrix_of(ring, f)), g)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("exps", [(EXP_BOUND - 1, 0), (0, -EXP_BOUND)])
def test_a_witness_whose_products_leave_the_exponent_range_raises_overflow(exps):
    """g = x^e Id commutes with Q, but Q g holds x^(e +- 1) outside the
    range: the box is three monomials wide, and still the check raises."""
    x = fixture("rp2")
    ring = x.ring
    g = RingMatrix.identity(ring, 4).scale(RingPoly.monomial(ring, exps))
    with pytest.raises(ValueError, match="exponent overflow"):
        HomotopyWitness(Morphism(x, x, RingMatrix.zeros(ring, 4, 4)), g)
