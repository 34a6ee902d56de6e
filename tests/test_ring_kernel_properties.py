"""Property tests of the multiply-accumulate kernel against the old products.

The oracles, in tests/oracles.py, are the loops the kernel replaced: a
polynomial product with one field multiplication per term pair on
exponent tuples, and a matrix product that folds `acc + a*b` entry by
entry, both on plain term dicts.  The fused RingPoly and
RingMatrix products on packed keys must equal them exactly and keep no
zero coefficient, over GF(2)..GF(16), Laurent and non-Laurent rings,
non-square shapes, unit monomials with any coefficient, and sums that
cancel.  At the exponent bound the packed product must equal the oracle
whenever every exponent sum is in range and raise otherwise, and the
products, sums and scalings must never unpack a key.  The keys of a box of
exponent bounds must equal one pack per vector, in itertools.product
order, and raise pack's errors where pack does.

Sums of products (commutator, Morphism.differential, and the kernel they
share with the matrix product) are checked against the sympy oracle,
which shares no code with the kernel: over GF(2)[t, x, ...] with a
GF(2^k) coefficient's bit i carried by t^i, each entry is the sum of its
products reduced modulo the field's modulus in t.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import fixture, matrix_of, polys, rings, rows_of
from oracles import oracle_add, oracle_matmul, oracle_mul, sympy_sum_of_products

from mf2.gf2k import default_spec
from mf2.mfcore import Morphism, double, forget
from mf2.paperlab import Rp2Context, random_matrix, random_poly
from mf2.ringmat import RingMatrix, commutator
from mf2.ringpoly import EXP_BOUND, RingDescriptor, RingPoly

FIELDS = [default_spec(k) for k in (1, 2, 3, 4)]
PROPERTY = settings(max_examples=80)


# -- strategies -------------------------------------------------------------------------


@st.composite
def matrices(draw, ring, rows, cols):
    """Entries drawn from a small pool, so equal products meet and cancel."""
    pool = draw(st.lists(polys(ring), min_size=1, max_size=4))
    entries = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    return RingMatrix(ring, rows, cols, entries)


@st.composite
def matrix_pairs(draw):
    ring = draw(rings(FIELDS))
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(matrices(ring, r, k)), draw(matrices(ring, k, c))


def assert_clean(p: RingPoly, ring: RingDescriptor) -> None:
    assert p.ring is ring
    assert all(p.terms.values()), p.terms


# -- the kernel against the oracle ------------------------------------------------


@PROPERTY
@given(st.data())
def test_poly_product_equals_oracle(data):
    ring = data.draw(rings(FIELDS))
    a, b = data.draw(polys(ring)), data.draw(polys(ring))
    got = a * b
    assert got.terms == oracle_mul(a.terms, b.terms, ring.field.modulus)
    assert_clean(got, ring)
    assert (a + b) * (a + b) == a * a + b * b  # the cross terms cancel in characteristic 2


@PROPERTY
@given(matrix_pairs())
def test_matrix_product_equals_oracle(pair):
    m, n = pair
    got = m * n
    want = oracle_matmul(rows_of(m), rows_of(n), m.ring.field.modulus)
    assert (got.rows, got.cols) == (m.rows, n.cols)
    assert got == matrix_of(m.ring, want)
    for e in got.entries:
        assert_clean(e, m.ring)


@PROPERTY
@given(st.data())
def test_scale_and_sum_equal_oracle(data):
    ring = data.draw(rings(FIELDS))
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    m = data.draw(matrices(ring, rows, cols))
    n = data.draw(matrices(ring, rows, cols))
    c = data.draw(polys(ring))
    scaled = m.scale(c)
    assert scaled.entries == tuple(RingPoly(ring, oracle_mul(c.terms, e.terms, ring.field.modulus))
                                   for e in m.entries)
    assert (m + n).entries == tuple(RingPoly(ring, oracle_add(a.terms, b.terms))
                                    for a, b in zip(m.entries, n.entries))
    assert (m + m).is_zero()
    for e in scaled.entries + (m + n).entries:
        assert_clean(e, ring)


def test_equal_rings_built_apart_still_multiply():
    spec = default_spec(2)
    r1 = RingDescriptor(spec, ("x", "y"), (True, False))
    r2 = RingDescriptor(spec, ("x", "y"), (True, False))
    assert r1 == r2 and r1 is not r2
    p = RingPoly(r1, {(-1, 0): 2, (0, 1): 1})
    q = RingPoly(r2, {(1, 1): 3})
    assert (p * q).terms == oracle_mul(p.terms, q.terms, spec.modulus)
    m = RingMatrix(r1, 1, 2, [p, q])
    n = RingMatrix(r2, 2, 1, [q, p])
    assert m * n == matrix_of(r1, oracle_matmul(rows_of(m), rows_of(n), spec.modulus))
    assert (m + RingMatrix(r2, 1, 2, [q, p])).entries == (p + q, p + q)
    assert m.scale(RingPoly.one(r2)) == m


@pytest.mark.parametrize("op", ["poly*", "poly+", "matrix*", "matrix+", "matrix.scale"])
def test_ring_mismatch_is_rejected(op):
    spec = default_spec(2)
    r1 = RingDescriptor(spec, ("x", "y"), (True, True))
    r2 = RingDescriptor(spec, ("x", "z"), (True, True))
    p1, p2 = RingPoly.one(r1), RingPoly.one(r2)
    m1, m2 = RingMatrix.identity(r1, 2), RingMatrix.identity(r2, 2)
    calls = {
        "poly*": lambda: p1 * p2,
        "poly+": lambda: p1 + p2,
        "matrix*": lambda: m1 * m2,
        "matrix+": lambda: m1 + m2,
        "matrix.scale": lambda: m1.scale(p2),
    }
    with pytest.raises(ValueError, match="^ring mismatch$"):
        calls[op]()


# -- delta squares to zero ----------------------------------------------------------


@settings(max_examples=30)
@given(st.sampled_from(("an_q_1", "an_r_1", "rp2")), st.sampled_from(FIELDS[:2]), st.data())
def test_delta_squares_to_zero(name, spec, data):
    """d(d(g)) = Q^2 g + g Q^2 = 2W g = 0 because Q^2 = W*Id, over GF(2)
    and lifted to GF(4)."""
    q = fixture(name, spec).q
    g = data.draw(matrices(q.ring, q.rows, q.rows))
    assert commutator(q, commutator(q, g)).is_zero()


# -- sums of products against sympy ---------------------------------------------------


# No shrinking: each example runs the sympy oracle, and shrinking the
# counterexample of a kernel fault took most of the per-test time limit.
SUMS = settings(max_examples=40,
                phases=[p for p in settings.default.phases if p is not Phase.shrink])


def assert_sum_matches(got: RingMatrix, pairs) -> None:
    plain = [(rows_of(left), rows_of(right)) for left, right in pairs]
    assert got == matrix_of(got.ring, sympy_sum_of_products(plain, got.ring.vars, got.ring.field.modulus))
    for e in got.entries:
        assert_clean(e, got.ring)


@SUMS
@given(st.data())
def test_sum_of_products_equals_sympy_products_summed(data):
    """Two pairs of any shapes that meet in one r x c output, and the
    square commutator [a, b] = ab + ba, over GF(2) and GF(4)."""
    ring = data.draw(rings(FIELDS[:2]))
    r, k1, k2, c = (data.draw(st.integers(1, 4)) for _ in range(4))
    pairs = ((data.draw(matrices(ring, r, k1)), data.draw(matrices(ring, k1, c))),
             (data.draw(matrices(ring, r, k2)), data.draw(matrices(ring, k2, c))))
    assert_sum_matches(RingMatrix._sum_of_products(pairs), pairs)
    a, b = data.draw(matrices(ring, r, r)), data.draw(matrices(ring, r, r))
    assert_sum_matches(commutator(a, b), ((a, b), (b, a)))


@SUMS
@given(st.sampled_from(FIELDS[:2]), st.booleans(), st.data())
def test_hom_differential_equals_sympy_products_summed(spec, outward, data):
    """d(f) = Q_t*f + f*Q_s between a 2x2 factorization and its 4x4
    fold: 4x4 * 4x2 + 4x2 * 2x2, and 2x4 * 4x4 + 2x2 * 2x4."""
    small = fixture("an_r_1", spec)
    source, target = (small, forget(double(small))) if outward else (forget(double(small)), small)
    f = data.draw(matrices(small.ring, target.size, source.size))
    got = Morphism(source, target, f).differential().f
    assert_sum_matches(got, ((target.q, f), (f, source.q)))


@PROPERTY
@given(st.data())
def test_sums_of_products_that_cancel_leave_empty_entries(data):
    """(c*m)*n + m*(c*n) = 2c*mn and [a, a] = 2a^2 vanish term by term."""
    ring = data.draw(rings(FIELDS[:2]))
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    m, n = data.draw(matrices(ring, r, k)), data.draw(matrices(ring, k, c))
    scalar = data.draw(polys(ring))
    a = data.draw(matrices(ring, r, r))
    for got in (RingMatrix._sum_of_products(((m.scale(scalar), n), (m, n.scale(scalar)))),
                commutator(a, a)):
        assert all(e.packed == {} for e in got.entries)


# -- the packed layout at the exponent bound -------------------------------------------


EDGE = (-EXP_BOUND, -EXP_BOUND + 1, -1, 0, 1, EXP_BOUND // 2, EXP_BOUND - 2, EXP_BOUND - 1)
NAMES = ("x", "y", "z", "w")


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_pack_unpack_round_trip_at_the_bound(nvars):
    ring = RingDescriptor(default_spec(1), NAMES[:nvars], (True,) * nvars)
    values = (-EXP_BOUND, -1, 0, 1, EXP_BOUND - 1)
    keys = set()
    for exps in itertools.product(values, repeat=nvars):
        key = ring.pack(exps)
        assert ring.unpack(key) == exps
        keys.add(key)
    assert len(keys) == len(values) ** nvars
    for i in range(nvars):
        for bad in (EXP_BOUND, -EXP_BOUND - 1):
            exps = [0] * nvars
            exps[i] = bad
            with pytest.raises(ValueError, match="outside"):
                ring.pack(exps)
    polynomial = ring.polynomialized()
    assert polynomial.unpack(polynomial.pack([EXP_BOUND - 1] * nvars)) == (EXP_BOUND - 1,) * nvars
    with pytest.raises(ValueError, match="non-Laurent"):
        polynomial.pack([-1] * nvars)


PACK_ERRORS = (r"^(negative exponent on non-Laurent variable '\w'"
               r"|exponent -?\d+ of '\w' outside \[-2\^30, 2\^30\))$")


@PROPERTY
@given(st.data())
def test_box_keys_equal_one_pack_per_monomial(data):
    """box_keys lists pack(e) for every e of itertools.product over the
    bounds, in that order, with bounds at and next to +-EXP_BOUND and
    empty boxes; where one of those packs raises, box_keys raises pack's
    ValueError."""
    nvars = data.draw(st.integers(1, 3))
    laurent = tuple(data.draw(st.lists(st.booleans(), min_size=nvars, max_size=nvars)))
    ring = RingDescriptor(default_spec(1), NAMES[:nvars], laurent)
    anchors = st.sampled_from((-EXP_BOUND - 1, -EXP_BOUND, -2, 0, EXP_BOUND - 3, EXP_BOUND))
    bounds = []
    for _ in range(nvars):
        lo = data.draw(anchors) + data.draw(st.integers(-1, 2))
        bounds.append((lo, lo + data.draw(st.integers(-1, 3))))
    try:
        want = [ring.pack(e) for e in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))]
    except ValueError:
        with pytest.raises(ValueError, match=PACK_ERRORS):
            ring.box_keys(bounds)
    else:
        assert ring.box_keys(bounds) == want


def test_box_keys_refuse_what_pack_refuses():
    ring = RingDescriptor(default_spec(1), ("x", "y"), (False, True))
    with pytest.raises(ValueError, match="^negative exponent on non-Laurent variable 'x'$"):
        ring.box_keys([(-1, 1), (0, 0)])
    with pytest.raises(ValueError, match=r"^exponent 1073741824 of 'y' outside \[-2\^30, 2\^30\)$"):
        ring.box_keys([(0, 1), (EXP_BOUND - 2, EXP_BOUND)])
    with pytest.raises(ValueError, match=r"^exponent -1073741825 of 'y' outside"):
        ring.box_keys([(0, 0), (-EXP_BOUND - 1, 0)])
    # an empty box lists nothing, so nothing is refused
    assert ring.box_keys([(-5, 1), (EXP_BOUND, EXP_BOUND - 1)]) == []
    assert ring.box_keys([(0, 1), (-EXP_BOUND, -EXP_BOUND)]) == [ring.pack((0, -EXP_BOUND)),
                                                                 ring.pack((1, -EXP_BOUND))]


@st.composite
def edge_polys(draw, ring):
    """Up to three terms with exponents at and next to the bound."""
    exps = st.tuples(*(st.sampled_from([e for e in EDGE if flag or e >= 0])
                       for flag in ring.laurent))
    coeffs = st.integers(1, ring.field.order - 1)
    return RingPoly(ring, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3)))


@PROPERTY
@given(st.data())
def test_packed_product_at_the_bound_equals_oracle_or_raises(data):
    spec = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 4))
    laurent = tuple(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    ring = RingDescriptor(spec, NAMES[:n], laurent)
    a, b, c = (data.draw(edge_polys(ring)) for _ in range(3))

    def in_range(p, q):
        return all(-EXP_BOUND <= x + y < EXP_BOUND
                   for e1 in p.terms for e2 in q.terms for x, y in zip(e1, e2))

    row = RingMatrix(ring, 1, 2, [a, RingPoly.zero(ring)])
    col = RingMatrix(ring, 2, 1, [b, b])
    one_by_one = RingMatrix(ring, 1, 1, [c])
    pairs = ((row, col), (one_by_one, one_by_one))  # a*b + c*c
    mod = spec.modulus
    if in_range(a, b):
        assert (a * b).terms == oracle_mul(a.terms, b.terms, mod)
        assert row * col == matrix_of(ring, oracle_matmul(rows_of(row), rows_of(col), mod))
        assert row.scale(b).entries[0] == RingPoly(ring, oracle_mul(a.terms, b.terms, mod))
    else:
        for product in (lambda: a * b, lambda: row * col, lambda: row.scale(b)):
            with pytest.raises(ValueError, match="exponent overflow"):
                product()
    if in_range(a, b) and in_range(c, c):
        got = RingMatrix._sum_of_products(pairs).entries[0]
        assert got == RingPoly(ring, oracle_add(oracle_mul(a.terms, b.terms, mod),
                                                oracle_mul(c.terms, c.terms, mod)))
        assert_clean(got, ring)
    else:
        with pytest.raises(ValueError, match="exponent overflow"):
            RingMatrix._sum_of_products(pairs)


def test_products_sums_and_scalings_never_unpack(monkeypatch):
    ctx = Rp2Context(default_spec(2))
    rng = random.Random(17)
    g, h = (random_matrix(ctx.ring, rng, 4, 4, span=3, max_terms=4) for _ in range(2))
    c = random_poly(ctx.ring, rng, span=3, max_terms=4)
    unpacked = []
    unpack = RingDescriptor.unpack
    monkeypatch.setattr(RingDescriptor, "unpack",
                        lambda ring, key: unpacked.append(key) or unpack(ring, key))
    d = commutator(ctx.q, g)
    f = h.block(0, 4, 0, 2)
    hom = RingMatrix._sum_of_products(((g, f), (f, g.block(0, 2, 0, 2))))
    results = [d, hom, g * h, g.scale(c), g + h, d + g]
    a, b = g.at(0, 0), h.at(1, 2)
    assert a * b + b * a == RingPoly.zero(ctx.ring)
    assert len({hash(e) for m in results for e in m.entries}) > 1
    assert unpacked == []
    str(d)  # the printer reads the exponent-tuple view, which does unpack
    assert unpacked
