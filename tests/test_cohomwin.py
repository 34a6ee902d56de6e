"""Window cohomology tests.

Analytic oracles: for the 1x1 factorization [x+y] of x^2+y^2 the
differential vanishes identically and nothing is exact, so
h_d = dim B_d = (d+1)^2.  For Q = [[x, y], [y, x]] the differential is
f -> y*[[b+c, a+d], [a+d, b+c]]: closed means a=d and b=c (kernel
dimension 2(d+1)^2), and a coboundary y*u lands inside B_d exactly
when u has y-degree at most d-1 (2d(d+1) of those), so
h_d = 2(d+1)^2 - 2d(d+1) = 2d+2.  The 4x4 Laurent fixture rp2
has three-dimensional stable cohomology.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import FIXTURES, delta_columns, fixture

from mf2.cohomwin import (
    Window,
    certify_at_point,
    cohomology_dims,
    find_critical_points,
    solve_exactness,
)
from mf2.gf2k import GF2, FieldSpec, default_spec
from mf2.mfcore import HomotopyWitness, Morphism, UngradedMF, contract_at_noncritical, parse_mf_text
from mf2.ringmat import Echelon, RingMatrix, parse_matrix
from mf2.ringpoly import RingDescriptor, RingPoly, parse_poly

P2 = RingDescriptor(GF2, ("x", "y"), (False, False))
L2 = RingDescriptor(GF2, ("x", "y"), (True, True))


def scalar_line():
    w = parse_poly("x^2 + y^2", P2)
    q = parse_matrix("x + y", P2)
    return UngradedMF(w, q)


def a1():
    w = parse_poly("x^2 + y^2", P2)
    q = parse_matrix("x, y; y, x", P2)
    return UngradedMF(w, q)


def test_window_basics():
    win = Window.symmetric(L2, 2)
    assert win.bounds == ((-2, 2), (-2, 2))
    assert win.size == 25
    assert len(win.monomials()) == 25
    assert (-2, 1) in win.monomials() and (3, 0) not in win.monomials()
    pwin = Window.symmetric(P2, 2)
    assert pwin.bounds == ((0, 2), (0, 2))
    assert pwin.size == 9


def test_window_expansion_clamps_polynomial_variables():
    pwin = Window.symmetric(P2, 1)
    grown = pwin.expanded([(-1, 1), (0, 2)])
    assert grown.bounds == ((0, 2), (0, 3))
    lwin = Window.symmetric(L2, 1)
    assert lwin.expanded([(-1, 1), (-1, 1)]).bounds == ((-2, 2), (-2, 2))


def test_empty_window():
    win = Window.symmetric(P2, -1)
    assert win.size == 0
    assert win.monomials() == []


def test_window_rejects_negative_bound_on_polynomial_variable():
    with pytest.raises(ValueError, match="non-Laurent"):
        Window(P2, ((-1, 1), (0, 1)))


def test_delta_matrix_small_oracle():
    x = a1()
    win = Window.symmetric(P2, 0)
    out = win.expanded([(0, 1), (0, 1)])
    cols = delta_columns(x, x, win, out)
    # columns: unit matrices e_00, e_01, e_10, e_11 at the constant monomial;
    # d(e_00) = y*(e_01 + e_10), so each column has exactly two entries
    assert len(cols) == 4
    ech = Echelon(P2.field)
    y_block = out.monomials().index((0, 1))
    assert ech.unpack(cols[0], 4 * out.size) == [
        1 if slot in (4 * y_block + 1, 4 * y_block + 2) else 0 for slot in range(4 * out.size)
    ]
    for col in cols:
        assert col < 1 << 4 * out.size
        assert sum(map(bool, ech.unpack(col, 4 * out.size))) == 2
    ech.insert_all(cols)
    assert len(ech.rows) == 2


def test_window_overflow_raises():
    x = a1()
    win = Window.symmetric(P2, 1)
    with pytest.raises(ValueError, match="window overflow"):
        delta_columns(x, x, win, win)


def test_cohomology_scalar_line():
    x = scalar_line()
    assert cohomology_dims(x, x, 3) == {d: (d + 1) ** 2 for d in (1, 2, 3)}


def test_cohomology_a1():
    x = a1()
    assert cohomology_dims(x, x, 3) == {d: 2 * d + 2 for d in (1, 2, 3)}


def test_cohomology_of_a_constant_factorization_is_zero():
    """Q = [[0, 1], [1, 0]] squares to 1 and is invertible, so Hom is
    contractible.  Its support hull is {0}: the output window is the
    domain window itself, and every output monomial is a domain key."""
    for ring in (P2, L2):
        x = UngradedMF(parse_poly("1", ring), parse_matrix("0, 1; 1, 0", ring))
        assert cohomology_dims(x, x, 3) == {1: 0, 2: 0, 3: 0}


def test_cohomology_rp2_stabilizes_at_three():
    x = fixture("rp2")
    dims = cohomology_dims(x, x, 3)
    assert dims[2] == 3
    assert dims[3] == 3


@pytest.mark.parametrize("d_max, inserts", [(2, 503), (4, 1147), (6, 2047)])
def test_cleared_columns_are_never_inserted(monkeypatch, d_max, inserts):
    """Of the 16 * (2*d_max + 3)^2 columns (784, 1936, 3600), those whose
    output coordinate is already a pivot are dependent (d^2 = 0) and are
    skipped; the dimensions stay those of the full elimination.  Counted
    are the vectors insert_all reads, and the echelon's own count agrees."""
    consumed, echelons = [], set()
    insert_all = Echelon.insert_all

    def counting(self, vectors):
        echelons.add(self)
        return insert_all(self, (consumed.append(v) or v for v in vectors))

    monkeypatch.setattr(Echelon, "insert_all", counting)
    x = fixture("rp2")
    assert cohomology_dims(x, x, d_max) == {d: 3 for d in range(1, d_max + 1)}
    assert len(consumed) == inserts
    assert [ech.count for ech in echelons] == [inserts]


@pytest.mark.parametrize("radius, inserts", [(1, 115), (2, 279), (3, 507)])
def test_solve_exactness_skips_cleared_columns(monkeypatch, radius, inserts):
    """Of the 16 * (2*radius + 1)^2 columns (144, 400, 784), the solve
    builds and inserts only those whose output coordinate is not yet a
    pivot, whether or not f is exact.  Counted are the vectors insert_all
    reads, and the echelon's own count agrees."""
    consumed, echelons = [], []
    insert_all = Echelon.insert_all

    def counting(self, vectors):
        echelons.append(self)
        return insert_all(self, (consumed.append(v) or v for v in vectors))

    monkeypatch.setattr(Echelon, "insert_all", counting)
    x = fixture("rp2")
    ident = RingMatrix.identity(L2, 4)
    for f, exact in ((ident, False), (ident.scale(x.w.partial("x")), True)):
        consumed.clear()
        echelons.clear()
        wit = solve_exactness(Morphism(x, x, f), Window.symmetric(L2, radius))
        assert (wit is not None) == exact
        assert len(consumed) == inserts
        assert [ech.count for ech in echelons] == [inserts]


def test_solve_exactness_on_an_empty_window():
    """An empty window holds only g = 0, which solves f = 0 alone."""
    x = fixture("rp2")
    empty = Window(L2, ((1, 0), (0, 0)))
    assert empty.size == 0
    wit = solve_exactness(Morphism(x, x, RingMatrix.zeros(L2, 4, 4)), empty)
    assert wit is not None and wit.g.is_zero()
    assert solve_exactness(Morphism(x, x, RingMatrix.identity(L2, 4)), empty) is None


def test_solve_exactness_round_trip():
    x = a1()
    rng = random.Random(99)
    win = Window.symmetric(P2, 2)
    mons = win.monomials()
    for _ in range(5):
        entries = []
        for _ in range(4):
            terms = {}
            for e in rng.sample(mons, 3):
                terms[e] = 1
            entries.append(RingPoly(P2, terms))
        g = RingMatrix(P2, 2, 2, entries)
        f = Morphism(x, x, x.q * g + g * x.q)
        wit = solve_exactness(f, win)
        assert wit is not None
        assert x.q * wit.g + wit.g * x.q == f.f


def test_solve_exactness_rejects_nonexact():
    x = a1()
    ident = Morphism(x, x, RingMatrix.identity(P2, 2))
    assert ident.is_closed()
    assert solve_exactness(ident, Window.symmetric(P2, 3)) is None


def test_solve_exactness_matches_closed_form_witness():
    x = fixture("rp2")
    dw = x.w.partial("x")
    f = Morphism(x, x, RingMatrix.identity(L2, 4).scale(dw))
    wit = solve_exactness(f, Window.symmetric(L2, 2))
    assert wit is not None
    assert x.q * wit.g + wit.g * x.q == f.f


@pytest.mark.parametrize("field", ["2^1 modulus 11", "2^2 modulus 111"])
def test_double_rp2_identity_has_a_null_homotopy_at_radius_one(field):
    """A second route to h_d(double_rp2) = 0, beside the rank pass: the
    identity of double_rp2 is exact with a witness inside the radius-1
    window, over GF(2) and over GF(4), and with none inside radius 0.  The
    witness is checked symbolically, d(g) = Id through Morphism.differential."""
    text = (FIXTURES / "double_rp2.mf").read_text()
    mff = parse_mf_text(text.replace("field: 2^1 modulus 11", f"field: {field}", 1))
    x = UngradedMF(mff.w, mff.q)
    assert f"2^{x.ring.field.k}" == field.split()[0]
    ident = Morphism(x, x, RingMatrix.identity(x.ring, x.size))
    assert solve_exactness(ident, Window.symmetric(x.ring, 0)) is None
    wit = solve_exactness(ident, Window.symmetric(x.ring, 1))
    assert isinstance(wit, HomotopyWitness)
    assert Morphism(x, x, wit.g).differential().f == ident.f


def test_column_limit_refuses_before_listing_any_monomial(monkeypatch):
    # radius 131: 263^2 = 69169 domain monomials pass the window limit,
    # but 16 cells make 1106704 columns, above 2^20
    x = fixture("rp2")
    listed = []
    monkeypatch.setattr(Window, "monomials", lambda self: listed.append(self) or [])
    monkeypatch.setattr(Window, "keys", lambda self: listed.append(self) or [])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="differential has 1106704 columns, above the limit of 1048576"):
        cohomology_dims(x, x, 130)
    with pytest.raises(ValueError, match="differential has 1106704 columns"):
        solve_exactness(Morphism(x, x, RingMatrix.identity(L2, 4)), Window.symmetric(L2, 131))
    assert time.perf_counter() - start < 0.5
    assert listed == []


def test_critical_points():
    w = parse_poly("x + y + x^-1*y^-1", L2)
    over2 = find_critical_points(w, GF2)
    assert len(over2) == 1
    gf4 = default_spec(2)
    pts = find_critical_points(w, gf4)
    assert len(pts) == 3
    for p in pts:
        assert p[0] == p[1]
        assert gf4.mul(gf4.mul(p[0].value, p[0].value), p[0].value) == 1


def test_critical_point_search_refuses_huge_point_sets_fast():
    spec = FieldSpec(8, 0b100011011)  # x^8 + x^4 + x^3 + x + 1
    ring = RingDescriptor(spec, ("x", "y", "z"), (False, False, False))
    w = parse_poly("x*y*z + x^2", ring)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="16777216 field points"):
        find_critical_points(w, spec)
    assert time.perf_counter() - start < 0.5


def test_certify_at_critical_point():
    x = fixture("rp2")
    ident = RingMatrix.identity(L2, 4)
    exact = x.q * ident + ident * x.q  # zero, stand-in for an exact class
    one = GF2.element(1)
    rep = certify_at_point(x, x, (one, one), [ident, exact])
    assert rep.local_dim == rep.kernel_dim - rep.image_dim
    assert rep.local_dim > 0
    assert not rep.is_exact(0)  # identity survives at a critical point
    assert rep.is_exact(1)


def test_end_certificate_specializes_q_once(monkeypatch):
    x = fixture("rp2")
    calls = []
    evaluate = RingPoly.evaluate

    def counting(self, point):
        calls.append(self)
        return evaluate(self, point)

    monkeypatch.setattr(RingPoly, "evaluate", counting)
    one = GF2.element(1)
    rep = certify_at_point(x, x, (one, one), [RingMatrix.identity(L2, 4)])
    assert not rep.is_exact(0)
    assert len(calls) == 32  # the 16 entries of Q once, then the 16 of the class


def test_certify_at_noncritical_point_is_trivial():
    x = fixture("rp2")
    gf4 = default_spec(2)
    crit = set(find_critical_points(x.w, gf4))
    noncrit = next(
        p for p in ((gf4.element(a), gf4.element(b))
                    for a in range(1, 4) for b in range(1, 4))
        if p not in crit
    )
    rep = certify_at_point(x, x, noncrit, [RingMatrix.identity(L2, 4)])
    assert rep.local_dim == 0
    assert rep.is_exact(0)
    # cross-check with the closed-form contraction
    var = "x" if x.w.partial("x").evaluate(noncrit) else "y"
    contract_at_noncritical(x, noncrit, var)


def test_certify_scalar_classes_scale_coordinates():
    x = fixture("rp2")
    gf4 = default_spec(2)
    xv = RingPoly.variable(L2, "x")
    classes = [
        RingMatrix.identity(L2, 4),
        RingMatrix.identity(L2, 4).scale(xv),
        RingMatrix.identity(L2, 4).scale(xv * xv),
    ]
    for p in find_critical_points(x.w, gf4):
        rep = certify_at_point(x, x, p, classes)
        a = p[0].value
        base = rep.class_coordinates[0]
        got1 = rep.class_coordinates[1]
        got2 = rep.class_coordinates[2]
        assert got1 == tuple(gf4.mul(a, c) for c in base)
        assert got2 == tuple(gf4.mul(gf4.mul(a, a), c) for c in base)
        assert not rep.is_exact(0)


def test_certify_rejects_nonclosed_class():
    x = a1()
    bad = RingMatrix(P2, 2, 2, [
        RingPoly.one(P2), RingPoly.zero(P2),
        RingPoly.zero(P2), RingPoly.zero(P2),
    ])
    one = GF2.element(1)
    with pytest.raises(ValueError, match="not closed"):
        certify_at_point(x, x, (one, one), [bad])
