"""Matrix layer tests. The 4x4 specialization oracle: the projective-plane
matrix at (1,1) over GF(2) is the all-ones matrix minus the diagonal, and it
squares to the identity there, so its rank is 4."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import echelon_solve, kernel_basis

from mf2.gf2k import GF2, default_spec
from mf2.ringmat import (
    FieldMatrix,
    RingMatrix,
    block2,
    blocks_of,
    commutator,
    gf2_rank,
    gf2_solve_combination,
    matrix_partial,
    parse_matrix,
    rank,
    specialize,
)
from mf2.ringpoly import ParseError, RingDescriptor, RingPoly, parse_poly


L2 = RingDescriptor(GF2, ("x", "y"), (True, True))


def M(text, ring=L2):
    return parse_matrix(text, ring)


RP2_TEXT = "0, 1, 1, x^-1*y^-1; y, 0, x^-1, 1; x, y^-1, 0, 1; 1, x, y, 0"


def test_parse_and_print_round_trip():
    q = M(RP2_TEXT)
    assert q.rows == q.cols == 4
    assert str(q) == RP2_TEXT
    assert M(str(q)) == q


def test_block_assembly_matches_direct_transcription():
    u = M("0, 1; y, 0")
    v = M("1, x^-1*y^-1; x^-1, 1")
    x = RingPoly.variable(L2, "x")
    q = block2(u, v, v.scale(x), u)
    assert q == M(RP2_TEXT)
    a, b, c, d = blocks_of(q)
    assert (a, b, d) == (u, v, u)
    assert c == v.scale(x)


@st.composite
def aligned_grids(draw, square=False):
    """Four blocks [[a, b], [c, d]] whose rows and columns line up, each
    side 1-3 long (all four equal when `square`), with random Laurent
    monomial sums as entries."""
    if square:
        top = bottom = left = right = draw(st.integers(1, 3))
    else:
        top, bottom, left, right = (draw(st.integers(1, 3)) for _ in range(4))
    polys = st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.just(1), max_size=3
    ).map(lambda terms: RingPoly(L2, terms))

    def matrix(r, c):
        return RingMatrix(L2, r, c, draw(st.lists(polys, min_size=r * c, max_size=r * c)))

    return (matrix(top, left), matrix(top, right),
            matrix(bottom, left), matrix(bottom, right))


@settings(max_examples=60)
@given(aligned_grids())
def test_block_slices_what_block2_assembles(grid):
    a, b, c, d = grid
    m = block2(a, b, c, d)
    r, k = a.rows, a.cols
    assert (m.rows, m.cols) == (r + c.rows, k + b.cols)
    assert m.block(0, r, 0, k) == a
    assert m.block(0, r, k, m.cols) == b
    assert m.block(r, m.rows, 0, k) == c
    assert m.block(r, m.rows, k, m.cols) == d
    assert m == RingMatrix.from_rows(
        L2, [list(a.row(i)) + list(b.row(i)) for i in range(r)]
        + [list(c.row(i)) + list(d.row(i)) for i in range(c.rows)])


@settings(max_examples=30)
@given(aligned_grids(square=True))
def test_blocks_of_inverts_block2_on_equal_squares(grid):
    assert blocks_of(block2(*grid)) == grid


def test_block2_rejects_misaligned_blocks_and_mixed_rings():
    one = RingMatrix.identity(L2, 1)
    row = M("x, y")
    col = M("x; y")
    assert block2(one, row, col, M("1, 0; 0, 1")).rows == 3
    with pytest.raises(ValueError, match="line up"):
        block2(one, one, col, one)  # c is taller than d
    with pytest.raises(ValueError, match="line up"):
        block2(one, row, one, one)  # b is wider than d
    with pytest.raises(ValueError, match="line up"):
        block2(col, one, one, one)  # a is taller than b
    other = RingMatrix.identity(RingDescriptor(GF2, ("x", "y"), (False, False)), 1)
    for i in range(4):
        blocks = [one] * 4
        blocks[i] = other
        with pytest.raises(ValueError, match="ring mismatch"):
            block2(*blocks)
    with pytest.raises(ValueError, match="out of range"):
        M("x, y").block(0, 1, 1, 3)
    with pytest.raises(ValueError, match="out of range"):
        M("x, y").block(1, 1, 0, 2)


def test_matrix_square_of_factorization():
    q = M(RP2_TEXT)
    w = parse_poly("x + y + x^-1*y^-1", L2)
    assert q * q == RingMatrix.identity(L2, 4).scale(w)


def test_commutator_is_symmetric_in_char2():
    rng = random.Random(3)
    for _ in range(20):
        def rnd():
            return RingMatrix(
                L2, 2, 2,
                [
                    RingPoly(L2, {(rng.randrange(-2, 3), rng.randrange(-2, 3)): 1})
                    for _ in range(4)
                ],
            )
        a, b = rnd(), rnd()
        assert commutator(a, b) == commutator(b, a)


def test_matrix_partial_entrywise():
    q = M(RP2_TEXT)
    dq = matrix_partial(q, "x")
    assert dq.at(0, 3) == parse_poly("x^-2*y^-1", L2)
    assert dq.at(1, 2) == parse_poly("x^-2", L2)
    assert dq.at(3, 1) == parse_poly("1", L2)
    assert dq.at(0, 1).is_zero()


def test_specialize_at_ones():
    q = M(RP2_TEXT)
    one = GF2.element(1)
    s = specialize(q, (one, one))
    assert s.entries == (0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0)
    assert rank(s) == 4


def test_specialize_is_multiplicative():
    rng = random.Random(17)
    gf4 = default_spec(2)
    pts = [(gf4.element(a), gf4.element(b)) for a in (1, 2, 3) for b in (1, 2, 3)]
    for _ in range(15):
        def rnd():
            return RingMatrix(
                L2, 2, 2,
                [
                    RingPoly(L2, {(rng.randrange(-2, 3), rng.randrange(-2, 3)): 1 for _ in range(2)})
                    for _ in range(4)
                ],
            )
        a, b = rnd(), rnd()
        pt = pts[rng.randrange(len(pts))]
        assert specialize(a * b, pt) == specialize(a, pt) * specialize(b, pt)
        assert specialize(a + b, pt) == specialize(a, pt) + specialize(b, pt)


def test_gf2_rank_bitset_rows():
    # rows 011, 101, 110 over GF(2): third = first xor second
    assert gf2_rank([0b011, 0b101, 0b110]) == 2
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([0b1]) == 1


def test_gf2_solve_combination():
    rows = [0b011, 0b101, 0b1000]
    c = gf2_solve_combination(rows, 0b110, 3)
    assert c == [1, 1, 0]
    assert gf2_solve_combination(rows, 0b0100, 3) is None
    assert gf2_solve_combination(rows, 0, 3) == [0, 0, 0]


def test_field_matrix_rank_kernel_solve_gf2():
    m = FieldMatrix(GF2, 3, 3, [1, 1, 0, 0, 1, 1, 1, 0, 1])
    # rows sum to zero: rank 2
    assert rank(m) == 2
    ker = kernel_basis(m)
    assert len(ker) == 1
    assert m.apply(ker[0]) == [0, 0, 0]
    x = echelon_solve(m, [1, 1, 0])
    assert x is not None
    assert m.apply(x) == [1, 1, 0]
    assert echelon_solve(m, [1, 0, 0]) is None


def test_field_matrix_gf4_linear_algebra():
    gf4 = default_spec(2)
    m = FieldMatrix(gf4, 2, 3, [1, 2, 0, 0, 2, 3])
    assert rank(m) == 2
    ker = kernel_basis(m)
    assert len(ker) == 1
    assert m.apply(ker[0]) == [0, 0]
    rng = random.Random(5)
    for _ in range(20):
        x = [rng.randrange(4) for _ in range(3)]
        b = m.apply(x)
        got = echelon_solve(m, b)
        assert got is not None
        assert m.apply(got) == b


def test_randomized_rank_kernel_dimension_identity():
    rng = random.Random(23)
    for spec in (GF2, default_spec(2)):
        for _ in range(25):
            r = rng.randrange(1, 6)
            c = rng.randrange(1, 6)
            m = FieldMatrix(spec, r, c, [rng.randrange(spec.order) for _ in range(r * c)])
            assert rank(m) + len(kernel_basis(m)) == c


def test_parse_errors_point_into_the_original_text():
    # (text, line, col, message): entries and rows are located in the text
    # as given, newlines included, not in the cell or row cut out of it
    cases = [
        ("x, y\n1, x + $", 2, 8, "expected a variable name"),
        ("x, y; 1, z", 1, 10, "unknown variable 'z'"),
        ("x, y;\n  x", 2, 3, "row 2 has 1 entries, expected 2"),
        ("x,,y", 1, 3, "empty polynomial"),
    ]
    for text, line, col, message in cases:
        with pytest.raises(ParseError) as ei:
            parse_matrix(text, L2)
        assert (ei.value.line, ei.value.col, ei.value.message) == (line, col, message)
    with pytest.raises(ParseError) as ei:
        parse_matrix("\n x, y", L2, rows=2, cols=2)
    assert (ei.value.line, ei.value.col) == (2, 2)
    assert ei.value.message == "matrix is 1x2, expected 2x2"


def test_dimension_errors():
    with pytest.raises(ValueError):
        M("x, y; x")
    with pytest.raises(ValueError):
        RingMatrix.identity(L2, 2) * RingMatrix.identity(L2, 3)
    with pytest.raises(ValueError):
        blocks_of(RingMatrix.identity(L2, 3))
