"""Property tests of the packed elimination kernel against slow oracles.

The oracles, in tests/oracles.py, are the dense routines the packed
Echelon replaced: Gauss-Jordan elimination over lists with one field
multiplication per cell and the rank, kernel, solution, minimal polynomial
and class coordinates read off it, and the per-radius window definition
of h_d from the term-pair product.  The tests here add the fully reduced
echelon of the point certificate and the exactness solve that inserted
every column, cell-major, before it cleared.  Each fast path must
reproduce them exactly, not just up to a change of basis.  The
per-radius definition, the solvability of tracked `reduce` and the
kernel and image dimensions of the point certificate take their ranks
from sympy's GF(2) elimination instead, which shares no code with
Echelon: a GF(2^k) matrix enters it by its regular representation.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import column, delta_columns, echelon_solve, fixture, kernel_basis, rows_of
from oracles import (delta_entries, dense_class_coordinates, dense_echelon, dense_kernel_basis,
                     dense_matmul, dense_minimal_polynomial, dense_rank, dense_solve, evaluate,
                     gf_inv, gf_mul, per_radius_dims, sympy_rank)

from mf2.cohomwin import (
    Window,
    _delta_columns,
    certify_at_point,
    cohomology_dims,
    solve_exactness,
)
from mf2.gf2k import GF2, default_spec
from mf2.groebner import minimal_polynomial
from mf2.mfcore import Morphism, UngradedMF
from mf2.ringmat import (
    Echelon,
    _generic_echelon,
    FieldMatrix,
    RingMatrix,
    matrix_partial,
    rank,
)
from mf2.ringpoly import RingDescriptor, RingPoly

FIELDS = [default_spec(k) for k in (1, 2, 3, 4)]
GF4 = default_spec(2)
PROPERTY = settings(max_examples=60)
SLOW = settings(max_examples=12)


def sympy_matrix_rank(rows, modulus):
    entries = {(i, j): a for i, row in enumerate(rows) for j, a in enumerate(row) if a}
    return sympy_rank(entries, (len(rows), len(rows[0])), modulus)


# -- strategies ------------------------------------------------------------------


@st.composite
def field_matrices(draw, max_dim=6, square=False, fields=FIELDS):
    spec = draw(st.sampled_from(fields))
    rows = draw(st.integers(1, max_dim))
    cols = rows if square else draw(st.integers(1, max_dim))
    density = draw(st.sampled_from((0.2, 0.5, 1.0)))
    entries = draw(st.lists(
        st.tuples(st.floats(0, 1), st.integers(1, spec.order - 1)),
        min_size=rows * cols, max_size=rows * cols,
    ))
    return FieldMatrix(spec, rows, cols, [v if u < density else 0 for u, v in entries])


# -- the kernel against the dense oracle ---------------------------------------------


@PROPERTY
@given(field_matrices())
def test_rank_and_kernel_match_dense_elimination(m):
    rows, mod = rows_of(m), m.spec.modulus
    assert rank(m) == dense_rank(rows, mod)
    assert kernel_basis(m) == dense_kernel_basis(rows, mod)
    assert _generic_echelon(rows, m.spec) == dense_echelon(rows, mod)


@PROPERTY
@given(field_matrices(), st.data())
def test_field_matrix_product_matches_the_inner_index_sum(a, data):
    """The one product loop (apply, summed column by column of a over the
    nonzero entries of a vector) against sum_k a[i, k] b[k, j], any shapes."""
    spec = a.spec
    cols = data.draw(st.integers(1, 6))
    size = a.cols * cols
    b = FieldMatrix(spec, a.cols, cols,
                    data.draw(st.lists(st.integers(0, spec.order - 1), min_size=size, max_size=size)))
    want = [v for row in dense_matmul(rows_of(a), rows_of(b), spec.modulus) for v in row]
    assert list((a * b).entries) == want
    assert a.apply(b.entries[::cols]) == want[::cols]


@PROPERTY
@given(field_matrices(), st.data())
def test_solve_matches_dense_elimination(m, data):
    spec = m.spec
    elems = st.integers(0, spec.order - 1)
    if data.draw(st.booleans()):
        b = m.apply(data.draw(st.lists(elems, min_size=m.cols, max_size=m.cols)))
    else:
        b = data.draw(st.lists(elems, min_size=m.rows, max_size=m.rows))
    assert echelon_solve(m, b) == dense_solve(rows_of(m), b, spec.modulus)


@PROPERTY
@given(field_matrices(fields=FIELDS[:3]), st.data())
def test_tracked_reduce_solves_exactly_when_sympy_finds_b_in_the_span(m, data):
    """Over GF(2), GF(4) and GF(8): a solution x from the [M | I] tracking
    satisfies M x = b, and none comes back exactly when appending b raises
    sympy's rank of M."""
    spec = m.spec
    elems = st.integers(0, spec.order - 1)
    if data.draw(st.booleans()):
        b = m.apply(data.draw(st.lists(elems, min_size=m.cols, max_size=m.cols)))
    else:
        b = data.draw(st.lists(elems, min_size=m.rows, max_size=m.rows))
    ech = Echelon(spec, m.rows)
    ech.insert_all(ech.pack(m.entries[j::m.cols]) for j in range(m.cols))
    rest, comb = ech.reduce(ech.pack(b))
    augmented = [row + [v] for row, v in zip(rows_of(m), b)]
    solvable = sympy_matrix_rank(augmented, spec.modulus) == sympy_matrix_rank(rows_of(m), spec.modulus)
    assert (rest == 0) == solvable
    if solvable:
        x = ech.unpack(comb, m.cols)
        assert comb == ech.pack(x)
        assert m.apply(x) == b


@PROPERTY
@given(field_matrices(fields=FIELDS[:3]), st.booleans())
def test_insert_all_reads_lazily_and_appends_pivots_in_insertion_order(m, track):
    """The batch contract over GF(2), GF(4) and GF(8), tracked and untracked:
    a generator that reads `rows` before each yield sees the pivot of every
    vector before it, and pivots only ever append, one per independent
    vector.  Against sympy: the pivot count after j vectors is the rank of
    the first j columns, the final pivot set is where the rank of the
    leading coordinates grows (lowest-index pivots), and the relation of a
    dependent vector j is a kernel vector with a 1 in slot j and nothing after."""
    spec = m.spec
    ech = Echelon(spec, m.rows if track else None)
    seen = []  # the pivots in rows as each vector is read, then at the end

    def columns():
        for j in range(m.cols):
            seen.append(list(ech.rows))
            yield ech.pack(m.entries[j::m.cols])

    relations = ech.insert_all(columns())
    seen.append(list(ech.rows))

    def rank_of(rows, cols):
        """sympy's rank of the leading rows x cols submatrix of m."""
        entries = {(i, j): m.at(i, j) for i in range(rows) for j in range(cols) if m.at(i, j)}
        return sympy_rank(entries, (rows, cols), spec.modulus) if entries else 0

    assert [len(pivots) for pivots in seen] == [rank_of(m.rows, j) for j in range(m.cols + 1)]
    assert all(after[:len(before)] == before for before, after in zip(seen, seen[1:]))
    assert sorted(seen[-1]) == [p for p in range(m.rows) if rank_of(p + 1, m.cols) > rank_of(p, m.cols)]
    dependent = [j for j in range(m.cols) if len(seen[j + 1]) == len(seen[j])]
    assert len(relations) == len(dependent)
    if not track:
        assert relations == [0] * len(dependent)
    for j, rel in zip(dependent, relations if track else ()):
        x = ech.unpack(rel, m.cols)
        assert x[j] == 1 and not any(x[j + 1:])
        assert not any(m.apply(x))
    assert ech.count == m.cols


@pytest.mark.parametrize("spec", FIELDS)
def test_tracked_echelon_refuses_a_vector_that_reaches_its_offset(spec):
    ech = Echelon(spec, 3)
    top = spec.order - 1
    assert ech.insert_all((ech.pack([0, 0, top]),)) == []
    assert list(ech.rows) == [2]
    for v in (ech.pack([0, 0, 0, 1]), ech.pack([1, 0, 0, top]), 1 << (5 * spec.k)):
        with pytest.raises(ValueError, match="tracked width"):
            ech.insert_all((v,))
        with pytest.raises(ValueError, match="tracked width"):
            ech.reduce(v)
    assert ech.count == 1


@PROPERTY
@given(field_matrices(square=True))
def test_minimal_polynomial_matches_dense_loop(m):
    want = dense_minimal_polynomial(rows_of(m), m.spec.modulus)
    assert minimal_polynomial(m) == RingPoly(RingDescriptor(m.spec, ("x",), (False,)), want)


@PROPERTY
@given(field_matrices(max_dim=7, square=True))
def test_minimal_polynomial_annihilates_and_has_the_rank_of_the_powers(m):
    """p(M) = 0, and deg p is sympy's rank of vec(I), vec(M), ..., vec(M^n)."""
    mod, n = m.spec.modulus, m.rows
    p = minimal_polynomial(m)
    degree = max(d for (d,) in p.terms)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(max(degree, n)):
        powers.append(dense_matmul(powers[-1], rows_of(m), mod))
    powers = [sum(power, []) for power in powers]  # vec(M^d)
    value = [0] * (n * n)
    for (d,), c in p.terms.items():
        value = [a ^ gf_mul(c, b, mod) for a, b in zip(value, powers[d])]
    entries = {(d, i): a for d, power in enumerate(powers[:n + 1])
               for i, a in enumerate(power) if a}
    # one assertion, so a fault shrinks to one failure
    assert not any(value) and degree == sympy_rank(entries, (n + 1, n * n), mod)


@PROPERTY
@given(st.sampled_from(FIELDS), st.data())
def test_scale_is_slotwise_field_product(spec, data):
    n = data.draw(st.integers(1, 12))
    values = data.draw(st.lists(st.integers(0, spec.order - 1), min_size=n, max_size=n))
    c = data.draw(st.integers(1, spec.order - 1))
    ech = Echelon(spec)
    assert ech.unpack(ech.scale(ech.pack(values), c), n) == [gf_mul(c, v, spec.modulus) for v in values]


@PROPERTY
@given(st.sampled_from(FIELDS), st.data())
def test_insert_all_scales_a_new_row_to_be_monic(spec, data):
    n = data.draw(st.integers(1, 8))
    values = data.draw(st.lists(st.integers(0, spec.order - 1), min_size=n, max_size=n))
    ech = Echelon(spec)
    relations = ech.insert_all((ech.pack(values),))
    pivot = None if relations else next(iter(ech.rows))
    lead = next((v for v in values if v), None)
    if lead is None:
        assert pivot is None
    else:
        assert pivot == next(j for j, v in enumerate(values) if v)
        assert ech.unpack(ech.rows[pivot], n) == [gf_mul(gf_inv(lead, spec.modulus), v, spec.modulus)
                                                      for v in values]


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_gf2_rank_survives_embedding_into_gf4(rows, cols, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
    m2 = FieldMatrix(GF2, rows, cols, bits)
    m4 = FieldMatrix(GF4, rows, cols, bits)
    assert rank(m2) == rank(m4) == dense_rank(rows_of(m4), GF4.modulus)
    assert kernel_basis(m2) == kernel_basis(m4)


# -- one-pass window cohomology against the per-radius definition ----------------------


# (source fixture, target fixture, field degree k, d_max)
CASES = (
    ("rp2", "rp2", 1, 1), ("rp2", "rp2", 2, 1), ("an_q_1", "an_q_1", 1, 2),
    ("an_q_2", "an_q_2", 2, 2), ("an_r_2", "an_r_2", 1, 3), ("an_r_3", "an_r_3", 2, 3),
)
# hom spaces with tgt.size != src.size
BETWEEN_FIXTURES = tuple((src, tgt, k, 1) for src, tgt in (("rp2", "double_rp2"), ("double_rp2", "rp2"))
                         for k in (1, 2))


def random_conjugate(mf, k, data):
    """D P Q P^T D^-1 for a drawn permutation P and diagonal D of units."""
    perm = data.draw(st.permutations(range(mf.size)))
    units = data.draw(st.lists(st.integers(1, (1 << k) - 1), min_size=mf.size, max_size=mf.size))
    mod, n = mf.ring.field.modulus, mf.size
    entries = [mf.q.at(perm[i], perm[j]).scale(gf_mul(units[i], gf_inv(units[j], mod), mod))
               for i in range(n) for j in range(n)]
    return UngradedMF(mf.w, RingMatrix(mf.ring, n, n, entries))


def elementary_conjugate(mf, k, data):
    """P Q P for P = I + c E_ij with i != j, its own inverse in characteristic
    2: entries become sums of several monomials, and the diagonal fills in."""
    ring = mf.ring
    n = mf.size
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    c = data.draw(st.integers(1, (1 << k) - 1))
    p = RingMatrix.identity(ring, n) + RingMatrix(ring, n, n, [
        RingPoly.monomial(ring, (0,) * ring.nvars, c) if (r, col) == (i, j) else RingPoly.zero(ring)
        for r in range(n) for col in range(n)
    ])
    return UngradedMF(mf.w, p * mf.q * p)


# No shrinking: with a fault in the window pass, shrinking these slow
# examples used up the whole per-test time limit, so the fault showed only
# as a time-out.  Every drawn example still runs.
@settings(SLOW, phases=[p for p in settings.default.phases if p is not Phase.shrink])
@given(st.sampled_from(CASES + BETWEEN_FIXTURES), st.data())
def test_one_pass_dims_match_per_radius_definition(case, data):
    src_name, tgt_name, k, d_max = case
    src = random_conjugate(fixture(src_name, default_spec(k)), k, data)
    tgt = random_conjugate(fixture(tgt_name, default_spec(k)), k, data)
    assert cohomology_dims(src, tgt, d_max) == per_radius_dims(
        rows_of(src.q), rows_of(tgt.q), src.ring.laurent, d_max, src.ring.field.modulus)


@SLOW
@given(st.sampled_from(((1, "rp2", "rp2"), (2, "rp2", "double_rp2"), (2, "double_rp2", "rp2"),
                        (3, "an_q_2", "an_q_2"), (3, "rp2", "rp2"))),
       st.integers(0, 1), st.data())
def test_packed_columns_match_dense_products(case, radius, data):
    """Slot block[m]*cells + r*n + c of a packed column is the dense entry
    at row (r*n + c, m), also for a hom space between different sizes.
    Elementary conjugation gives multi-term entries and a nonzero diagonal,
    and an endomorphism space (tgt = src) makes qt[i, i] and qs[i, i] meet
    at one output cell and shift and cancel there."""
    k, src_name, tgt_name = case
    src = random_conjugate(fixture(src_name, default_spec(k)), k, data)
    src = elementary_conjugate(src, k, data)
    if src_name == tgt_name and data.draw(st.booleans()):
        tgt = src
    else:
        tgt = elementary_conjugate(random_conjugate(fixture(tgt_name, default_spec(k)), k, data),
                                   k, data)
    win_in = Window.symmetric(src.ring, radius)
    win_out = win_in.expanded(src.q.support_hull()).union(win_in.expanded(tgt.q.support_hull()))
    cells = src.size * tgt.size
    mons_out = win_out.monomials()
    cols = delta_columns(src, tgt, win_in, win_out)
    dense, (rows, ncols) = delta_entries(rows_of(src.q), rows_of(tgt.q), win_in.monomials(), mons_out,
                                         src.ring.field.modulus)
    ech = Echelon(src.ring.field)
    assert len(cols) == ncols
    for j, col in enumerate(cols):
        slots = ech.unpack(col, len(mons_out) * cells)
        assert col >> (ech.k * len(slots)) == 0
        assert [slots[b * cells + cell] for cell in range(cells) for b in range(len(mons_out))] \
            == [dense.get((r, j), 0) for r in range(rows)]


@pytest.mark.parametrize("k", [1, 2])
def test_delta_columns_reject_a_window_one_step_too_small(k):
    """Shrinking any bound of the exact output window by one drops the
    monomial some image term lands on."""
    mf = fixture("rp2", default_spec(k))
    win_in = Window.symmetric(mf.ring, 1)
    win_out = win_in.expanded(mf.q.support_hull())
    assert delta_columns(mf, mf, win_in, win_out)
    for var in range(mf.ring.nvars):
        for side, step in ((0, 1), (1, -1)):
            bounds = [list(b) for b in win_out.bounds]
            bounds[var][side] += step
            small = Window(mf.ring, tuple(map(tuple, bounds)))
            with pytest.raises(ValueError, match="window overflow"):
                delta_columns(mf, mf, win_in, small)


# -- exactness witnesses against the cell-major elimination --------------------------


def uncleared_witness(f, window, reverse):
    """The witness g with d(g) = f of a full elimination, or None: every
    column goes into one tracked Echelon, and g is read from the
    combination that reduces f to zero.  Cell-major over the window's keys
    with output blocks in window order, as solve_exactness ran before it
    cleared; or, with `reverse`, in the exact reverse of the cleared
    solve's output numbering (the window's keys last, reversed)."""
    src, tgt = f.source, f.target
    ring = src.ring
    cells = tgt.size * src.size
    win_out = window.expanded(src.q.support_hull()).union(window.expanded(tgt.q.support_hull()))
    win_out = win_out.union(Window(ring, tuple(f.f.support_hull())))
    keys = window.keys()
    out = win_out.keys()
    if reverse:
        out = [e for e in out if e not in set(keys)] + keys[::-1]
        domain = [(e, cell) for e in keys for cell in reversed(range(cells))]
    else:
        domain = [(e, cell) for cell in range(cells) for e in keys]
    block = {e: b for b, e in enumerate(out)}
    images, offsets = _delta_columns(src, tgt, domain, block)
    ech = Echelon(ring.field, len(block) * cells)
    ech.insert_all(column(images[cell], offsets[e]) for e, cell in domain)
    rest, comb = ech.reduce(sum(c << ech.k * (block[key] * cells + cell)
                                for cell, entry in enumerate(f.f.entries)
                                for key, c in entry.packed.items()))
    if rest:
        return None
    gterms = [{} for _ in range(cells)]
    for (e, cell), c in zip(domain, ech.unpack(comb, len(domain))):
        if c:
            gterms[cell][e] = c
    return RingMatrix(ring, tgt.size, src.size, [RingPoly._raw(ring, t) for t in gterms])


@st.composite
def boxes(draw, ring):
    """A window of one to three exponents per variable, not centred at 0."""
    bounds = []
    for laurent in ring.laurent:
        lo = draw(st.integers(-2 if laurent else 0, 1))
        bounds.append((lo, draw(st.integers(lo, lo + 2))))
    return Window(ring, tuple(bounds))


def random_matrix_in(window, rows, cols, data):
    """Up to three terms per entry, with exponents inside the window."""
    ring = window.ring
    monomial = st.sampled_from(window.monomials())
    coeff = st.integers(1, ring.field.order - 1)
    return RingMatrix(ring, rows, cols, [
        RingPoly(ring, data.draw(st.dictionaries(monomial, coeff, max_size=3)))
        for _ in range(rows * cols)
    ])


# (source, target, k); rp2 -> double_rp2 is a hom space between different sizes
SOLVE_CASES = (
    ("rp2", "rp2", 1), ("rp2", "rp2", 2), ("rp2", "rp2", 3), ("an_q_1", "an_q_1", 1),
    ("an_q_2", "an_q_2", 2), ("an_r_2", "an_r_2", 3), ("rp2", "double_rp2", 2),
)


@pytest.mark.parametrize("case", SOLVE_CASES, ids=["-".join(map(str, c)) for c in SOLVE_CASES])
@settings(max_examples=25, report_multiple_bugs=False)
@given(st.sampled_from(("inside", "beyond", "random", "jacobian", "identity")), st.data())
def test_cleared_solve_matches_cell_major_elimination(case, kind, data):
    """solve_exactness answers None exactly when the cell-major elimination
    does, its witness g satisfies d(g) = f, and g is the witness of the
    full elimination in its own column order.  f is d(g0) for g0 inside
    the window (exact) or one step beyond it, random terms, a Jacobian
    multiple of Id or Id itself, on a window that need not be symmetric."""
    src_name, tgt_name, k = case
    src = random_conjugate(fixture(src_name, default_spec(k)), k, data)
    tgt = src if tgt_name == src_name else random_conjugate(fixture(tgt_name, default_spec(k)), k, data)
    ring = src.ring
    window = data.draw(boxes(ring))
    shape = (tgt.size, src.size)
    if kind in ("jacobian", "identity") and src is tgt:
        f = RingMatrix.identity(ring, src.size)
        if kind == "jacobian":
            f = f.scale(src.w.partial(data.draw(st.integers(0, ring.nvars - 1))))
    elif kind == "random":
        f = random_matrix_in(window, *shape, data)
    else:
        grown = window if kind == "inside" else Window(ring, tuple(
            (max(lo - 1, 0) if not laurent else lo - 1, hi + 1)
            for (lo, hi), laurent in zip(window.bounds, ring.laurent)))
        f = Morphism(src, tgt, random_matrix_in(grown, *shape, data)).differential().f
    morphism = Morphism(src, tgt, f)
    want = uncleared_witness(morphism, window, reverse=False)
    got = solve_exactness(morphism, window)
    assert (got is None) == (want is None)
    if kind == "inside":
        assert got is not None
    if got is not None:
        assert Morphism(src, tgt, got.g).differential().f == f
        assert Morphism(src, tgt, want).differential().f == f
        # the cleared columns are free variables of the reverse order
        assert got.g == uncleared_witness(morphism, window, reverse=True)


# -- point certificates ------------------------------------------------------------------


def dense_certificate(src, tgt, point, cls):
    """(kernel_dim, image_dim, coordinates or error) of the class in
    Hom(src, tgt) at the point.  Column r*n + c of the differential is
    qt E_rc + E_rc qs as a dense product pair at the point, read row-major;
    its rank comes from sympy, the coordinates from the dense echelons."""
    mod = src.ring.field.modulus
    values = [p.value for p in point]

    def at_point(m):
        return [[evaluate(e, values, mod) for e in row] for row in rows_of(m)]

    qs, qt = at_point(src.q), at_point(tgt.q)
    size = tgt.size * src.size
    images = []
    for cell in range(size):
        unit = [[int(r * src.size + c == cell) for c in range(src.size)] for r in range(tgt.size)]
        left, right = dense_matmul(qt, unit, mod), dense_matmul(unit, qs, mod)
        images.append([a ^ b for x, y in zip(left, right) for a, b in zip(x, y)])
    dmat = [[images[c][r] for c in range(size)] for r in range(size)]
    image_dim = sympy_matrix_rank(dmat, mod)
    kernel_dim = size - image_dim
    vec = [v for row in at_point(cls) for v in row]
    if any(v for row in dense_matmul(dmat, [[v] for v in vec], mod) for v in row):
        return kernel_dim, image_dim, "class is not closed at the point"
    try:
        return kernel_dim, image_dim, dense_class_coordinates(dmat, vec, mod)
    except ValueError as exc:
        return kernel_dim, image_dim, str(exc)


# One failure at a time: a layout fault fails in several distinct ways, and
# shrinking each of them took most of the per-test time limit.
@settings(PROPERTY, report_multiple_bugs=False)
@given(st.sampled_from((("rp2", "rp2"), ("an_q_1", "an_q_1"), ("an_r_2", "an_r_2"),
                        ("rp2", "double_rp2"), ("double_rp2", "rp2"))), st.data())
def test_point_certificate_matches_dense_echelon(names, data):
    """Also for Hom between different sizes, where a column layout that
    swaps the two sizes shows."""
    src_name, tgt_name = names
    spec = GF4
    src = random_conjugate(fixture(src_name, spec), spec.k, data)
    tgt = src if tgt_name == src_name else random_conjugate(fixture(tgt_name, spec), spec.k, data)
    ring = src.ring
    # Laurent variables avoid zero
    point = [spec.element(data.draw(st.integers(1 if laur else 0, 3))) for laur in ring.laurent]
    # closed classes: a coboundary, plus for End(Q) the scalars, Q and the partials of Q
    size = tgt.size * src.size
    g = RingMatrix(ring, tgt.size, src.size, [
        RingPoly(ring, {(0,) * ring.nvars: c}) if c else RingPoly.zero(ring)
        for c in data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    ])
    cls = tgt.q * g + g * src.q
    if tgt is src:
        ident = RingMatrix.identity(ring, src.size)
        for gen in [ident, src.q] + [matrix_partial(src.q, v) for v in range(ring.nvars)]:
            c = data.draw(st.integers(0, 3))
            if c:
                cls = cls + gen.scale(RingPoly(ring, {(0,) * ring.nvars: c}))
    kernel_dim, image_dim, want = dense_certificate(src, tgt, point, cls)
    try:
        report = certify_at_point(src, tgt, point, [cls])
    except ValueError as exc:
        assert str(exc) == want
    else:
        assert (report.kernel_dim, report.image_dim) == (kernel_dim, image_dim)
        assert report.class_coordinates == (want,)
