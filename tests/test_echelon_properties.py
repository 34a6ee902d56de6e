"""Property tests of the packed elimination kernel against slow oracles.

The oracles are the dense routines the packed Echelon replaced: list-of-
lists Gauss-Jordan elimination with one field multiplication per cell,
the per-radius window definition of h_d, the fully reduced echelon of the
point certificate, the incremental minimal-polynomial loop, and the
exactness solve that inserted every column, cell-major, before it cleared.  Each
fast path must reproduce them exactly, not just up to a change of basis.
The per-radius definition, the solvability of tracked `reduce` and the
kernel and image dimensions of the point certificate take their ranks
from sympy's GF(2) elimination instead, which shares no code with
Echelon: a GF(2^k) matrix enters it by its regular representation.
"""

from __future__ import annotations

from importlib.resources import files

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from conftest import column, echelon_solve, kernel_basis

from mf2.cohomwin import (
    Window,
    _delta_columns,
    certify_at_point,
    cohomology_dims,
    solve_exactness,
)
from mf2.gf2k import GF2, default_spec
from mf2.groebner import minimal_polynomial
from mf2.mfcore import Morphism, UngradedMF, parse_mf_text
from mf2.ringmat import (
    Echelon,
    _generic_echelon,
    FieldMatrix,
    RingMatrix,
    matrix_partial,
    rank,
    specialize,
)
from mf2.ringpoly import RingDescriptor, RingPoly

FIELDS = [default_spec(k) for k in (1, 2, 3, 4)]
GF4 = default_spec(2)
PROPERTY = settings(max_examples=60)
SLOW = settings(max_examples=12)


# -- dense oracles -------------------------------------------------------------


def dense_echelon(rows, spec):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    mul, inv = spec.mul, spec.inv
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_cols = []
    pr = 0
    for c in range(ncols):
        sel = next((i for i in range(pr, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        s = inv(rows[pr][c])
        rows[pr] = piv = [mul(s, v) for v in rows[pr]]
        for i in range(nrows):
            if i != pr and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a ^ mul(f, b) for a, b in zip(rows[i], piv)]
        pivot_cols.append(c)
        pr += 1
        if pr == nrows:
            break
    return rows, pivot_cols


def dense_rank(m):
    return len(dense_echelon([list(m.row(i)) for i in range(m.rows)], m.spec)[1])


def sympy_rank(spec, entries, shape):
    """Rank of the GF(2^k) matrix of the given shape and nonzero entries
    {(row, col): value}, from sympy's sparse GF(2) elimination.  Entry a
    becomes the k x k matrix of multiplication by a in the power basis
    (column j holds the coordinates of a * t^j); the GF(2) rank of that
    regular representation is k times the GF(2^k) rank."""
    k = spec.k
    one = GF(2)(1)
    rows = {}
    for (i, j), a in entries.items():
        for jj in range(k):
            image = spec.mul(a, 1 << jj)
            for ii in range(k):
                if image >> ii & 1:
                    rows.setdefault(i * k + ii, {})[j * k + jj] = one
    r = DomainMatrix(rows, (shape[0] * k, shape[1] * k), GF(2)).rank()
    assert r % k == 0
    return r // k


def sympy_matrix_rank(m):
    return sympy_rank(m.spec, {divmod(i, m.cols): a for i, a in enumerate(m.entries) if a},
                      (m.rows, m.cols))


def dense_kernel_basis(m):
    red, pivot_cols = dense_echelon([list(m.row(i)) for i in range(m.rows)], m.spec)
    pivot_of_col = {c: i for i, c in enumerate(pivot_cols)}
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivot_of_col):
        vec = [0] * m.cols
        vec[fc] = 1
        for c, i in pivot_of_col.items():
            vec[c] = red[i][fc]
        basis.append(vec)
    return basis


def dense_solve(m, b):
    red, pivot_cols = dense_echelon([list(m.row(i)) + [b[i]] for i in range(m.rows)], m.spec)
    x = [0] * m.cols
    for i, c in enumerate(pivot_cols):
        if c == m.cols:
            return None
        x[c] = red[i][m.cols]
    return x


def dense_minimal_polynomial(m):
    spec = m.spec
    uni = RingDescriptor(spec, ("x",), (False,))
    n = m.rows
    power = FieldMatrix.identity(spec, n)
    rows = []
    degree = 0
    while True:
        vec = list(power.entries)
        comb = [0] * (n * n + 1)
        comb[degree] = 1
        for rvec, rcomb in rows:
            lead = next((i for i, v in enumerate(rvec) if v), None)
            if lead is not None and vec[lead]:
                f = spec.mul(vec[lead], spec.inv(rvec[lead]))
                vec = [a ^ spec.mul(f, b) for a, b in zip(vec, rvec)]
                comb = [a ^ spec.mul(f, b) for a, b in zip(comb, rcomb)]
        if not any(vec):
            return RingPoly(uni, {(d,): c for d, c in enumerate(comb[:degree + 1]) if c})
        rows.append((vec, comb))
        rows.sort(key=lambda rc: next(i for i, v in enumerate(rc[0]) if v))
        power = power * m
        degree += 1


def dense_class_coordinates(dmat, vec):
    """Coordinates of a closed vector in ker/im from fully reduced dense echelons."""
    spec = dmat.spec
    mul = spec.mul

    def reduce_vec(v, ech):
        for lead, row in ech:
            if v[lead]:
                v = [a ^ mul(v[lead], b) for a, b in zip(v, row)]
        return v

    def insert(v, ech):
        red = reduce_vec(v, ech)
        lead = next((i for i, x in enumerate(red) if x), None)
        if lead is None:
            return
        s = spec.inv(red[lead])
        new = [mul(s, x) for x in red]
        for k, (l2, row2) in enumerate(ech):
            if row2[lead]:
                ech[k] = (l2, [a ^ mul(row2[lead], b) for a, b in zip(row2, new)])
        ech.append((lead, new))
        ech.sort(key=lambda lr: lr[0])

    n = dmat.cols
    image = []
    for col in range(n):
        insert([dmat.at(r, col) for r in range(dmat.rows)], image)
    local = []
    for v in dense_kernel_basis(dmat):
        insert(reduce_vec(v, image), local)
    red = reduce_vec(list(vec), image)
    coords = tuple(red[lead] for lead, _ in local)
    if any(reduce_vec(red, local)):
        raise ValueError("class escapes the local kernel decomposition")
    return coords


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


def load_fixture(name, spec):
    mff = parse_mf_text((files("mf2") / "fixtures" / f"{name}.mf").read_text())
    ring = RingDescriptor(spec, mff.ring.vars, mff.ring.laurent)
    lift = [RingPoly(ring, dict(e.terms)) for e in mff.q.entries]
    return UngradedMF(RingPoly(ring, dict(mff.w.terms)), RingMatrix(ring, mff.q.rows, mff.q.cols, lift))


def conjugate(mf, perm, units):
    """D P Q P^T D^-1 for a permutation P and a diagonal D of units."""
    spec = mf.ring.field
    n = mf.size
    entries = [
        mf.q.at(perm[i], perm[j]).scale(spec.mul(units[i], spec.inv(units[j])))
        for i in range(n) for j in range(n)
    ]
    return UngradedMF(mf.w, RingMatrix(mf.ring, n, n, entries))


# -- the kernel against the dense oracle ---------------------------------------------


@PROPERTY
@given(field_matrices())
def test_rank_and_kernel_match_dense_elimination(m):
    assert rank(m) == dense_rank(m)
    assert kernel_basis(m) == dense_kernel_basis(m)
    rows = [list(m.row(i)) for i in range(m.rows)]
    assert _generic_echelon(rows, m.spec) == dense_echelon(rows, m.spec)


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
    want = []
    for i in range(a.rows):
        for j in range(cols):
            acc = 0
            for k in range(a.cols):
                acc ^= spec.mul(a.at(i, k), b.at(k, j))
            want.append(acc)
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
    assert echelon_solve(m, b) == dense_solve(m, b)


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
    augmented = FieldMatrix(spec, m.rows, m.cols + 1,
                            [v for i in range(m.rows) for v in (*m.row(i), b[i])])
    solvable = sympy_matrix_rank(augmented) == sympy_matrix_rank(m)
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
        return sympy_rank(spec, entries, (rows, cols)) if entries else 0

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
    assert minimal_polynomial(m) == dense_minimal_polynomial(m)


@PROPERTY
@given(field_matrices(max_dim=7, square=True))
def test_minimal_polynomial_annihilates_and_has_the_rank_of_the_powers(m):
    """p(M) = 0, and deg p is sympy's rank of vec(I), vec(M), ..., vec(M^n)."""
    spec, n = m.spec, m.rows
    p = minimal_polynomial(m)
    degree = max(d for (d,) in p.terms)
    powers = [FieldMatrix.identity(spec, n)]
    for _ in range(max(degree, n)):
        powers.append(powers[-1] * m)
    value = [0] * (n * n)
    for (d,), c in p.terms.items():
        value = [a ^ spec.mul(c, b) for a, b in zip(value, powers[d].entries)]
    entries = {(d, i): a for d, power in enumerate(powers[:n + 1])
               for i, a in enumerate(power.entries) if a}
    # one assertion, so a fault shrinks to one failure
    assert not any(value) and degree == sympy_rank(spec, entries, (n + 1, n * n))


@PROPERTY
@given(st.sampled_from(FIELDS), st.data())
def test_scale_is_slotwise_field_product(spec, data):
    n = data.draw(st.integers(1, 12))
    values = data.draw(st.lists(st.integers(0, spec.order - 1), min_size=n, max_size=n))
    c = data.draw(st.integers(1, spec.order - 1))
    ech = Echelon(spec)
    assert ech.unpack(ech.scale(ech.pack(values), c), n) == [spec.mul(c, v) for v in values]


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
        assert ech.unpack(ech.rows[pivot], n) == [spec.mul(spec.inv(lead), v) for v in values]


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_gf2_rank_survives_embedding_into_gf4(rows, cols, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
    m2 = FieldMatrix(GF2, rows, cols, bits)
    m4 = FieldMatrix(GF4, rows, cols, bits)
    assert rank(m2) == rank(m4) == dense_rank(m4)
    assert kernel_basis(m2) == kernel_basis(m4)


# -- one-pass window cohomology against the per-radius definition ----------------------


def delta_entries(src, tgt, win_in, win_out):
    """Nonzero entries {(row, col): value} and shape of the matrix of
    d(E_ij x^e) = qt E_ij x^e + E_ij x^e qs, one RingMatrix product pair per
    column.  Columns run over (cell, monomial of win_in) and rows over
    (cell, monomial of win_out), cell-major, with cell i*n + j for
    n = src.size and monomials in window order."""
    ring = src.ring
    m, n = tgt.size, src.size
    mons_out = win_out.monomials()
    row_of = {(cell, e): cell * len(mons_out) + b
              for cell in range(m * n) for b, e in enumerate(mons_out)}
    entries = {}
    col = 0
    for cell in range(m * n):
        for e in win_in.monomials():
            unit = RingMatrix(ring, m, n, [
                RingPoly.monomial(ring, e) if c == cell else RingPoly.zero(ring)
                for c in range(m * n)
            ])
            for c, entry in enumerate((tgt.q * unit + unit * src.q).entries):
                for x, v in entry.terms.items():
                    entries[row_of[c, x], col] = v
            col += 1
    return entries, (len(row_of), col)


def delta_as_field_matrix(src, tgt, win_in, win_out):
    """delta_entries as a dense FieldMatrix."""
    entries, (rows, cols) = delta_entries(src, tgt, win_in, win_out)
    dense = [0] * (rows * cols)
    for (r, c), v in entries.items():
        dense[r * cols + c] = v
    return FieldMatrix(src.ring.field, rows, cols, dense)


def per_radius_dims(src, tgt, d_max):
    """h_d = n_d - rank(d|B_d) - (rank(d|B_{d+1}) - rank of its rows outside B_d)."""
    ring = src.ring
    spec = ring.field
    hull = [(min(a, c), max(b, d)) for (a, b), (c, d)
            in zip(src.q.support_hull(), tgt.q.support_hull())]
    cells = src.size * tgt.size
    dims = {}
    for d in range(1, d_max + 1):
        win_d = Window.symmetric(ring, d)
        win_next = Window.symmetric(ring, d + 1)
        win_out = win_next.expanded(hull)
        n_d = cells * win_d.size
        rank_d = sympy_rank(spec, *delta_entries(src, tgt, win_d, win_d.expanded(hull)))
        big, (_, big_cols) = delta_entries(src, tgt, win_next, win_out)
        inside = set(win_d.monomials())
        out_basis = [e for _ in range(cells) for e in win_out.monomials()]
        outside = [r for r, e in enumerate(out_basis) if e not in inside]
        outer_row = {r: i for i, r in enumerate(outside)}
        outer = {(outer_row[r], c): v for (r, c), v in big.items() if r in outer_row}
        dims[d] = n_d - rank_d - (sympy_rank(spec, big, (len(out_basis), big_cols))
                                  - sympy_rank(spec, outer, (len(outside), big_cols)))
    return dims


# (source fixture, target fixture, field degree k, d_max)
CASES = (
    ("rp2", "rp2", 1, 1), ("rp2", "rp2", 2, 1), ("an_q_1", "an_q_1", 1, 2),
    ("an_q_2", "an_q_2", 2, 2), ("an_r_2", "an_r_2", 1, 3), ("an_r_3", "an_r_3", 2, 3),
)
# hom spaces with tgt.size != src.size
BETWEEN_FIXTURES = tuple((src, tgt, k, 1) for src, tgt in (("rp2", "double_rp2"), ("double_rp2", "rp2"))
                         for k in (1, 2))


def random_conjugate(mf, k, data):
    perm = data.draw(st.permutations(range(mf.size)))
    units = data.draw(st.lists(st.integers(1, (1 << k) - 1), min_size=mf.size, max_size=mf.size))
    return conjugate(mf, perm, units)


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
    src = random_conjugate(load_fixture(src_name, default_spec(k)), k, data)
    tgt = random_conjugate(load_fixture(tgt_name, default_spec(k)), k, data)
    assert cohomology_dims(src, tgt, d_max) == per_radius_dims(src, tgt, d_max)


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
    src = random_conjugate(load_fixture(src_name, default_spec(k)), k, data)
    src = elementary_conjugate(src, k, data)
    if src_name == tgt_name and data.draw(st.booleans()):
        tgt = src
    else:
        tgt = elementary_conjugate(random_conjugate(load_fixture(tgt_name, default_spec(k)), k, data),
                                   k, data)
    win_in = Window.symmetric(src.ring, radius)
    win_out = win_in.expanded(src.q.support_hull()).union(win_in.expanded(tgt.q.support_hull()))
    cells = src.size * tgt.size
    mons_out = win_out.monomials()
    pack = src.ring.pack
    domain = [(pack(e), cell) for cell in range(cells) for e in win_in.monomials()]
    images, offsets = _delta_columns(src, tgt, domain, {pack(e): b for b, e in enumerate(mons_out)})
    cols = [column(images[cell], offsets[e]) for e, cell in domain]
    dense = delta_as_field_matrix(src, tgt, win_in, win_out)
    ech = Echelon(src.ring.field)
    assert len(cols) == dense.cols
    for j, col in enumerate(cols):
        slots = ech.unpack(col, len(mons_out) * cells)
        assert col >> (ech.k * len(slots)) == 0
        assert [slots[b * cells + cell] for cell in range(cells) for b in range(len(mons_out))] \
            == [dense.at(r, j) for r in range(dense.rows)]


@pytest.mark.parametrize("k", [1, 2])
def test_delta_columns_reject_a_window_one_step_too_small(k):
    """Shrinking any bound of the exact output window by one drops the
    monomial some image term lands on."""
    mf = load_fixture("rp2", default_spec(k))
    win_in = Window.symmetric(mf.ring, 1)
    win_out = win_in.expanded(mf.q.support_hull())
    pack = mf.ring.pack
    domain = [(pack(e), cell) for cell in range(mf.size ** 2) for e in win_in.monomials()]
    assert _delta_columns(mf, mf, domain, {pack(e): b for b, e in enumerate(win_out.monomials())})
    for var in range(mf.ring.nvars):
        for side, step in ((0, 1), (1, -1)):
            bounds = [list(b) for b in win_out.bounds]
            bounds[var][side] += step
            small = Window(mf.ring, tuple(map(tuple, bounds)))
            with pytest.raises(ValueError, match="window overflow"):
                _delta_columns(mf, mf, domain, {pack(e): b for b, e in enumerate(small.monomials())})


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
    src = random_conjugate(load_fixture(src_name, default_spec(k)), k, data)
    tgt = src if tgt_name == src_name else random_conjugate(load_fixture(tgt_name, default_spec(k)), k, data)
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
    qt E_rc + E_rc qs as a FieldMatrix product pair, read row-major; its
    rank comes from sympy, the coordinates from the dense echelons."""
    qs, qt = specialize(src.q, point), specialize(tgt.q, point)
    spec = qs.spec
    size = tgt.size * src.size
    images = []
    for cell in range(size):
        unit = FieldMatrix(spec, tgt.size, src.size, [int(c == cell) for c in range(size)])
        images.append((qt * unit + unit * qs).entries)
    dmat = FieldMatrix(spec, size, size, [images[c][r] for r in range(size) for c in range(size)])
    image_dim = sympy_matrix_rank(dmat)
    kernel_dim = size - image_dim
    vec = list(specialize(cls, point).entries)
    if any(dmat.apply(vec)):
        return kernel_dim, image_dim, "class is not closed at the point"
    try:
        return kernel_dim, image_dim, dense_class_coordinates(dmat, vec)
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
    src = random_conjugate(load_fixture(src_name, spec), spec.k, data)
    tgt = src if tgt_name == src_name else random_conjugate(load_fixture(tgt_name, spec), spec.k, data)
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
