"""Property tests of the packed elimination kernel against slow oracles.

The oracles are the dense routines the packed Echelon replaced: list-of-
lists Gauss-Jordan elimination with one field multiplication per cell,
the per-radius window definition of h_d, the fully reduced echelon of the
point certificate, and the incremental minimal-polynomial loop.  Each
fast path must reproduce them exactly, not just up to a change of basis.
"""

from __future__ import annotations

from importlib.resources import files

from hypothesis import given, settings
from hypothesis import strategies as st

from mf2.cli import parse_mf_text
from mf2.cohomwin import (
    Window,
    certify_at_point,
    cohomology_dims,
    delta_as_field_matrix,
)
from mf2.gf2k import GF2, default_spec
from mf2.groebner import minimal_polynomial
from mf2.mfcore import UngradedMF
from mf2.ringmat import (
    Echelon,
    _generic_echelon,
    FieldMatrix,
    RingMatrix,
    kernel_basis,
    matrix_partial,
    rank,
    solve,
    specialize,
)
from mf2.ringpoly import RingDescriptor, RingPoly

FIELDS = [default_spec(k) for k in (1, 2, 3, 4)]
GF4 = default_spec(2)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SLOW = settings(max_examples=12, deadline=None, derandomize=True, database=None)


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
def field_matrices(draw, max_dim=6, square=False):
    spec = draw(st.sampled_from(FIELDS))
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
def test_solve_matches_dense_elimination(m, data):
    spec = m.spec
    elems = st.integers(0, spec.order - 1)
    if data.draw(st.booleans()):
        b = m.apply(data.draw(st.lists(elems, min_size=m.cols, max_size=m.cols)))
    else:
        b = data.draw(st.lists(elems, min_size=m.rows, max_size=m.rows))
    assert solve(m, b) == dense_solve(m, b)


@PROPERTY
@given(field_matrices(square=True))
def test_minimal_polynomial_matches_dense_loop(m):
    assert minimal_polynomial(m) == dense_minimal_polynomial(m)


@PROPERTY
@given(st.sampled_from(FIELDS), st.data())
def test_scale_is_slotwise_field_product(spec, data):
    n = data.draw(st.integers(1, 12))
    values = data.draw(st.lists(st.integers(0, spec.order - 1), min_size=n, max_size=n))
    c = data.draw(st.integers(1, spec.order - 1))
    ech = Echelon(spec)
    assert ech.unpack(ech.scale(ech.pack(values), c), n) == [spec.mul(c, v) for v in values]


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_gf2_rank_survives_embedding_into_gf4(rows, cols, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
    m2 = FieldMatrix(GF2, rows, cols, bits)
    m4 = FieldMatrix(GF4, rows, cols, bits)
    assert rank(m2) == rank(m4) == dense_rank(m4)
    assert kernel_basis(m2) == kernel_basis(m4)


# -- one-pass window cohomology against the per-radius definition ----------------------


def per_radius_dims(mf, d_max):
    """h_d = n_d - rank(d|B_d) - (rank(d|B_{d+1}) - rank of its rows outside B_d)."""
    ring = mf.ring
    hull = mf.q.support_hull()
    dims = {}
    for d in range(1, d_max + 1):
        win_d = Window.symmetric(ring, d)
        win_next = Window.symmetric(ring, d + 1)
        win_out = win_next.expanded(hull)
        n_d = mf.size * mf.size * win_d.size
        rank_d = rank(delta_as_field_matrix(mf, mf, win_d, win_d.expanded(hull)))
        big = delta_as_field_matrix(mf, mf, win_next, win_out)
        out_basis = [e for _ in range(mf.size * mf.size) for e in win_out.monomials()]
        outside = [r for r, e in enumerate(out_basis) if not win_d.contains(e)]
        outer = FieldMatrix(big.spec, len(outside), big.cols,
                            [v for r in outside for v in big.row(r)])
        dims[d] = n_d - rank_d - (rank(big) - rank(outer))
    return dims


CASES = (
    ("rp2", 1, 1), ("rp2", 2, 1), ("an_q_1", 1, 2), ("an_q_2", 2, 2),
    ("an_r_2", 1, 3), ("an_r_3", 2, 3),
)


@SLOW
@given(st.sampled_from(CASES), st.data())
def test_one_pass_dims_match_per_radius_definition(case, data):
    name, k, d_max = case
    mf = load_fixture(name, default_spec(k))
    perm = data.draw(st.permutations(range(mf.size)))
    units = data.draw(st.lists(st.integers(1, (1 << k) - 1), min_size=mf.size, max_size=mf.size))
    mf = conjugate(mf, perm, units)
    assert cohomology_dims(mf, mf, d_max) == per_radius_dims(mf, d_max)


# -- point certificates ------------------------------------------------------------------


def dense_certificate(mf, point, cls):
    """(kernel_dim, image_dim, coordinates or error) from the dense routines."""
    qs = specialize(mf.q, point)
    n = mf.size
    entries = [0] * (n * n * n * n)
    for r in range(n):
        for c in range(n):
            col = r * n + c
            for i in range(n):
                entries[(i * n + c) * n * n + col] ^= qs.at(i, r)
                entries[(r * n + i) * n * n + col] ^= qs.at(c, i)
    dmat = FieldMatrix(qs.spec, n * n, n * n, entries)
    image_dim = dense_rank(dmat)
    vec = list(specialize(cls, point).entries)
    if any(dmat.apply(vec)):
        return n * n - image_dim, image_dim, "class is not closed at the point"
    try:
        return n * n - image_dim, image_dim, dense_class_coordinates(dmat, vec)
    except ValueError as exc:
        return n * n - image_dim, image_dim, str(exc)


@PROPERTY
@given(st.sampled_from(("rp2", "an_q_1", "an_r_2")), st.data())
def test_point_certificate_matches_dense_echelon(name, data):
    spec = GF4
    mf = load_fixture(name, spec)
    mf = conjugate(mf, data.draw(st.permutations(range(mf.size))),
                   data.draw(st.lists(st.integers(1, 3), min_size=mf.size, max_size=mf.size)))
    ring = mf.ring
    low = 1 if name == "rp2" else 0  # Laurent variables avoid zero
    coords = data.draw(st.lists(st.integers(low, 3), min_size=ring.nvars, max_size=ring.nvars))
    point = [spec.element(v) for v in coords]
    # closed classes: scalars, Q and the partials of Q, plus a coboundary
    ident = RingMatrix.identity(ring, mf.size)
    gens = [ident, mf.q] + [matrix_partial(mf.q, v) for v in range(ring.nvars)]
    g = RingMatrix(ring, mf.size, mf.size, [
        RingPoly(ring, {(0,) * ring.nvars: c}) if c else RingPoly.zero(ring)
        for c in data.draw(st.lists(st.integers(0, 3), min_size=mf.size ** 2,
                                    max_size=mf.size ** 2))
    ])
    cls = mf.q * g + g * mf.q
    for gen in gens:
        c = data.draw(st.integers(0, 3))
        if c:
            cls = cls + gen.scale(RingPoly(ring, {(0,) * ring.nvars: c}))
    kernel_dim, image_dim, want = dense_certificate(mf, point, cls)
    try:
        report = certify_at_point(mf, mf, point, [cls])
    except ValueError as exc:
        assert str(exc) == want
    else:
        assert (report.kernel_dim, report.image_dim) == (kernel_dim, image_dim)
        assert report.class_coordinates == (want,)
