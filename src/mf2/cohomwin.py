"""Finite-window cohomology of morphism complexes.

Hom(X, Y) between factorizations of one potential carries the
differential d(f) = Q_Y f + f Q_X with d^2 = 0, but it is infinite
dimensional over the ground field.  Ranks are therefore taken on
finite monomial windows: B_d spans the matrices whose entry exponents
lie in [-d, d] for Laurent variables and [0, d] otherwise.  The window
diagnostic

    h_d = dim ker(d restricted to B_d) - dim(d(B_{d+1}) ∩ span B_d)

counts closed morphisms inside the window minus the coboundaries that
land inside it with witnesses allowed one step beyond.  Coboundaries
are closed (d^2 = 0), so the subtraction is an honest subquotient
dimension; the sequence is reported raw, with no monotonicity claim,
and its stable value is a diagnostic for (not a proof of) the actual
cohomology dimension.  Exact answers come from the witness solver and
the point certification below.

All h_1..h_dmax come from one elimination over B_{dmax+1}, in the
manner of persistence reduction (Zomorodian & Carlsson, "Computing
Persistent Homology", 2005).  The radius of a monomial is the smallest d
whose window holds it.  Domain columns enter in ascending radius, so
every B_r is a prefix of the insertion order and the pivot count after
it is the rank of d on B_r.  Output coordinates are numbered outermost
first, so span B_{r-1} is a trailing block; with lowest-index pivots an
echelon row has its pivot there exactly when it has no component
outside, so the pivots in that block count dim(d(B_r) ∩ span B_{r-1}).

Specializing at a field point collapses d to a finite operator; local
reports carry kernel/image dimensions and deterministic coordinates of
chosen classes in the local cohomology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .gf2k import FieldElem, FieldSpec
from .mfcore import HomotopyWitness, Morphism, UngradedMF
from .ringmat import Echelon, FieldMatrix, RingMatrix, _column_echelon, specialize
from .ringpoly import RingDescriptor, RingPoly

__all__ = [
    "Window",
    "delta_as_field_matrix",
    "cohomology_dims",
    "solve_exactness",
    "find_critical_points",
    "certify_at_point",
    "LocalCohomologyReport",
]


@dataclass(frozen=True)
class Window:
    """Per-variable exponent bounds (lo, hi), inclusive; lo > hi is empty."""

    ring: RingDescriptor
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.bounds) != self.ring.nvars:
            raise ValueError("window needs one bound pair per variable")
        for (lo, hi), laur in zip(self.bounds, self.ring.laurent):
            if not laur and lo < 0:
                raise ValueError("negative window bound on non-Laurent variable")

    @classmethod
    def symmetric(cls, ring: RingDescriptor, d: int) -> "Window":
        """[-d, d] per Laurent variable, [0, d] otherwise."""
        return cls(ring, tuple((-d, d) if laur else (0, d) for laur in ring.laurent))

    @property
    def size(self) -> int:
        n = 1
        for lo, hi in self.bounds:
            n *= max(hi - lo + 1, 0)
        return n

    def monomials(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*[range(lo, hi + 1) for lo, hi in self.bounds]))

    def contains(self, exps: Sequence[int]) -> bool:
        return all(lo <= e <= hi for e, (lo, hi) in zip(exps, self.bounds))

    def expanded(self, hull: Sequence[tuple[int, int]]) -> "Window":
        """Grow the window so that shifting by any hull exponent stays inside."""
        bs = []
        for (lo, hi), (hlo, hhi), laur in zip(self.bounds, hull, self.ring.laurent):
            nlo = lo + min(hlo, 0)
            nhi = hi + max(hhi, 0)
            if not laur:
                nlo = max(nlo, 0)
            bs.append((nlo, nhi))
        return Window(self.ring, tuple(bs))

    def union(self, other: "Window") -> "Window":
        if other.ring != self.ring:
            raise ValueError("ring mismatch between windows")
        return Window(self.ring, tuple(
            (min(a, c), max(b, d)) for (a, b), (c, d) in zip(self.bounds, other.bounds)
        ))


def _check_pair(src: UngradedMF, tgt: UngradedMF) -> None:
    if src.ring != tgt.ring:
        raise ValueError("ring mismatch between source and target")
    if src.w != tgt.w:
        raise ValueError("potential mismatch: hom-sets need a common potential")


def _combined_hull(a: RingMatrix, b: RingMatrix) -> list[tuple[int, int]]:
    ha = a.support_hull()
    hb = b.support_hull()
    return [(min(x, u), max(y, v)) for (x, y), (u, v) in zip(ha, hb)]


def _hom_basis(src: UngradedMF, tgt: UngradedMF, win: Window):
    mons = win.monomials()
    return [
        (i, j, e)
        for i in range(tgt.size)
        for j in range(src.size)
        for e in mons
    ]


def _delta_columns(src: UngradedMF, tgt: UngradedMF, basis_in, out_index) -> list[dict[int, int]]:
    """Sparse columns of d over the hom bases; raises if an image term
    falls outside the output window."""
    qs, qt = src.q, tgt.q
    # d(E_ij x^e) = sum_r qt[r, i] x^e E_rj + sum_c qs[j, c] x^e E_ic
    terms = {
        (i, j): [(r, j, s, c) for r in range(tgt.size) for s, c in qt.at(r, i).terms.items()]
        + [(i, c_j, s, c) for c_j in range(src.size) for s, c in qs.at(j, c_j).terms.items()]
        for i in range(tgt.size)
        for j in range(src.size)
    }
    shifts = {s for cell in terms.values() for _, _, s, _ in cell}
    shifted: dict[tuple[int, ...], dict[tuple[int, ...], tuple[int, ...]]] = {}
    cols = []
    for i, j, e in basis_in:
        sh = shifted.get(e)
        if sh is None:
            sh = shifted[e] = {s: tuple(a + b for a, b in zip(e, s)) for s in shifts}
        acc: dict[tuple[int, int, tuple[int, ...]], int] = {}
        for row, column, s, c in terms[i, j]:
            key = (row, column, sh[s])
            acc[key] = acc.get(key, 0) ^ c
        col: dict[int, int] = {}
        for key, coeff in acc.items():
            if not coeff:
                continue
            idx = out_index.get(key)
            if idx is None:
                raise ValueError(
                    "window overflow: differential image leaves the output window"
                )
            col[idx] = coeff
        cols.append(col)
    return cols


def delta_as_field_matrix(src: UngradedMF, tgt: UngradedMF,
                          win_in: Window, win_out: Window) -> FieldMatrix:
    """Dense matrix of d: Hom(win_in) -> Hom(win_out) over the ground field.

    Columns follow the (row, col, monomial) basis of win_in, rows the same
    basis of win_out; meant for small windows (the rank pipeline keeps
    columns sparse instead).
    """
    _check_pair(src, tgt)
    basis_in = _hom_basis(src, tgt, win_in)
    basis_out = _hom_basis(src, tgt, win_out)
    out_index = {key: n for n, key in enumerate(basis_out)}
    cols = _delta_columns(src, tgt, basis_in, out_index)
    nrows, ncols = len(basis_out), len(basis_in)
    entries = [0] * (nrows * ncols)
    for c_idx, col in enumerate(cols):
        for r_idx, v in col.items():
            entries[r_idx * ncols + c_idx] = v
    return FieldMatrix(src.ring.field, nrows, ncols, entries)


def _radius(exps: Sequence[int]) -> int:
    """Smallest d with the monomial inside Window.symmetric(ring, d)."""
    return max(map(abs, exps))


def cohomology_dims(src: UngradedMF, tgt: UngradedMF, d_max: int) -> dict[int, int]:
    """{d: h_d} for d = 1..d_max over the hom complex Hom(src, tgt),
    from one radius-filtered pass (see the module docstring)."""
    _check_pair(src, tgt)
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    ring = src.ring
    dom = Window.symmetric(ring, d_max + 1)
    basis_dom = sorted(_hom_basis(src, tgt, dom), key=lambda b: _radius(b[2]))
    basis_out = _hom_basis(src, tgt, dom.expanded(_combined_hull(src.q, tgt.q)))
    basis_out.sort(key=lambda b: -_radius(b[2]))
    out_index = {key: n for n, key in enumerate(basis_out)}
    out_radius = [_radius(e) for _, _, e in basis_out]
    ech = Echelon(ring.field)
    cols = [ech.pack_items(col.items()) for col in _delta_columns(src, tgt, basis_dom, out_index)]
    pivots_at = [0] * (out_radius[0] + 1)  # pivot count per output radius
    ranks, inner = [], []
    pos = 0
    for r in range(d_max + 2):
        while pos < len(cols) and _radius(basis_dom[pos][2]) == r:
            pivot, _ = ech.insert(cols[pos])
            if pivot is not None:
                pivots_at[out_radius[pivot]] += 1
            pos += 1
        ranks.append(len(ech.rows))
        inner.append(sum(pivots_at[:r]))
    hom_rank = tgt.size * src.size
    return {
        d: hom_rank * Window.symmetric(ring, d).size - ranks[d] - inner[d + 1]
        for d in range(1, d_max + 1)
    }


def solve_exactness(f: Morphism, window: Window) -> Optional[HomotopyWitness]:
    """Search the window for g with d(g) = f; the witness re-verifies
    symbolically, None means no witness exists inside this window."""
    src, tgt = f.source, f.target
    if window.ring != src.ring:
        raise ValueError("window ring does not match the morphism")
    hull = _combined_hull(src.q, tgt.q)
    win_out = window.expanded(hull)
    fh = f.f.support_hull()
    win_out = win_out.union(Window(src.ring, tuple(fh)))
    basis_in = _hom_basis(src, tgt, window)
    basis_out = _hom_basis(src, tgt, win_out)
    out_index = {key: n for n, key in enumerate(basis_out)}
    cols = _delta_columns(src, tgt, basis_in, out_index)
    ech = Echelon(src.ring.field, track=True)
    ech.insert_all(ech.pack_items(col.items()) for col in cols)
    rest, comb = ech.reduce(ech.pack_items(
        (out_index[(i, j, e)], c)
        for i in range(tgt.size)
        for j in range(src.size)
        for e, c in f.f.at(i, j).terms.items()
    ))
    if rest:
        return None
    gterms: dict[tuple[int, int], dict[tuple[int, ...], int]] = {}
    for (i, j, e), c in zip(basis_in, ech.unpack(comb, len(cols))):
        if c:
            gterms.setdefault((i, j), {})[e] = c
    ring = src.ring
    g_entries = [
        RingPoly(ring, gterms.get((i, j), {}))
        for i in range(tgt.size)
        for j in range(src.size)
    ]
    g = RingMatrix(ring, tgt.size, src.size, g_entries)
    return HomotopyWitness(f, g)


# -- local analysis at field points ------------------------------------------------


def find_critical_points(w: RingPoly, spec: FieldSpec) -> list[tuple[FieldElem, ...]]:
    """All points with every partial derivative of w vanishing; Laurent
    variables range over nonzero field elements only."""
    ring = w.ring
    partials = [w.partial(i) for i in range(ring.nvars)]
    axes = []
    for laur in ring.laurent:
        elems = list(spec.elements())
        axes.append([e for e in elems if e.value] if laur else elems)
    out = []
    for point in itertools.product(*axes):
        if all(not p.evaluate(point).value for p in partials):
            out.append(point)
    return out


@dataclass(frozen=True)
class LocalCohomologyReport:
    """Kernel/image data of the specialized differential at one point,
    with coordinates of the requested classes in a fixed basis of the
    local cohomology (all-zero coordinates = locally exact)."""

    point: tuple[FieldElem, ...]
    kernel_dim: int
    image_dim: int
    class_coordinates: tuple[tuple[int, ...], ...]

    @property
    def local_dim(self) -> int:
        return self.kernel_dim - self.image_dim

    def is_exact(self, idx: int) -> bool:
        return not any(self.class_coordinates[idx])


def certify_at_point(src: UngradedMF, tgt: UngradedMF,
                     point: Sequence[FieldElem],
                     classes: Sequence[RingMatrix] = ()) -> LocalCohomologyReport:
    """Specialize the hom differential at a point and locate classes in
    the local cohomology ker/im."""
    _check_pair(src, tgt)
    qs = specialize(src.q, point)
    qt = specialize(tgt.q, point)
    spec = qs.spec
    m, n = tgt.size, src.size
    ncols = m * n
    entries = [0] * (ncols * ncols)
    # column (r, c) is d(e_rc) = qt e_rc + e_rc qs, stored row-major
    for r in range(m):
        for c in range(n):
            col = r * n + c
            for i in range(m):
                v = qt.at(i, r)
                if v:
                    row = i * n + c
                    entries[row * ncols + col] ^= v
            for j in range(n):
                v = qs.at(c, j)
                if v:
                    row = r * n + j
                    entries[row * ncols + col] ^= v
    dmat = FieldMatrix(spec, ncols, ncols, entries)
    image, relations = _column_echelon(dmat, track=True)
    image_dim = len(image.rows)
    # kernel vectors modulo the image span the local cohomology; a class's
    # coordinates are its normal form read at that span's pivots
    local = Echelon(spec)
    local.insert_all(image.reduce(rel)[0] for rel in relations)
    leads = sorted(local.rows)
    coords = []
    for cls in classes:
        fp = specialize(cls, point)
        if (fp.rows, fp.cols) != (m, n):
            raise ValueError("class shape does not match the hom space")
        vec = list(fp.entries)
        if any(dmat.apply(vec)):
            raise ValueError("class is not closed at the point")
        red, _ = image.reduce(image.pack(vec))
        if local.reduce(red)[0]:
            raise ValueError("class escapes the local kernel decomposition")
        values = image.unpack(red, ncols)
        coords.append(tuple(values[p] for p in leads))
    return LocalCohomologyReport(tuple(point), ncols - image_dim, image_dim, tuple(coords))
