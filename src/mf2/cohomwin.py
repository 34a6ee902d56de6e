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

A column of d is one packed Echelon int.  With n = src.size and
cells = tgt.size * n, the output coordinate of E_rc x^m is
block[m] * cells + r * n + c, where block numbers the monomials of the
output window by packed key; a window's keys are sums of one term per
lane (RingDescriptor.box_keys), and a domain column is a (packed key,
cell) pair.  The image of one domain cell is one small int per shift s,
with every output cell in its own slot, so terms that meet at one cell
and shift cancel there.  One builder, _cell_images, makes these images
from the entries of Q_X and Q_Y as {shift key: coefficient} dicts.
Point certificates pass it the specialized entries, each a polynomial
of one shift, so their columns are the same cell images, and a class is
closed at the point when its entries weight those columns to zero.
_delta_columns gives each distinct shift an index and each domain key e
one offset row, the bit offset of the block of e + s per shift index; a
key whose shifts leave the output window raises while the rows are
built, before any column.  The column of (x^e, cell) is then one loop
over the cell's (shift index, small int) pairs, each int shifted by its
offset and ORed in: one big shift per distinct shift, with no key
addition or dict lookup, and only when the column is asked for.

All h_1..h_dmax come from one elimination over B_{dmax+1}, in the
manner of persistence reduction (Zomorodian & Carlsson, "Computing
Persistent Homology", 2005).  The radius of a monomial is the smallest d
whose window holds it.  Output monomials are numbered outermost first,
so the domain window is a trailing run of blocks, and domain columns
enter in the exact reverse of the output numbering: column t is output
coordinate size-1-t.  Radii ascend, so every B_r is a prefix of the
insertion order and the pivot count after it is the rank of d on B_r;
span B_{r-1} is a trailing run of blocks, and with lowest-index pivots
an echelon row has its pivot there exactly when it has no component
outside, so the pivots in those blocks count dim(d(B_r) ∩ span B_{r-1}).

The reverse order makes the elimination cheaper by clearing (Chen &
Kerber, "Persistent Homology Computation with a Twist", EuroCG 2011;
Bauer, Kerber & Reininghaus, "Clear and Compress: Computing Persistent
Homology in Chunks", 2014).  An echelon row R = d(u) has its pivot p at
its lowest coordinate, which is the latest inserted one in its support.
When p lies in the domain, all of R lies there, and d(R) = d^2(u) = 0
writes the column of p as a combination of columns inserted before it.
So that column is never built or inserted: it would add no pivot, and
neither the rank of any prefix nor the pivot count per radius changes.
Each radius is one Echelon.insert_all run over one lazy generator, which
takes the domain keys' offset rows in order, tests each column's
coordinate against the pivots and builds only the columns that pass, so
the filter sees a pivot as soon as it is inserted; the radius's new
pivots are the tail of the echelon's rows, which keep insertion order.

solve_exactness runs the same cleared pass on any box, symmetric or not.
Its output numbering lists the output window's keys outside the box
first, then the box's own keys in reverse, so its column t is again
output coordinate last - t, and the argument above holds for any
Hom(src, tgt), where d^2 = 0 as well.  The whole box is one run of the
same generator, which records the coordinate of each column it builds:
slot j of the tracked Echelon's combinations is the j-th of them, a
(key, cell) pair.  The witness g is read from the inserted columns only.
A cleared column gets coefficient 0, as in a full elimination in the same
order, where it is a free variable (see the note on unique solutions in
ringmat); so g depends on the order, not on the clearing.

Specializing at a field point collapses d to a finite operator; local
reports carry kernel/image dimensions and deterministic coordinates of
chosen classes in the local cohomology.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Optional, Sequence

from .gf2k import FieldElem, FieldSpec, Immutable
from .mfcore import HomotopyWitness, Morphism, UngradedMF, _check_hom
from .ringmat import Echelon, RingMatrix, specialize
from .ringpoly import RingDescriptor, RingPoly

__all__ = [
    "Window",
    "cohomology_dims",
    "solve_exactness",
    "find_critical_points",
    "certify_at_point",
    "LocalCohomologyReport",
]

# Largest window whose monomials are listed, and most columns of the
# differential (one per monomial and matrix entry): more exhaust memory first.
# find_critical_points enumerates at most this many field points.
MAX_WINDOW_MONOMIALS = 1 << 20


def _check_columns(cells: int, domain: Window) -> None:
    """Refuse, before listing any monomial, more than MAX_WINDOW_MONOMIALS columns."""
    n = cells * domain.size
    if n > MAX_WINDOW_MONOMIALS:
        raise ValueError(f"differential has {n} columns, above the limit of {MAX_WINDOW_MONOMIALS}")


class Window(Immutable):
    """Per-variable exponent bounds (lo, hi), inclusive; lo > hi is empty."""

    __slots__ = ("ring", "bounds")

    def __init__(self, ring: RingDescriptor, bounds: tuple[tuple[int, int], ...]):
        super().__init__(ring, bounds)
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

    def _check_size(self) -> None:
        n = self.size
        if n > MAX_WINDOW_MONOMIALS:
            raise ValueError(f"window has {n} monomials, above the limit of {MAX_WINDOW_MONOMIALS}")

    def monomials(self) -> list[tuple[int, ...]]:
        self._check_size()
        return list(itertools.product(*[range(lo, hi + 1) for lo, hi in self.bounds]))

    def keys(self) -> list[int]:
        """The packed keys of monomials(), in the same order."""
        self._check_size()
        return self.ring.box_keys(self.bounds)

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


def _cell_images(qs: Sequence[dict[int, int]], qt: Sequence[dict[int, int]],
                 m: int, n: int, k: int) -> list[dict[int, int]]:
    """The image d(E_ij) = Q_Y E_ij + E_ij Q_X of each cell i*n + j of
    Hom(X, Y), m = Y.size and n = X.size, from the row-major entries of Q_X
    (qs) and Q_Y (qt) as {shift key: coefficient} dicts over GF(2^k).  A
    cell's image maps each shift key to one small int that holds the
    coefficient of E_rc in slot k*(r*n + c)."""
    images = []
    for i in range(m):
        for j in range(n):
            # sum_r qt[r, i] E_rj + sum_c qs[j, c] E_ic: the two sums meet
            # only at cell i*n + j, where terms of one shift cancel
            acc: dict[int, int] = {}
            for r in range(m):
                for s, c in qt[r * m + i].items():
                    acc[s] = acc.get(s, 0) ^ c << (k * (r * n + j))
            for col in range(n):
                for s, c in qs[j * n + col].items():
                    acc[s] = acc.get(s, 0) ^ c << (k * (i * n + col))
            images.append(acc)
    return images


def _delta_columns(src: UngradedMF, tgt: UngradedMF,
                   domain: Sequence[tuple[int, int]],
                   out_block: dict[int, int]) -> tuple[list[list[tuple[int, int]]], dict[int, list[int]]]:
    """The offset tables (images, offsets) of d on the domain columns,
    (packed key, cell) pairs.  The domain cell i*n + j stands for E_ij
    (n = src.size); out_block numbers the output window's monomials by
    packed key, and the coefficient of E_rc x^m sits in slot
    out_block[m]*cells + r*n + c.  images[cell] is the image of the cell's
    unit matrix as (shift index, small int) pairs; offsets[e], for each
    domain key e, lists per shift index the bit offset of the block of
    e moved by that shift.  The column of (e, cell) is the OR of
    v << offsets[e][s] over the (s, v) in images[cell].

    Raises, before any column is built, if a domain key moved by the shift
    of any cell's image leaves the output window.  That is exactly a column
    that overflows when the domain holds every cell for each of its keys,
    as both window passes do."""
    m, n = tgt.size, src.size
    k, one = src.ring.field.k, src.ring.one_key
    # d(E_ij x^e) is x^e d(E_ij): the entries' packed keys are the shifts
    shift_index: dict[int, int] = {}
    images = [[(shift_index.setdefault(s, len(shift_index)), v) for s, v in image.items() if v]
              for image in _cell_images([e.packed for e in src.q.entries],
                                        [e.packed for e in tgt.q.entries], m, n, k)]
    # x^e shifted by s has key e + s - one; out_block is a bijection, so the
    # shifted images of one column are disjoint and OR adds them
    shifts = [s - one for s in shift_index]
    width = k * m * n
    try:
        offsets = {e: [out_block[e + s] * width for s in shifts]
                   for e in dict.fromkeys(map(itemgetter(0), domain))}
    except KeyError:
        raise ValueError("window overflow: differential image leaves the output window") from None
    return images, offsets


def _cleared_columns(images: list[list[tuple[int, int]]], rows: Sequence[list[int]],
                     pivots: dict[int, int], coord: int, taken: Optional[list[int]] = None):
    """The columns of the domain keys whose offset rows are `rows`, each
    key's cells in the order of `images`, at output coordinates coord,
    coord - 1, ...; a column whose coordinate is already in `pivots` is
    dependent (d^2 = 0) and is skipped.  Lazy, so it sees each pivot once
    inserted.  `taken` receives the coordinate of every column built."""
    for row in rows:
        for image in images:
            if coord not in pivots:
                col = 0  # one loop per column, inlined: a call per column costs 3-4%
                for s, v in image:
                    col |= v << row[s]
                if taken is not None:
                    taken.append(coord)
                yield col
            coord -= 1


def _radius(exps: Sequence[int]) -> int:
    """Smallest d with the monomial inside Window.symmetric(ring, d)."""
    return max(map(abs, exps))


def cohomology_dims(src: UngradedMF, tgt: UngradedMF, d_max: int) -> dict[int, int]:
    """{d: h_d} for d = 1..d_max over the hom complex Hom(src, tgt),
    from one radius-filtered pass (see the module docstring)."""
    _check_hom(src, tgt)
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    ring = src.ring
    cells = tgt.size * src.size
    dom = Window.symmetric(ring, d_max + 1)
    _check_columns(cells, dom)
    win_out = dom.expanded(src.q.support_hull()).union(dom.expanded(tgt.q.support_hull()))
    radii = list(map(_radius, win_out.monomials()))
    keys = win_out.keys()
    # outermost first; the sort is stable, so each radius keeps window order
    order = sorted(range(len(keys)), key=radii.__getitem__, reverse=True)
    out = [keys[b] for b in order]
    out_radius = [radii[b] for b in order]
    # domain column t is output coordinate last - t: the window's own
    # monomials are the trailing blocks of out, entered back to front, so
    # key index t // cells holds cell cells - 1 - t % cells
    last = len(out) * cells - 1
    dom_keys = out[len(out) - dom.size:][::-1]
    domain = list(itertools.product(dom_keys, reversed(range(cells))))
    images, offsets = _delta_columns(src, tgt, domain, {e: b for b, e in enumerate(out)})
    images.reverse()
    rows = [offsets[e] for e in dom_keys]
    ech = Echelon(ring.field)
    pivots = ech.rows
    # B_r holds the first |Window.symmetric(ring, r)| domain keys
    ends = [Window.symmetric(ring, r).size for r in range(d_max + 2)]
    pivots_at = [0] * (out_radius[0] + 1)  # pivot count per output radius
    ranks, inner = [], []
    start = 0
    for r, end in enumerate(ends):
        before = len(pivots)
        ech.insert_all(_cleared_columns(images, rows[start:end], pivots, last - start * cells))
        for pivot in itertools.islice(pivots, before, None):
            pivots_at[out_radius[pivot // cells]] += 1
        start = end
        ranks.append(len(pivots))
        inner.append(sum(pivots_at[:r]))
    return {d: cells * ends[d] - ranks[d] - inner[d + 1] for d in range(1, d_max + 1)}


def solve_exactness(f: Morphism, window: Window) -> Optional[HomotopyWitness]:
    """Search the window for g with d(g) = f; the witness re-verifies
    symbolically, None means no witness exists inside this window."""
    src, tgt = f.source, f.target
    ring = src.ring
    if window.ring != ring:
        raise ValueError("window ring does not match the morphism")
    cells = tgt.size * src.size
    _check_columns(cells, window)
    win_out = window.expanded(src.q.support_hull()).union(window.expanded(tgt.q.support_hull()))
    win_out = win_out.union(Window(ring, tuple(f.f.support_hull())))
    # the output keys outside the window first, then the window's keys
    # reversed: domain column t is output coordinate last - t
    keys = window.keys()
    inner = set(keys)
    out = [e for e in win_out.keys() if e not in inner] + keys[::-1]
    block = {e: b for b, e in enumerate(out)}
    last = len(out) * cells - 1
    domain = list(itertools.product(keys, reversed(range(cells))))
    images, offsets = _delta_columns(src, tgt, domain, block)
    images.reverse()
    ech = Echelon(ring.field, len(out) * cells)
    taken: list[int] = []  # the output coordinate of each combination slot
    ech.insert_all(_cleared_columns(images, [offsets[e] for e in keys], ech.rows, last, taken))
    rest, comb = ech.reduce(sum(
        c << ech.k * (block[key] * cells + cell)
        for cell, entry in enumerate(f.f.entries)
        for key, c in entry.packed.items()
    ))
    if rest:
        return None
    # a cleared column depends on columns inserted before it: coefficient 0
    gterms: list[dict[int, int]] = [{} for _ in range(cells)]
    for coord, c in zip(taken, ech.unpack(comb, len(taken))):
        if c:
            b, cell = divmod(coord, cells)
            gterms[cell][out[b]] = c
    g = RingMatrix(ring, tgt.size, src.size, [RingPoly._raw(ring, t) for t in gterms])
    return HomotopyWitness(f, g)


# -- local analysis at field points ------------------------------------------------


def find_critical_points(w: RingPoly, spec: FieldSpec) -> list[tuple[FieldElem, ...]]:
    """All points with every partial derivative of w vanishing; Laurent
    variables range over nonzero field elements only.  Refuses, before
    listing any, more than MAX_WINDOW_MONOMIALS points."""
    ring = w.ring
    count = math.prod(spec.order - 1 if laur else spec.order for laur in ring.laurent)
    if count > MAX_WINDOW_MONOMIALS:
        raise ValueError(f"{count} field points to search, above the limit of {MAX_WINDOW_MONOMIALS}")
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


class LocalCohomologyReport(Immutable):
    """Kernel/image data of the specialized differential at one point,
    with coordinates of the requested classes in a fixed basis of the
    local cohomology (all-zero coordinates = locally exact)."""

    __slots__ = ("point", "kernel_dim", "image_dim", "class_coordinates")

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
    _check_hom(src, tgt)
    qs = specialize(src.q, point)
    qt = qs if tgt is src else specialize(tgt.q, point)
    spec = qs.spec
    m, n = tgt.size, src.size
    ncols = m * n
    # a specialized entry is a polynomial of the one shift 0
    columns = [by_shift[0] for by_shift in
               _cell_images([{0: v} for v in qs.entries], [{0: v} for v in qt.entries], m, n, spec.k)]
    image = Echelon(spec, ncols)
    relations = image.insert_all(columns)
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
        d_cls = 0  # d(cls) = sum of cls[cell] * d(E_cell)
        for column, c in zip(columns, fp.entries):
            d_cls ^= image.scale(column, c)
        if d_cls:
            raise ValueError("class is not closed at the point")
        red, _ = image.reduce(image.pack(fp.entries))
        if local.reduce(red)[0]:
            raise ValueError("class escapes the local kernel decomposition")
        values = image.unpack(red, ncols)
        coords.append(tuple(values[p] for p in leads))
    return LocalCohomologyReport(tuple(point), ncols - image_dim, image_dim, tuple(coords))
