"""Matrices over polynomial rings and over finite fields.

RingMatrix holds RingPoly entries (row-major, immutable by convention)
and supplies the block algebra the factorization layer is built on.
FieldMatrix holds serialized field values.  Rank, kernels and solving
run through Echelon, one elimination kernel for every GF(2^k) that packs
a whole vector into one int (a bitset when k = 1).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .gf2k import GF2, FieldElem, FieldSpec
from .ringpoly import ParseError, RingDescriptor, RingPoly, parse_poly

__all__ = [
    "RingMatrix",
    "FieldMatrix",
    "commutator",
    "block2",
    "blocks_of",
    "matrix_partial",
    "specialize",
    "parse_matrix",
    "Echelon",
    "rank",
    "kernel_basis",
    "solve",
]


class RingMatrix:
    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: RingDescriptor, rows: int, cols: int, entries: Sequence[RingPoly]):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        for e in entries:
            if e.ring != ring:
                raise ValueError("ring mismatch in matrix entry")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("RingMatrix is immutable")

    @classmethod
    def from_rows(cls, ring: RingDescriptor, rows: Sequence[Sequence[RingPoly]]) -> "RingMatrix":
        r = len(rows)
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(ring, r, c, [e for row in rows for e in row])

    @classmethod
    def zeros(cls, ring: RingDescriptor, rows: int, cols: int) -> "RingMatrix":
        z = RingPoly.zero(ring)
        return cls(ring, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, ring: RingDescriptor, n: int) -> "RingMatrix":
        z, o = RingPoly.zero(ring), RingPoly.one(ring)
        return cls(ring, n, n, [o if i == j else z for i in range(n) for j in range(n)])

    def at(self, i: int, j: int) -> RingPoly:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[RingPoly, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        return RingMatrix(
            self.ring, self.rows, self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    __sub__ = __add__

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            my_row = self.row(i)
            for j in range(other.cols):
                acc = RingPoly.zero(self.ring)
                for k in range(self.cols):
                    a = my_row[k]
                    b = other.at(k, j)
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                out.append(acc)
        return RingMatrix(self.ring, self.rows, other.cols, out)

    def scale(self, c: RingPoly) -> "RingMatrix":
        return RingMatrix(self.ring, self.rows, self.cols, [c * e for e in self.entries])

    def map_entries(self, fn: Callable[[RingPoly], RingPoly]) -> "RingMatrix":
        return RingMatrix(self.ring, self.rows, self.cols, [fn(e) for e in self.entries])

    def transpose(self) -> "RingMatrix":
        return RingMatrix(
            self.ring, self.cols, self.rows,
            [self.at(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def support_hull(self) -> list[tuple[int, int]]:
        """Per-variable (min, max) exponent over all entries; (0, 0) if all zero."""
        n = self.ring.nvars
        lo = [0] * n
        hi = [0] * n
        seen = False
        for e in self.entries:
            b = e.support_bounds()
            if b is None:
                continue
            if not seen:
                lo = [x for x, _ in b]
                hi = [x for _, x in b]
                seen = True
            else:
                lo = [min(a, x) for a, (x, _) in zip(lo, b)]
                hi = [max(a, x) for a, (_, x) in zip(hi, b)]
        return list(zip(lo, hi))

    def __str__(self) -> str:
        return "; ".join(
            ", ".join(str(self.at(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )

    def __repr__(self) -> str:
        return f"RingMatrix({self})"


def commutator(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """[a, b] = ab + ba, which in characteristic 2 is also the anticommutator."""
    return a * b + b * a


def block2(a: RingMatrix, b: RingMatrix, c: RingMatrix, d: RingMatrix) -> RingMatrix:
    """Assemble [[a, b], [c, d]] from equally sized square blocks."""
    n = a.rows
    for m in (a, b, c, d):
        if m.rows != n or m.cols != n:
            raise ValueError("block2 needs four square blocks of equal size")
    rows = []
    for i in range(n):
        rows.append(list(a.row(i)) + list(b.row(i)))
    for i in range(n):
        rows.append(list(c.row(i)) + list(d.row(i)))
    return RingMatrix.from_rows(a.ring, rows)


def blocks_of(m: RingMatrix) -> tuple[RingMatrix, RingMatrix, RingMatrix, RingMatrix]:
    """Split an even-sized square matrix into its four half-size blocks."""
    if not m.is_square() or m.rows % 2:
        raise ValueError("blocks_of needs an even square matrix")
    n = m.rows // 2

    def block(r0: int, c0: int) -> RingMatrix:
        return RingMatrix(
            m.ring, n, n,
            [m.at(r0 + i, c0 + j) for i in range(n) for j in range(n)],
        )

    return block(0, 0), block(0, n), block(n, 0), block(n, n)


def matrix_partial(m: RingMatrix, var: int | str) -> RingMatrix:
    return m.map_entries(lambda e: e.partial(var))


def specialize(m: RingMatrix, point: Sequence[FieldElem]) -> "FieldMatrix":
    """Evaluate every entry at a point (over the ring's field or an extension)."""
    if not point:
        raise ValueError("empty point")
    spec = point[0].spec
    vals = [m.at(i, j).evaluate(point).value for i in range(m.rows) for j in range(m.cols)]
    return FieldMatrix(spec, m.rows, m.cols, vals)


def parse_matrix(text: str, ring: RingDescriptor, rows: Optional[int] = None,
                 cols: Optional[int] = None, line_offset: int = 0) -> RingMatrix:
    """Rows separated by ';' (or newlines), entries by ','."""
    normalized = text.replace("\n", ";")
    row_texts = [r for r in normalized.split(";") if r.strip()]
    if not row_texts:
        raise ParseError("empty matrix", 1 + line_offset, 1)
    entries = []
    ncols = None
    for r_i, row_text in enumerate(row_texts):
        cells = row_text.split(",")
        if ncols is None:
            ncols = len(cells)
        elif len(cells) != ncols:
            raise ParseError(
                f"row {r_i + 1} has {len(cells)} entries, expected {ncols}",
                1 + line_offset, 1,
            )
        for cell in cells:
            entries.append(parse_poly(cell, ring, line_offset))
    nrows = len(row_texts)
    if rows is not None and (nrows, ncols) != (rows, cols):
        raise ParseError(
            f"matrix is {nrows}x{ncols}, expected {rows}x{cols}", 1 + line_offset, 1
        )
    return RingMatrix(ring, nrows, ncols, entries)


# -- field matrices -------------------------------------------------------------


class FieldMatrix:
    """Dense matrix of serialized GF(2^k) values, row-major."""

    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(self, spec: FieldSpec, rows: int, cols: int, entries: Sequence[int]):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        for v in entries:
            spec.validate(v)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "FieldMatrix":
        return cls(spec, n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and (self.spec, self.rows, self.cols, self.entries)
            == (other.spec, other.rows, other.cols, other.entries)
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.rows, self.cols, self.entries))

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return FieldMatrix(
            self.spec, self.rows, self.cols,
            [a ^ b for a, b in zip(self.entries, other.entries)],
        )

    def __mul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        mul = self.spec.mul
        out = []
        for i in range(self.rows):
            r = self.row(i)
            for j in range(other.cols):
                acc = 0
                for k in range(self.cols):
                    if r[k]:
                        acc ^= mul(r[k], other.at(k, j))
                out.append(acc)
        return FieldMatrix(self.spec, self.rows, other.cols, out)

    def apply(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        mul = self.spec.mul
        out = []
        for i in range(self.rows):
            r = self.row(i)
            acc = 0
            for k in range(self.cols):
                if r[k] and vec[k]:
                    acc ^= mul(r[k], vec[k])
            out.append(acc)
        return out

    def __str__(self) -> str:
        return "; ".join(
            ", ".join(str(self.at(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )


# -- elimination ---------------------------------------------------------------
#
# Every rank, kernel, solve and normal form in the package runs through
# Echelon.  A vector over GF(2^k) is one int holding coefficient j in bits
# [k*j, k*j + k), the packing of M4RIE (Albrecht, Bard & Pernet, arXiv
# 1111.6549): adding two vectors is one XOR, and for k = 1 a vector is a
# plain bitset.  Pivots sit at the lowest nonzero index, so the pivot set,
# and with it every normal form, depends on the span of the inserted
# vectors alone.  Kernel bases and solutions fix each free variable (a
# column that depends on the columns before it) at zero, which makes them
# unique too: any correct elimination returns the same vectors.


class Echelon:
    """Incremental lowest-index echelon form of packed GF(2^k) vectors.

    `insert` reduces a vector by the pivot rows and keeps a nonzero
    remainder, scaled to be monic, as the row of a new pivot.  With
    `track` set, every row also carries the combination of inserted
    vectors that equals it (packed the same way, slot i for the i-th
    insert), so a vector that reduces to zero yields the relation that
    cancels it, and `reduce` yields the coefficients of a solution.
    """

    __slots__ = ("spec", "k", "track", "rows", "combs", "count", "_mask", "_low", "_top", "_bits")

    def __init__(self, spec: FieldSpec, track: bool = False):
        self.spec = spec
        self.k = spec.k
        self.track = track
        self.rows: dict[int, int] = {}  # pivot index -> monic row
        self.combs: dict[int, int] = {}  # pivot index -> combination equal to its row
        self.count = 0  # vectors inserted so far
        self._mask = (1 << spec.k) - 1
        self._low = spec.modulus ^ (1 << spec.k)  # t^k reduced by the modulus
        self._top = 0  # top bit of every slot below bit _bits
        self._bits = 0

    def pack(self, values: Iterable[int]) -> int:
        return self.pack_items(enumerate(values))

    def pack_items(self, items: Iterable[tuple[int, int]]) -> int:
        """Packs (index, value) pairs; indices left out are zero."""
        k = self.k
        return sum(v << (k * j) for j, v in items)

    def unpack(self, v: int, n: int) -> list[int]:
        k, mask = self.k, self._mask
        return [(v >> (k * j)) & mask for j in range(n)]

    def scale(self, v: int, c: int) -> int:
        """c * v slot by slot: one masked shift (a product by t) per bit of c."""
        if c == 1:
            return v
        k = self.k
        if v.bit_length() > self._bits:
            self._bits = k * (2 * v.bit_length() // k + 1)
            self._top = ((1 << self._bits) - 1) // self._mask << (k - 1)
        top, low, shift = self._top, self._low, k - 1
        acc = v if c & 1 else 0
        c >>= 1
        while c:
            hi = v & top
            v = ((v ^ hi) << 1) ^ ((hi >> shift) * low)
            if c & 1:
                acc ^= v
            c >>= 1
        return acc

    def _reduce(self, v: int, comb: int, full: bool) -> tuple[int, int]:
        """Eliminate pivots from the bottom of v up; stop at the first
        non-pivot slot unless `full`, which carries on past it."""
        rows, combs, track, k = self.rows, self.combs, self.track, self.k
        kept = 0
        if k == 1:
            while v:
                bit = v & -v
                p = bit.bit_length() - 1
                row = rows.get(p)
                if row is not None:
                    v ^= row
                    if track:
                        comb ^= combs[p]
                elif full:
                    kept |= bit
                    v ^= bit
                else:
                    break
            return kept | v, comb
        scale, mask = self.scale, self._mask
        while v:
            p = ((v & -v).bit_length() - 1) // k
            row = rows.get(p)
            if row is not None:
                c = (v >> (k * p)) & mask
                v ^= scale(row, c)
                if track:
                    comb ^= scale(combs[p], c)
            elif full:
                slot = v & (mask << (k * p))
                kept |= slot
                v ^= slot
            else:
                break
        return kept | v, comb

    def insert(self, v: int) -> tuple[Optional[int], int]:
        """Reduce v and keep the remainder as a new pivot row.

        Returns (pivot, comb): the new pivot index and the combination
        equal to its row, or (None, relation) when v lies in the span.
        comb is 0 unless tracking."""
        comb = 1 << (self.k * self.count) if self.track else 0
        self.count += 1
        v, comb = self._reduce(v, comb, False)
        if not v:
            return None, comb
        k = self.k
        p = ((v & -v).bit_length() - 1) // k
        c = (v >> (k * p)) & self._mask
        if c != 1:
            c = self.spec.inv(c)
            v, comb = self.scale(v, c), self.scale(comb, c)
        self.rows[p] = v
        if self.track:
            self.combs[p] = comb
        return p, comb

    def insert_all(self, vectors: Iterable[int]) -> list[int]:
        """Insert in order; returns the relations of the dependent vectors."""
        return [comb for p, comb in map(self.insert, vectors) if p is None]

    def reduce(self, v: int) -> tuple[int, int]:
        """(r, comb): the normal form r of v, zero at every pivot, and the
        combination of inserted vectors equal to v - r (0 unless tracking)."""
        return self._reduce(v, 0, True)

    def reduced_row(self, p: int) -> int:
        """The row of pivot p in reduced echelon form (zero at the other pivots)."""
        unit = 1 << (self.k * p)
        return unit ^ self.reduce(self.rows[p] ^ unit)[0]


def _column_echelon(m: FieldMatrix, track: bool = False) -> tuple[Echelon, list[int]]:
    """Echelon of m's columns in order, with the relation of each column
    that depends on the earlier ones."""
    ech = Echelon(m.spec, track)
    relations = ech.insert_all(ech.pack(m.entries[j::m.cols]) for j in range(m.cols))
    return ech, relations


# Packed entry points kept for profilers that hook elimination by name.


def gf2_rank(rows: list[int]) -> int:
    """Rank of packed GF(2) row vectors."""
    ech = Echelon(GF2)
    ech.insert_all(rows)
    return len(ech.rows)


def gf2_solve_combination(rows: list[int], target: int, width: int) -> Optional[list[int]]:
    """Coefficients c with xor of c_i * rows_i == target, or None; the
    coefficient of every row that depends on earlier rows is zero."""
    ech = Echelon(GF2, track=True)
    ech.insert_all(rows)
    rest, comb = ech.reduce(target)
    return None if rest else ech.unpack(comb, width)


def _generic_echelon(rows: list[list[int]], spec: FieldSpec) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of dense rows; returns (rows, pivot column list)."""
    ech, width = Echelon(spec), len(rows[0]) if rows else 0
    ech.insert_all(ech.pack(row) for row in rows)
    pivots = sorted(ech.rows)
    red = [ech.unpack(ech.reduced_row(p), width) for p in pivots]
    return red + [[0] * width for _ in range(len(rows) - len(red))], pivots


def rank(m: FieldMatrix) -> int:
    return len(_column_echelon(m)[0].rows)


def kernel_basis(m: FieldMatrix) -> list[list[int]]:
    """Basis of {x : m x = 0}; one vector per free column, ascending.

    A column is free when it depends on the columns before it; its vector
    is the unique kernel element with a 1 there and 0 at the other free
    columns."""
    ech, relations = _column_echelon(m, track=True)
    return [ech.unpack(rel, m.cols) for rel in relations]


def solve(m: FieldMatrix, b: Sequence[int]) -> Optional[list[int]]:
    """One solution of m x = b with free variables set to zero, or None."""
    if len(b) != m.rows:
        raise ValueError("dimension mismatch")
    ech, _ = _column_echelon(m, track=True)
    rest, comb = ech.reduce(ech.pack(b))
    return None if rest else ech.unpack(comb, m.cols)
