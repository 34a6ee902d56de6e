"""Matrices over polynomial rings and over finite fields.

RingMatrix holds RingPoly entries (row-major, immutable) and supplies
the block algebra the factorization layer is built on: one slice,
RingMatrix.block, and one assembly of a 2x2 grid, block2.  Entries are
ring-checked once, at construction; a sum, product or scaling checks the
two operands' rings once and builds its result without checking each
entry again.  A product, or a sum of products such as the commutator
ab + ba, keeps one accumulator per output entry across every product and
inner index and fills it with ringpoly's multiply-accumulate kernel.
FieldMatrix holds serialized field values; its product applies the left
factor to each column of the right one.  Rank runs through Echelon, one
elimination kernel for every GF(2^k) that packs a whole vector into one
int (a bitset when k = 1), with two operations: one elimination loop,
Echelon.insert_all, that keeps new pivots in insertion order and returns
the relation of each dependent vector, and Echelon.reduce, the normal
form of a vector and the combination that reaches it.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Sequence

from .gf2k import GF2, FieldElem, FieldSpec, Immutable
from .ringpoly import RingDescriptor, RingPoly, _error_at, _mul_into, _parse_span

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
]


class RingMatrix(Immutable):
    __slots__ = ("ring", "rows", "cols", "entries")

    # __init__ and _raw write the slots through their descriptors: a matrix
    # is built per product and sum, too often to go through the generic
    # Immutable.__init__ or object.__setattr__.
    def __init__(self, ring: RingDescriptor, rows: int, cols: int, entries: Sequence[RingPoly]):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        for e in entries:
            if e.ring is not ring and e.ring != ring:
                raise ValueError("ring mismatch in matrix entry")
        _set_ring(self, ring)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, tuple(entries))

    @classmethod
    def _raw(cls, ring: RingDescriptor, rows: int, cols: int, entries: list[RingPoly]) -> "RingMatrix":
        """A matrix of entries the caller built in `ring` itself."""
        m = object.__new__(cls)
        _set_ring(m, ring)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_entries(m, tuple(entries))
        return m

    def _check_ring(self, ring: RingDescriptor) -> None:
        if self.ring is not ring and self.ring != ring:
            raise ValueError("ring mismatch")

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

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "RingMatrix":
        """The submatrix of rows r0..r1-1 and columns c0..c1-1."""
        if not (0 <= r0 < r1 <= self.rows and 0 <= c0 < c1 <= self.cols):
            raise ValueError("block out of range")
        n, entries = self.cols, self.entries
        return RingMatrix._raw(
            self.ring, r1 - r0, c1 - c0,
            [e for i in range(r0, r1) for e in entries[i * n + c0:i * n + c1]],
        )

    # Own equality and hash: the generic Immutable ones build two field
    # tuples per call, and verification compares matrices often.
    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, RingMatrix)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.rows, self.cols, self.entries))

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        self._check_ring(other.ring)
        return RingMatrix._raw(
            self.ring, self.rows, self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    __sub__ = __add__

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        return RingMatrix._sum_of_products(((self, other),))

    @staticmethod
    def _sum_of_products(pairs: Sequence[tuple["RingMatrix", "RingMatrix"]]) -> "RingMatrix":
        """The sum of left*right over pairs of one output shape, formed as
        the one product [left_1 | left_2 | ...] * [right_1; right_2; ...]."""
        first = pairs[0][0]
        ring, rows, cols = first.ring, first.rows, pairs[0][1].cols
        for left, right in pairs:
            if left.cols != right.rows or left.rows != rows or right.cols != cols:
                raise ValueError("dimension mismatch in matrix product")
            first._check_ring(left.ring)
            first._check_ring(right.ring)
        lefts = [[e.packed for left, _ in pairs for e in left.row(i)] for i in range(rows)]
        columns = [[e.packed for _, right in pairs for e in right.entries[j::cols]]
                   for j in range(cols)]
        out = []
        for left in lefts:
            for column in columns:
                acc: dict[int, int] = {}
                for a, b in zip(left, column):
                    if a and b:
                        _mul_into(acc, a, b, ring)
                out.append(RingPoly._raw(ring, acc))
        return RingMatrix._raw(ring, rows, cols, out)

    def scale(self, c: RingPoly) -> "RingMatrix":
        self._check_ring(c.ring)
        ring = self.ring
        return RingMatrix._raw(
            ring, self.rows, self.cols,
            [RingPoly._raw(ring, _mul_into({}, c.packed, e.packed, ring)) for e in self.entries],
        )

    def support_hull(self) -> list[tuple[int, int]]:
        """Per-variable (min, max) exponent over all entries; (0, 0) if all zero.
        Each distinct packed key of the entries is unpacked once."""
        keys = set().union(*(e.packed for e in self.entries))
        if not keys:
            return [(0, 0)] * self.ring.nvars
        return [(min(column), max(column)) for column in zip(*map(self.ring.unpack, keys))]

    def __str__(self) -> str:
        return "; ".join(
            ", ".join(str(self.at(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )

    def __repr__(self) -> str:
        return f"RingMatrix({self})"


_set_ring, _set_rows, _set_cols, _set_entries = (
    getattr(RingMatrix, name).__set__ for name in RingMatrix.__slots__)


def commutator(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """[a, b] = ab + ba, which in characteristic 2 is also the anticommutator."""
    return RingMatrix._sum_of_products(((a, b), (b, a)))


def block2(a: RingMatrix, b: RingMatrix, c: RingMatrix, d: RingMatrix) -> RingMatrix:
    """Assemble [[a, b], [c, d]]: a and b share a row count, c and d too;
    a and c share a column count, b and d too."""
    if a.rows != b.rows or c.rows != d.rows or a.cols != c.cols or b.cols != d.cols:
        raise ValueError("block2 needs blocks whose rows and columns line up")
    for m in (b, c, d):
        a._check_ring(m.ring)
    entries = [e for left, right in ((a, b), (c, d))
               for i in range(left.rows) for e in left.row(i) + right.row(i)]
    return RingMatrix._raw(a.ring, a.rows + c.rows, a.cols + b.cols, entries)


def blocks_of(m: RingMatrix) -> tuple[RingMatrix, RingMatrix, RingMatrix, RingMatrix]:
    """Split an even-sized square matrix into its four half-size blocks."""
    if not m.is_square() or m.rows % 2:
        raise ValueError("blocks_of needs an even square matrix")
    n, t = m.rows // 2, m.rows
    return m.block(0, n, 0, n), m.block(0, n, n, t), m.block(n, t, 0, n), m.block(n, t, n, t)


def matrix_partial(m: RingMatrix, var: int | str) -> RingMatrix:
    return RingMatrix._raw(m.ring, m.rows, m.cols, [e.partial(var) for e in m.entries])


def specialize(m: RingMatrix, point: Sequence[FieldElem]) -> "FieldMatrix":
    """Evaluate every entry at a point (over the ring's field or an extension)."""
    if not point:
        raise ValueError("empty point")
    spec = point[0].spec
    vals = [m.at(i, j).evaluate(point).value for i in range(m.rows) for j in range(m.cols)]
    return FieldMatrix(spec, m.rows, m.cols, vals)


def parse_matrix(text: str, ring: RingDescriptor, rows: Optional[int] = None,
                 cols: Optional[int] = None) -> RingMatrix:
    """Rows separated by ';' (or newlines), entries by ','."""
    return _parse_matrix_span(text, 0, len(text), ring, rows, cols)


_ROW = re.compile(r"[^;\n\s][^;\n]*")  # a row from its first non-blank character


def _parse_matrix_span(text: str, start: int, end: int, ring: RingDescriptor,
                       rows: Optional[int] = None, cols: Optional[int] = None) -> RingMatrix:
    """parse_matrix of text[start:end], with error positions in the whole text;
    an error about a row or the shape points at the row's first character."""
    row_spans = [m.span() for m in _ROW.finditer(text, start, end)]
    if not row_spans:
        raise _error_at(text, start, "empty matrix")
    entries = []
    ncols = None
    for r_i, (r0, r1) in enumerate(row_spans):
        cells = text[r0:r1].split(",")
        if ncols is None:
            ncols = len(cells)
        elif len(cells) != ncols:
            raise _error_at(text, r0, f"row {r_i + 1} has {len(cells)} entries, expected {ncols}")
        for cell in cells:
            entries.append(_parse_span(text, r0, r0 + len(cell), ring))
            r0 += len(cell) + 1
    nrows = len(row_spans)
    if rows is not None and (nrows, ncols) != (rows, cols):
        raise _error_at(text, row_spans[0][0], f"matrix is {nrows}x{ncols}, expected {rows}x{cols}")
    return RingMatrix(ring, nrows, ncols, entries)


# -- field matrices -------------------------------------------------------------


class FieldMatrix(Immutable):
    """Dense matrix of serialized GF(2^k) values, row-major."""

    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(self, spec: FieldSpec, rows: int, cols: int, entries: Sequence[int]):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        for v in entries:
            spec.validate(v)
        super().__init__(spec, rows, cols, tuple(entries))

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "FieldMatrix":
        return cls(spec, n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

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
        columns = [self.apply(other.entries[j::other.cols]) for j in range(other.cols)]
        return FieldMatrix(self.spec, self.rows, other.cols, [v for row in zip(*columns) for v in row])

    def apply(self, vec: Sequence[int]) -> list[int]:
        """The product with vec as a column, the one product loop: the sum
        of column j of self times vec[j] over the nonzero vec[j]."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        mul = self.spec.mul
        out = [0] * self.rows
        for j, b in enumerate(vec):
            if b:
                for i, a in enumerate(self.entries[j::self.cols]):
                    if a:
                        out[i] ^= mul(a, b)
        return out


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
# unique too, for a given column order: any correct elimination in that
# order returns the same vectors.  The exactness solve of cohomwin enters
# its columns in reverse output order and never inserts the ones that
# d^2 = 0 makes dependent on earlier columns; they are free variables of
# that order, so its witness is the one a full elimination in it returns.


class Echelon:
    """Incremental lowest-index echelon form of packed GF(2^k) vectors.

    It has two operations.  `insert_all` is the one elimination loop: it
    reduces each vector by the pivot rows and keeps a nonzero remainder,
    scaled to be monic, as the row of a new pivot, which `rows` appends
    before the next vector is read.  `reduce` gives a vector's normal form
    and changes nothing.

    With `width` set (None means untracked), a vector has at most `width`
    slots, and every row also carries the combination of inserted vectors
    that equals it, packed the same way (slot i for the i-th insert) in the
    same int at bit offset k * width: the augmented matrix [M | I].  Pivot
    search, reduction and the monic scaling act on the whole int, so one
    row addition updates the vector and its combination with one `scale`.
    A vector that reduces to zero below the offset yields the relation
    that cancels it, and `reduce` yields the coefficients of a solution.
    A vector with a bit at or above the offset is refused with ValueError.
    """

    __slots__ = ("spec", "k", "width", "rows", "count", "_offset", "_vector_mask",
                 "_mask", "_low", "_top", "_bits")

    def __init__(self, spec: FieldSpec, width: Optional[int] = None):
        self.spec = spec
        self.k = spec.k
        self.width = width
        self.rows: dict[int, int] = {}  # pivot index -> monic row (and its combination)
        self.count = 0  # vectors inserted so far
        self._offset = None if width is None else spec.k * width  # bit offset of the combination
        self._vector_mask = -1 if width is None else (1 << self._offset) - 1  # the vector part
        self._mask = (1 << spec.k) - 1
        self._low = spec.modulus ^ (1 << spec.k)  # t^k reduced by the modulus
        self._top = 0  # top bit of every slot below bit _bits
        self._bits = 0

    def pack(self, values: Iterable[int]) -> int:
        k = self.k
        return sum(v << (k * j) for j, v in enumerate(values))

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

    def _too_wide(self) -> ValueError:
        return ValueError(f"vector has a slot at or beyond the tracked width {self.width}")

    def insert_all(self, vectors: Iterable[int]) -> list[int]:
        """Insert in order, reading `vectors` one at a time; returns the
        relations of the dependent vectors."""
        rows, k = self.rows, self.k
        relations = []
        if k == 1 and self.width is None:
            for v in vectors:  # bitsets, with no call per vector
                self.count += 1
                while v:
                    p = (v & -v).bit_length() - 1
                    row = rows.get(p)
                    if row is None:
                        rows[p] = v
                        break
                    v ^= row
                else:
                    relations.append(0)
            return relations
        offset, vector, mask = self._offset, self._vector_mask, self._mask
        scale, inv = self.scale, self.spec.inv
        for v in vectors:
            if offset is not None:
                if v >> offset:
                    raise self._too_wide()
                v |= 1 << (offset + k * self.count)
            self.count += 1
            while v & vector:
                p = ((v & -v).bit_length() - 1) // k
                row = rows.get(p)
                c = (v >> (k * p)) & mask
                if row is None:
                    if c != 1:  # the new row is made monic
                        v = scale(v, inv(c))
                    rows[p] = v
                    break
                v ^= row if c == 1 else scale(row, c)
            else:
                relations.append(0 if offset is None else v >> offset)
        return relations

    def reduce(self, v: int) -> tuple[int, int]:
        """(r, comb): the normal form r of v, zero at every pivot, and the
        combination of inserted vectors equal to v - r (0 unless tracking).
        Pivots are eliminated from the bottom up; the other slots are kept."""
        offset, vector = self._offset, self._vector_mask
        if offset is not None and v >> offset:
            raise self._too_wide()
        rows, k, scale, mask = self.rows, self.k, self.scale, self._mask
        kept = 0
        while v & vector:
            p = ((v & -v).bit_length() - 1) // k
            row = rows.get(p)
            if row is not None:
                v ^= scale(row, (v >> (k * p)) & mask)
            else:
                slot = v & (mask << (k * p))
                kept |= slot
                v ^= slot
        # untracked, v is 0 here; tracked, v holds the combination alone
        return kept, 0 if offset is None else v >> offset


# Packed entry points kept for profilers that hook elimination by name.


def gf2_rank(rows: list[int]) -> int:
    """Rank of packed GF(2) row vectors."""
    ech = Echelon(GF2)
    ech.insert_all(rows)
    return len(ech.rows)


def gf2_solve_combination(rows: list[int], target: int, width: int) -> Optional[list[int]]:
    """Coefficients c with xor of c_i * rows_i == target, or None; the
    coefficient of every row that depends on earlier rows is zero.  `width`
    is the number of rows; the combination sits above the widest vector."""
    ech = Echelon(GF2, max(v.bit_length() for v in (*rows, target)))
    ech.insert_all(rows)
    rest, comb = ech.reduce(target)
    return None if rest else ech.unpack(comb, width)


def _generic_echelon(rows: list[list[int]], spec: FieldSpec) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of dense rows; returns (rows, pivot column list)."""
    ech, width = Echelon(spec), len(rows[0]) if rows else 0
    ech.insert_all(ech.pack(row) for row in rows)
    pivots = sorted(ech.rows)
    red = []
    for p in pivots:  # the row of p with every other pivot eliminated
        unit = 1 << (ech.k * p)
        red.append(ech.unpack(unit ^ ech.reduce(ech.rows[p] ^ unit)[0], width))
    return red + [[0] * width for _ in range(len(rows) - len(red))], pivots


def rank(m: FieldMatrix) -> int:
    ech = Echelon(m.spec)
    ech.insert_all(ech.pack(m.entries[j::m.cols]) for j in range(m.cols))
    return len(ech.rows)

