"""Matrix factorizations and their homotopy calculus.

An ungraded factorization of a potential W is a square matrix Q with
Q^2 = W*Id; a graded one is a pair (Q0, Q1) with Q0 Q1 = Q1 Q0 = W*Id.
Morphisms f: (E,Q) -> (F,R) carry the differential d(f) = R f + f Q
(commutator and anticommutator coincide in characteristic 2, so d
squares to zero against Q^2 = R^2 = W*Id).  Every certifying object
re-verifies its defining identity on construction: a HomotopyWitness
that does not satisfy d(g) = f cannot exist, and it checks d(g) on
Kronecker-packed ints, not with the product kernel that builds most witnesses.

The doubling functor D sends ungraded Q to the pair (Q, Q); the
forgetful functor F folds a pair into the ungraded block matrix
[[0, Q0], [Q1, 0]], which a GradedMF keeps, verified, as `folded`.
Their adjunction is realized chain-level by placing the two blocks of
an ungraded morphism on the graded diagonal (to_graded) and by folding
parity components back onto the doubled end named by `folded`
(from_graded); the fold intertwines differentials on the nose and is a
left inverse of the unfold.

An MF file is the text form of a factorization: the lines `field: 2^k
modulus <bits>`, `ring: <vars> laurent:<flags>`, `potential: <poly>` and
`size: n`, then n comma-separated matrix rows.  parse_mf_text reads it and
emit_mf_text writes it canonically; the two round-trip.
"""

from __future__ import annotations

import functools
import re
import sys
from typing import Iterable, Optional, Sequence

from .gf2k import FieldElem, FieldSpec, Immutable
from .ringmat import (Echelon, FieldMatrix, RingMatrix, _entry_into, _parse_matrix_span, block2,
                      matrix_partial, specialize)
from .ringpoly import (ParseError, RingDescriptor, RingPoly, _box_offset, _box_pack, _parse_span,
                       _uint, grevlex_key)

__all__ = [
    "MFFile",
    "parse_mf_text",
    "emit_mf_text",
    "VerifyReport",
    "UngradedMF",
    "GradedMF",
    "Morphism",
    "GradedMorphism",
    "HomotopyWitness",
    "verify_mf",
    "jacobian_action_witness",
    "double",
    "forget",
    "to_graded",
    "from_graded",
    "contract_at_noncritical",
    "search_factorizations",
    "VerificationError",
]


class VerificationError(ValueError):
    """A result that failed its own re-verification: a fault in mf2's
    computation, not in the caller's input."""


class VerifyReport(Immutable):
    """Whether Q^2 == W*Id (or another identity) held, and its residual."""

    __slots__ = ("ok", "residual")

    @property
    def residual_terms(self) -> int:
        return sum(len(e.packed) for e in self.residual.entries)


def verify_mf(q: RingMatrix, w: RingPoly) -> VerifyReport:
    """Check Q^2 == W*Id without raising; the residual is Q^2 + W*Id, each
    entry one accumulator of the entry kernel, seeded with W on the diagonal."""
    if not q.is_square():
        raise ValueError("factorization matrix must be square")
    if w.ring != q.ring:
        raise ValueError("ring mismatch between matrix and potential")
    ring, n, pairs = q.ring, q.rows, ((q, q),)
    residual = RingMatrix._raw(ring, n, n, [
        RingPoly._raw(ring, _entry_into(dict(w.packed) if i == j else {}, pairs, i, j))
        for i in range(n) for j in range(n)])
    return VerifyReport(residual.is_zero(), residual)


class UngradedMF(Immutable):
    """A verified ungraded factorization; construction fails on Q^2 != W*Id."""

    __slots__ = ("ring", "w", "q")

    def __init__(self, w: RingPoly, q: RingMatrix):
        report = verify_mf(q, w)
        if not report.ok:
            raise ValueError(
                f"not a factorization: Q^2 - W*Id has {report.residual_terms} residual terms"
            )
        super().__init__(q.ring, w, q)

    @property
    def size(self) -> int:
        return self.q.rows

    def __repr__(self) -> str:
        return f"UngradedMF(size={self.size}, w={self.w})"


def _check_hom(source, target) -> None:
    """Hom(source, target) needs one ring and one potential."""
    if source.ring != target.ring:
        raise ValueError("ring mismatch between source and target")
    if source.w != target.w:
        raise ValueError("potential mismatch: hom-sets need a common potential")


class GradedMF(Immutable):
    """A verified graded factorization (Q0, Q1) with Q0 Q1 = Q1 Q0 = W*Id.

    `folded` is the ungraded fold [[0, Q0], [Q1, 0]]; its square is
    diag(Q0 Q1, Q1 Q0), so verifying it verifies the pair."""

    __slots__ = ("ring", "w", "q0", "q1", "folded")

    def __init__(self, w: RingPoly, q0: RingMatrix, q1: RingMatrix):
        if not (q0.is_square() and q1.is_square() and q0.rows == q1.rows):
            raise ValueError("graded factorization needs equal square blocks")
        if w.ring != q0.ring or q0.ring != q1.ring:
            raise ValueError("ring mismatch")
        z = RingMatrix.zeros(q0.ring, q0.rows, q0.rows)
        try:
            folded = UngradedMF(w, block2(z, q0, q1, z))
        except ValueError:
            raise ValueError("not a graded factorization: Q0*Q1 != W*Id") from None
        super().__init__(q0.ring, w, q0, q1, folded)

    @property
    def size(self) -> int:
        return self.q0.rows


class Morphism(Immutable):
    """A module map f: source -> target between factorizations of one potential."""

    __slots__ = ("source", "target", "f")

    def __init__(self, source: UngradedMF, target: UngradedMF, f: RingMatrix):
        _check_hom(source, target)
        f._check_ring(source.ring)
        if f.rows != target.size or f.cols != source.size:
            raise ValueError("morphism shape does not match source/target sizes")
        super().__init__(source, target, f)

    def differential(self) -> "Morphism":
        return Morphism(
            self.source, self.target,
            RingMatrix._sum_of_products(((self.target.q, self.f), (self.f, self.source.q))),
        )

    def is_closed(self) -> bool:
        return self.differential().f.is_zero()


class GradedMorphism(Immutable):
    """A map between graded factorizations, stored on the total modules."""

    __slots__ = ("source", "target", "g")

    def __init__(self, source: GradedMF, target: GradedMF, g: RingMatrix):
        _check_hom(source, target)
        g._check_ring(source.ring)
        if g.rows != 2 * target.size or g.cols != 2 * source.size:
            raise ValueError("graded morphism shape does not match total modules")
        super().__init__(source, target, g)

    def differential(self) -> "GradedMorphism":
        d = Morphism(self.source.folded, self.target.folded, self.g).differential()
        return GradedMorphism(self.source, self.target, d.f)


# A witness whose box holds more monomials than this is checked by the entry kernel.
MAX_WITNESS_BOX = 1 << 16


def _packed_check(qt: RingMatrix, qs: RingMatrix, g: RingMatrix, f: RingMatrix) -> Optional[bool]:
    """Whether qt*g + g*qs == f, with every polynomial packed into one int
    over the box hull(g) + hull(qt, qs), joined with hull(f): None when the
    box holds more than MAX_WITNESS_BOX monomials or leaves the exponent range.

    g's entries are packed from the low corner of hull(g), so a term c*x^m
    of qt or qs adds v << offset to an entry's accumulator, v the packed
    entry of g (scaled by Echelon.scale when c != 1) and offset the box
    offset of x^m times that corner.  The accumulator starts as the packed
    entry of f, and a nonzero remainder rejects g.  No product kernel runs."""
    ring = g.ring
    g_keys = set().union(*(e.packed for e in g.entries))
    q_keys = set().union(*(e.packed for e in (*qt.entries, *qs.entries)))
    if not g_keys or not q_keys:  # d(g) = 0
        return f.is_zero()
    g_hull = ring.hull(g_keys)
    box = [(glo + qlo, ghi + qhi) for (glo, ghi), (qlo, qhi) in zip(g_hull, ring.hull(q_keys))]
    f_keys = set().union(*(e.packed for e in f.entries))
    if f_keys:
        box = [(min(lo, flo), max(hi, fhi)) for (lo, hi), (flo, fhi) in zip(box, ring.hull(f_keys))]
    k = ring.field.k
    strides, step = [], k
    for lo, hi in box:
        strides.append(step)
        step *= hi - lo + 1
    if step > k * MAX_WITNESS_BOX:
        return None
    try:  # a product may leave the exponent range; the entry kernel names it
        low = ring.pack([lo for lo, _ in box])
        ring.pack([hi for _, hi in box])
    except ValueError:
        return None
    g_low = ring.pack([lo for lo, _ in g_hull])
    packed = [_box_pack(e.packed, g_low, strides) for e in g.entries]
    q_low = low - g_low + ring.one_key

    def shifts(m: RingMatrix) -> list[list[tuple[int, int]]]:
        return [[(_box_offset(key - q_low, strides), c) for key, c in e.packed.items()]
                for e in m.entries]

    left = shifts(qt)
    right = left if qs is qt else shifts(qs)
    scale = Echelon(ring.field).scale
    rows, cols = g.rows, g.cols
    for i in range(rows):
        for j in range(cols):
            acc = _box_pack(f.entries[i * cols + j].packed, low, strides)
            for m in range(rows):
                v = packed[m * cols + j]
                for offset, c in left[i * rows + m]:
                    acc ^= (v if c == 1 else scale(v, c)) << offset
            for m in range(cols):
                v = packed[i * cols + m]
                for offset, c in right[m * cols + j]:
                    acc ^= (v if c == 1 else scale(v, c)) << offset
            if acc:
                return False
    return True


class HomotopyWitness(Immutable):
    """Certifies that claim.f is exact: d(g) = target.q * g + g * source.q == claim.f.

    The check shares no code with the product kernel: each entry of g and
    claim.f is packed into one int over the box of _packed_check, and each
    term of target.q or source.q is one shift.  A box of more than
    MAX_WITNESS_BOX monomials (a sparse g such as x^(2^20)), or one that
    leaves the exponent range, is checked in place by the entry kernel
    instead: each entry's accumulator starts as a copy of claim.f's entry,
    the kernel adds that entry of (target.q, g) and (g, source.q), and a
    nonempty remainder rejects g.  No d(g) is built either way."""

    __slots__ = ("claim", "g")

    def __init__(self, claim: Morphism, g: RingMatrix):
        source, target, f = claim.source, claim.target, claim.f
        if g.rows != target.size or g.cols != source.size:
            raise ValueError("morphism shape does not match source/target sizes")
        target.q._check_ring(g.ring)  # claim.f and source.q share its ring (Morphism)
        ok = _packed_check(target.q, source.q, g, f)
        if ok is None:
            pairs = ((target.q, g), (g, source.q))
            ok = not any(_entry_into(dict(f.at(i, j).packed), pairs, i, j)
                         for i in range(g.rows) for j in range(g.cols))
        if not ok:
            raise ValueError("homotopy witness does not satisfy d(g) = f")
        super().__init__(claim, g)


# -- differential geometry of the potential -------------------------------------


def jacobian_action_witness(f: Morphism, var: int | str) -> HomotopyWitness:
    """For closed f, the morphism dW/dz_i * f is exact with witness f * dQ_source/dz_i."""
    if not f.is_closed():
        raise ValueError("jacobian action needs a closed morphism")
    dw = f.source.w.partial(var)
    claim = Morphism(f.source, f.target, f.f.scale(dw))
    g = f.f * matrix_partial(f.source.q, var)
    return HomotopyWitness(claim, g)


# -- doubling / forgetting -------------------------------------------------------


def double(x: UngradedMF) -> GradedMF:
    return GradedMF(x.w, x.q, x.q)


def forget(y: GradedMF) -> UngradedMF:
    return y.folded


def to_graded(phi: Morphism, x: GradedMF) -> GradedMorphism:
    """Unfold a morphism touching forget(x) onto the graded diagonal.

    Two cases: phi: forget(x) -> Y yields X -> double(Y), and
    phi: Y -> forget(x) yields double(Y) -> X.
    """
    n, f = x.size, phi.f
    if phi.source == x.folded:
        f0, f1 = f.block(0, f.rows, 0, n), f.block(0, f.rows, n, 2 * n)
        source, target = x, double(phi.target)
    elif phi.target == x.folded:
        f0, f1 = f.block(0, n, 0, f.cols), f.block(n, 2 * n, 0, f.cols)
        source, target = double(phi.source), x
    else:
        raise ValueError("morphism does not involve forget(x)")
    z = RingMatrix.zeros(f.ring, f0.rows, f0.cols)
    return GradedMorphism(source, target, block2(f0, z, z, f1))


def from_graded(psi: GradedMorphism, folded: str) -> Morphism:
    """Fold the parity components of a graded morphism back to an ungraded one.

    `folded` names the doubled end that collapses to its ungraded Y:
    "target" reads psi: X -> double(Y) and folds the blocks (a,b;c,d)
    to (a+c, b+d): forget(X) -> Y; "source" reads psi: double(Y) -> X
    and folds to the column (a+b; c+d): Y -> forget(X).
    The fold intertwines differentials exactly and inverts to_graded.
    """
    if folded not in ("source", "target"):
        raise ValueError("folded must be 'source' or 'target'")
    src, tgt, g = psi.source, psi.target, psi.g
    end = tgt if folded == "target" else src
    if end.q0 != end.q1:
        raise ValueError(f"{folded} is not a doubled factorization")
    y, n = UngradedMF(end.w, end.q0), end.size
    if folded == "target":
        return Morphism(src.folded, y, g.block(0, n, 0, g.cols) + g.block(n, 2 * n, 0, g.cols))
    return Morphism(y, tgt.folded, g.block(0, g.rows, 0, n) + g.block(0, g.rows, n, 2 * n))


# -- local structure at points ---------------------------------------------------


def contract_at_noncritical(
    x: UngradedMF, point: Sequence[FieldElem], var: int | str
) -> "FieldHomotopy":
    """At a point where dW/dz_i is invertible, Q(p) is contractible:
    h = dW/dz_i(p)^-1 * dQ/dz_i(p) satisfies Q(p) h + h Q(p) = Id."""
    dw_val = x.w.partial(var).evaluate(point)
    if not dw_val:
        raise ValueError("critical direction: dW/dz vanishes at the point")
    spec = dw_val.spec
    qp = specialize(x.q, point)
    dqp = specialize(matrix_partial(x.q, var), point)
    s = dw_val.inverse().value
    h = FieldMatrix(spec, dqp.rows, dqp.cols, [spec.mul(s, v) for v in dqp.entries])
    return FieldHomotopy(qp, h)


class FieldHomotopy(Immutable):
    """Certifies Q h + h Q == Id for specialized matrices."""

    __slots__ = ("q", "h")

    def __init__(self, q: FieldMatrix, h: FieldMatrix):
        if q * h + h * q != FieldMatrix.identity(q.spec, q.rows):
            raise ValueError("contraction identity Q h + h Q = Id failed")
        super().__init__(q, h)


# -- factorization search ----------------------------------------------------------


_Pairs = tuple[tuple[int, int], ...]


@functools.cache
def _schedule(size: int) -> tuple[tuple[int, ...], tuple[tuple[tuple[_Pairs, _Pairs, bool], ...], ...]]:
    """The search's fill order and checks, built once per size, entries as
    row-major indices.  The slots are row t, then column t, for t = 0..size-1,
    each entry where it first appears.  (Q^2)_ab, the sum over m of q_am q_mb,
    is checked at the latest slot of row a and column b, where it is final.
    Per slot, per (a, b) filed there in row-major order: the pairs
    (q_am, q_mb) that hold the slot's own entry, the other pairs, and
    whether (Q^2)_ab is on the diagonal."""
    # the entries of row t before (t, t), and of column t above it, are in
    # the rows and columns of smaller t
    flat = tuple(f for t in range(size)
                 for f in (*range(t * size + t, (t + 1) * size),  # row t from (t, t) on
                           *range((t + 1) * size + t, size * size, size)))  # column t below it
    when = {f: n for n, f in enumerate(flat)}
    checks: list[list] = [[] for _ in flat]
    for a in range(size):
        for b in range(size):
            pairs = [(a * size + m, m * size + b) for m in range(size)]
            n = max(when[x] for pair in pairs for x in pair)
            f = flat[n]
            checks[n].append((tuple(p for p in pairs if f in p), tuple(p for p in pairs if f not in p),
                              a == b))
    return flat, tuple(map(tuple, checks))


def _reverify(w: RingPoly, found: Sequence[RingMatrix]) -> None:
    """Raise VerificationError unless every matrix in found, the results of
    one search (size x size over W's ring), has Q^2 = W*Id: each entry of
    Q^2 is compared with W or 0.

    (Q^2)_ab is the sum over m of q_am q_mb.  Entries are told apart by
    identity, and each product of two entries that some (Q^2)_ab needs is
    formed once per call: one RingMatrix product per distinct left entry,
    [q_am] times the row of the right entries it meets.  So results that
    share entry objects share their products, and (Q^2)_ab of each result
    is the XOR of its cached products, packed into one int, k bits per
    monomial, as W is."""
    if not found:
        return
    ring, size = w.ring, found[0].rows
    square = [(a == b, [(a * size + m, m * size + b) for m in range(size)])
              for a in range(size) for b in range(size)]
    entries: dict[int, RingPoly] = {}
    meets: dict[int, dict[int, None]] = {}
    for q in found:
        e = q.entries
        ids = list(map(id, e))
        entries.update(zip(ids, e))
        for _, pairs in square:
            for left, right in pairs:
                meets.setdefault(ids[left], {})[ids[right]] = None

    k = ring.field.k
    place: dict[int, int] = {}

    def packed(terms: dict[int, int]) -> int:
        out = 0
        for key, c in terms.items():
            out ^= c << (k * place.setdefault(key, len(place)))
        return out

    product: dict[tuple[int, int], int] = {}
    for left, rights in meets.items():
        row = [entries[r] for r in rights]
        out = RingMatrix._raw(ring, 1, 1, [entries[left]]) * RingMatrix._raw(ring, 1, len(row), row)
        for right, p in zip(rights, out.entries):
            product[left, right] = packed(p.packed)
    want = packed(w.packed)
    for q in found:
        ids = list(map(id, q.entries))
        for diagonal, pairs in square:
            s = 0
            for left, right in pairs:
                s ^= product[ids[left], ids[right]]
            if s != (want if diagonal else 0):
                raise VerificationError("search result failed re-verification: Q^2 != W*Id")


def search_factorizations(
    w: RingPoly,
    size: int,
    support: Iterable[Sequence[int]],
    budget_bits: int = 24,
) -> list[RingMatrix]:
    """All size x size matrices over the given monomial support with Q^2 = W*Id.

    The result is ordered as if every coefficient assignment were
    enumerated: entries row-major, each entry's coefficients over the
    support in descending canonical order, field elements in serialized
    order.  Refuses to run if the assignment space exceeds 2^budget_bits.

    The search backtracks over the slots of _schedule by two rules:
    - every entry of Q^2 lies in the span of products of two support
      monomials, so a W with a term outside it has no factorization;
    - (Q^2)_ab is row a of Q times column b, so it is checked against W
      (a == b) or 0 at the slot that completes both, where it is final.
    The products q_am q_mb of that check come in two parts: those without
    the slot's own entry are summed once, when the search enters the slot,
    and kept on a stack beside the slot's value iterator; those with it
    are summed for each value.  The slots and checks are built once per
    size (_schedule).  Each distinct entry value's polynomial is built
    once per call and shared by the results that hold it.

    Every result is still re-verified, all in one pass (_reverify): each
    product of two entries that some (Q^2)_ab needs is formed once, as a
    RingMatrix product, and every entry of every result's Q^2, the sum of
    its cached products, is compared with W on the diagonal and 0 off it.
    """
    if size < 1:
        raise ValueError("search size must be positive")
    ring = w.ring
    supp = sorted({ring.check_exponents(s) for s in support}, key=grevlex_key, reverse=True)
    if not supp:
        raise ValueError("empty support")
    field = ring.field
    bits = size * size * len(supp) * field.k
    if bits > budget_bits:
        raise ValueError(
            f"search budget exceeded: needs {bits} bits, budget is {budget_bits}"
        )
    k, mask, mul = field.k, field.order - 1, field.mul
    width = len(supp)
    nvalues = field.order ** width

    # An entry value v in range(nvalues) is the entry's coefficient tuple
    # over supp read as base-order digits, supp[0] most significant, so
    # values ascend in the order itertools.product yields the tuples.
    def digits(v: int) -> list[tuple[int, int]]:
        """Nonzero coefficients (support index, value) of entry value v."""
        return [(i, c) for i in range(width)
                if (c := (v >> (k * (width - 1 - i))) & mask)]

    # Entries of Q^2 lie in the span of the pairwise sums of support
    # monomials.  There a polynomial is packed into one int, k bits per
    # monomial, so adding two is one XOR.
    place: dict[tuple[int, ...], int] = {}
    shift = [[k * place.setdefault(tuple(x + y for x, y in zip(a, b)), len(place))
              for b in supp] for a in supp]
    w_packed = 0
    for key, c in w.packed.items():
        e = ring.unpack(key)
        if e not in place:
            return []
        w_packed ^= c << (k * place[e])

    # Bounded: a size-1 search may square 2^budget_bits distinct values.
    @functools.lru_cache(maxsize=1 << 16)
    def product(a: int, b: int) -> int:
        out = 0
        right = digits(b)
        for i, ca in digits(a):
            row = shift[i]
            for j, cb in right:
                out ^= mul(ca, cb) << row[j]
        return out

    q = [0] * (size * size)  # entry values of the current node, row-major

    flat, checks = _schedule(size)

    def entered(n: int) -> list[tuple[_Pairs, int]]:
        """Slot n's checks as (own pairs, what they must sum to): the other
        pairs, whose factors are fixed before slot n, are summed once."""
        out = []
        for own, others, diagonal in checks[n]:
            want = w_packed if diagonal else 0
            for left, right in others:
                want ^= product(q[left], q[right])
            out.append((own, want))
        return out

    last = len(flat) - 1
    leaves = []
    stack = [iter(range(nvalues))]
    targets = [entered(0)]
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            targets.pop()
            continue
        slot = len(stack) - 1
        q[flat[slot]] = v
        for own, target in targets[-1]:
            for left, right in own:
                target ^= product(q[left], q[right])
            if target:
                break
        else:
            if slot < last:
                stack.append(iter(range(nvalues)))
                targets.append(entered(slot + 1))
            else:
                leaves.append(tuple(q))
    # Row-major value tuples sort like the brute-force assignment tuples.
    leaves.sort()
    keys = [ring.pack(s) for s in supp]
    entry = {v: RingPoly._raw(ring, {keys[i]: c for i, c in digits(v)})
             for v in set().union(*leaves)}
    found = [RingMatrix._raw(ring, size, size, [entry[v] for v in leaf]) for leaf in leaves]
    _reverify(w, found)
    return found


# -- the MF file format ------------------------------------------------------------


class MFFile(Immutable):
    """Parsed MF file: a coefficient ring, a potential, and a square matrix."""

    __slots__ = ("ring", "w", "q")


def parse_mf_text(text: str) -> MFFile:
    """Parse the five-part MF file format; raises ParseError with position."""
    lines = text.split("\n")
    starts = [0]  # offset of each line in text
    for line in lines:
        starts.append(starts[-1] + len(line) + 1)

    def line_at(i: int) -> str:
        if i >= len(lines):
            raise ParseError("unexpected end of file", i + 1, 1)
        return lines[i].strip()

    m = re.fullmatch(r"field:\s*2\^([0-9]+)\s+modulus\s+([01]+)", line_at(0))
    if not m:
        raise ParseError("expected 'field: 2^k modulus <bits>'", 1, 1)
    k = _uint(m.group(1), sys.maxsize)
    if k is None:
        raise ParseError("extension degree is too large", 1, 1)
    try:
        spec = FieldSpec(k, int(m.group(2), 2))
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None

    m = re.fullmatch(r"ring:\s*(.+?)\s+laurent:([01]+)", line_at(1))
    if not m:
        raise ParseError("expected 'ring: <vars> laurent:<flags>'", 2, 1)
    names = tuple(m.group(1).split())
    flags = tuple(c == "1" for c in m.group(2))
    if len(flags) != len(names):
        raise ParseError("laurent flags do not match the variable count", 2, 1)
    try:
        ring = RingDescriptor(spec, names, flags)
    except ValueError as exc:
        raise ParseError(str(exc), 2, 1) from None

    potential_line = line_at(2)
    if not potential_line.startswith("potential:"):
        raise ParseError("expected 'potential: <poly>'", 3, 1)
    body = starts[2] + lines[2].index("potential:") + len("potential:")
    w = _parse_span(text, body, starts[3] - 1, ring)

    m = re.fullmatch(r"size:\s*([0-9]+)", line_at(3))
    if not m:
        raise ParseError("expected 'size: n'", 4, 1)
    size = _uint(m.group(1), sys.maxsize)
    if size is None:
        raise ParseError("size is too large", 4, 1)
    if size < 1:
        raise ParseError("size must be positive", 4, 1)

    row_lines = [i for i in range(4, len(lines)) if lines[i].strip()]
    if len(row_lines) != size:
        raise ParseError(
            f"expected {size} matrix rows, found {len(row_lines)}", 5, 1
        )
    entries: list[RingPoly] = []
    for i in row_lines:
        row = _parse_matrix_span(text, starts[i], starts[i + 1] - 1, ring, rows=1, cols=size)
        entries.extend(row.row(0))
    return MFFile(ring, w, RingMatrix(ring, size, size, entries))


def emit_mf_text(w: RingPoly, q: RingMatrix) -> str:
    """Canonical MF file text; parse_mf_text(emit_mf_text(...)) round-trips."""
    ring = q.ring
    spec = ring.field
    lines = [
        f"field: 2^{spec.k} modulus {spec.modulus:b}",
        "ring: " + " ".join(ring.vars)
        + " laurent:" + "".join("1" if f else "0" for f in ring.laurent),
        f"potential: {w}",
        f"size: {q.rows}",
    ]
    for i in range(q.rows):
        lines.append(", ".join(str(q.at(i, j)) for j in range(q.cols)))
    return "\n".join(lines) + "\n"
