"""Matrix factorizations and their homotopy calculus.

An ungraded factorization of a potential W is a square matrix Q with
Q^2 = W*Id; a graded one is a pair (Q0, Q1) with Q0 Q1 = Q1 Q0 = W*Id.
Morphisms f: (E,Q) -> (F,R) carry the differential d(f) = R f + f Q
(commutator and anticommutator coincide in characteristic 2, so d
squares to zero against Q^2 = R^2 = W*Id).  Every certifying object
re-verifies its defining identity on construction: a HomotopyWitness
that does not satisfy d(g) = f cannot exist.

The doubling functor D sends ungraded Q to the pair (Q, Q); the
forgetful functor F folds a pair into the ungraded block matrix
[[0, Q0], [Q1, 0]].  Their adjunction is realized chain-level by
placing the two blocks of an ungraded morphism on the graded diagonal
(to_graded) and by folding parity components back (from_graded); the
fold intertwines differentials on the nose and is a left inverse of
the unfold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .gf2k import FieldElem
from .ringmat import RingMatrix, block2, matrix_partial, specialize
from .ringpoly import RingPoly, grevlex_key

__all__ = [
    "VerifyReport",
    "UngradedMF",
    "GradedMF",
    "Morphism",
    "GradedMorphism",
    "HomotopyWitness",
    "verify_mf",
    "differential",
    "euler_identity_check",
    "jacobian_action_witness",
    "double",
    "forget",
    "to_graded",
    "from_graded",
    "contract_at_noncritical",
    "search_factorizations",
]


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    residual: RingMatrix

    @property
    def residual_terms(self) -> int:
        return sum(len(e.terms) for e in self.residual.entries)


def verify_mf(q: RingMatrix, w: RingPoly) -> VerifyReport:
    """Check Q^2 == W*Id without raising; the residual is Q^2 + W*Id."""
    if not q.is_square():
        raise ValueError("factorization matrix must be square")
    if w.ring != q.ring:
        raise ValueError("ring mismatch between matrix and potential")
    residual = q * q + RingMatrix.identity(q.ring, q.rows).scale(w)
    return VerifyReport(residual.is_zero(), residual)


class UngradedMF:
    """A verified ungraded factorization; construction fails on Q^2 != W*Id."""

    __slots__ = ("ring", "w", "q")

    def __init__(self, w: RingPoly, q: RingMatrix):
        report = verify_mf(q, w)
        if not report.ok:
            raise ValueError(
                f"not a factorization: Q^2 - W*Id has {report.residual_terms} residual terms"
            )
        object.__setattr__(self, "ring", q.ring)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("UngradedMF is immutable")

    @property
    def size(self) -> int:
        return self.q.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UngradedMF)
            and self.w == other.w
            and self.q == other.q
        )

    def __hash__(self) -> int:
        return hash((self.w, self.q))

    def __repr__(self) -> str:
        return f"UngradedMF(size={self.size}, w={self.w})"


class GradedMF:
    """A verified graded factorization (Q0, Q1) with Q0 Q1 = Q1 Q0 = W*Id."""

    __slots__ = ("ring", "w", "q0", "q1")

    def __init__(self, w: RingPoly, q0: RingMatrix, q1: RingMatrix):
        if not (q0.is_square() and q1.is_square() and q0.rows == q1.rows):
            raise ValueError("graded factorization needs equal square blocks")
        if w.ring != q0.ring or q0.ring != q1.ring:
            raise ValueError("ring mismatch")
        wid = RingMatrix.identity(q0.ring, q0.rows).scale(w)
        if q0 * q1 != wid or q1 * q0 != wid:
            raise ValueError("not a graded factorization: Q0*Q1 != W*Id")
        object.__setattr__(self, "ring", q0.ring)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "q1", q1)

    def __setattr__(self, name, value):
        raise AttributeError("GradedMF is immutable")

    @property
    def size(self) -> int:
        return self.q0.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedMF)
            and (self.w, self.q0, self.q1) == (other.w, other.q0, other.q1)
        )

    def __hash__(self) -> int:
        return hash((self.w, self.q0, self.q1))


class Morphism:
    """A module map f: source -> target between factorizations of one potential."""

    __slots__ = ("source", "target", "f")

    def __init__(self, source: UngradedMF, target: UngradedMF, f: RingMatrix):
        if source.ring != target.ring:
            raise ValueError("ring mismatch between source and target")
        if source.w != target.w:
            raise ValueError("potential mismatch: hom-sets need a common potential")
        if f.rows != target.size or f.cols != source.size:
            raise ValueError("morphism shape does not match source/target sizes")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "f", f)

    def __setattr__(self, name, value):
        raise AttributeError("Morphism is immutable")

    def differential(self) -> "Morphism":
        return Morphism(
            self.source, self.target,
            self.target.q * self.f + self.f * self.source.q,
        )

    def is_closed(self) -> bool:
        return self.differential().f.is_zero()

    def __add__(self, other: "Morphism") -> "Morphism":
        if self.source is not other.source and self.source != other.source:
            raise ValueError("morphism sum needs matching source")
        if self.target is not other.target and self.target != other.target:
            raise ValueError("morphism sum needs matching target")
        return Morphism(self.source, self.target, self.f + other.f)

    def compose(self, inner: "Morphism") -> "Morphism":
        """self after inner."""
        if inner.target != self.source:
            raise ValueError("composition mismatch")
        return Morphism(inner.source, self.target, self.f * inner.f)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Morphism)
            and (self.source, self.target, self.f) == (other.source, other.target, other.f)
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.f))


def differential(f: Morphism) -> Morphism:
    return f.differential()


class GradedMorphism:
    """A map between graded factorizations, stored on the total modules."""

    __slots__ = ("source", "target", "g")

    def __init__(self, source: GradedMF, target: GradedMF, g: RingMatrix):
        if source.ring != target.ring:
            raise ValueError("ring mismatch")
        if source.w != target.w:
            raise ValueError("potential mismatch: hom-sets need a common potential")
        if g.rows != 2 * target.size or g.cols != 2 * source.size:
            raise ValueError("graded morphism shape does not match total modules")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "g", g)

    def __setattr__(self, name, value):
        raise AttributeError("GradedMorphism is immutable")

    def differential(self) -> "GradedMorphism":
        qs = forget(self.source).q
        qt = forget(self.target).q
        return GradedMorphism(self.source, self.target, qt * self.g + self.g * qs)

    def is_closed(self) -> bool:
        return self.differential().g.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedMorphism)
            and (self.source, self.target, self.g) == (other.source, other.target, other.g)
        )


class HomotopyWitness:
    """Certifies that claim.f is exact: d(g) = target.q * g + g * source.q == claim.f."""

    __slots__ = ("claim", "g")

    def __init__(self, claim: Morphism, g: RingMatrix):
        d = claim.target.q * g + g * claim.source.q
        if d != claim.f:
            raise ValueError("homotopy witness does not satisfy d(g) = f")
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "g", g)

    def __setattr__(self, name, value):
        raise AttributeError("HomotopyWitness is immutable")


# -- differential geometry of the potential -------------------------------------


def euler_identity_check(x: UngradedMF, var: int | str) -> VerifyReport:
    """dQ*Q + Q*dQ == dW * Id, the derivative of Q^2 = W*Id."""
    dq = matrix_partial(x.q, var)
    lhs = dq * x.q + x.q * dq
    rhs = RingMatrix.identity(x.ring, x.size).scale(x.w.partial(var))
    residual = lhs + rhs
    return VerifyReport(residual.is_zero(), residual)


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
    z = RingMatrix.zeros(y.ring, y.size, y.size)
    return UngradedMF(y.w, block2(z, y.q0, y.q1, z))


def _split_cols(f: RingMatrix, left: int) -> tuple[RingMatrix, RingMatrix]:
    ring = f.ring
    a = RingMatrix(ring, f.rows, left,
                   [f.at(i, j) for i in range(f.rows) for j in range(left)])
    b = RingMatrix(ring, f.rows, f.cols - left,
                   [f.at(i, j) for i in range(f.rows) for j in range(left, f.cols)])
    return a, b


def _split_rows(f: RingMatrix, top: int) -> tuple[RingMatrix, RingMatrix]:
    ring = f.ring
    a = RingMatrix(ring, top, f.cols,
                   [f.at(i, j) for i in range(top) for j in range(f.cols)])
    b = RingMatrix(ring, f.rows - top, f.cols,
                   [f.at(i, j) for i in range(top, f.rows) for j in range(f.cols)])
    return a, b


def _stack_diag(a: RingMatrix, d: RingMatrix) -> RingMatrix:
    ring = a.ring
    z_top = RingMatrix.zeros(ring, a.rows, d.cols)
    z_bot = RingMatrix.zeros(ring, d.rows, a.cols)
    rows = [list(a.row(i)) + list(z_top.row(i)) for i in range(a.rows)]
    rows += [list(z_bot.row(i)) + list(d.row(i)) for i in range(d.rows)]
    return RingMatrix.from_rows(ring, rows)


def to_graded(phi: Morphism, x: GradedMF) -> GradedMorphism:
    """Unfold a morphism touching forget(x) onto the graded diagonal.

    Two cases: phi: forget(x) -> Y yields X -> double(Y), and
    phi: Y -> forget(x) yields double(Y) -> X.
    """
    fx = forget(x)
    if phi.source == fx:
        y = phi.target
        f0, f1 = _split_cols(phi.f, x.size)
        return GradedMorphism(x, double(y), _stack_diag(f0, f1))
    if phi.target == fx:
        y = phi.source
        f0, f1 = _split_rows(phi.f, x.size)
        return GradedMorphism(double(y), x, _stack_diag(f0, f1))
    raise ValueError("morphism does not involve forget(x)")


def from_graded(psi: GradedMorphism, folded: str = "auto") -> Morphism:
    """Fold the parity components of a graded morphism back to an ungraded one.

    `folded` names the doubled end that collapses to its ungraded Y:
    "target" reads psi: X -> double(Y) and folds the blocks (a,b;c,d)
    to (a+c, b+d): forget(X) -> Y; "source" reads psi: double(Y) -> X
    and folds to the column (a+b; c+d): Y -> forget(X).  "auto" picks
    the unique doubled end and refuses when both ends are doubled.
    The fold intertwines differentials exactly and inverts to_graded.
    """
    src, tgt = psi.source, psi.target
    src_doubled = src.q0 == src.q1
    tgt_doubled = tgt.q0 == tgt.q1
    if folded == "auto":
        if tgt_doubled and not src_doubled:
            folded = "target"
        elif src_doubled and not tgt_doubled:
            folded = "source"
        elif src_doubled and tgt_doubled:
            raise ValueError("ambiguous fold: both ends are doubled; pass folded=")
        else:
            raise ValueError("graded morphism does not involve a doubled factorization")
    g = psi.g
    if folded == "target":
        if not tgt_doubled:
            raise ValueError("target is not a doubled factorization")
        y = UngradedMF(tgt.w, tgt.q0)
        top, bot = _split_rows(g, tgt.size)
        return Morphism(forget(src), y, top + bot)
    if folded == "source":
        if not src_doubled:
            raise ValueError("source is not a doubled factorization")
        y = UngradedMF(src.w, src.q0)
        left, right = _split_cols(g, src.size)
        return Morphism(y, forget(tgt), left + right)
    raise ValueError("folded must be 'source', 'target' or 'auto'")


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
    h = type(qp)(spec, dqp.rows, dqp.cols, [spec.mul(s, v) for v in dqp.entries])
    return FieldHomotopy(qp, h)


class FieldHomotopy:
    """Certifies Q h + h Q == Id for specialized matrices."""

    __slots__ = ("q", "h")

    def __init__(self, q, h):
        spec = q.spec
        lhs = q * h + h * q
        ident = type(q).identity(spec, q.rows)
        if lhs != ident:
            raise ValueError("contraction identity Q h + h Q = Id failed")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "h", h)

    def __setattr__(self, name, value):
        raise AttributeError("FieldHomotopy is immutable")


# -- factorization search ----------------------------------------------------------


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

    The search backtracks row and column together.  Step t = 0..size-1
    assigns the entries (t, j) for j >= t, then (i, t) for i > t, and then
    checks (Q^2)_ij against W (diagonal) or 0 (off-diagonal) for every pair
    with max(i, j) = t.  Entry (a, b) is assigned at step min(a, b), so
    both factors of every product Q_im * Q_mj in (Q^2)_ij with i, j <= t
    are assigned by step t.  Each check is therefore final: a partial
    assignment that fails it extends to no solution, so none is lost, and
    a leaf that passes every check satisfies Q^2 = W*Id.  Every result is
    still re-verified as a RingMatrix.
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
    for e, c in w.terms.items():
        if e not in place:
            w_packed = -1  # no diagonal entry of Q^2 can equal W
            break
        w_packed ^= c << (k * place[e])

    q = [[0] * size for _ in range(size)]  # entry values of the current node

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

    def square_at(i: int, j: int) -> int:
        out = 0
        for m in range(size):
            out ^= product(q[i][m], q[m][j])
        return out

    # Slots list the entries in step order; the last slot of step t
    # carries that step's checks.
    slots: list[tuple[int, int]] = []
    checks: list[list[tuple[int, int, int]]] = []
    for t in range(size):
        step = [(t, j) for j in range(t, size)] + [(i, t) for i in range(t + 1, size)]
        slots += step
        checks += [[] for _ in step]
        checks[-1] = ([(t, j, 0) for j in range(t)] + [(i, t, 0) for i in range(t)]
                      + [(t, t, w_packed)])
    leaves = []
    stack = [iter(range(nvalues))]
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            continue
        slot = len(stack) - 1
        i, j = slots[slot]
        q[i][j] = v
        for a, b, want in checks[slot]:
            if square_at(a, b) != want:
                break
        else:
            if len(stack) < len(slots):
                stack.append(iter(range(nvalues)))
            else:
                leaves.append(tuple(x for row in q for x in row))
    # Row-major value tuples sort like the brute-force assignment tuples.
    leaves.sort()
    wid = RingMatrix.identity(ring, size).scale(w)
    found = []
    for leaf in leaves:
        entries = [RingPoly(ring, {supp[i]: c for i, c in digits(v)}) for v in leaf]
        m = RingMatrix(ring, size, size, entries)
        if m * m != wid:
            raise ValueError("search result failed re-verification: Q^2 != W*Id")
        found.append(m)
    return found
