"""Groebner bases over GF(2^k) and Jacobian quotient rings.

Buchberger's algorithm with the product criterion and full
inter-reduction; term orders are lex, grevlex, or an elimination order
(block-lex between blocks, grevlex inside each block).  Sizes here are
tiny, so clarity wins over pairing heuristics.

The Jacobian pipeline turns a (Laurent) potential into an honest
polynomial ideal: partial derivatives are cleared of denominators by
their monomial content, and when Laurent variables are present the
ideal is saturated at the product of those variables with one auxiliary
inverse variable and an elimination order.  The resulting quotient ring
carries multiplication matrices, so classes of genuine Laurent
monomials (negative exponents included) are computed by inverting the
variable action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .ringmat import Echelon, FieldMatrix, solve
from .ringpoly import RingDescriptor, RingPoly

__all__ = [
    "TermOrder",
    "buchberger",
    "normal_form",
    "laurent_jacobian_ideal",
    "JacobianPresentation",
    "QuotientRing",
    "quotient_ring",
    "minimal_polynomial",
]


@dataclass(frozen=True)
class TermOrder:
    """kind 'lex' or 'grevlex'; block > 0 makes the first `block` priority
    variables an elimination block compared before the rest."""

    kind: str
    priority: tuple[int, ...]
    block: int = 0

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex"):
            raise ValueError("term order kind must be 'lex' or 'grevlex'")
        if sorted(self.priority) != list(range(len(self.priority))):
            raise ValueError("priority must be a permutation of the variable indices")
        if not 0 <= self.block <= len(self.priority):
            raise ValueError("invalid block split")

    def _block_key(self, arranged: tuple[int, ...]):
        if self.kind == "lex":
            return arranged
        return (sum(arranged), tuple(-e for e in reversed(arranged)))

    def key(self, exps: Sequence[int]):
        arranged = tuple(exps[p] for p in self.priority)
        if self.block:
            return (
                self._block_key(arranged[:self.block]),
                self._block_key(arranged[self.block:]),
            )
        return self._block_key(arranged)

    @classmethod
    def grevlex(cls, nvars: int) -> "TermOrder":
        return cls("grevlex", tuple(range(nvars)))

    @classmethod
    def lex(cls, nvars: int) -> "TermOrder":
        return cls("lex", tuple(range(nvars)))

    @classmethod
    def eliminate_first(cls, nvars: int, block: int) -> "TermOrder":
        return cls("grevlex", tuple(range(nvars)), block)


def _leading(p: RingPoly, order: TermOrder) -> tuple[tuple[int, ...], int]:
    lt = max(p.terms, key=order.key)
    return lt, p.terms[lt]


def _divides(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monic(p: RingPoly, order: TermOrder) -> RingPoly:
    _, lc = _leading(p, order)
    if lc == 1:
        return p
    return p.scale(p.ring.field.inv(lc))


def normal_form(p: RingPoly, basis: Sequence[RingPoly], order: TermOrder) -> RingPoly:
    """Remainder of full multivariate division of p by the basis."""
    ring = p.ring
    field = ring.field
    rem: dict[tuple[int, ...], int] = {}
    work = dict(p.terms)
    heads = [(_leading(g, order)[0], _leading(g, order)[1], g) for g in basis if not g.is_zero()]
    while work:
        lt = max(work, key=order.key)
        lc = work.pop(lt)
        for hexp, hc, g in heads:
            if _divides(hexp, lt):
                shift = tuple(a - b for a, b in zip(lt, hexp))
                c = field.mul(lc, field.inv(hc))
                for e2, c2 in g.terms.items():
                    e = tuple(x + y for x, y in zip(shift, e2))
                    if e == lt:
                        continue  # cancels the leading term by construction
                    prev = work.get(e, 0) ^ field.mul(c, c2)
                    if prev:
                        work[e] = prev
                    else:
                        work.pop(e, None)
                break
        else:
            rem[lt] = lc
    return RingPoly(ring, rem)


def _spoly(f: RingPoly, g: RingPoly, order: TermOrder) -> RingPoly:
    lf, cf = _leading(f, order)
    lg, cg = _leading(g, order)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    field = f.ring.field
    mf = RingPoly.monomial(f.ring, tuple(a - b for a, b in zip(lcm, lf)), field.inv(cf))
    mg = RingPoly.monomial(g.ring, tuple(a - b for a, b in zip(lcm, lg)), field.inv(cg))
    return mf * f + mg * g


def buchberger(gens: Sequence[RingPoly], order: TermOrder) -> list[RingPoly]:
    """The reduced Groebner basis of the ideal generated by gens."""
    basis = [_monic(g, order) for g in gens if not g.is_zero()]
    if not basis:
        return []
    ring = basis[0].ring
    if any(ring.laurent):
        raise ValueError("clear denominators first: Groebner bases need a polynomial ring")
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        # normal selection: smallest lcm degree first, then oldest
        def pair_rank(ij):
            lf, _ = _leading(basis[ij[0]], order)
            lg, _ = _leading(basis[ij[1]], order)
            return (sum(max(a, b) for a, b in zip(lf, lg)), ij)
        pairs.sort(key=pair_rank)
        i, j = pairs.pop(0)
        lf, _ = _leading(basis[i], order)
        lg, _ = _leading(basis[j], order)
        if all(a == 0 or b == 0 for a, b in zip(lf, lg)):
            continue  # product criterion: coprime leading terms reduce to zero
        s = normal_form(_spoly(basis[i], basis[j], order), basis, order)
        if s.is_zero():
            continue
        s = _monic(s, order)
        basis.append(s)
        pairs.extend((t, len(basis) - 1) for t in range(len(basis) - 1))
    # inter-reduce to the unique reduced basis
    reduced: list[RingPoly] = []
    lts = [_leading(g, order)[0] for g in basis]
    for idx, g in enumerate(basis):
        if any(
            k != idx and _divides(lts[k], lts[idx])
            and (lts[k] != lts[idx] or k < idx)
            for k in range(len(basis))
        ):
            continue
        reduced.append(g)
    final = []
    for idx, g in enumerate(reduced):
        others = reduced[:idx] + reduced[idx + 1:]
        r = normal_form(g, others, order)
        if not r.is_zero():
            final.append(_monic(r, order))
    final.sort(key=lambda g: order.key(_leading(g, order)[0]))
    return final


# -- Jacobian ideals of (Laurent) potentials -------------------------------------


def _clear_monomial_content(p: RingPoly, target: RingDescriptor) -> RingPoly:
    """Shift a Laurent polynomial by its monomial content into a polynomial ring."""
    n = p.ring.nvars
    lows = [min(e[i] for e in p.terms) for i in range(n)]
    shift = tuple(-min(low, 0) for low in lows)
    return RingPoly(target, {tuple(e + s for e, s in zip(exps, shift)): c
                             for exps, c in p.terms.items()})


@dataclass(frozen=True)
class JacobianPresentation:
    """A polynomial presentation of the Jacobian quotient of a Laurent potential."""

    ring: RingDescriptor          # polynomial ring on the original variables
    generators: tuple[RingPoly, ...]
    laurent: tuple[bool, ...]     # which original variables are invertible
    order: TermOrder


def laurent_jacobian_ideal(w: RingPoly) -> JacobianPresentation:
    """Generators of the saturated Jacobian ideal of w in a polynomial ring.

    Partials are cleared of denominators; if any variable is Laurent the
    ideal is saturated at the product of the Laurent variables via one
    auxiliary variable u (u * prod = 1) and an elimination order, keeping
    the u-free part of the basis.
    """
    ring = w.ring
    poly_ring = ring.polynomialized()
    partials = [w.partial(i) for i in range(ring.nvars)]
    cleared = [
        _clear_monomial_content(p, poly_ring) for p in partials if not p.is_zero()
    ]
    # later variables compare larger, so earlier-listed ones survive into staircases
    order = TermOrder("grevlex", tuple(reversed(range(ring.nvars))))
    if not cleared or not any(ring.laurent):
        gens = buchberger(cleared, order) if cleared else []
        return JacobianPresentation(poly_ring, tuple(gens), ring.laurent, order)
    aux = "u"
    while aux in ring.vars:
        aux += "_"
    ext_ring = RingDescriptor(ring.field, (aux,) + ring.vars, (False,) * (ring.nvars + 1))

    def lift(p: RingPoly) -> RingPoly:
        return RingPoly(ext_ring, {(0,) + e: c for e, c in p.terms.items()})

    prod_exps = (1,) + tuple(1 if f else 0 for f in ring.laurent)
    sat = RingPoly(ext_ring, {prod_exps: 1, (0,) * (ring.nvars + 1): 1})
    ext_order = TermOrder.eliminate_first(ring.nvars + 1, 1)
    gb = buchberger([lift(p) for p in cleared] + [sat], ext_order)
    kept = [
        RingPoly(poly_ring, {e[1:]: c for e, c in g.terms.items()})
        for g in gb
        if all(e[0] == 0 for e in g.terms)
    ]
    gens = buchberger(kept, order)
    return JacobianPresentation(poly_ring, tuple(gens), ring.laurent, order)


# -- quotient rings ---------------------------------------------------------------


class QuotientRing:
    """K[x_1..x_n]/I for a Groebner basis of I; finite quotients carry a
    monomial staircase basis and multiplication matrices."""

    def __init__(self, ring: RingDescriptor, basis: Sequence[RingPoly], order: TermOrder,
                 invertible: Optional[Sequence[bool]] = None):
        self.ring = ring
        self.basis = list(basis)
        self.order = order
        self.invertible = tuple(invertible) if invertible is not None else (False,) * ring.nvars
        self._lts = [_leading(g, order)[0] for g in self.basis]
        self.staircase: Optional[tuple[tuple[int, ...], ...]] = None
        self.mult_matrices: Optional[list[FieldMatrix]] = None
        if self._is_finite():
            self._build_staircase()

    def _is_standard(self, exps: tuple[int, ...]) -> bool:
        return not any(_divides(lt, exps) for lt in self._lts)

    def _is_finite(self) -> bool:
        if any(all(e == 0 for e in lt) for lt in self._lts):
            return True  # unit ideal
        for i in range(self.ring.nvars):
            if not any(
                lt[i] > 0 and all(e == 0 for j, e in enumerate(lt) if j != i)
                for lt in self._lts
            ):
                return False
        return True

    def _build_staircase(self) -> None:
        n = self.ring.nvars
        found: set[tuple[int, ...]] = set()
        frontier = [(0,) * n]
        while frontier:
            exps = frontier.pop()
            if exps in found or not self._is_standard(exps):
                continue
            found.add(exps)
            for i in range(n):
                frontier.append(exps[:i] + (exps[i] + 1,) + exps[i + 1:])
        stair = tuple(sorted(found, key=self.order.key))
        self.staircase = stair
        index = {e: i for i, e in enumerate(stair)}
        spec = self.ring.field
        mats = []
        for v in range(n):
            cols = []
            for e in stair:
                shifted = e[:v] + (e[v] + 1,) + e[v + 1:]
                nf = normal_form(RingPoly.monomial(self.ring, shifted), self.basis, self.order)
                col = [0] * len(stair)
                for ee, c in nf.terms.items():
                    col[index[ee]] = c
                cols.append(col)
            entries = [cols[j][i] for i in range(len(stair)) for j in range(len(stair))]
            mats.append(FieldMatrix(spec, len(stair), len(stair), entries))
        self.mult_matrices = mats

    @property
    def dimension(self) -> Optional[int]:
        """Vector-space dimension over the field, None when infinite."""
        return None if self.staircase is None else len(self.staircase)

    def class_vector(self, p: RingPoly) -> list[int]:
        if self.staircase is None:
            raise ValueError("quotient is infinite dimensional")
        nf = normal_form(p, self.basis, self.order)
        index = {e: i for i, e in enumerate(self.staircase)}
        vec = [0] * len(self.staircase)
        for e, c in nf.terms.items():
            vec[index[e]] = c
        return vec

    def laurent_monomial_class(self, exps: Sequence[int]) -> list[int]:
        """Class of x^exps, negative exponents resolved through the
        multiplication matrices (requires the variable to be invertible)."""
        if self.staircase is None:
            raise ValueError("quotient is infinite dimensional")
        if self.dimension == 0:
            return []
        vec = self.class_vector(RingPoly.one(self.ring))
        for v, e in enumerate(exps):
            if e == 0:
                continue
            m = self.mult_matrices[v]
            if e > 0:
                for _ in range(e):
                    vec = m.apply(vec)
            else:
                if not self.invertible[v]:
                    raise ValueError(
                        f"variable '{self.ring.vars[v]}' is not invertible in the quotient"
                    )
                for _ in range(-e):
                    sol = solve(m, vec)
                    if sol is None:
                        raise ValueError(
                            f"variable '{self.ring.vars[v]}' is not invertible in the quotient"
                        )
                    vec = sol
        return vec


def quotient_ring(pres: JacobianPresentation) -> QuotientRing:
    return QuotientRing(pres.ring, pres.generators, pres.order, pres.laurent)


def minimal_polynomial(m: FieldMatrix, var: str = "x") -> RingPoly:
    """Monic minimal polynomial of a square matrix, as a univariate polynomial."""
    if m.rows != m.cols:
        raise ValueError("minimal polynomial needs a square matrix")
    spec = m.spec
    uni = RingDescriptor(spec, (var,), (False,))
    n = m.rows
    if n == 0:
        return RingPoly.one(uni)
    # vectorized powers enter the echelon until one depends on the ones before
    ech = Echelon(spec, track=True)
    power = FieldMatrix.identity(spec, n)
    degree = 0
    while True:
        pivot, comb = ech.insert(ech.pack(power.entries))
        if pivot is None:
            coeffs = ech.unpack(comb, degree + 1)
            return RingPoly(uni, {(d,): c for d, c in enumerate(coeffs) if c})
        power = power * m
        degree += 1
