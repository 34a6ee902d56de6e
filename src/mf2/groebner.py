"""Groebner bases over GF(2^k) and Jacobian quotient rings.

Buchberger's algorithm with the product criterion and full
inter-reduction; term orders are grevlex, or an elimination order
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

from typing import Optional, Sequence

from .gf2k import Immutable
from .ringmat import Echelon, FieldMatrix, solve
from .ringpoly import RingDescriptor, RingPoly, _mul_into, _packed_order, grevlex_key

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


class TermOrder(Immutable):
    """Grevlex on the variables ranked by priority; block > 0 makes the
    first `block` priority variables an elimination block, compared by
    grevlex before the rest."""

    __slots__ = ("priority", "block")

    def __init__(self, priority: tuple[int, ...], block: int = 0):
        super().__init__(priority, block)
        if sorted(self.priority) != list(range(len(self.priority))):
            raise ValueError("priority must be a permutation of the variable indices")
        if not 0 <= self.block <= len(self.priority):
            raise ValueError("invalid block split")

    def key(self, exps: Sequence[int]):
        arranged = tuple(exps[p] for p in self.priority)
        if self.block:
            return grevlex_key(arranged[:self.block]), grevlex_key(arranged[self.block:])
        return grevlex_key(arranged)

    @classmethod
    def grevlex(cls, nvars: int) -> "TermOrder":
        return cls(tuple(range(nvars)))

    @classmethod
    def eliminate_first(cls, nvars: int, block: int) -> "TermOrder":
        return cls(tuple(range(nvars)), block)


def _leading(p: RingPoly, order: TermOrder) -> tuple[tuple[int, ...], int]:
    terms = p.terms
    lt = max(terms, key=order.key)
    return lt, terms[lt]


def _divides(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


# A polynomial with its leading exponents and coefficient, computed once.
Head = tuple[tuple[int, ...], int, RingPoly]


def _monic_head(p: RingPoly, order: TermOrder) -> Head:
    """The head (leading exponents, 1, p / leading coefficient)."""
    lt, lc = _leading(p, order)
    if lc != 1:
        p = p.scale(p.ring.field.inv(lc))
    return lt, 1, p


def _reduce(p: RingPoly, heads: Sequence[Head], order: TermOrder) -> RingPoly:
    """Remainder of full multivariate division of p by the polynomials of the heads."""
    ring = p.ring
    field, unpack = ring.field, ring.unpack
    key = _packed_order(ring, order.key)
    rem: dict[int, int] = {}
    work = dict(p.packed)
    while work:
        lt = max(work, key=key)
        exps = unpack(lt)
        for hexp, hc, g in heads:
            if _divides(hexp, exps):
                shift = ring.pack([a - b for a, b in zip(exps, hexp)])
                c = field.mul(work[lt], field.inv(hc))
                _mul_into(work, g.packed, {shift: c}, ring)  # cancels lt
                break
        else:
            rem[lt] = work.pop(lt)
    return RingPoly._raw(ring, rem)


def normal_form(p: RingPoly, basis: Sequence[RingPoly], order: TermOrder) -> RingPoly:
    """Remainder of full multivariate division of p by the basis."""
    return _reduce(p, [(*_leading(g, order), g) for g in basis if not g.is_zero()], order)


def _spoly(hf: Head, hg: Head) -> RingPoly:
    (lf, cf, f), (lg, cg, g) = hf, hg
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    field = f.ring.field
    mf = RingPoly.monomial(f.ring, tuple(a - b for a, b in zip(lcm, lf)), field.inv(cf))
    mg = RingPoly.monomial(g.ring, tuple(a - b for a, b in zip(lcm, lg)), field.inv(cg))
    return mf * f + mg * g


def buchberger(gens: Sequence[RingPoly], order: TermOrder) -> list[RingPoly]:
    """The reduced Groebner basis of the ideal generated by gens."""
    heads = [_monic_head(g, order) for g in gens if not g.is_zero()]
    if not heads:
        return []
    if any(heads[0][2].ring.laurent):
        raise ValueError("clear denominators first: Groebner bases need a polynomial ring")
    pairs = [(i, j) for i in range(len(heads)) for j in range(i + 1, len(heads))]

    # normal selection: smallest lcm degree first, then oldest
    def pair_rank(ij):
        return (sum(max(a, b) for a, b in zip(heads[ij[0]][0], heads[ij[1]][0])), ij)

    while pairs:
        pairs.sort(key=pair_rank)
        i, j = pairs.pop(0)
        if all(a == 0 or b == 0 for a, b in zip(heads[i][0], heads[j][0])):
            continue  # product criterion: coprime leading terms reduce to zero
        s = _reduce(_spoly(heads[i], heads[j]), heads, order)
        if s.is_zero():
            continue
        heads.append(_monic_head(s, order))
        pairs.extend((t, len(heads) - 1) for t in range(len(heads) - 1))
    # inter-reduce to the unique reduced basis
    lts = [h[0] for h in heads]
    reduced = [
        h for idx, h in enumerate(heads)
        if not any(
            k != idx and _divides(lts[k], lts[idx])
            and (lts[k] != lts[idx] or k < idx)
            for k in range(len(heads))
        )
    ]
    final = []
    for idx, h in enumerate(reduced):
        r = _reduce(h[2], reduced[:idx] + reduced[idx + 1:], order)
        if not r.is_zero():
            final.append(_monic_head(r, order))
    final.sort(key=lambda h: order.key(h[0]))
    return [h[2] for h in final]


# -- Jacobian ideals of (Laurent) potentials -------------------------------------


def _clear_monomial_content(p: RingPoly, target: RingDescriptor) -> RingPoly:
    """Shift a Laurent polynomial by its monomial content into a polynomial ring."""
    shift = tuple(-min(lo, 0) for lo, _ in p.support_bounds())
    return RingPoly(target, {tuple(e + s for e, s in zip(exps, shift)): c
                             for exps, c in p.terms.items()})


class JacobianPresentation(Immutable):
    """A polynomial presentation of the Jacobian quotient of a Laurent potential."""

    __slots__ = (
        "ring",        # polynomial ring on the original variables
        "generators",  # tuple of RingPoly
        "laurent",     # which original variables are invertible
        "order",       # TermOrder
    )


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
    order = TermOrder(tuple(reversed(range(ring.nvars))))
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


def _staircase_and_action(ring: RingDescriptor, basis: Sequence[RingPoly], order: TermOrder):
    """The standard monomials of a finite quotient in term order and the
    matrix of each variable's action on them; (None, None) when infinite."""
    lts = [_leading(g, order)[0] for g in basis]
    supports = [[i for i, e in enumerate(lt) if e] for lt in lts]
    # finite: the unit ideal, or a pure power of every variable leads some generator
    if [] not in supports and any([i] not in supports for i in range(ring.nvars)):
        return None, None
    found: set[tuple[int, ...]] = set()
    frontier = [(0,) * ring.nvars]
    while frontier:
        exps = frontier.pop()
        if exps in found or any(_divides(lt, exps) for lt in lts):
            continue
        found.add(exps)
        for i in range(ring.nvars):
            frontier.append(exps[:i] + (exps[i] + 1,) + exps[i + 1:])
    stair = tuple(sorted(found, key=order.key))
    index = {e: i for i, e in enumerate(stair)}
    mats = []
    for v in range(ring.nvars):
        cols = []
        for e in stair:
            shifted = e[:v] + (e[v] + 1,) + e[v + 1:]
            nf = normal_form(RingPoly.monomial(ring, shifted), basis, order)
            col = [0] * len(stair)
            for ee, c in nf.terms.items():
                col[index[ee]] = c
            cols.append(col)
        entries = [cols[j][i] for i in range(len(stair)) for j in range(len(stair))]
        mats.append(FieldMatrix(ring.field, len(stair), len(stair), entries))
    return stair, tuple(mats)


class QuotientRing(Immutable):
    """K[x_1..x_n]/I for a Groebner basis of I; finite quotients carry a
    monomial staircase basis and multiplication matrices (both None when
    the quotient is infinite dimensional)."""

    __slots__ = ("ring", "basis", "order", "invertible", "staircase", "mult_matrices")

    def __init__(self, ring: RingDescriptor, basis: Sequence[RingPoly], order: TermOrder,
                 invertible: Optional[Sequence[bool]] = None):
        basis = tuple(basis)
        super().__init__(
            ring, basis, order,
            tuple(invertible) if invertible is not None else (False,) * ring.nvars,
            *_staircase_and_action(ring, basis, order),
        )

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
