"""Groebner bases over GF(2^k) and Jacobian quotient rings.

Buchberger's algorithm with the product criterion and full
inter-reduction.  A term order is a sort key on exponent tuples; there
are two.  `quotient_order`, grevlex with later variables compared
larger, orders every quotient ring.  The saturation below compares its
auxiliary variable, the last, before `quotient_order` on the rest, which
eliminates it.  Sizes here are tiny, so clarity wins over pairing
heuristics.

Division runs on the packed keys of ringpoly: a head is a monic
polynomial with the packed key of its leading term; it divides a term
when their key difference has no guard bit set, and the quotient
monomial's key is that difference plus the key of 1.  Term orders and
S-pair lcms unpack keys to exponent tuples.  A QuotientRing derives its
heads once, for all its normal forms.

The Jacobian pipeline turns a (Laurent) potential into an honest
polynomial ideal: partial derivatives are cleared of denominators by
their monomial content, and when Laurent variables are present the
ideal is saturated at the product of those variables with one auxiliary
inverse variable, placed last, and the order eliminating it; one
Buchberger run gives the quotient's basis.  The quotient ring, refused
above MAX_QUOTIENT_DIMENSION, is its staircase: a class is a normal form,
and a minimal polynomial the first relation among classes of powers.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Optional, Sequence

from .gf2k import Immutable
from .ringmat import Echelon, FieldMatrix
from .ringpoly import RingDescriptor, RingPoly, _mul_into, grevlex_key

__all__ = [
    "quotient_order",
    "buchberger",
    "normal_form",
    "laurent_jacobian_ideal",
    "JacobianPresentation",
    "QuotientRing",
    "quotient_ring",
    "minimal_polynomial",
]

# Largest quotient built: a longer staircase is refused while it is listed.
MAX_QUOTIENT_DIMENSION = 1 << 11


# A term order: a sort key on exponent tuples, larger key = larger term.
Order = Callable[[Sequence[int]], tuple]


def quotient_order(exps: Sequence[int]) -> tuple:
    """Grevlex with later variables compared larger, so earlier-listed ones
    survive into staircases: the order of every quotient ring."""
    return grevlex_key(exps[::-1])


def _eliminate_last(exps: Sequence[int]) -> tuple:
    """Block order eliminating the last variable: its exponent decides
    before quotient_order on the others."""
    return exps[-1], quotient_order(exps[:-1])


# A monic polynomial with the packed key of its leading term, computed once.
Head = tuple[int, RingPoly]


def _monic_head(p: RingPoly, order: Order) -> Head:
    """The head (leading key, p / leading coefficient)."""
    lt = max(p.packed, key=lambda key: order(p.ring.unpack(key)))
    if p.packed[lt] != 1:
        p = p.scale(p.ring.field.inv(p.packed[lt]))
    return lt, p


def _reduce(p: RingPoly, heads: Sequence[Head], order: Order) -> RingPoly:
    """Remainder of full multivariate division of p by the polynomials of the heads."""
    ring = p.ring
    one, guard = ring.one_key, ring.guard
    order_key = cache(lambda key: order(ring.unpack(key)))  # once per key, not per step
    rem: dict[int, int] = {}
    work = dict(p.packed)
    while work:
        lt = max(work, key=order_key)
        for head, g in heads:
            if not (lt - head) & guard:
                _mul_into(work, g.packed, {lt - head + one: work[lt]}, ring)  # cancels lt
                break
        else:
            rem[lt] = work.pop(lt)
    return RingPoly._raw(ring, rem)


def normal_form(p: RingPoly, basis: Sequence[RingPoly], order: Order) -> RingPoly:
    """Remainder of full multivariate division of p by the basis."""
    return _reduce(p, [_monic_head(g, order) for g in basis if not g.is_zero()], order)


def _spoly(hf: Head, hg: Head) -> RingPoly:
    (lf, f), (lg, g) = hf, hg
    ring = f.ring
    lcm = ring.pack(list(map(max, ring.unpack(lf), ring.unpack(lg)))) + ring.one_key
    acc = _mul_into({}, f.packed, {lcm - lf: 1}, ring)
    return RingPoly._raw(ring, _mul_into(acc, g.packed, {lcm - lg: 1}, ring))


def buchberger(gens: Sequence[RingPoly], order: Order) -> list[RingPoly]:
    """The reduced Groebner basis of the ideal generated by gens."""
    heads = [_monic_head(g, order) for g in gens if not g.is_zero()]
    if not heads:
        return []
    ring = heads[0][1].ring
    if any(ring.laurent):
        raise ValueError("clear denominators first: Groebner bases need a polynomial ring")
    unpack, guard = ring.unpack, ring.guard
    pairs = [(i, j) for i in range(len(heads)) for j in range(i + 1, len(heads))]

    # normal selection: smallest lcm degree first, then oldest
    def pair_rank(ij):
        return sum(map(max, unpack(heads[ij[0]][0]), unpack(heads[ij[1]][0]))), ij

    while pairs:
        pairs.sort(key=pair_rank)
        i, j = pairs.pop(0)
        if all(a == 0 or b == 0 for a, b in zip(unpack(heads[i][0]), unpack(heads[j][0]))):
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
            k != idx and not (lts[idx] - lts[k]) & guard
            and (lts[k] != lts[idx] or k < idx)
            for k in range(len(heads))
        )
    ]
    final = []
    for idx, h in enumerate(reduced):
        r = _reduce(h[1], reduced[:idx] + reduced[idx + 1:], order)
        if not r.is_zero():
            final.append(_monic_head(r, order))
    final.sort(key=lambda h: order(unpack(h[0])))
    return [h[1] for h in final]


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
    )


def laurent_jacobian_ideal(w: RingPoly) -> JacobianPresentation:
    """Generators of the saturated Jacobian ideal of w in a polynomial ring.

    Partials are cleared of denominators; if any variable is Laurent the
    ideal is saturated at the product of the Laurent variables via one
    auxiliary last variable u (u * prod = 1) and an order eliminating it,
    keeping the u-free part of the basis: by the elimination theorem it is
    already reduced and sorted in quotient_order, like every basis here.
    """
    ring = w.ring
    poly_ring = ring.polynomialized()
    partials = [w.partial(i) for i in range(ring.nvars)]
    cleared = [
        _clear_monomial_content(p, poly_ring) for p in partials if not p.is_zero()
    ]
    if not cleared or not any(ring.laurent):
        return JacobianPresentation(poly_ring, tuple(buchberger(cleared, quotient_order)))
    aux = "u"
    while aux in ring.vars:
        aux += "_"
    ext_ring = RingDescriptor(ring.field, ring.vars + (aux,), (False,) * (ring.nvars + 1))

    def lift(p: RingPoly) -> RingPoly:
        return RingPoly(ext_ring, {e + (0,): c for e, c in p.terms.items()})

    prod_exps = tuple(1 if f else 0 for f in ring.laurent) + (1,)
    sat = RingPoly(ext_ring, {prod_exps: 1, (0,) * (ring.nvars + 1): 1})
    gb = buchberger([lift(p) for p in cleared] + [sat], _eliminate_last)
    kept = tuple(
        RingPoly(poly_ring, {e[:-1]: c for e, c in g.terms.items()})
        for g in gb
        if all(e[-1] == 0 for e in g.terms)
    )
    return JacobianPresentation(poly_ring, kept)


# -- quotient rings ---------------------------------------------------------------


def _staircase(ring: RingDescriptor, heads: Sequence[Head]) -> Optional[tuple]:
    """The standard monomials of a finite quotient in term order; None when infinite."""
    pack, guard = ring.pack, ring.guard
    supports = [[i for i, e in enumerate(ring.unpack(lt)) if e] for lt, _ in heads]
    # finite: the unit ideal, or a pure power of every variable leads some generator
    if [] not in supports and any([i] not in supports for i in range(ring.nvars)):
        return None
    found: set[tuple[int, ...]] = set()
    frontier = [(0,) * ring.nvars]
    while frontier:
        exps = frontier.pop()
        if exps in found or any(not (pack(exps) - lt) & guard for lt, _ in heads):
            continue
        found.add(exps)
        if len(found) > MAX_QUOTIENT_DIMENSION:
            raise ValueError(f"quotient dimension above the limit of {MAX_QUOTIENT_DIMENSION}")
        for i in range(ring.nvars):
            frontier.append(exps[:i] + (exps[i] + 1,) + exps[i + 1:])
    return tuple(sorted(found, key=quotient_order))


class QuotientRing(Immutable):
    """K[x_1..x_n]/I for a Groebner basis of I in quotient_order, with its
    monomial staircase basis (None when infinite) and the basis's monic
    leading terms, derived once for every normal form."""

    __slots__ = ("ring", "basis", "heads", "staircase")

    def __init__(self, ring: RingDescriptor, basis: Sequence[RingPoly]):
        basis = tuple(basis)
        heads = tuple(_monic_head(g, quotient_order) for g in basis if not g.is_zero())
        super().__init__(ring, basis, heads, _staircase(ring, heads))

    @property
    def dimension(self) -> Optional[int]:
        """Vector-space dimension over the field, None when infinite."""
        return None if self.staircase is None else len(self.staircase)

    def _keys(self) -> list[int]:
        if self.staircase is None:
            raise ValueError("quotient is infinite dimensional")
        return [self.ring.pack(e) for e in self.staircase]

    def class_vector(self, p: RingPoly) -> list[int]:
        if p.ring is not self.ring and p.ring != self.ring:
            raise ValueError("ring mismatch")
        nf = _reduce(p, self.heads, quotient_order).packed
        return [nf.get(key, 0) for key in self._keys()]

    def minimal_polynomial(self) -> RingPoly:
        """Monic minimal polynomial of multiplication by the first variable x: the
        first relation among the classes of 1, x, x^2, ... (FGLM's univariate step)."""
        ring, ech = self.ring, Echelon(self.ring.field, self.dimension)
        slot = {key: ech.k * i for i, key in enumerate(self._keys())}
        x = RingPoly.variable(ring, ring.vars[0])
        power = _reduce(RingPoly.one(ring), self.heads, quotient_order)
        while not (rels := ech.insert_all((sum(c << slot[key] for key, c in power.packed.items()),))):
            power = _reduce(power * x, self.heads, quotient_order)
        uni = RingDescriptor(ring.field, ring.vars[:1], (False,))
        return RingPoly(uni, {(d,): c for d, c in enumerate(ech.unpack(rels[0], ech.count)) if c})

    @property
    def mult_matrices(self) -> tuple[FieldMatrix, ...]:
        """Each variable's action (column j: x_v times staircase monomial j), for tests only."""
        ring, n = self.ring, self.dimension
        cols = [[self.class_vector(RingPoly.variable(ring, x) * RingPoly.monomial(ring, e))
                 for e in self.staircase] for x in ring.vars]
        return tuple(FieldMatrix(ring.field, n, n, [c[i] for i in range(n) for c in xc])
                     for xc in cols)


def quotient_ring(pres: JacobianPresentation) -> QuotientRing:
    return QuotientRing(pres.ring, pres.generators)


def minimal_polynomial(m: FieldMatrix, var: str = "x") -> RingPoly:
    """Monic minimal polynomial of a square matrix, as a univariate polynomial.
    No program path calls it (a quotient computes its own); it stays for the
    acceptance test and as the reference for QuotientRing.minimal_polynomial."""
    if m.rows != m.cols:
        raise ValueError("minimal polynomial needs a square matrix")
    spec = m.spec
    uni = RingDescriptor(spec, (var,), (False,))
    n = m.rows
    if n == 0:
        return RingPoly.one(uni)
    # vectorized powers, column after column, enter the echelon until one
    # depends on the ones before; a power is kept as its n columns
    ech = Echelon(spec, n * n)
    stride = spec.k * n
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    degree = 0
    while True:
        relations = ech.insert_all((sum(ech.pack(c) << (stride * j) for j, c in enumerate(cols)),))
        if relations:
            coeffs = ech.unpack(relations[0], degree + 1)
            return RingPoly(uni, {(d,): c for d, c in enumerate(coeffs) if c})
        cols = [m.apply(c) for c in cols]
        degree += 1
